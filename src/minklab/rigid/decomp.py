"""Finite-difference kinematics of velocity fields: projected metric,
expansion/shear and vorticity split, rigidity and Killing tests, and the
Lie transport of the acceleration one-form.

All derivatives are second-order central differences with a configurable
step, so identities checked here carry O(step^2) error.  The split (u,
theta, omega, accel-flat) at rows comes from one evaluation of the field on
the rows and their stencils (_split_rows); every second-order quantity (the
curl of accel-flat, L_u omega, L_u accel-flat) comes from one nested jet of
that split (_split_jet), one evaluation of the field on (2n + 1)^2 rows per
row.  The verdicts use FIRST_DERIV_TOL (1e-5) for first-derivative and
SECOND_DERIV_TOL (1e-4) for nested second-derivative residuals, both sized
for steps near 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import PreconditionError, _inner_rows, metric_matrix, norm_g
from .fields import VelocityField, _jet

__all__ = [
    "DEFAULT_STEP",
    "FIRST_DERIV_TOL",
    "SECOND_DERIV_TOL",
    "KinematicDecomposition",
    "spatial_metric",
    "kinematic_decomposition",
    "reparameterization_invariance_check",
    "killing_test",
    "lie_accel",
]

DEFAULT_STEP = 1e-3
FIRST_DERIV_TOL = 1e-5
SECOND_DERIV_TOL = 1e-4


def spatial_metric(u: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Projected rest-space metric h = c^-2 u-flat (x) u-flat - g at rows
    of velocities u (..., n).

    Annihilates u and is positive semidefinite of rank n-1.
    """
    u = np.asarray(u, dtype=float)
    G = metric_matrix(u.shape[-1])
    if not np.all(abs(_inner_rows(u, u) - c * c) <= 1e-8 * c * c):  # NaN included
        raise PreconditionError("u must be normalised to u.u = c^2")
    ul = (G @ u[..., None])[..., 0]
    return ul[..., :, None] * ul[..., None, :] / (c * c) - G


@dataclass(frozen=True, eq=False)
class KinematicDecomposition:
    """Split of the lowered velocity gradient at an event.

    grad = theta + omega + c^-2 u-flat (x) accel-flat, with theta symmetric
    horizontal, omega antisymmetric horizontal, accel = gradient along u.
    """

    theta: np.ndarray
    omega: np.ndarray
    accel: np.ndarray

    @property
    def theta_norm(self) -> float:
        return float(np.abs(self.theta).max())

    @property
    def omega_norm(self) -> float:
        return float(np.abs(self.omega).max())

    @property
    def accel_norm_g(self) -> float:
        return norm_g(self.accel)


def _split_rows(field: VelocityField, x: np.ndarray, step: float):
    """(u, theta, omega, accel_flat) at rows x (..., n), from one
    evaluation of the field on the rows and their stencils (see _split)."""
    return _split(*_jet(field, x, step), field.c)


def _split(u: np.ndarray, du: np.ndarray, c: float):
    """(u, theta, omega, accel_flat) from velocities u (..., n) and their
    derivatives du[..., a, b] = d_a u^b: the lowered gradient
    D[..., a, b] = d_a u_b split as in KinematicDecomposition, with
    accel_flat = u^a d_a u_b.

    The 4x4 algebra runs as stacked matmuls, which give each row's
    one-event products bit for bit (the rigid reference tests compare
    them).
    """
    n = u.shape[-1]
    G = metric_matrix(n)
    D = du @ G
    accel_flat = (u[..., None, :] @ D)[..., 0, :]
    ul = (G @ u[..., None])[..., 0]
    P = np.eye(n) - u[..., :, None] * ul[..., None, :] / (c * c)  # mixed projector, vector slot
    Pt = np.swapaxes(P, -1, -2)
    Dt = np.swapaxes(D, -1, -2)
    theta = Pt @ (0.5 * (D + Dt)) @ P
    omega = Pt @ (0.5 * (D - Dt)) @ P
    return u, theta, omega, accel_flat


def _split_jet(field: VelocityField, x, step: float):
    """((u, theta, omega, accel_flat), their derivatives) at rows x (..., n):
    the split of _split_rows and its central differences d_a, the
    derivative axis a after the row axes, from one evaluation of the field
    on the (2n + 1)^2 rows of each row's nested stencil."""
    return _jet(lambda y: _split_rows(field, y, step), x, step)


def _lie_rows(u, du, T, dT) -> np.ndarray:
    """L_u T at rows, for a one-form T (..., n) or a 2-tensor T (..., n, n),
    from u, T and their derivatives du[..., a, c] = d_a u^c and
    dT[..., a, ...] = d_a T:

        (L_u T)_b  = u^c d_c T_b + T_c d_b u^c,
        (L_u T)_ab = u^c d_c T_ab + T_cb d_a u^c + T_ac d_b u^c.

    The one-form's vecdot is the 1-D @ of the one-event formula row by row,
    which keeps its bits.
    """
    if T.ndim == u.ndim:
        return np.vecdot(u[..., :, None], dT, axis=-2) + np.vecdot(T[..., None, :], du, axis=-1)
    out = np.einsum("...c,...cab->...ab", u, dT)
    out += np.einsum("...cb,...ac->...ab", T, du)
    out += np.einsum("...ac,...bc->...ab", T, du)
    return out


def _probe_rows(probes) -> np.ndarray:
    """The probe events of a verdict as rows (k, n), k >= 1.

    The verdicts evaluate every probe in one stacked call per derivative
    order and fold the rows with one max (or min), which keeps a NaN.
    """
    try:
        x = np.asarray(probes, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise PreconditionError(f"probes must be a list of events: {exc}") from None
    if x.ndim != 2 or 0 in x.shape:
        raise PreconditionError(f"probes must be a non-empty list of events, got shape {x.shape}")
    return x


def kinematic_decomposition(field: VelocityField, event, step: float = DEFAULT_STEP) -> KinematicDecomposition:
    """Expansion/shear, vorticity and acceleration of the field at an event.

    The field is evaluated once, on the event and its 2n stencil rows.
    """
    u, theta, omega, accel_flat = _split_rows(field, np.asarray(event, dtype=float), step)
    return KinematicDecomposition(theta=theta, omega=omega,
                                  accel=metric_matrix(u.size) @ accel_flat)


def _rigidity(theta: np.ndarray) -> dict:
    """The rigidity verdict of theta at rows; a NaN theta is not rigid."""
    worst = float(np.abs(theta).max())
    return {"rigid": worst < FIRST_DERIV_TOL, "max_theta": worst}


def reparameterization_invariance_check(field: VelocityField, scaling, probes,
                                        step: float = DEFAULT_STEP) -> dict:
    """Rigidity verdict before and after rescaling the generator.

    Rescaling by a nowhere-zero function of rows (`scaling` takes rows of
    events and returns one finite, nonzero factor, or one per row) leaves
    the flow lines, and hence the verdict, unchanged; the comparison is at
    verdict level.  Each verdict is rigid iff theta vanishes at all probes
    (a NaN theta is not rigid).  The field is evaluated once, on the probes
    and their stencils, and the rescaled generator at the same rows is
    renormalised along its own direction before its split.
    """
    c = field.c

    def both(x):
        u = field(x)
        s = np.asarray(scaling(x), dtype=float)
        if s.shape not in ((), x.shape[:-1]):
            raise PreconditionError(
                f"scaling returned shape {s.shape} for events of shape {x.shape}")
        if not np.all(np.isfinite(s) & (s != 0.0)):
            raise PreconditionError("scaling must be finite and nowhere zero")
        K = s[..., None] * u
        return u, K * (c / np.sqrt(_inner_rows(K, K)))[..., None]

    (u, v), (du, dv) = _jet(both, _probe_rows(probes), step)
    base = _rigidity(_split(u, du, c)[1])
    scaled = _rigidity(_split(v, dv, c)[1])
    return {
        "verdict_unchanged": base["rigid"] == scaled["rigid"],
        "base": base,
        "scaled_max_theta": scaled["max_theta"],
    }


def killing_test(field: VelocityField, probes, step: float = DEFAULT_STEP) -> dict:
    """A rigid flow is an isometry flow iff its acceleration one-form is
    closed (exact on the simply connected domains used here).

    theta and the exterior derivative (d a-flat)_ab = d_a a_b - d_b a_a
    come from one nested jet of the split over all probes.  Besides the
    verdict, "velocity" holds the field at the probes, one row each: the
    centre rows of that jet.
    """
    (u, theta, _, _), (_, _, _, da) = _split_jet(field, _probe_rows(probes), step)
    rigid = _rigidity(theta)
    worst = float(np.abs(da - np.swapaxes(da, -1, -2)).max())
    return {"is_killing": bool(rigid["rigid"] and worst < SECOND_DERIV_TOL), **rigid,
            "closedness_residual": worst, "velocity": u}


def lie_accel(field: VelocityField, event, step: float = DEFAULT_STEP) -> np.ndarray:
    """L_u a-flat at rows of events (..., n), by nested central differences:
    the finite-difference counterpart of worldline._lie_accel_at.

    One evaluation of the field covers the (2n + 1)^2 rows of every
    event's nested stencil.
    """
    (u, _, _, a), (du, _, _, da) = _split_jet(field, event, step)
    return _lie_rows(u, du, a, da)
