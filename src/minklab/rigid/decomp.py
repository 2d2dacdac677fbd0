"""Finite-difference kinematics of velocity fields: projected metric,
expansion/shear and vorticity split, rigidity and Killing tests.

All derivatives are second-order central differences with a configurable
step, so identities checked here carry O(step^2) error.  The verdicts use
FIRST_DERIV_TOL (1e-5) for first-derivative and SECOND_DERIV_TOL (1e-4) for
nested second-derivative residuals, both sized for steps near 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import PreconditionError, _inner_rows, metric_matrix, norm_g
from .fields import VelocityField, _central, _jet, rescaled_field

__all__ = [
    "DEFAULT_STEP",
    "FIRST_DERIV_TOL",
    "SECOND_DERIV_TOL",
    "KinematicDecomposition",
    "spatial_metric",
    "kinematic_decomposition",
    "is_rigid",
    "reparameterization_invariance_check",
    "lie_derivative_oneform",
    "lie_derivative_2tensor",
    "accel_oneform",
    "accel_curl",
    "killing_test",
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


@dataclass(frozen=True)
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


def _gradient_rows(field: VelocityField, x: np.ndarray, step: float):
    """(u, D, accel_flat) at rows x (..., n): the lowered gradient
    D[..., a, b] = d_a u_b and u^a d_a u_b, from one evaluation of the
    field on the rows and their stencils.

    The 4x4 algebra here and in _split_rows runs as stacked matmuls, which
    give each row's one-event products bit for bit (the rigid reference
    tests compare them).
    """
    u, du = _jet(field, x, step)
    D = du @ metric_matrix(u.shape[-1])
    return u, D, (u[..., None, :] @ D)[..., 0, :]


def _split_rows(field: VelocityField, x: np.ndarray, step: float):
    """(u, theta, omega, accel_flat) at rows x (..., n): the lowered
    gradient split as in KinematicDecomposition."""
    if not 0 < step < math.inf:  # NaN included
        raise PreconditionError("step must be positive and finite")
    c = field.c
    u, D, accel_flat = _gradient_rows(field, x, step)
    n = u.shape[-1]
    G = metric_matrix(n)
    ul = (G @ u[..., None])[..., 0]
    P = np.eye(n) - u[..., :, None] * ul[..., None, :] / (c * c)  # mixed projector, vector slot
    Pt = np.swapaxes(P, -1, -2)
    Dt = np.swapaxes(D, -1, -2)
    theta = Pt @ (0.5 * (D + Dt)) @ P
    omega = Pt @ (0.5 * (D - Dt)) @ P
    return u, theta, omega, accel_flat


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


def is_rigid(field: VelocityField, probes, step: float = DEFAULT_STEP) -> dict:
    """Rigidity verdict: the flow is rigid iff theta vanishes at all probes.

    theta comes from one split of the field over all probes' stencils; a
    NaN theta is not rigid.
    """
    worst = float(np.abs(_split_rows(field, _probe_rows(probes), step)[1]).max())
    return {"rigid": worst < FIRST_DERIV_TOL, "max_theta": worst}


def reparameterization_invariance_check(field: VelocityField, scaling, probes,
                                        step: float = DEFAULT_STEP) -> dict:
    """Rigidity verdict before and after rescaling the generator.

    Rescaling by a nowhere-zero function of rows (see rescaled_field)
    leaves the flow lines, and hence the verdict, unchanged; the comparison
    is at verdict level.  The rescaled generator is renormalised along its
    own direction before the split.
    """
    rows = _probe_rows(probes)
    base = is_rigid(field, rows, step)
    raw = rescaled_field(field, scaling)

    def normalised(x):
        K = raw(x)
        return K * (field.c / np.sqrt(_inner_rows(K, K)))[..., None]

    scaled = is_rigid(VelocityField(normalised, field.domain, field.c), rows, step)
    return {
        "verdict_unchanged": base["rigid"] == scaled["rigid"],
        "base": base,
        "scaled_max_theta": scaled["max_theta"],
    }


def lie_derivative_oneform(field: VelocityField, oneform, event,
                           step: float = DEFAULT_STEP) -> np.ndarray:
    """(L_u alpha)_b = u^c d_c alpha_b + alpha_c d_b u^c by central differences.

    `oneform` takes rows of events; it and the field are each evaluated
    once, on the event and its stencil.
    """
    x = np.asarray(event, dtype=float)
    u, du = _jet(field, x, step)
    alpha, dalpha = _jet(oneform, x, step)
    return np.array([u @ dalpha[:, b] + alpha @ du[b, :] for b in range(x.size)])


def lie_derivative_2tensor(field: VelocityField, tensor, event,
                           step: float = DEFAULT_STEP) -> np.ndarray:
    """(L_u T)_ab = u^c d_c T_ab + T_cb d_a u^c + T_ac d_b u^c at rows of
    events (..., n).

    `tensor` takes rows of events; it and the field are each evaluated
    once, on the events and their stencils.
    """
    x = np.asarray(event, dtype=float)
    u, du = _jet(field, x, step)
    T, dT = _jet(tensor, x, step)
    out = np.einsum("...c,...cab->...ab", u, dT)
    out += np.einsum("...cb,...ac->...ab", T, du)
    out += np.einsum("...ac,...bc->...ab", T, du)
    return out


def accel_oneform(field: VelocityField, event, step: float = DEFAULT_STEP) -> np.ndarray:
    """Lowered acceleration (u^a d_a u)_b at rows of events."""
    return _gradient_rows(field, np.asarray(event, dtype=float), step)[2]


def accel_curl(field: VelocityField, event, step: float = DEFAULT_STEP) -> np.ndarray:
    """Exterior derivative (d a-flat)_ab = d_a a_b - d_b a_a at rows of
    events, nested differences.

    One evaluation of the field covers the (2n)(2n + 1) rows of the nested
    stencil of every event.
    """
    da = _central(lambda y: accel_oneform(field, y, step), np.asarray(event, dtype=float), step)
    return da - np.swapaxes(da, -1, -2)


def killing_test(field: VelocityField, probes, step: float = DEFAULT_STEP) -> dict:
    """A rigid flow is an isometry flow iff its acceleration one-form is
    closed (exact on the simply connected domains used here)."""
    x = _probe_rows(probes)
    rigid = is_rigid(field, x, step)
    worst = float(np.abs(accel_curl(field, x, step)).max())
    return {
        "is_killing": bool(rigid["rigid"] and worst < SECOND_DERIV_TOL),
        "rigid": rigid["rigid"],
        "max_theta": rigid["max_theta"],
        "closedness_residual": worst,
    }
