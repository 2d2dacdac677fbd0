"""Verification of the rigid-rotation flow: comoving split, vorticity
transport, and the projected-curvature identity tying the comoving
curvature to the vorticity."""

from __future__ import annotations

import numpy as np

from ..core import PreconditionError
from .curvature import riemann_lowered_fd, total_antisymmetrizer
from .decomp import (DEFAULT_STEP, SECOND_DERIV_TOL, _lie_rows, _probe_rows, _split_jet,
                     _split_rows, spatial_metric)
from .fields import rotation_killing_field

__all__ = [
    "comoving_coords",
    "comoving_frame_vectors",
    "comoving_rotation_metric",
    "rotation_killing_checks",
    "projected_curvature_check",
]


def comoving_coords(event: np.ndarray, kappa: float, c: float) -> np.ndarray:
    """(z, rho, psi) at rows of events, with psi the angle comoving at rate
    kappa."""
    x = np.asarray(event, dtype=float)
    rho = np.hypot(x[..., 1], x[..., 2])
    psi = np.arctan2(x[..., 2], x[..., 1]) - kappa * x[..., 0] / c
    return np.stack([x[..., 3], rho, psi], axis=-1)


def comoving_frame_vectors(event: np.ndarray) -> np.ndarray:
    """Columns lift the comoving coordinate directions (z, rho, psi) to
    spacetime, one (n, 3) matrix per row of events; differences of lifts
    point along the flow, which horizontal tensors do not see."""
    x = np.asarray(event, dtype=float)
    rho = np.hypot(x[..., 1], x[..., 2])
    if np.any(rho == 0.0):
        raise PreconditionError("comoving frame is singular on the axis")
    cphi, sphi = x[..., 1] / rho, x[..., 2] / rho
    frame = np.zeros(x.shape + (3,))
    frame[..., 3, 0] = 1.0
    frame[..., 1, 1], frame[..., 2, 1] = cphi, sphi
    frame[..., 1, 2], frame[..., 2, 2] = -rho * sphi, rho * cphi
    return frame


def comoving_rotation_metric(kappa: float, c: float):
    """Rest-space metric in the comoving chart: diag(1, 1, rho^2/(1 - (kappa rho/c)^2)),
    as a callable of rows of chart points (z, rho, psi)."""

    def metric(q: np.ndarray) -> np.ndarray:
        rho = q[..., 1]
        f = 1.0 - (kappa * rho / c) ** 2
        if np.any(f <= 0):
            raise PreconditionError("radius outside the timelike region")
        out = np.zeros(q.shape + (3,))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 2, 2] = rho * rho / f
        return out

    return metric


def rotation_killing_checks(kappa: float, c: float, probes,
                            step: float = DEFAULT_STEP) -> dict:
    """Verification of the rigid-rotation flow at rows of probe events.

    Checks theta = 0, omega != 0, vanishing transport L_u omega, and the
    comoving split: the projected metric in the comoving frame must be
    diag(1, 1, rho^2/(1-(kappa rho/c)^2)).  Every quantity comes from one
    nested jet of the split over all probes, one evaluation of the field,
    and is folded with np.max or np.min, which keep a NaN.
    """
    x = _probe_rows(probes)
    (u, theta, omega, _), (du, _, domega, _) = _split_jet(rotation_killing_field(kappa, c), x, step)
    lie_omega = _lie_rows(u, du, omega, domega)
    frame = comoving_frame_vectors(x)
    h_frame = np.swapaxes(frame, -1, -2) @ spatial_metric(u, c) @ frame
    h_expected = comoving_rotation_metric(kappa, c)(comoving_coords(x, kappa, c))
    return {
        "max_theta": float(np.abs(theta).max()),
        "min_omega": float(np.abs(omega).max(axis=(-2, -1)).min()),
        "max_lie_omega": float(np.abs(lie_omega).max()),
        "max_h_split_residual": float(np.abs(h_frame - h_expected).max()),
    }


def projected_curvature_check(kappa: float, c: float, probes,
                              step: float = DEFAULT_STEP) -> dict:
    """Flat-ambient curvature identity for the rotation flow at rows of
    probe events.

    With zero spacetime curvature the comoving curvature must equal
    -3 (id - Alt)(omega (x) omega) in the comoving chart; for rank-four
    tensors over three dimensions the total antisymmetrisation Alt drops
    out identically.  The curvature and the vorticity are each computed on
    all probes at once.
    """
    field = rotation_killing_field(kappa, c)
    x = _probe_rows(probes)
    riem = riemann_lowered_fd(comoving_rotation_metric(kappa, c), comoving_coords(x, kappa, c))
    frame = comoving_frame_vectors(x)
    om = np.swapaxes(frame, -1, -2) @ _split_rows(field, x, step)[2] @ frame
    ww = np.einsum("...ij,...kl->...ijkl", om, om)
    identity = riem + 3.0 * (ww - total_antisymmetrizer(ww))
    worst = float(np.abs(identity).max())
    return {"max_residual": worst, "passes": worst < SECOND_DERIV_TOL}
