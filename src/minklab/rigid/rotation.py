"""Verification of the rigid-rotation flow: comoving split, vorticity
transport, and the projected-curvature identity tying the comoving
curvature to the vorticity."""

from __future__ import annotations

import math

import numpy as np

from ..core import PreconditionError
from .curvature import riemann_lowered_fd, total_antisymmetrizer
from .decomp import (DEFAULT_STEP, SECOND_DERIV_TOL, _split_rows,
                     kinematic_decomposition, lie_derivative_2tensor,
                     spatial_metric)
from .fields import VelocityField, _libm, rotation_killing_field

__all__ = [
    "comoving_coords",
    "comoving_frame_vectors",
    "comoving_rotation_metric",
    "rotation_killing_checks",
    "projected_curvature_check",
]


def comoving_coords(event: np.ndarray, kappa: float, c: float) -> np.ndarray:
    """(z, rho, psi) of an event, with psi the angle comoving at rate kappa."""
    x = np.asarray(event, dtype=float)
    rho = math.hypot(x[1], x[2])
    psi = math.atan2(x[2], x[1]) - kappa * x[0] / c
    return np.array([x[3], rho, psi])


def comoving_frame_vectors(event: np.ndarray) -> np.ndarray:
    """Columns lift the comoving coordinate directions (z, rho, psi) to
    spacetime; differences of lifts point along the flow, which horizontal
    tensors do not see."""
    x = np.asarray(event, dtype=float)
    rho = math.hypot(x[1], x[2])
    if rho == 0.0:
        raise PreconditionError("comoving frame is singular on the axis")
    cphi, sphi = x[1] / rho, x[2] / rho
    ez = np.array([0.0, 0.0, 0.0, 1.0])
    erho = np.array([0.0, cphi, sphi, 0.0])
    epsi = np.array([0.0, -rho * sphi, rho * cphi, 0.0])
    return np.column_stack([ez, erho, epsi])


def comoving_rotation_metric(kappa: float, c: float):
    """Rest-space metric in the comoving chart: diag(1, 1, rho^2/(1 - (kappa rho/c)^2)),
    as a callable of rows of chart points (z, rho, psi)."""

    def metric(q: np.ndarray) -> np.ndarray:
        rho = q[..., 1]
        f = 1.0 - _libm(lambda v: v ** 2, kappa * rho / c)
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
    """Per-probe verification of the rigid-rotation flow.

    Checks theta = 0, omega != 0, vanishing transport L_u omega, and the
    comoving split: the projected metric in the comoving frame must be
    diag(1, 1, rho^2/(1-(kappa rho/c)^2)).
    """
    field = rotation_killing_field(kappa, c)
    hfun = comoving_rotation_metric(kappa, c)

    def omega_at(y):  # rows of events -> rows of omega
        return _split_rows(field, y, step)[2]

    rows = []
    for p in probes:
        x = np.asarray(p, dtype=float)
        dec = kinematic_decomposition(field, x, step)
        lie_omega = lie_derivative_2tensor(field, omega_at, x, step)
        frame = comoving_frame_vectors(x)
        h_frame = frame.T @ spatial_metric(field(x), c) @ frame
        q = comoving_coords(x, kappa, c)
        h_expected = hfun(q)
        rows.append({
            "event": x,
            "theta_norm": dec.theta_norm,
            "omega_norm": dec.omega_norm,
            "lie_omega_norm": float(np.abs(lie_omega).max()),
            "h_psi_psi": float(h_frame[2, 2]),
            "h_split_residual": float(np.abs(h_frame - h_expected).max()),
        })
    # np.max and np.min keep a NaN, which Python's max and min may drop
    return {
        "rows": rows,
        "max_theta": float(np.max([r["theta_norm"] for r in rows])),
        "min_omega": float(np.min([r["omega_norm"] for r in rows])),
        "max_lie_omega": float(np.max([r["lie_omega_norm"] for r in rows])),
        "max_h_split_residual": float(np.max([r["h_split_residual"] for r in rows])),
    }


def _comoving_vorticity(field: VelocityField, event: np.ndarray, step: float) -> np.ndarray:
    dec = kinematic_decomposition(field, event, step)
    frame = comoving_frame_vectors(event)
    return frame.T @ dec.omega @ frame


def projected_curvature_check(kappa: float, c: float, probes,
                              step: float = DEFAULT_STEP) -> dict:
    """Flat-ambient curvature identity for the rotation flow.

    With zero spacetime curvature the comoving curvature must equal
    -3 (id - Alt)(omega (x) omega) in the comoving chart; for rank-four
    tensors over three dimensions the total antisymmetrisation Alt drops
    out identically, which is also verified explicitly per probe.
    """
    field = rotation_killing_field(kappa, c)
    hfun = comoving_rotation_metric(kappa, c)
    rows = []
    for p in probes:
        x = np.asarray(p, dtype=float)
        q = comoving_coords(x, kappa, c)
        riem = riemann_lowered_fd(hfun, q)
        om = _comoving_vorticity(field, x, step)
        ww = np.einsum("ij,kl->ijkl", om, om)
        alt = total_antisymmetrizer(ww)
        identity = riem + 3.0 * (ww - alt)
        rows.append({
            "event": x,
            "residual": float(np.abs(identity).max()),
            "alt_norm": float(np.abs(alt).max()),
            "riemann_norm": float(np.abs(riem).max()),
            "omega_norm": float(np.abs(om).max()),
        })
    worst = float(np.max([r["residual"] for r in rows]))
    return {"rows": rows, "max_residual": worst, "passes": worst < SECOND_DERIV_TOL}
