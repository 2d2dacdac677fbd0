"""Irrotational rigid flows generated by a single worldline.

A twice-differentiable curve z(tau) in eigentime parameterisation defines,
inside the tube where its orthogonal hyperplanes do not cross, a unique
field u = zdot(sigma(x)) with sigma(x) solving zdot(tau).(x - z(tau)) = 0.
The flow is rigid with zero vorticity; its acceleration one-form is closed
exactly for worldlines of constant acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import PreconditionError, _inner_rows, inner, metric_matrix
from .fields import VelocityField

__all__ = [
    "WorldLineCurve",
    "hyperbolic_worldline",
    "wiggly_worldline",
    "foliation_time",
    "foliation_gap",
    "herglotz_field",
    "expected_accel_curl",
]

CAUSTIC_GUARD = 1e-3


@dataclass(frozen=True)
class WorldLineCurve:
    """Curve tau -> event with derivative evaluators, tau in eigentime.

    Each evaluator takes an array of parameters tau, of any shape S, and
    returns one event or vector per entry, shape S + (n,); one parameter is
    the zero-dimensional case.  The curve must satisfy zdot.zdot = c^2 and
    zdot.zddot = 0 (differentiated normalisation); hyperbolic_worldline and
    wiggly_worldline do, and a curve built directly is not checked.
    """

    z: Callable[[np.ndarray], np.ndarray]
    zdot: Callable[[np.ndarray], np.ndarray]
    zddot: Callable[[np.ndarray], np.ndarray]
    zdddot: Callable[[np.ndarray], np.ndarray]
    c: float = 1.0


def _in_tx_plane(ct: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectors (ct, x, 0, 0), one per entry of arrays ct and x of one shape."""
    out = np.zeros(np.shape(ct) + (4,))
    out[..., 0] = ct
    out[..., 1] = x
    return out


def hyperbolic_worldline(x0: float, c: float = 1.0) -> WorldLineCurve:
    """Constant-acceleration curve x0 (sinh(c tau/x0), cosh(c tau/x0), 0, 0)."""
    if not 0 < x0 < math.inf:  # NaN included
        raise PreconditionError("x0 must be positive and finite")

    def make(fn0, fn1, scale):
        def ev(t):
            lam = c * np.asarray(t, dtype=float) / x0
            return _in_tx_plane(scale * fn0(lam), scale * fn1(lam))
        return ev

    return WorldLineCurve(
        z=make(np.sinh, np.cosh, x0),
        zdot=make(np.cosh, np.sinh, c),
        zddot=make(np.sinh, np.cosh, c * c / x0),
        zdddot=make(np.cosh, np.sinh, c ** 3 / (x0 * x0)),
        c=c,
    )


def wiggly_worldline(eps: float) -> WorldLineCurve:
    """Variable-acceleration curve with closed-form eigentime derivatives, at c = 1.

    Built from the rapidity profile chi(tau) = ln(1 + eps tau^2): the
    velocity is (cosh chi, sinh chi, 0, 0), automatically normalised,
    and the position integrates in closed form.  The projected jerk is
    nonzero wherever chi'' != 0, so the induced flow is rigid but not an
    isometry flow.
    """
    if not 0 < eps < math.inf:  # NaN included
        raise PreconditionError("eps must be positive and finite")
    s = math.sqrt(eps)

    def uexp(t):  # e^chi, cosh chi, sinh chi and derivatives of chi
        u = 1.0 + eps * t * t
        chi_p = 2.0 * eps * t / u
        chi_pp = 2.0 * eps / u - chi_p * chi_p
        return 0.5 * (u + 1.0 / u), 0.5 * (u - 1.0 / u), chi_p, chi_pp

    def z(t):
        # integral of cosh(chi) = (u + 1/u)/2 and of sinh(chi) = (u - 1/u)/2
        t = np.asarray(t, dtype=float)
        poly = t + eps * (t * t * t) / 3.0
        arct = np.arctan(s * t) / s
        return _in_tx_plane(0.5 * (poly + arct), 0.5 * (poly - arct))

    def zdot(t):
        cosh, sinh, _, _ = uexp(np.asarray(t, dtype=float))
        return _in_tx_plane(cosh, sinh)

    def zddot(t):
        cosh, sinh, chi_p, _ = uexp(np.asarray(t, dtype=float))
        return _in_tx_plane(chi_p * sinh, chi_p * cosh)

    def zdddot(t):
        cosh, sinh, chi_p, chi_pp = uexp(np.asarray(t, dtype=float))
        return _in_tx_plane(chi_pp * sinh + chi_p * chi_p * cosh,
                            chi_pp * cosh + chi_p * chi_p * sinh)

    return WorldLineCurve(z=z, zdot=zdot, zddot=zddot, zdddot=zdddot)


def _offset_and_gap(curve: WorldLineCurve, x: np.ndarray, tau: np.ndarray,
                    gap: bool = True):
    """(f, N) along rows, from one evaluation of the curve: the offset
    f = zdot(tau).(x - z(tau)), whose root is sigma(x), and the caustic
    factor N = 1 - zddot.(x - z)/c^2, with df/dtau = -c^2 N.  N is None
    unless `gap`: the bracket rounds read f alone."""
    rel = x - curve.z(tau)
    f = _inner_rows(curve.zdot(tau), rel)
    return f, (1.0 - _inner_rows(curve.zddot(tau), rel) / (curve.c * curve.c) if gap else None)


def _foliation_rows(curve: WorldLineCurve, x: np.ndarray,
                    tau_window: tuple[float, float]) -> np.ndarray:
    """sigma at each row of x (m, n), as one stacked solve.

    Every row starts from the window and grows its own bracket until f
    changes sign strictly across it.  Then each row takes Newton steps
    tau += f/(c^2 N) from the bracket's midpoint, bisecting instead where
    a step would leave the bracket or N <= 0, and stops once it has taken
    a step of at most 1e-14 + 8.9e-16 |tau|.  Each round evaluates the
    curve once for the rows still open; every operation acts entry by
    entry, so each row's root is that of a solve of the row alone.
    """
    c2 = curve.c * curve.c
    lo = np.full(len(x), float(tau_window[0]))
    hi = np.full(len(x), float(tau_window[1]))
    flo, fhi = np.empty(len(x)), np.empty(len(x))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = np.arange(len(x))
        for grow in range(61):
            if grow:
                span = hi[rows] - lo[rows]
                lo[rows], hi[rows] = lo[rows] - 0.5 * span, hi[rows] + 0.5 * span
            # far out f may overflow to inf or NaN, which brackets nothing
            f, _ = _offset_and_gap(curve, x[np.concatenate([rows, rows])],
                                   np.concatenate([lo[rows], hi[rows]]), gap=False)
            flo[rows], fhi[rows] = f[:len(rows)], f[len(rows):]
            rows = rows[~((flo[rows] < 0) & (fhi[rows] > 0) | (fhi[rows] < 0) & (flo[rows] > 0))]
            if not len(rows):
                break
        else:
            raise PreconditionError("could not bracket the hyperplane parameter")
        # the open rows, their events, points, brackets and signs of f at lo
        tau, gap = np.empty(len(x)), np.empty(len(x))
        rows, xo, t, neg = np.arange(len(x)), x, 0.5 * (lo + hi), flo < 0
        for _ in range(200):
            if not len(rows):
                break
            f, n = _offset_and_gap(curve, xo, t)
            if np.isnan(f).any():
                raise PreconditionError(
                    f"hyperplane offset is NaN at tau = {float(t[np.isnan(f)][0])!r}")
            # t replaces the end at which f has its sign (f = 0 ends the row)
            below = (f < 0) == neg
            lo, hi = np.where(below, t, lo), np.where(below, hi, t)
            new = t + f / (c2 * n)
            new = np.where((n > 0) & (lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            going = abs(new - t) > 1e-14 + 8.9e-16 * abs(new)
            if not going.all():
                # a frozen row keeps the N of its last round, at most one
                # converged step from its root
                tau[rows[~going]], gap[rows[~going]] = new[~going], n[~going]
                rows, xo, neg, lo, hi, new = (a[going] for a in (rows, xo, neg, lo, hi, new))
            t = new
        if len(rows):
            raise PreconditionError("the hyperplane parameter did not converge")
    caustic = gap <= CAUSTIC_GUARD
    if caustic.any():
        raise PreconditionError(f"event within the caustic guard "
                                f"(N = {float(gap[caustic][0])!r} <= {CAUSTIC_GUARD})")
    return tau


def foliation_time(curve: WorldLineCurve, event, tau_window: tuple[float, float]):
    """The parameter sigma(x) of the orthogonal hyperplane through x, at
    rows of events (..., n); a float for one event.

    Solves zdot(tau).(x - z(tau)) = 0 by bracketed Newton steps; the
    derivative of that function is -c^2 N with N the caustic factor, so the
    root is unique inside the tube.  The window grows until f changes sign
    strictly across it: far out, cancellation can round f to exactly 0.0,
    and that zero is no root.  Raises near caustics (N <= CAUSTIC_GUARD),
    for a stack if any row is.
    """
    x = np.asarray(event, dtype=float)
    tau = _foliation_rows(curve, x.reshape(-1, x.shape[-1]), tau_window)
    return float(tau[0]) if x.ndim == 1 else tau.reshape(x.shape[:-1])


def foliation_gap(curve: WorldLineCurve, tau, event):
    """Caustic factor N = 1 - zddot.(x - z)/c^2 at the given parameters,
    along rows of parameters (...) and events (..., n).

    Vanishing N marks crossing hyperplanes, a spatial distance c^2/accel
    away from the curve.
    """
    return _offset_and_gap(curve, np.asarray(event, dtype=float), np.asarray(tau, dtype=float))[1]


def herglotz_field(curve: WorldLineCurve,
                   tau_window: tuple[float, float] = (-1.0, 1.0)) -> VelocityField:
    """The irrotational rigid field u = zdot(sigma(x)) induced by the curve.

    The rows of one call are solved together (see foliation_time).
    """

    def ev(x: np.ndarray) -> np.ndarray:
        tau = _foliation_rows(curve, x.reshape(-1, x.shape[-1]), tau_window)
        return curve.zdot(tau.reshape(x.shape[:-1]))

    # foliation_time raises PreconditionError outside the tube itself
    return VelocityField(ev, lambda x: True, curve.c, "worldline-induced")


def _jerk_bracket(curve: WorldLineCurve, event, tau: float):
    """(bracket, N, zdot-flat) at the event and its sigma(x) = tau, with the
    projected-jerk bracket Proj jerk-flat + zddot-flat (Proj jerk).(x-z)/(N c^2)
    shared by the closed forms below."""
    x = np.asarray(event, dtype=float)
    c = curve.c
    n = foliation_gap(curve, tau, x)
    G = metric_matrix(x.size)
    zd = curve.zdot(tau)
    zdd = curve.zddot(tau)
    jerk = curve.zdddot(tau)
    jerk_h = jerk - zd * (inner(zd, jerk) / (c * c))  # g-orthogonal to zdot
    rel = x - curve.z(tau)
    bracket = G @ jerk_h + (G @ zdd) * (inner(jerk_h, rel) / (n * c * c))
    return bracket, n, G @ zd


def expected_accel_curl(curve: WorldLineCurve, event,
                        tau_window: tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Closed-form exterior derivative of the acceleration one-form.

    da-flat = zdot-flat wedge {Proj jerk-flat + zddot-flat
    (Proj jerk).(x-z)/(N c^2)} / (N^2 c^2); it vanishes identically iff the
    projected jerk does (constant acceleration).
    """
    bracket, n, zdl = _jerk_bracket(curve, event, foliation_time(curve, event, tau_window))
    c = curve.c
    return (np.outer(zdl, bracket) - np.outer(bracket, zdl)) / (n * n * c * c)


def _lie_accel_at(curve: WorldLineCurve, event, tau: float) -> np.ndarray:
    """Closed-form L_u a-flat of the induced field at an event whose
    sigma(x) = tau is known.

    Equals {Proj jerk-flat + zddot-flat (Proj jerk).(x-z)/(N c^2)}/N^2; on
    the worldline itself (x = z, N = 1) only the projected-jerk term
    survives.
    """
    bracket, n, _ = _jerk_bracket(curve, event, tau)
    return bracket / (n * n)
