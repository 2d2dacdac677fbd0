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
    "expected_lie_accel",
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


def _in_tx_plane(formula: Callable[[float], tuple[float, float]]) -> Callable:
    """Curve evaluator from a closed form tau -> (ct, x): one vector
    (ct, x, 0, 0) per entry of an array of tau.

    The formula runs on each entry as a Python float, so every entry has
    the bits of the one-parameter formula: libm's sinh, cosh and atan and
    C pow, where numpy's own differ in the last bit on some inputs.
    """

    def ev(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        rows = [(*formula(v), 0.0, 0.0) for v in t.ravel().tolist()]
        return np.array(rows, dtype=float).reshape(t.shape + (4,))

    return ev


def hyperbolic_worldline(x0: float, c: float = 1.0) -> WorldLineCurve:
    """Constant-acceleration curve x0 (sinh(c tau/x0), cosh(c tau/x0), 0, 0)."""
    if not 0 < x0 < math.inf:  # NaN included
        raise PreconditionError("x0 must be positive and finite")

    def make(fn0, fn1, scale):
        def formula(t):
            lam = c * t / x0
            return scale * fn0(lam), scale * fn1(lam)
        return _in_tx_plane(formula)

    return WorldLineCurve(
        z=make(math.sinh, math.cosh, x0),
        zdot=make(math.cosh, math.sinh, c),
        zddot=make(math.sinh, math.cosh, c * c / x0),
        zdddot=make(math.cosh, math.sinh, c ** 3 / (x0 * x0)),
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

    def uexp(t):  # e^chi and derivatives of chi
        u = 1.0 + eps * t * t
        up = 2.0 * eps * t
        upp = 2.0 * eps
        chi_p = up / u
        chi_pp = upp / u - (up / u) ** 2
        return u, chi_p, chi_pp

    def z(t):
        # integral of cosh(chi) = (u + 1/u)/2 and of sinh(chi) = (u - 1/u)/2
        poly = t + eps * t ** 3 / 3.0
        arct = math.atan(s * t) / s
        return 0.5 * (poly + arct), 0.5 * (poly - arct)

    def zdot(t):
        u = 1.0 + eps * t * t
        return 0.5 * (u + 1.0 / u), 0.5 * (u - 1.0 / u)

    def zddot(t):
        u, chi_p, _ = uexp(t)
        cosh = 0.5 * (u + 1.0 / u)
        sinh = 0.5 * (u - 1.0 / u)
        return chi_p * sinh, chi_p * cosh

    def zdddot(t):
        u, chi_p, chi_pp = uexp(t)
        cosh = 0.5 * (u + 1.0 / u)
        sinh = 0.5 * (u - 1.0 / u)
        return (chi_pp * sinh + chi_p * chi_p * cosh,
                chi_pp * cosh + chi_p * chi_p * sinh)

    return WorldLineCurve(z=_in_tx_plane(z), zdot=_in_tx_plane(zdot),
                          zddot=_in_tx_plane(zddot), zdddot=_in_tx_plane(zdddot))


def _brent_steps(a: float, fa: float, b: float, fb: float,
                 xtol: float, rtol: float, maxiter: int):
    """Brent's method (Brent 1973, ch. 4) as a generator: it yields each
    point at which it needs f, is sent f there, and returns the root.

    A statement-for-statement port of the C routine brentq.c, so for the
    same f, bracket and tolerances the root is bit-identical to that
    routine's (the tests compare the two).  The caller passes the end
    values fa = f(a) and fb = f(b), which must not have the same sign; a
    NaN value of f raises ValueError.
    """

    def checked(x: float, fx: float) -> float:
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # both non-zero, so < 0 is the C signbit
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, (yield xcur))
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _brent_rows(f_rows: Callable[[list[int], list[float]], list[float]],
                a, fa, b, fb, xtol: float, rtol: float, maxiter: int) -> list[float]:
    """Roots of one Brent state per row, brackets and end values given per row.

    Each round calls f_rows(rows, xs) once, with the rows still open and
    the point each of them asks for, and sends every row its own value, so
    each row makes the same steps and evaluations as a scalar Brent loop
    on that row alone.
    """
    roots = [0.0] * len(a)
    rows, states, xs = [], [], []
    for i, args in enumerate(zip(a, fa, b, fb)):
        steps = _brent_steps(*args, xtol, rtol, maxiter)
        try:
            xs.append(next(steps))
        except StopIteration as done:
            roots[i] = done.value
            continue
        rows.append(i)
        states.append(steps)
    while rows:
        values = f_rows(rows, xs)
        open_rows, open_states, xs = [], [], []
        for i, steps, v in zip(rows, states, values):
            try:
                xs.append(steps.send(v))
            except StopIteration as done:
                roots[i] = done.value
                continue
            open_rows.append(i)
            open_states.append(steps)
        rows, states = open_rows, open_states
    return roots


def _brent(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
           xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [a, b] by Brent's method: the one-row case of _brent_rows."""
    return _brent_rows(lambda rows, xs: [f(xs[0])], [a], [fa], [b], [fb],
                       xtol, rtol, maxiter)[0]


def _hyperplane_offset(curve: WorldLineCurve, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """zdot(tau).(x - z(tau)) along rows: the function whose root is sigma(x)."""
    return _inner_rows(curve.zdot(tau), x - curve.z(tau))


def _foliation_rows(curve: WorldLineCurve, x: np.ndarray,
                    tau_window: tuple[float, float]) -> np.ndarray:
    """sigma at each row of x (m, n), as one stacked solve.

    Every row starts from the window and grows its own bracket; then one
    Brent state per row runs.  f is evaluated once per round for all the
    rows still growing or still open, and each row's steps, and so its
    root, are those of a solve of that row alone.
    """
    m = len(x)
    every = list(range(m))

    def f(rows, taus):
        xr = x if rows == every else x[rows]
        return _hyperplane_offset(curve, xr, np.asarray(taus, dtype=float)).tolist()

    lo, hi = [float(tau_window[0])] * m, [float(tau_window[1])] * m
    flo, fhi = [0.0] * m, [0.0] * m
    rows, grow = every, 0
    while True:
        try:  # far out f may overflow to inf or NaN, which brackets nothing
            with np.errstate(over="ignore", invalid="ignore"):
                values = f(rows + rows, [lo[i] for i in rows] + [hi[i] for i in rows])
        except OverflowError:  # the window outgrew the curve's closed form
            raise PreconditionError("could not bracket the hyperplane parameter") from None
        for i, v_lo, v_hi in zip(rows, values, values[len(rows):]):
            flo[i], fhi[i] = v_lo, v_hi
        # each row's window grows until f changes sign strictly across it
        rows = [i for i in rows if not (flo[i] < 0 < fhi[i] or fhi[i] < 0 < flo[i])]
        if not rows:
            break
        if grow == 60:
            raise PreconditionError("could not bracket the hyperplane parameter")
        grow += 1
        for i in rows:
            span = hi[i] - lo[i]
            lo[i], hi[i] = lo[i] - 0.5 * span, hi[i] + 0.5 * span
    tau = np.array(_brent_rows(f, lo, flo, hi, fhi, xtol=1e-14, rtol=8.9e-16, maxiter=200))
    for n in foliation_gap(curve, tau, x).tolist():
        if n <= CAUSTIC_GUARD:
            raise PreconditionError(
                f"event within the caustic guard (N = {n!r} <= {CAUSTIC_GUARD})")
    return tau


def foliation_time(curve: WorldLineCurve, event, tau_window: tuple[float, float]):
    """The parameter sigma(x) of the orthogonal hyperplane through x, at
    rows of events (..., n); a float for one event.

    Solves zdot(tau).(x - z(tau)) = 0 by bracketed root finding; the
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
    x = np.asarray(event, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return 1.0 - _inner_rows(curve.zddot(tau), x - curve.z(tau)) / (curve.c * curve.c)


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


def _jerk_bracket(curve: WorldLineCurve, event, tau_window: tuple[float, float]):
    """(bracket, N, zdot-flat) at sigma(x), with the projected-jerk bracket
    Proj jerk-flat + zddot-flat (Proj jerk).(x-z)/(N c^2) shared by the
    closed forms below."""
    x = np.asarray(event, dtype=float)
    c = curve.c
    tau = foliation_time(curve, x, tau_window)
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
    bracket, n, zdl = _jerk_bracket(curve, event, tau_window)
    c = curve.c
    return (np.outer(zdl, bracket) - np.outer(bracket, zdl)) / (n * n * c * c)


def expected_lie_accel(curve: WorldLineCurve, event,
                       tau_window: tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Closed-form L_u a-flat of the induced field.

    Equals {Proj jerk-flat + zddot-flat (Proj jerk).(x-z)/(N c^2)}/N^2; on
    the worldline itself (x = z, N = 1) only the projected-jerk term
    survives.
    """
    bracket, n, _ = _jerk_bracket(curve, event, tau_window)
    return bracket / (n * n)
