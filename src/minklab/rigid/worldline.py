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

from ..core import PreconditionError, inner, metric_matrix
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

    zdot.zdot = c^2 along the curve and zdot.zddot = 0 (differentiated
    normalisation); both are validated on sampled parameters.
    """

    z: Callable[[float], np.ndarray]
    zdot: Callable[[float], np.ndarray]
    zddot: Callable[[float], np.ndarray]
    zdddot: Callable[[float], np.ndarray]
    c: float = 1.0

    def validate(self, taus) -> None:
        c2 = self.c * self.c
        for t in taus:
            v = self.zdot(t)
            a = self.zddot(t)
            if abs(inner(v, v) - c2) > 1e-10 * c2:
                raise PreconditionError(f"zdot.zdot != c^2 at tau={t}")
            if abs(inner(v, a)) > 1e-10 * max(c2, 1.0):
                raise PreconditionError(f"zdot.zddot != 0 at tau={t}")


def hyperbolic_worldline(x0: float, c: float = 1.0) -> WorldLineCurve:
    """Constant-acceleration curve x0 (sinh(c tau/x0), cosh(c tau/x0), 0, 0)."""
    if not 0 < x0 < math.inf:  # NaN included
        raise PreconditionError("x0 must be positive and finite")

    def make(fn0, fn1, scale):
        def ev(t):
            out = np.zeros(4)
            lam = c * t / x0
            out[0] = scale * fn0(lam)
            out[1] = scale * fn1(lam)
            return out
        return ev

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
        out = np.zeros(4)
        u = 1.0 + eps * t * t
        # integral of cosh(chi) = (u + 1/u)/2 and of sinh(chi) = (u - 1/u)/2
        poly = t + eps * t ** 3 / 3.0
        arct = math.atan(s * t) / s
        out[0] = 0.5 * (poly + arct)
        out[1] = 0.5 * (poly - arct)
        return out

    def zdot(t):
        out = np.zeros(4)
        u = 1.0 + eps * t * t
        out[0] = 0.5 * (u + 1.0 / u)
        out[1] = 0.5 * (u - 1.0 / u)
        return out

    def zddot(t):
        out = np.zeros(4)
        u, chi_p, _ = uexp(t)
        cosh = 0.5 * (u + 1.0 / u)
        sinh = 0.5 * (u - 1.0 / u)
        out[0] = chi_p * sinh
        out[1] = chi_p * cosh
        return out

    def zdddot(t):
        out = np.zeros(4)
        u, chi_p, chi_pp = uexp(t)
        cosh = 0.5 * (u + 1.0 / u)
        sinh = 0.5 * (u - 1.0 / u)
        out[0] = chi_pp * sinh + chi_p * chi_p * cosh
        out[1] = chi_pp * cosh + chi_p * chi_p * sinh
        return out

    return WorldLineCurve(z=z, zdot=zdot, zddot=zddot, zdddot=zdddot)


def _brent(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
           xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

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
        fcur = checked(xcur, f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def foliation_time(curve: WorldLineCurve, event, tau_window: tuple[float, float]) -> float:
    """The parameter sigma(x) of the orthogonal hyperplane through x.

    Solves zdot(tau).(x - z(tau)) = 0 by bracketed root finding; the
    derivative of that function is -c^2 N with N the caustic factor, so the
    root is unique inside the tube.  The window grows until f changes sign
    strictly across it: far out, cancellation can round f to exactly 0.0,
    and that zero is no root.  Raises near caustics (N <= CAUSTIC_GUARD).
    """
    x = np.asarray(event, dtype=float)

    def f(tau: float) -> float:
        return inner(curve.zdot(tau), x - curve.z(tau))

    lo, hi = tau_window
    flo, fhi = f(lo), f(hi)
    grow = 0
    while not (flo < 0 < fhi or fhi < 0 < flo):
        span = hi - lo
        lo, hi = lo - 0.5 * span, hi + 0.5 * span
        flo, fhi = f(lo), f(hi)
        grow += 1
        if grow > 60:
            raise PreconditionError("could not bracket the hyperplane parameter")
    tau = _brent(f, lo, flo, hi, fhi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    n = foliation_gap(curve, tau, x)
    if n <= CAUSTIC_GUARD:
        raise PreconditionError(
            f"event within the caustic guard (N = {n!r} <= {CAUSTIC_GUARD})")
    return float(tau)


def foliation_gap(curve: WorldLineCurve, tau: float, event) -> float:
    """Caustic factor N = 1 - zddot.(x - z)/c^2 at the given parameter.

    Vanishing N marks crossing hyperplanes, a spatial distance c^2/accel
    away from the curve.
    """
    x = np.asarray(event, dtype=float)
    return 1.0 - inner(curve.zddot(tau), x - curve.z(tau)) / (curve.c * curve.c)


def herglotz_field(curve: WorldLineCurve,
                   tau_window: tuple[float, float] = (-1.0, 1.0)) -> VelocityField:
    """The irrotational rigid field u = zdot(sigma(x)) induced by the curve."""

    def ev(x: np.ndarray) -> np.ndarray:
        return curve.zdot(foliation_time(curve, x, tau_window))

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
