"""Proper projective transformations and the deformed boosts with an
invariant length scale.

A projective map acts as x -> (A x + a)/(p.x + q) away from its singular
hyperplane p.x + q = 0 (plain dot product: p is a covector).  The deformed
boost family applies the usual gamma-factor numerators of a boost over the
denominator 1 - (gamma-1) c t / R + gamma v.x/(R c); it is conjugate to the
ordinary boost by the time-dependent squash (t, x) -> (t, x)/(1 - c t / R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Event, PreconditionError

__all__ = [
    "SingularHyperplaneError",
    "ProjectiveMap",
    "proj_apply",
    "collinearity_residual",
    "parallelism_breaking_demo",
    "FLBoost",
    "fl_boost_apply",
    "lorentz_boost_event",
    "deformation_phi",
    "deformation_phi_inverse",
    "time_slab",
    "conjugation_check",
]

EPS_SINGULAR = 1e-8


class SingularHyperplaneError(ValueError):
    """Evaluation too close to the map's singular hyperplane."""


@dataclass(frozen=True)
class ProjectiveMap:
    """x -> (A x + a)/(p.x + q); proper projective iff p != 0."""

    A: np.ndarray
    a: np.ndarray
    p: np.ndarray
    q: float

    def __init__(self, A, a, p, q):
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", np.asarray(a, dtype=float).reshape(n))
        object.__setattr__(self, "p", np.asarray(p, dtype=float).reshape(n))
        object.__setattr__(self, "q", float(q))

    @property
    def proper(self) -> bool:
        return bool(np.any(self.p != 0.0))

    def denominator(self, x: np.ndarray) -> float:
        return float(self.p @ np.asarray(x, dtype=float) + self.q)

    @classmethod
    def worked_example(cls, n: int = 2) -> "ProjectiveMap":
        """f(x) = x / (1 - x^0), singular on the hyperplane x^0 = 1."""
        p = np.zeros(n)
        p[0] = -1.0
        return cls(np.eye(n), np.zeros(n), p, 1.0)


def proj_apply(m: ProjectiveMap, x) -> Event | np.ndarray:
    """Apply the map; straight segments in the domain stay straight."""
    xa = x.a if isinstance(x, Event) else np.asarray(x, dtype=float)
    d = m.denominator(xa)
    if abs(d) <= EPS_SINGULAR:
        raise SingularHyperplaneError(f"denominator {d!r} within {EPS_SINGULAR} of zero")
    out = (m.A @ xa + m.a) / d
    return Event(out) if isinstance(x, Event) else out


def collinearity_residual(points) -> float:
    """Second singular value of the centred point cloud, relative.

    Zero (within 1e-10) iff the points are collinear; two points are
    collinear by convention.  Duplicate points are rejected.
    """
    pts = np.vstack([p.a if isinstance(p, Event) else np.asarray(p, dtype=float)
                     for p in points])
    npts = pts.shape[0]
    for i in range(npts):
        for j in range(i + 1, npts):
            if np.abs(pts[i] - pts[j]).max() == 0.0:
                raise PreconditionError("duplicate points")
    if npts < 3:
        return 0.0
    centred = pts - pts.mean(axis=0)
    s = np.linalg.svd(centred, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[1] / s[0])


def parallelism_breaking_demo(sigma_values) -> dict:
    """Image directions of the parallel line family t -> t e0 + sigma e1
    under the worked projective map.

    Each image line is straight.  Its direction is taken from the images of
    the points at t = 0 and t = 1/2, which are (0, sigma) and (1, 2 sigma),
    so it is (1, sigma) up to normalisation: independent of the line
    parameter but dependent on sigma, so parallelism is destroyed.  Returns
    unit directions per sigma and the pairwise angles between them.
    """
    sigmas = [float(s) for s in sigma_values]
    if not all(math.isfinite(2.0 * s) for s in sigmas):  # (1, 2 sigma) is an image point
        raise PreconditionError("sigma values must be finite, and so must twice them")
    if len(set(sigmas)) != len(sigmas):
        raise PreconditionError("sigma values must be distinct")
    m = ProjectiveMap.worked_example(2)
    directions = {}
    for s in sigmas:
        d = proj_apply(m, [0.5, s]) - proj_apply(m, [0.0, s])
        directions[s] = d / np.linalg.norm(d)
    angles = {}
    for i, s1 in enumerate(sigmas):
        for s2 in sigmas[i + 1:]:
            cosang = float(np.clip(directions[s1] @ directions[s2], -1.0, 1.0))
            angles[(s1, s2)] = math.acos(cosang)
    return {"directions": directions, "pairwise_angles": angles}


@dataclass(frozen=True)
class FLBoost:
    """Deformed boost with velocity, light speed c and invariant length R."""

    velocity: np.ndarray
    c: float = 1.0
    R: float = 1.0

    def __init__(self, velocity, c: float = 1.0, R: float = 1.0):
        v = np.asarray(velocity, dtype=float).reshape(3)
        if np.linalg.norm(v) >= c:
            raise PreconditionError("boost speed must be below c")
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "R", float(R))

    @property
    def gamma(self) -> float:
        beta2 = float(self.velocity @ self.velocity) / (self.c * self.c)
        return 1.0 / math.sqrt(1.0 - beta2)


def _split(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vv = float(v @ v)
    if vv == 0.0:
        return np.zeros_like(x), x
    par = (float(x @ v) / vv) * v
    return par, x - par


def lorentz_boost_event(velocity, t: float, x, c: float = 1.0) -> tuple[float, np.ndarray]:
    """Ordinary boost in closed form on (t, x): the R -> infinity limit."""
    v = np.asarray(velocity, dtype=float).reshape(3)
    xa = np.asarray(x, dtype=float).reshape(3)
    beta2 = float(v @ v) / (c * c)
    if beta2 >= 1.0:
        raise PreconditionError("boost speed must be below c")
    gamma = 1.0 / math.sqrt(1.0 - beta2)
    xpar, xperp = _split(xa, v)
    tp = gamma * (t - float(v @ xa) / (c * c))
    return tp, gamma * (xpar - v * t) + xperp


def fl_boost_apply(b: FLBoost, t: float, x) -> tuple[float, np.ndarray]:
    """Apply the deformed boost to an event (t, x)."""
    xa = np.asarray(x, dtype=float).reshape(3)
    g = b.gamma
    denom = 1.0 - (g - 1.0) * b.c * t / b.R + g * float(b.velocity @ xa) / (b.R * b.c)
    if abs(denom) <= EPS_SINGULAR:
        raise SingularHyperplaneError(f"denominator {denom!r} within {EPS_SINGULAR} of zero")
    tp, xp = lorentz_boost_event(b.velocity, t, xa, b.c)
    return tp / denom, xp / denom


def deformation_phi(R: float, c: float, t: float, x) -> tuple[float, np.ndarray]:
    """(t, x) -> (t, x)/(1 - c t / R); singular at t = R/c."""
    xa = np.asarray(x, dtype=float)
    d = 1.0 - c * t / R
    if abs(d) <= EPS_SINGULAR:
        raise SingularHyperplaneError(f"deformation denominator {d!r} too small")
    return t / d, xa / d


def deformation_phi_inverse(R: float, c: float, t: float, x) -> tuple[float, np.ndarray]:
    """Inverse squash (t, x) -> (t, x)/(1 + c t / R); singular at t = -R/c.

    It is the squash at -R: negating R is exact, so 1 - c t/(-R) equals
    1 + c t/R bit for bit.
    """
    return deformation_phi(-R, c, t, x)


def time_slab(t: float, R: float, c: float) -> str:
    """Which of the three time slabs (t != +-R/c) the instant belongs to.

    The squash maps  [0, R/c) -> [0, inf),  (R/c, inf) -> (-inf, -R/c),
    and (-inf, 0] -> (-R/c, 0].
    """
    horizon = R / c
    if t == horizon or t == -horizon:
        raise SingularHyperplaneError("t sits on a singular hyperplane")
    if 0.0 <= t < horizon:
        return "front"
    if t > horizon:
        return "beyond"
    return "past"


def conjugation_check(b: FLBoost, samples) -> dict:
    """Max residual of (deformed boost) vs squash . boost . squash-inverse.

    Samples too close to a singular hyperplane on either path are skipped
    and counted.  Residual is the sup-norm difference of (c t, x).
    """
    worst = 0.0
    skipped = 0
    used = 0
    for t, x in samples:
        try:
            t1, x1 = fl_boost_apply(b, t, x)
            tm, xm = deformation_phi_inverse(b.R, b.c, t, x)
            tl, xl = lorentz_boost_event(b.velocity, tm, xm, b.c)
            t2, x2 = deformation_phi(b.R, b.c, tl, xl)
        except SingularHyperplaneError:
            skipped += 1
            continue
        used += 1
        res = max(abs(t1 - t2) * b.c, float(np.abs(x1 - x2).max()))
        worst = max(worst, res)
    return {"max_residual": worst, "skipped": skipped, "used": used}
