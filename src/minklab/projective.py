"""Proper projective transformations and the deformed boosts with an
invariant length scale.

A projective map acts as x -> (A x + a)/(p.x + q) away from its singular
hyperplane p.x + q = 0 (plain dot product: p is a covector).  The deformed
boost family applies the numerators of the ordinary boost (kinematics'
closed form) over the denominator 1 - (gamma-1) c t / R + gamma v.x/(R c);
it is conjugate to the ordinary boost by the time-dependent squash
(t, x) -> (t, x)/(1 - c t / R).

Each formula is computed once, by a private `_*_rows` helper that takes
stacks of events along leading axes and returns the images together with
their denominators; `_regular` marks the rows clear of the singular
hyperplane.  The public functions apply the helper to one event, with no
leading axis, and raise SingularHyperplaneError where it is not regular;
lorentz_boost_event and the squash take stacks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kinematics
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
    "time_slab",
    "conjugation_check",
]

EPS_SINGULAR = 1e-8


class SingularHyperplaneError(ValueError):
    """Evaluation too close to the map's singular hyperplane."""


def _regular(den: np.ndarray) -> np.ndarray:
    """Rows whose denominator is not within EPS_SINGULAR of zero; a NaN
    denominator counts as regular, so its NaN image reaches the residual."""
    return ~(abs(den) <= EPS_SINGULAR)


def _divisor(den: np.ndarray) -> np.ndarray:
    """den with each zero, a row _regular marks singular, replaced by 1, so
    that dividing by it raises no division warning."""
    return den + (den == 0.0)


def _refuse_singular(den: np.ndarray,
                     message: str = f"denominator {{!r}} within {EPS_SINGULAR} of zero") -> None:
    """Raise SingularHyperplaneError, with the first singular denominator in
    the message, unless every row is _regular."""
    regular = _regular(den)
    # one event's den is a numpy scalar, whose .all() costs more than the test
    if not (regular.all() if regular.ndim else regular):
        raise SingularHyperplaneError(message.format(float(den[~regular].flat[0])))


@dataclass(frozen=True, eq=False)
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

    @classmethod
    def worked_example(cls, n: int = 2) -> "ProjectiveMap":
        """f(x) = x / (1 - x^0), singular on the hyperplane x^0 = 1."""
        p = np.zeros(n)
        p[0] = -1.0
        return cls(np.eye(n), np.zeros(n), p, 1.0)


def _proj_rows(A, a, p, q, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images (A x + a)/(p.x + q) of the points x (..., n) and their
    denominators; the map's parts broadcast against the points' leading axes.

    A x is a matrix-vector product per point, the same gemv as A @ x; a
    vecdot of A's rows would differ from it in the last bit.
    """
    den = np.vecdot(x, p) + q
    return ((A @ x[..., None])[..., 0] + a) / _divisor(den)[..., None], den


def proj_apply(m: ProjectiveMap, x) -> Event | np.ndarray:
    """Apply the map; straight segments in the domain stay straight."""
    xa = x.a if isinstance(x, Event) else np.asarray(x, dtype=float)
    out, den = _proj_rows(m.A, m.a, m.p, m.q, xa)
    _refuse_singular(den)
    return Event(out) if isinstance(x, Event) else out


def collinearity_residual(points) -> float:
    """Second singular value of the centred point cloud, relative.

    Zero (within 1e-10) iff the points are collinear; two points are
    collinear by convention.  Duplicate points are rejected.
    """
    pts = np.vstack([p.a if isinstance(p, Event) else np.asarray(p, dtype=float)
                     for p in points])
    # sorted, equal points are neighbours; differences of 0 in every
    # coordinate mark a duplicate, as -0.0 and 0.0 do
    srt = pts[np.lexsort(pts.T[::-1])]
    if np.any(np.abs(srt[1:] - srt[:-1]).max(axis=1) == 0.0):
        raise PreconditionError("duplicate points")
    if pts.shape[0] < 3:
        return 0.0
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
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
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(d)
        if not np.isfinite(norm):  # |d|^2 overflows from |sigma| of about 1.3e154
            d = d / np.abs(d).max()
            norm = np.linalg.norm(d)
        directions[s] = d / norm
    angles = {}
    for i, s1 in enumerate(sigmas):
        for s2 in sigmas[i + 1:]:
            cosang = float(np.clip(directions[s1] @ directions[s2], -1.0, 1.0))
            angles[(s1, s2)] = math.acos(cosang)
    return {"directions": directions, "pairwise_angles": angles}


@dataclass(frozen=True, eq=False)
class FLBoost:
    """Deformed boost with velocity, light speed c and invariant length R.

    The speed must be below c, and R positive and finite.
    """

    velocity: np.ndarray
    c: float = 1.0
    R: float = 1.0

    def __init__(self, velocity, c: float = 1.0, R: float = 1.0):
        v = np.asarray(velocity, dtype=float).reshape(3)
        c, R = float(c), float(R)
        if not 0.0 < R < math.inf:  # NaN included
            raise PreconditionError(f"R must be positive and finite, got {R!r}")
        # refuses a speed not below c
        object.__setattr__(self, "_gamma", kinematics._gamma_rows(v, c))
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "R", R)

    @property
    def gamma(self) -> float:
        return float(self._gamma)


def lorentz_boost_event(velocity, t: float, x, c: float = 1.0) -> tuple[float, np.ndarray]:
    """Ordinary boost in closed form on (t, x): the R -> infinity limit.

    Also boosts a stack of events, t of shape S and x of shape S + (3,), and
    then returns arrays.
    """
    v = np.asarray(velocity, dtype=float).reshape(3)
    gamma = kinematics._gamma_rows(v, c)
    t = np.float64(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    tp, xp = kinematics._boost_rows(v, gamma, t,
                                    np.asarray(x, dtype=float).reshape(t.shape + (3,)), c)
    return (float(tp), xp) if tp.ndim == 0 else (tp, xp)


def _fl_rows(b: FLBoost, t, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deformed boost b of the events (t, x), shapes S and S + (3,), with
    its denominators."""
    g = b._gamma
    den = 1.0 - (g - 1.0) * b.c * t / b.R + g * np.vecdot(b.velocity, x) / (b.R * b.c)
    tp, xp = kinematics._boost_rows(b.velocity, g, t, x, b.c)
    d = _divisor(den)
    return tp / d, xp / d[..., None], den


def fl_boost_apply(b: FLBoost, t: float, x) -> tuple[float, np.ndarray]:
    """Apply the deformed boost to an event (t, x)."""
    tp, xp, den = _fl_rows(b, np.float64(t), np.asarray(x, dtype=float).reshape(3))
    _refuse_singular(den)
    return float(tp), xp


def _squash_den(R: float, c: float, t):
    """Denominator 1 - c t / R of the squash at each instant t."""
    return 1.0 - c * t / R


def _squash_rows(R: float, c: float, t, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squash (t, x) -> (t, x)/(1 - c t / R) of the events, shapes S and
    S + (k,), with its denominators; the squash at -R is its inverse."""
    den = _squash_den(R, c, t)
    d = _divisor(den)
    return t / d, x / d[..., None], den


def deformation_phi(R: float, c: float, t: float, x) -> tuple[float, np.ndarray]:
    """(t, x) -> (t, x)/(1 - c t / R); singular at t = R/c.

    The inverse squash (t, x) -> (t, x)/(1 + c t / R) is the squash at -R:
    negating R is exact, so 1 - c t/(-R) equals 1 + c t/R bit for bit.  A
    float or int t is one event; any other t is a stack of events of shape
    S = np.shape(t), x of shape S + (k,), and then arrays are returned.
    """
    if isinstance(t, (int, float)):
        t = np.float64(t)
        den = _squash_den(R, c, t)
        if not _regular(den):
            raise SingularHyperplaneError(f"deformation denominator {float(den)!r} too small")
        return float(t / den), np.asarray(x, dtype=float) / den
    tp, xp, den = _squash_rows(R, c, np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    _refuse_singular(den, "deformation denominator {!r} too small")
    return tp, xp


_SLABS = ("front", "beyond", "past")


def _slab_rows(t: np.ndarray, R: float, c: float) -> np.ndarray:
    """Index into _SLABS of each instant's slab; see time_slab."""
    horizon = R / c
    return np.where((0.0 <= t) & (t < horizon), 0, np.where(t > horizon, 1, 2))


def time_slab(t: float, R: float, c: float) -> str:
    """Which of the three time slabs (t != +-R/c) the instant belongs to.

    The squash maps  [0, R/c) -> [0, inf),  (R/c, inf) -> (-inf, -R/c),
    and (-inf, 0] -> (-R/c, 0].
    """
    horizon = R / c
    if t == horizon or t == -horizon:
        raise SingularHyperplaneError("t sits on a singular hyperplane")
    return _SLABS[int(_slab_rows(np.float64(t), R, c))]


def _slab_table(t: np.ndarray, R: float, c: float, band: float) -> tuple[np.ndarray, np.ndarray]:
    """The instants t kept, those outside `band` of both horizons +-R/c at
    which the squash is regular, and their squash images."""
    kept = t[~(np.abs(np.abs(t) - R / c) < band) & _regular(_squash_den(R, c, t))]
    return kept, deformation_phi(R, c, kept, np.empty(kept.shape + (0,)))[0]


def _conjugation_rows(b: FLBoost, t, x) -> tuple[np.ndarray, np.ndarray]:
    """Per event, the sup-norm difference of (c t, x) between the deformed
    boost and squash . boost . squash-inverse, and the mask of events at
    which every leg is regular."""
    t1, x1, d1 = _fl_rows(b, t, x)
    tm, xm, d2 = _squash_rows(-b.R, b.c, t, x)
    tl, xl = kinematics._boost_rows(b.velocity, b._gamma, tm, xm, b.c)
    t2, x2, d3 = _squash_rows(b.R, b.c, tl, xl)
    res = np.maximum(np.abs(t1 - t2) * b.c, np.abs(x1 - x2).max(axis=-1))
    return res, _regular(d1) & _regular(d2) & _regular(d3)


def conjugation_check(b: FLBoost, samples) -> dict:
    """Max residual of (deformed boost) vs squash . boost . squash-inverse.

    Samples too close to a singular hyperplane on either path are skipped
    and counted.  Residual is the sup-norm difference of (c t, x); a NaN
    residual in any used sample makes it NaN.
    """
    samples = list(samples)
    t = np.array([t for t, _ in samples], dtype=float)
    x = np.array([np.asarray(x, dtype=float).reshape(3) for _, x in samples]).reshape(-1, 3)
    res, keep = _conjugation_rows(b, t, x)
    used = int(np.count_nonzero(keep))
    return {"max_residual": float(np.max(res[keep], initial=0.0)),
            "skipped": len(samples) - used, "used": used}
