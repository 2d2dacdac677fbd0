"""Poincare and conformal maps: verification, reflections, constructive
decomposition into reflections, dilations, and sample-based harnesses for
the relation-preservation and unit-distance rigidity statements."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (DimensionMismatchError, Event, MinkVector, PreconditionError,
                   inner, metric_matrix)

__all__ = [
    "AffineIsometry",
    "Reflection",
    "Dilation",
    "is_lorentz",
    "lorentz_residual",
    "reflect",
    "reflection_matrix",
    "cartan_dieudonne",
    "compose_reflections",
    "dilation_apply",
    "conformal_factor",
    "ConformalProbeError",
    "relation_preservation_harness",
    "unit_distance_harness",
    "random_rotation",
    "random_lorentz",
]

# tolerance of the Cartan-Dieudonne reduction to the identity, of null probe
# images in conformal_factor and of unit distances in unit_distance_harness
RESIDUAL_TOL = 1e-9
# random_lorentz draws its rapidity uniformly from [-MAX_RAPIDITY, MAX_RAPIDITY]
MAX_RAPIDITY = 2.0


def lorentz_residual(L: np.ndarray, g: np.ndarray | None = None) -> float:
    """max |(L^T G L - G)_ij| — how far L is from preserving the form G."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be a square matrix")
    G = metric_matrix(L.shape[0]) if g is None else np.asarray(g, dtype=float)
    return float(np.abs(L.T @ G @ L - G).max())


def is_lorentz(L: np.ndarray, tol: float = 1e-10) -> tuple[bool, float]:
    """Whether L preserves the form, together with the residual."""
    r = lorentz_residual(L)
    return r < tol, r


@dataclass(frozen=True)
class AffineIsometry:
    """Affine map p -> o + L(p - o) + a with L form-preserving.

    The linear part is validated on construction; `proper` and
    `orthochronous` expose the two component flags.
    """

    linear: np.ndarray
    translation: np.ndarray

    def __init__(self, linear, translation=None):
        L = np.asarray(linear, dtype=float)
        n = L.shape[0]
        t = np.zeros(n) if translation is None else np.asarray(translation, dtype=float)
        ok, r = is_lorentz(L)
        if not ok:
            raise ValueError(f"linear part is not an isometry (residual {r:.3e})")
        if t.shape != (n,):
            raise ValueError("translation has wrong shape")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @cached_property
    def proper(self) -> bool:
        return np.linalg.det(self.linear) > 0

    @cached_property
    def orthochronous(self) -> bool:
        return self.linear[0, 0] > 0

    def apply(self, p):
        if isinstance(p, Event):
            return Event(self.linear @ p.a + self.translation)
        if isinstance(p, MinkVector):
            return MinkVector(self.linear @ p.a)
        return np.asarray(self.linear) @ np.asarray(p, dtype=float) + self.translation

    def __matmul__(self, other: "AffineIsometry") -> "AffineIsometry":
        if not isinstance(other, AffineIsometry):
            return NotImplemented
        return AffineIsometry(self.linear @ other.linear,
                              self.linear @ other.translation + self.translation)

    def inverse(self) -> "AffineIsometry":
        Linv = np.linalg.inv(self.linear)
        return AffineIsometry(Linv, -(Linv @ self.translation))

    @classmethod
    def identity(cls, dim: int) -> "AffineIsometry":
        return cls(np.eye(dim))


def reflection_matrix(v) -> np.ndarray:
    """Matrix of x -> x - 2 v (x.v)/(v.v); undefined for null axes."""
    va = v.a if isinstance(v, MinkVector) else np.asarray(v, dtype=float)
    vv = inner(va, va)
    if abs(vv) <= 1e-14 * float(va @ va) or float(va @ va) == 0.0:
        raise PreconditionError("reflection axis must be non-null and nonzero")
    G = metric_matrix(va.size)
    return np.eye(va.size) - (2.0 / vv) * np.outer(va, G @ va)


def reflect(v, x):
    """Reflect x at the hyperplane g-orthogonal to v."""
    va = v.a if isinstance(v, MinkVector) else np.asarray(v, dtype=float)
    xa = x.a if isinstance(x, MinkVector) else np.asarray(x, dtype=float)
    vv = inner(va, va)
    if abs(vv) <= 1e-14 * float(va @ va) or float(va @ va) == 0.0:
        raise PreconditionError("reflection axis must be non-null and nonzero")
    out = xa - 2.0 * va * (inner(xa, va) / vv)
    return MinkVector(out) if isinstance(x, MinkVector) else out


@dataclass(frozen=True)
class Reflection:
    """Reflection at the hyperplane orthogonal to the (non-null) axis."""

    axis: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    def __init__(self, axis):
        a = axis.a if isinstance(axis, MinkVector) else np.asarray(axis, dtype=float)
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "matrix", reflection_matrix(a))  # validates the axis

    def apply(self, x):
        return reflect(self.axis, x)


def compose_reflections(reflections: Sequence[Reflection], dim: int) -> np.ndarray:
    """Product of reflection matrices, in the given order."""
    out = np.eye(dim)
    for r in reflections:
        out = out @ r.matrix
    return out


def cartan_dieudonne(L: np.ndarray) -> list[Reflection]:
    """Decompose a form-preserving matrix into at most 2n-1 reflections.

    One basis direction is fixed per sweep: if the image w of the basis
    vector v differs from v, apply the reflection at v-w when that axis is
    non-null, otherwise the pair of reflections at v and v+w.  Composing the
    returned list in order reproduces L.
    """
    L = np.asarray(L, dtype=float)
    ok, r = is_lorentz(L, tol=1e-8)
    if not ok:
        raise PreconditionError(f"input is not an isometry (residual {r:.3e})")
    n = L.shape[0]
    phi = L.copy()
    factors: list[Reflection] = []
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0  # basis vectors are unit-norm for the diagonal form
        w = phi @ v
        if np.abs(w - v).max() < 1e-13:
            continue
        d = v - w
        if abs(inner(d, d)) > 1e-8 * max(1.0, float(d @ d)):
            rho = Reflection(d / np.linalg.norm(d))
            phi = rho.matrix @ phi
            factors.append(rho)
        else:
            s = v + w
            rho_s = Reflection(s / np.linalg.norm(s))
            rho_v = Reflection(v)
            phi = rho_v.matrix @ rho_s.matrix @ phi
            factors.extend([rho_s, rho_v])  # rho_s acts first
    if np.abs(phi - np.eye(n)).max() > RESIDUAL_TOL:
        raise RuntimeError("decomposition did not reduce to the identity")
    # phi_m ... phi_1 L = 1, hence L = phi_1 ... phi_m (reflections are involutive)
    if len(factors) > 2 * n - 1:
        raise RuntimeError("factor count exceeded 2n-1")  # cannot happen
    return factors


@dataclass(frozen=True)
class Dilation:
    """p -> m + factor * (p - m) with factor > 0."""

    factor: float
    center: Event

    def __post_init__(self):
        if not self.factor > 0:
            raise ValueError("dilation factor must be positive")


def dilation_apply(d: Dilation, p: Event) -> Event:
    return d.center + d.factor * (p - d.center)


class ConformalProbeError(ValueError):
    """The map failed to keep a null probe vector null."""

    def __init__(self, probes):
        self.probes = probes
        super().__init__(f"{len(probes)} null probe(s) not mapped to null vectors")


def _null_probes(n: int) -> list[np.ndarray]:
    probes = []
    e = np.eye(n)
    for a in range(1, n):
        probes.append(e[0] + e[a])
        probes.append(e[0] - e[a])
    for a in range(1, n):
        for b in range(a + 1, n):
            probes.append(np.sqrt(2.0) * e[0] + e[a] + e[b])
    return probes


def conformal_factor(f: np.ndarray) -> dict:
    """Factor alpha with g(f.,f.) = alpha g, for a lightcone-preserving f.

    The null probes e0 +- ea and sqrt(2) e0 + ea + eb pin the pulled-back
    form; if any probe image fails to be null the violating probes are
    reported via ConformalProbeError.  alpha is positive iff f keeps the
    timelike character of e0.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    violated = []
    for p in _null_probes(n):
        fp = f @ p
        if abs(inner(fp, fp)) > RESIDUAL_TOL * max(1.0, float(fp @ fp)):
            violated.append(p)
    if violated:
        raise ConformalProbeError(violated)
    G = metric_matrix(n)
    h = f.T @ G @ f
    alpha = float(h[0, 0])
    residual = float(np.abs(h - alpha * G).max())
    return {"alpha": alpha, "residual": residual}


_RELATIONS = ("ge", "gt", "lightlike-successor", "interval-sign")


def _relation_row(relation: str, D: np.ndarray, tol: float) -> np.ndarray:
    """The relation on every displacement row d of D.

    The quadratic forms are taken with np.vecdot, which equals core.inner
    and d @ d bit for bit.  'interval-sign' gives the sign class of the
    interval: 0 null, 1 positive, 2 negative.
    """
    d0 = D[:, 0]
    q = d0 * d0 - np.vecdot(D[:, 1:], D[:, 1:])
    e2 = np.vecdot(D, D)
    band = tol * np.fmax(e2, 1.0)  # fmax, like max(1.0, d @ d), ignores NaN
    if relation == "ge":
        return (q >= -band) & ((d0 > 0) | (e2 == 0.0))
    if relation == "gt":
        return (q > band) & (d0 > 0)
    if relation == "lightlike-successor":
        return (np.abs(q) <= band) & (e2 > 0) & (d0 > 0)
    return np.where(np.abs(q) <= band, 0, np.where(q > 0, 1, 2))


def _stack(points) -> np.ndarray:
    dims = sorted({p.a.size for p in points})
    if len(dims) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims[0]} vs {dims[-1]}")
    return np.stack([p.a for p in points])


def relation_preservation_harness(events: Sequence[Event],
                                  mapping: Callable[[Event], Event],
                                  relation: str,
                                  tol: float = 1e-9) -> list[tuple[int, int, str]]:
    """Ordered pairs on which the bijection breaks the chosen causal relation.

    `relation` is one of 'ge', 'gt', 'lightlike-successor' (the oriented cone
    relations) or 'interval-sign' (the symmetric interval-sign relation).
    Both the map and its inverse on the finite set are examined; the report
    lists (i, j, 'forward' | 'inverse') sorted, and is empty exactly when the
    relation is preserved.  Events (and images) of mixed dimension raise
    DimensionMismatchError, a map that is not injective on the events raises
    PreconditionError.

    The events and their images are stacked once and each relation table is
    built one row at a time, row i being event i against every partner, so
    for N events in dimension n the memory is O(N n), not O(N^2 n).
    """
    if relation not in _RELATIONS:
        raise ValueError(f"relation must be one of {_RELATIONS}")
    images = [mapping(p) for p in events]
    if len(events) < 2:
        return []
    P, Q = _stack(events), _stack(images)
    for i in range(len(Q) - 1):
        if (np.abs(Q[i] - Q[i + 1:]).max(axis=1) < 1e-12).any():
            raise PreconditionError("mapping is not injective on the event set")
    violations = []
    for i in range(len(P)):
        before = _relation_row(relation, P[i] - P, tol)
        after = _relation_row(relation, Q[i] - Q, tol)
        changed = before != after
        changed[i] = False
        for j in np.flatnonzero(changed).tolist():
            # the oriented relations break forward when only the events relate
            forward = relation == "interval-sign" or before[j]
            violations.append((i, j, "forward" if forward else "inverse"))
    return violations  # built in (i, j) order, hence sorted


def unit_distance_harness(f: Callable[[np.ndarray], np.ndarray],
                          delta: float,
                          points: Sequence[np.ndarray],
                          directions: Sequence[np.ndarray]) -> list[tuple[int, int, float]]:
    """Check that pairs at Euclidean distance delta stay at distance delta.

    Pairs are built as (x, x + delta * unit direction); the report lists
    (point index, direction index, |new distance - delta|) for violations,
    a non-finite distance included.  A zero or non-finite direction raises
    PreconditionError.  This checks a necessary condition only.
    """
    units = []
    for d in directions:
        u = np.asarray(d, dtype=float)
        norm = np.linalg.norm(u)
        if not 0.0 < norm < np.inf:
            raise PreconditionError("directions must be nonzero and finite")
        units.append(u / norm)
    report = []
    for i, x in enumerate(points):
        x = np.asarray(x, dtype=float)
        fx = f(x)
        for j, u in enumerate(units):
            err = abs(float(np.linalg.norm(f(x + delta * u) - fx)) - delta)
            if not err <= RESIDUAL_TOL * max(1.0, delta):
                report.append((i, j, err))
    return report


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Spatial rotation block: identity on the time axis, SO(n-1) below."""
    m = rng.standard_normal((n - 1, n - 1))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    out = np.eye(n)
    out[1:, 1:] = q
    return out


def _boost_along_first_axis(n: int, rapidity: float) -> np.ndarray:
    b = np.eye(n)
    b[0, 0] = b[1, 1] = np.cosh(rapidity)
    b[0, 1] = b[1, 0] = -np.sinh(rapidity)
    return b


def random_lorentz(n: int, rng: np.random.Generator, *,
                   orthochronous: bool = True,
                   proper: bool = True) -> np.ndarray:
    """Random form-preserving matrix: rotation . boost . rotation.

    Rapidity is uniform in [-MAX_RAPIDITY, MAX_RAPIDITY]; the distribution
    is a test convenience, not canonical.
    """
    rho = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY)
    L = random_rotation(n, rng) @ _boost_along_first_axis(n, rho) @ random_rotation(n, rng)
    if not proper and rng.random() < 0.5:
        P = np.eye(n)
        P[-1, -1] = -1.0
        L = L @ P
    if not orthochronous and rng.random() < 0.5:
        T = np.eye(n)
        T[0, 0] = -1.0
        L = T @ L
    return L
