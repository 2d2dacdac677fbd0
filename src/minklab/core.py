"""Vector and affine-space foundation of flat spacetime.

Coordinates are ordered time-first and the bilinear form is fixed to the
mostly-minus signature diag(1, -1, ..., -1).  Vectors (differences) and
events (points) are distinct types: Event - Event gives a MinkVector,
Event + MinkVector gives an Event, and Event + Event is a type error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "PreconditionError",
    "MinkVector",
    "Event",
    "Metric",
    "CausalClass",
    "Hyperplane",
    "AffineFrame",
    "metric_matrix",
    "inner",
    "norm_g",
    "classify",
    "cauchy_schwarz_case",
    "strict_inverted_cs_holds",
    "reversed_triangle_check",
    "minkowski_distance",
    "affine_combination",
    "frame_coords",
    "frame_point",
]


# tolerance of the float predicates: lightlike classification (relative to
# the Euclidean norm squared), hyperplane and world-line membership, and
# world-line equality
PREDICATE_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


def _as_array(components: Iterable[float]) -> np.ndarray:
    a = np.asarray(components, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a flat tuple of at least 2 components")
    return a


def metric_matrix(dim: int) -> np.ndarray:
    """Matrix of the bilinear form on the standard basis: diag(1, -1, ..., -1)."""
    g = -np.eye(dim)
    g[0, 0] = 1.0
    return g


@dataclass(frozen=True, eq=False)
class _Coords:
    """Coordinates, time component first: the one record under MinkVector
    and Event, which add only their operators."""

    a: np.ndarray

    def __init__(self, a: Iterable[float]):
        object.__setattr__(self, "a", _as_array(a))

    @property
    def dim(self) -> int:
        return self.a.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.a.tolist()})"


class MinkVector(_Coords):
    """Element of the translation vector space."""

    def __add__(self, other):
        if isinstance(other, MinkVector):
            _check_dims(self, other)
            return MinkVector(self.a + other.a)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, MinkVector):
            _check_dims(self, other)
            return MinkVector(self.a - other.a)
        return NotImplemented

    def __mul__(self, scalar: float) -> "MinkVector":
        return MinkVector(self.a * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "MinkVector":
        return MinkVector(-self.a)


class Event(_Coords):
    """Point of the affine space.  Supports p - q and p + v, nothing else."""

    def __add__(self, other):
        if isinstance(other, MinkVector):
            _check_dims(self, other)
            return Event(self.a + other.a)
        if isinstance(other, Event):
            raise TypeError("cannot add two events; subtract them instead")
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Event):
            _check_dims(self, other)
            return MinkVector(self.a - other.a)
        if isinstance(other, MinkVector):
            _check_dims(self, other)
            return Event(self.a - other.a)
        return NotImplemented


def _check_dims(x, y) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")


def _vec(v) -> np.ndarray:
    """Coordinates of a MinkVector, or of a flat array-like of at least 2
    components."""
    if isinstance(v, MinkVector):
        return v.a
    return _as_array(v)


def inner(v, w) -> float:
    """Bilinear form v.w = v0*w0 - sum_i vi*wi."""
    va, wa = _vec(v), _vec(w)
    if va.size != wa.size:
        raise DimensionMismatchError(f"dimension mismatch: {va.size} vs {wa.size}")
    return float(va[0] * wa[0] - va[1:] @ wa[1:])


def _inner_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The bilinear form along the last axis of broadcast stacks v and w.

    np.vecdot is the 1-D @ of `inner` row by row, so each entry equals
    inner of the rows bit for bit.
    """
    return v[..., 0] * w[..., 0] - np.vecdot(v[..., 1:], w[..., 1:])


def norm_g(v) -> float:
    """sqrt(|v.v|); degenerates to 0 on the light cone."""
    return float(_norm_g_rows(_vec(v)))


def _norm_g_rows(v: np.ndarray) -> np.ndarray:
    """norm_g along the last axis of a stack."""
    return np.sqrt(np.abs(_inner_rows(v, v)))


@dataclass(frozen=True)
class CausalClass:
    """Causal character of a vector, with time orientation when it has one."""

    label: str  # "timelike" | "lightlike" | "spacelike" | "zero"
    oriented: str | None = None  # "future" | "past" for non-spacelike nonzero

    def __str__(self) -> str:
        return self.label if self.oriented is None else f"{self.label}/{self.oriented}"


@dataclass(frozen=True)
class Metric:
    """Classification context: the dimension.

    The future is the orientation class of e0, and a vector is lightlike
    when |v.v| <= PREDICATE_TOL times its Euclidean norm squared.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")


def classify(v, m: Metric) -> CausalClass:
    """Causal class of v: timelike/lightlike/spacelike, oriented when causal.

    The zero vector gets its own label and is never reported lightlike.
    """
    va = _vec(v)
    if va.size != m.dim:
        raise DimensionMismatchError(f"vector has dim {va.size}, metric dim {m.dim}")
    eucl2 = float(va @ va)
    if eucl2 == 0.0:
        return CausalClass("zero")
    q = inner(va, va)
    if abs(q) <= PREDICATE_TOL * eucl2:
        label = "lightlike"
    elif q > 0:
        label = "timelike"
    else:
        return CausalClass("spacelike")
    return CausalClass(label, "future" if va[0] > 0 else "past")


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Affine hyperplane through `base` with g-normal `normal`."""

    normal: MinkVector
    base: Event

    def __post_init__(self):
        if float(self.normal.a @ self.normal.a) == 0.0:
            raise ValueError("normal must be nonzero")
        _check_dims(self.normal, self.base)

    def contains(self, p: Event) -> bool:
        d = p - self.base
        scale = max(1.0, float(np.linalg.norm(self.normal.a) * np.linalg.norm(d.a)))
        return abs(inner(self.normal, d)) <= PREDICATE_TOL * scale


def cauchy_schwarz_case(v, w) -> dict:
    """Inverted Cauchy-Schwarz trichotomy for a 2-plane span{v, w}.

    Returns lhs = (v.v)(w.w), rhs = (v.w)^2 and the case '<=' / '==' / '>='
    according to the span being timelike / lightlike / spacelike.
    """
    va, wa = _vec(v), _vec(w)
    gram = np.array([[inner(va, va), inner(va, wa)], [inner(va, wa), inner(wa, wa)]])
    scale = max((va @ va) * (wa @ wa), 1e-300)
    if _gram_rank_deficient(va, wa):
        raise PreconditionError("v and w must be linearly independent")
    det = float(np.linalg.det(gram))
    lhs = float(gram[0, 0] * gram[1, 1])
    rhs = float(gram[0, 1] ** 2)
    if abs(det) <= 1e-12 * scale:
        case, span = "==", "lightlike"
    elif det < 0:
        case, span = "<=", "timelike"
    else:
        case, span = ">=", "spacelike"
    return {"case": case, "lhs": lhs, "rhs": rhs, "span": span}


def _gram_rank_deficient(va: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Whether w is linearly dependent on va, for w = W or each row of W.

    One batched rank call with a tolerance per pair; its singular values
    equal those of the pairs taken one at a time bit for bit.
    """
    m = np.stack(np.broadcast_arrays(va, W), axis=-2)
    tol = 1e-12 * np.fmax(np.abs(m).max(axis=(-2, -1)), 1.0)
    return np.linalg.matrix_rank(m, tol=tol) < 2


def strict_inverted_cs_holds(v, sample_count: int = 1000, seed: int = 0) -> dict:
    """Sample-based check of the strict inequality (v.v)(w.w) < (v.w)^2.

    Holds for every w independent of v iff v is timelike (dim > 2).  For
    non-timelike v a deterministic witness is constructed in addition to the
    random sweep; the returned dict carries `holds` and, when False, a
    `witness` vector violating strictness.  The sweep draws all samples at
    once, the same stream as drawing them one by one, and the witness is the
    first violating sample independent of v.  The seed is an int or a
    Generator, which the sweep draws from as it stands.  The batched draw
    and rank test take O(sample_count n) memory for v of dimension n.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count must be non-negative (got {sample_count})")
    va = _vec(v)
    witness = _first_violation(va, _violation_candidates(va))
    if witness is None:
        rng = np.random.default_rng(seed)
        witness = _first_violation(va, rng.standard_normal((sample_count, va.size)))
    return {"holds": witness is None, "witness": witness}


def _first_violation(va: np.ndarray, W: np.ndarray) -> MinkVector | None:
    """First row of W that is independent of va and defeats strictness."""
    W = W[~_gram_rank_deficient(va, W)]
    hits = np.flatnonzero(_violates_strict_ics(va, W))
    return MinkVector(W[hits[0]]) if hits.size else None


def _violates_strict_ics(va: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(v.v)(w.w) >= (v.w)^2 up to rounding, for each row w of W.

    np.vecdot equals w @ w bit for bit, and float_power is libm's pow, as
    the scalar (v.w) ** 2 is; vw * vw differs from it in the last bit on
    about 0.1 % of values.
    """
    ww = _inner_rows(W, W)
    vw = _inner_rows(va, W)
    lhs = inner(va, va) * ww
    rhs = np.float_power(vw, 2)
    scale = np.maximum((va @ va) * np.vecdot(W, W), 1e-300)
    return lhs >= rhs - 1e-14 * scale


def _violation_candidates(va: np.ndarray) -> np.ndarray:
    """Projections of the basis into va's g-orthogonal complement, as rows,
    then, in dimension 3 and up, (0, u) with u a unit spatial vector
    orthogonal to va's spatial part.

    For spacelike va some projections are spacelike, for lightlike va they
    lie in the degenerate hyperplane; either way they defeat strictness.
    Near the light cone the projections can all be timelike, but (0, u) is
    spacelike and g-orthogonal to va, so it still violates.  For timelike va
    the complement is spacelike and no candidate violates.
    """
    vv = inner(va, va)
    if abs(vv) > 1e-14 * float(va @ va):
        subtract, denom = va, vv
    else:
        # lightlike axis: project along the time-flipped vector, which is
        # never g-orthogonal to va
        subtract = va.copy()
        subtract[0] = -subtract[0]
        denom = inner(subtract, va)
    rows = [b - subtract * (inner(b, va) / denom) for b in np.eye(va.size)]
    if va.size >= 3:
        s = va[1:]
        e = np.eye(s.size)[np.argmin(np.abs(s))]  # s is never along e, so u != 0
        u = e - s * ((e @ s) / ((s @ s) or 1.0))
        rows.append(np.concatenate([[0.0], u / np.linalg.norm(u)]))
    return np.array(rows)


def reversed_triangle_check(v, w) -> dict:
    """||v+w||_g >= ||v||_g + ||w||_g for timelike v, w of equal orientation.

    Returns holds and slack = lhs - rhs (zero iff parallel).  Raises
    PreconditionError on non-timelike input or opposite orientations.
    """
    va, wa = _vec(v), _vec(w)
    if inner(va, va) <= 0 or inner(wa, wa) <= 0:
        raise PreconditionError("both vectors must be timelike")
    if inner(va, wa) <= 0:
        raise PreconditionError("vectors must have the same time orientation")
    lhs = norm_g(va + wa)
    rhs = norm_g(va) + norm_g(wa)
    slack = lhs - rhs
    return {"holds": slack >= -1e-12 * max(1.0, rhs), "slack": slack}


def minkowski_distance(p: Event, q: Event) -> float:
    """||p - q||_g.  Not a metric: vanishes on lightlike pairs and the
    triangle inequality fails for causal chains."""
    return norm_g(p - q)


def affine_combination(points: Sequence[Event], weights: Sequence[float]) -> Event:
    """Weighted combination of events with weights summing to one.

    The expansion base does not matter; we expand around the first point.
    """
    if len(points) == 0:
        raise PreconditionError("need at least one point")
    if len(points) != len(weights):
        raise PreconditionError("points and weights must have equal length")
    wsum = float(np.sum(weights))
    if abs(wsum - 1.0) > 1e-12:
        raise PreconditionError(f"weights must sum to 1 (got {wsum!r})")
    base = points[0]
    acc = np.zeros(base.dim)
    for p, w in zip(points, weights):
        acc += float(w) * (p - base).a
    return base + MinkVector(acc)


@dataclass(frozen=True, eq=False)
class AffineFrame:
    """Origin plus a basis, regarded as a chart R^n -> affine space."""

    origin: Event
    basis: tuple[MinkVector, ...]

    def __post_init__(self):
        mat = self.matrix
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("need exactly dim basis vectors")
        if abs(np.linalg.det(mat)) < 1e-14 * max(1.0, float(np.abs(mat).max()) ** mat.shape[0]):
            raise ValueError("basis is linearly dependent")

    @property
    def matrix(self) -> np.ndarray:
        """Columns are the basis vectors."""
        return np.column_stack([b.a for b in self.basis])


def frame_coords(frame: AffineFrame, p: Event) -> np.ndarray:
    """Coordinates of p in the frame (inverse of frame_point)."""
    return np.linalg.solve(frame.matrix, (p - frame.origin).a)


def frame_point(frame: AffineFrame, x: Sequence[float]) -> Event:
    """Event at coordinates x: origin + sum x_a * basis_a."""
    xa = np.asarray(x, dtype=float)
    return frame.origin + MinkVector(frame.matrix @ xa)
