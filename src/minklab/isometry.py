"""Poincare and conformal maps: verification, reflections, constructive
decomposition into reflections, dilations, and sample-based harnesses for
the relation-preservation and unit-distance rigidity statements."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (DimensionMismatchError, Event, MinkVector, PreconditionError,
                   _inner_rows, inner, metric_matrix)

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
# images in conformal_factor, of unit distances in unit_distance_harness and
# of the null band of the causal relations in relation_preservation_harness
RESIDUAL_TOL = 1e-9
# random_lorentz draws its rapidity uniformly from [-MAX_RAPIDITY, MAX_RAPIDITY]
MAX_RAPIDITY = 2.0
# is_lorentz accepts L when lorentz_residual(L) is below this
LORENTZ_TOL = 1e-10


def lorentz_residual(L: np.ndarray) -> float:
    """max |(L^T G L - G)_ij| — how far L is from preserving the form G."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be a square matrix")
    return float(_lorentz_residuals(L, metric_matrix(L.shape[0])))


def _lorentz_residuals(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """lorentz_residual of each matrix of a stack (..., n, n)."""
    return np.abs(np.swapaxes(L, -1, -2) @ G @ L - G).max(axis=(-2, -1))


def is_lorentz(L: np.ndarray) -> tuple[bool, float]:
    """Whether L preserves the form to LORENTZ_TOL, together with the residual."""
    r = lorentz_residual(L)
    return r < LORENTZ_TOL, r


@dataclass(frozen=True)
class AffineIsometry:
    """Affine map p -> L p + a with L form-preserving.

    The linear part is validated on construction, and `@` composes two
    maps.
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

    def __matmul__(self, other: "AffineIsometry") -> "AffineIsometry":
        if not isinstance(other, AffineIsometry):
            return NotImplemented
        return AffineIsometry(self.linear @ other.linear,
                              self.linear @ other.translation + self.translation)


@lru_cache(maxsize=None)
def _frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only identity and form matrices of dimension n."""
    E, G = np.eye(n), metric_matrix(n)
    E.flags.writeable = G.flags.writeable = False
    return E, G


def _axis_forms(A: np.ndarray) -> np.ndarray:
    """v.v for every axis row v of A; PreconditionError unless each axis is
    finite, nonzero and non-null to a relative 1e-14."""
    vv = _inner_rows(A, A)
    ok = np.abs(vv) > 1e-14 * np.vecdot(A, A)  # false for NaN and inf
    if np.count_nonzero(ok) < len(ok):
        raise PreconditionError("reflection axis must be finite, non-null and nonzero")
    return vv


def _reflection_matrices(A: np.ndarray) -> np.ndarray:
    """Matrices (N, n, n) of x -> x - 2 v (x.v)/(v.v) for the axis rows v of A."""
    vv = _axis_forms(A)
    GA = -A  # G v for each axis
    GA[:, 0] = A[:, 0]
    E = _frame(A.shape[1])[0]
    return E - (2.0 / vv)[:, None, None] * (A[:, :, None] * GA[:, None, :])


def _as_array(v) -> np.ndarray:
    return v.a if isinstance(v, MinkVector) else np.asarray(v, dtype=float)


def reflection_matrix(v) -> np.ndarray:
    """Matrix of x -> x - 2 v (x.v)/(v.v); undefined for null or non-finite axes."""
    return _reflection_matrices(_as_array(v)[None])[0]


def reflect(v, x):
    """Reflect x at the hyperplane g-orthogonal to v."""
    va, xa = _as_array(v), _as_array(x)
    vv = _axis_forms(va[None])[0]
    out = xa - 2.0 * va * (inner(xa, va) / vv)
    return MinkVector(out) if isinstance(x, MinkVector) else out


@dataclass(frozen=True)
class Reflection:
    """Reflection at the hyperplane orthogonal to the (non-null) axis."""

    axis: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    def __init__(self, axis):
        a = _as_array(axis)
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "matrix", reflection_matrix(a))  # validates the axis

    @classmethod
    def _validated(cls, axis: np.ndarray, matrix: np.ndarray) -> "Reflection":
        """A reflection whose matrix the stacked formula has already built."""
        out = object.__new__(cls)
        object.__setattr__(out, "axis", axis)
        object.__setattr__(out, "matrix", matrix)
        return out


def compose_reflections(mats: np.ndarray, dim: int) -> np.ndarray:
    """Product of reflection matrices, in the given order: each stack of m
    in the array (..., m, dim, dim) is composed in order."""
    out = np.eye(dim)
    for j in range(mats.shape[-3]):
        out = out @ mats[..., j, :, :]
    return out


_ALL = slice(None)


def _rows(mask: np.ndarray):
    """Index of the True rows of mask: _ALL when that is every row, None
    when there is none."""
    count = np.count_nonzero(mask)
    if count == len(mask):
        return _ALL
    return mask.nonzero()[0] if count else None


def _reflection_sweep(L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartan-Dieudonne on a stack L of shape (N, n, n).

    Basis vector k owns the factor slots 2k and 2k+1.  Returns the slot
    axes (N, 2n, n), their matrices (N, 2n, n, n) and which slots are used
    (N, 2n); an unused slot holds a zero axis and the identity, so composing
    every slot in order reproduces L.  The sweep is the one described in
    cartan_dieudonne, with its skip, single-reflection and pair branches
    taken as masks over the stack.
    """
    if L.ndim != 3 or L.shape[1] != L.shape[2]:
        raise ValueError("L must hold square matrices")
    N, n = L.shape[0], L.shape[1]
    E, G = _frame(n)
    r = np.abs(L.mT @ G @ L - G).max(initial=0.0)
    if not r < 1e-8:
        raise PreconditionError(f"input is not an isometry (residual {r:.3e})")
    phi = L.copy()
    axes = np.zeros((N, 2 * n, n))
    mats = np.empty((N, 2 * n, n, n))
    mats[...] = E
    for k in range(n):
        v = E[k]  # basis vectors are unit-norm for the diagonal form
        w = phi[:, :, k]  # phi @ v; the single branch leaves the pair rows as they are
        d = v - w
        dd = np.vecdot(d, d)
        # a row with max |d| < 1e-13, which the sweep skips, has |d.d| far
        # below 1e-8, so no skipped row is single
        single = np.abs(_inner_rows(d, d)) > 1e-8 * np.fmax(dd, 1.0)
        i = _rows(single)
        if i is not None:
            a = d[i] / np.sqrt(dd[i])[:, None]  # d / |d|, as np.linalg.norm takes it
            M = _reflection_matrices(a)
            phi[i] = M @ phi[i]
            axes[i, 2 * k], mats[i, 2 * k] = a, M
        if i is _ALL:
            continue
        i = _rows(~single & (np.abs(d).max(axis=1) >= 1e-13))  # moved along a null d
        if i is not None:
            s = v + w[i]
            a = s / np.sqrt(np.vecdot(s, s))[:, None]
            Ms, Mv = _reflection_matrices(a), reflection_matrix(v)
            phi[i] = Mv @ Ms @ phi[i]
            axes[i, 2 * k], mats[i, 2 * k] = a, Ms  # rho_s acts first
            axes[i, 2 * k + 1], mats[i, 2 * k + 1] = v, Mv
    if np.abs(phi - E).max(initial=0.0) > RESIDUAL_TOL:
        raise RuntimeError("decomposition did not reduce to the identity")
    # phi_m ... phi_1 L = 1, hence L = phi_1 ... phi_m (reflections are involutive)
    used = axes.any(axis=2)  # a reflection axis is never zero
    if used.all(axis=1).any():  # 2n factors, one past the bound
        # reached, like the residual check above, by inputs near the identity
        # that pass the 1e-8 precondition (eye(n) + 1e-10 * noise, n = 2..4)
        raise RuntimeError("factor count exceeded 2n-1")
    return axes, mats, used


def cartan_dieudonne(L: np.ndarray) -> list[Reflection]:
    """Decompose a form-preserving matrix into at most 2n-1 reflections.

    One basis direction is fixed per sweep: if the image w of the basis
    vector v differs from v, apply the reflection at v-w when that axis is
    non-null, otherwise the pair of reflections at v and v+w.  Composing the
    returned list in order reproduces L.  This is the stack of one of the
    stacked sweep that suite_isometry runs.
    """
    axes, mats, used = _reflection_sweep(np.asarray(L, dtype=float)[None])
    return [Reflection._validated(axes[0, j], mats[0, j]) for j in used[0].nonzero()[0]]


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


def _null_probes(n: int) -> np.ndarray:
    """The null probes e0 +- ea, then sqrt(2) e0 + ea + eb (a < b), as rows."""
    e = np.eye(n)
    a, b = np.triu_indices(n - 1, 1)
    return np.concatenate([np.stack([e[0] + e[1:], e[0] - e[1:]], axis=1).reshape(-1, n),
                           np.sqrt(2.0) * e[0] + e[1 + a] + e[1 + b]])


def conformal_factor(f: np.ndarray) -> dict:
    """Factor alpha with g(f.,f.) = alpha g, for a lightcone-preserving f.

    The null probes e0 +- ea and sqrt(2) e0 + ea + eb pin the pulled-back
    form; if any probe image fails to be null the violating probes are
    reported via ConformalProbeError.  alpha is positive iff f keeps the
    timelike character of e0.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    probes = _null_probes(n)
    images = probes @ f.T
    null = np.abs(_inner_rows(images, images)) <= RESIDUAL_TOL * np.fmax(
        np.vecdot(images, images), 1.0)  # fmax, like max(1.0, fp @ fp), ignores NaN
    if not null.all():
        raise ConformalProbeError(list(probes[~null]))
    G = metric_matrix(n)
    h = f.T @ G @ f
    alpha = float(h[0, 0])
    residual = float(np.abs(h - alpha * G).max())
    return {"alpha": alpha, "residual": residual}


_RELATIONS = ("ge", "gt", "lightlike-successor", "interval-sign")


def _relation_row(relation: str, D: np.ndarray) -> np.ndarray:
    """The relation on every displacement d along the last axis of D.

    The quadratic forms are taken with np.vecdot, which equals core.inner
    and d @ d bit for bit.  'interval-sign' gives the sign class of the
    interval: 0 null, 1 positive, 2 negative.
    """
    d0 = D[..., 0]
    q = _inner_rows(D, D)
    e2 = np.vecdot(D, D)
    band = RESIDUAL_TOL * np.fmax(e2, 1.0)  # fmax, like max(1.0, d @ d), ignores NaN
    if relation == "ge":
        return (q >= -band) & ((d0 > 0) | (e2 == 0.0))
    if relation == "gt":
        return (q > band) & (d0 > 0)
    if relation == "lightlike-successor":
        return (np.abs(q) <= band) & (e2 > 0) & (d0 > 0)
    return np.where(np.abs(q) <= band, 0, np.where(q > 0, 1, 2))


def relation_preservation_harness(events: np.ndarray,
                                  mapping: Callable[[np.ndarray], np.ndarray],
                                  relation: str) -> list[tuple[int, int, str]]:
    """Ordered pairs on which the bijection breaks the chosen causal relation.

    `relation` is one of 'ge', 'gt', 'lightlike-successor' (the oriented cone
    relations) or 'interval-sign' (the symmetric interval-sign relation).
    `events` are rows (N, n), and `mapping` takes them to rows of the same
    shape; it is called once, on all of them.  Both the map and its inverse
    on the finite set are examined; the report lists (i, j, 'forward' |
    'inverse') in (i, j) order, and is empty exactly when the relation is
    preserved.  Events that are not rows, or images of another shape, raise
    DimensionMismatchError, a map that is not injective on the events
    raises PreconditionError.

    The injectivity test and each relation table are built once over all
    (N, N) pairs, so the temporary memory is O(N^2 n).
    """
    if relation not in _RELATIONS:
        raise ValueError(f"relation must be one of {_RELATIONS}")
    P = np.asarray(events, dtype=float)
    if P.ndim != 2:
        raise DimensionMismatchError(f"events must be rows (N, n), got shape {P.shape}")
    Q = np.asarray(mapping(P), dtype=float)
    if Q.shape != P.shape:
        raise DimensionMismatchError(f"images have shape {Q.shape}, events {P.shape}")
    if np.triu(np.abs(Q[:, None] - Q).max(axis=2) < 1e-12, 1).any():
        raise PreconditionError("mapping is not injective on the event set")
    before = _relation_row(relation, P[:, None] - P)
    changed = before != _relation_row(relation, Q[:, None] - Q)
    np.fill_diagonal(changed, False)
    i, j = np.nonzero(changed)  # in (i, j) order, hence sorted
    # the oriented relations break forward when only the events relate
    forward = np.ones(len(i), bool) if relation == "interval-sign" else before[i, j]
    return [(a, b, "forward" if f else "inverse")
            for a, b, f in zip(i.tolist(), j.tolist(), forward.tolist())]


def unit_distance_harness(f: Callable[[np.ndarray], np.ndarray],
                          delta: float,
                          points: np.ndarray,
                          directions: np.ndarray) -> list[tuple[int, int, float]]:
    """Check that pairs at Euclidean distance delta stay at distance delta.

    Pairs are built as (x, x + delta * unit direction) from the rows of
    `points` (P, m) and `directions` (D, m); `f` takes rows to rows and is
    called once, on the P points followed by their P D displaced points,
    point by point.  The report lists (point index, direction index,
    |new distance - delta|) for violations in (i, j) order, a non-finite
    distance included.  Points and directions that are not rows of one
    width raise DimensionMismatchError, a zero or non-finite direction
    PreconditionError.  This checks a necessary condition only.
    """
    X = np.asarray(points, dtype=float)
    dirs = np.asarray(directions, dtype=float)
    if X.ndim != 2 or dirs.shape[1:] != X.shape[1:]:
        raise DimensionMismatchError(
            f"points and directions must be rows of one width, got {X.shape} and {dirs.shape}")
    # sqrt of the row-wise dot product is np.linalg.norm of each row, bit for bit
    norms = np.sqrt(np.vecdot(dirs, dirs))
    if not np.all((0.0 < norms) & (norms < np.inf)):
        raise PreconditionError("directions must be nonzero and finite")
    steps = delta * (dirs / norms[:, None])
    Y = np.asarray(f(np.concatenate([X, (X[:, None] + steps).reshape(-1, X.shape[1])])))
    d = Y[len(X):].reshape(len(X), len(steps), Y.shape[-1]) - Y[:len(X), None]
    errs = np.abs(np.sqrt(np.vecdot(d, d)) - delta)
    i, j = np.nonzero(~(errs <= RESIDUAL_TOL * max(1.0, delta)))
    return list(zip(i.tolist(), j.tolist(), errs[i, j].tolist()))


def _require_dim(n: int) -> None:
    if not n >= 2:
        raise ValueError(f"dimension must be at least 2, got {n!r}")


def _rotations(M: np.ndarray) -> np.ndarray:
    """Spatial rotations (K, n, n) from standard normal draws M (K, n-1, n-1).

    Each is the identity on the time axis and, below it, the Q of M's QR
    with R's diagonal made positive, its first column negated when that
    leaves det -1.
    """
    K, m = M.shape[0], M.shape[1]
    q, r = np.linalg.qr(M)
    signs = np.zeros_like(M)
    diag = np.arange(m)
    signs[:, diag, diag] = np.sign(r[:, diag, diag])
    q = q @ signs
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] = -q[flip, :, 0]
    out = np.zeros((K, m + 1, m + 1))
    out[:, 0, 0] = 1.0
    out[:, 1:, 1:] = q
    return out


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Spatial rotation block: identity on the time axis, SO(n-1) below."""
    _require_dim(n)
    return _rotations(rng.standard_normal((1, n - 1, n - 1)))[0]


def random_lorentz(n: int, rng: np.random.Generator, size: int | None = None, *,
                   orthochronous: bool = True,
                   proper: bool = True) -> np.ndarray:
    """Random form-preserving matrix: rotation . boost . rotation.

    With `size` a stack (size, n, n) of them, and without it the stack of
    one.  A stack draws in three calls the rapidities, uniform in
    [-MAX_RAPIDITY, MAX_RAPIDITY], then the normal blocks of each matrix's
    two rotations, then each matrix's parity and time-reversal coins.  The
    distribution is a test convenience, not canonical.
    """
    _require_dim(n)
    if size is not None and (isinstance(size, bool) or not isinstance(size, (int, np.integer))
                             or size < 0):
        raise ValueError(f"size must be None or a non-negative int, got {size!r}")
    k = 1 if size is None else int(size)
    coins = (not proper) + (not orthochronous)
    rapidity = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY, k)
    normals = rng.standard_normal((k, 2, n - 1, n - 1))
    flips = rng.random((k, coins))
    R = _rotations(normals.reshape(2 * k, n - 1, n - 1)).reshape(k, 2, n, n)
    boost = np.tile(np.eye(n), (k, 1, 1))
    boost[:, 0, 0] = boost[:, 1, 1] = np.cosh(rapidity)
    boost[:, 0, 1] = boost[:, 1, 0] = -np.sinh(rapidity)
    L = R[:, 0] @ boost @ R[:, 1]
    if not proper:
        P = np.eye(n)
        P[-1, -1] = -1.0
        flip = flips[:, 0] < 0.5
        L[flip] = L[flip] @ P
    if not orthochronous:
        T = np.eye(n)
        T[0, 0] = -1.0
        flip = flips[:, -1] < 0.5
        L[flip] = T @ L[flip]
    return L[0] if size is None else L
