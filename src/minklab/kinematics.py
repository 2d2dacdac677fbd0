"""One-parameter boost family from the relativity principle.

The family is A(v) = [[a, k v a], [-v a, a]] with a(v) = 1/sqrt(1 + k v^2);
the sign of the constant k picks the branch: k > 0 gives Euclidean rotations
in a rescaled time coordinate, k = 0 the Galilean shear, k < 0 hyperbolic
boosts with invariant speed c = 1/sqrt(-k).  The spatial boost is the
closed form by a 3-velocity, one helper that projective's boosts share; the
kinematics suite checks that it is rotation-equivariant, which is how the
paper carries the 1D family to 3+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PreconditionError

__all__ = [
    "BoostFamily",
    "classify_branch",
    "a_of_v",
    "boost_matrix_1d",
    "compose_velocities",
    "rapidity",
    "boost_3d",
]


@dataclass(frozen=True)
class BoostFamily:
    """The boost family for a fixed constant k (units: inverse velocity^2)."""

    k: float

    @property
    def branch(self) -> str:
        if self.k > 0:
            return "euclidean"
        return "galilei" if self.k == 0 else "lorentz"

    @property
    def invariant_speed(self) -> float | None:
        """1/sqrt(-k) for k < 0, infinite for k = 0, undefined for k > 0."""
        if self.k < 0:
            return 1.0 / math.sqrt(-self.k)
        return math.inf if self.k == 0 else None


def classify_branch(k: float) -> BoostFamily:
    """Branch label and invariant speed for the constant k."""
    return BoostFamily(float(k))


def _check_domain(k, v) -> None:
    """Refuse a v outside the branch domain of k; for stacks k and v
    (broadcast), refuse the stack if any row is outside."""
    # one comparison, elementwise on stacks: 0 v is NaN for an infinite v
    # (a stack warns of it), and NaN, a NaN k included, compares false
    ok = 1.0 + k * v * v > 0.0 * v
    if ok is True or ok is not False and ok.all():  # numpy's booleans have all()
        return
    if ok is not False:  # name the first velocity outside
        v = np.broadcast_to(v, ok.shape)[~ok][0]
    raise PreconditionError(
        f"velocity {v} outside the branch domain (needs a finite v with 1 + k v^2 > 0)")


def _a_rows(k: float, v):
    """a(v) of each velocity of a stack, all in the branch domain of k."""
    return 1.0 / np.sqrt(1.0 + k * v * v)


def a_of_v(k: float, v: float) -> float:
    """Diagonal entry a(v) = 1/sqrt(1 + k v^2); even in v, a(0) = 1."""
    _check_domain(k, v)
    return float(_a_rows(k, v))


def boost_matrix_1d(k, v) -> np.ndarray:
    """2x2 action on (t, x): [[a, k v a], [-v a, a]]; for stacks k and v
    (broadcast to shape S), one matrix per row, shape S + (2, 2).

    Unimodular with equal diagonal entries; A(-v) is the inverse of A(v).
    """
    _check_domain(k, v)
    a = _a_rows(k, v)
    A = np.array([[a, k * v * a], [-v * a, a]], dtype=float)
    return A if A.ndim == 2 else A.transpose(*range(2, A.ndim), 0, 1)  # 2x2 axes last


def compose_velocities(k, v, vp):
    """Composition law v'' = (v + v')/(1 - k v v'); for stacks k, v and v'
    (broadcast), one composed velocity per row.

    At the pole k v v' = 1 (reachable only for k > 0) the composed velocity
    is infinite: math.inf is returned rather than raising, since the
    rotation branch genuinely passes through the point at infinity.
    """
    _check_domain(k, v)
    _check_domain(k, vp)
    denom = 1.0 - k * v * vp
    if isinstance(denom, float):  # one velocity pair
        return (v + vp) / denom if denom else math.inf
    with np.errstate(divide="ignore"):
        return np.where(denom == 0.0, math.inf, (v + vp) / denom)[()]


def rapidity(v, c: float = 1.0):
    """artanh(v/c); additive under composition on the k < 0 branch.  For a
    stack of velocities, one rapidity per entry."""
    inside = abs(v) < c  # NaN included
    if not (inside is True or inside is not False and inside.all()):
        raise PreconditionError(f"|v| must be below the invariant speed {c}")
    beta = v / c
    if isinstance(beta, float):
        return math.atanh(beta)
    # libm's atanh per entry, as for one velocity: np.arctanh differs from
    # it in the last bit on some
    return np.array(list(map(math.atanh, beta.ravel().tolist()))).reshape(beta.shape)


def _gamma_rows(v: np.ndarray, c: float) -> np.ndarray:
    """1/sqrt(1 - v.v/c^2) of each velocity of a stack (..., 3).

    The one speed check of the spatial boosts: the stack is refused unless
    every speed is below c, so a NaN speed is refused too.
    """
    vv = np.vecdot(v, v)
    below = np.sqrt(vv) < c
    if not (below is np.True_ or below.all()):  # one velocity skips the reduction
        speed = math.sqrt(np.ravel(vv)[~np.ravel(below)][0])
        raise PreconditionError(f"speed {speed} is not below c = {c}")
    return 1.0 / np.sqrt(1.0 - vv / (c * c))


def _boost_rows(v: np.ndarray, gamma: np.ndarray, t, x, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form boost of the events (t, x), t of shape S and x of shape
    S + (3,), by velocities v (..., 3) below c with their gammas (...),
    broadcast against the events: t' = gamma (t - v.x/c^2) and
    x' = gamma (x_par - v t) + x_perp, x_par the part of x along v."""
    vv = np.vecdot(v, v)
    vx = np.vecdot(x, v)
    xpar = (vx / (vv + (vv == 0.0)))[..., None] * v  # at rest, v.v divides as 1
    return (gamma * (t - vx / (c * c)),
            gamma[..., None] * (xpar - v * t[..., None]) + (x - xpar))


# the basis events (t, x) of (t, x, y, z), in column order
_BASIS_T, _BASIS_X = np.eye(4)[:, 0], np.eye(4)[:, 1:]


def _boost_3d_rows(v: np.ndarray, c: float) -> np.ndarray:
    """boost_3d of each velocity of a stack (..., 3)."""
    v = v[..., None, :]
    tp, xp = _boost_rows(v, _gamma_rows(v, c), _BASIS_T, _BASIS_X, c)
    return np.concatenate([tp[..., None, :], np.swapaxes(xp, -1, -2)], axis=-2)


def boost_3d(velocity: np.ndarray, c: float = 1.0) -> np.ndarray:
    """4x4 boost on (t, x, y, z) for a spatial velocity below c.

    Its columns are the closed-form boosts of the basis events; on the
    (t, x) block of a velocity along x it is the 1D family member with
    k = -1/c^2.
    """
    v = np.asarray(velocity, dtype=float)
    if v.shape != (3,):
        raise ValueError("velocity must be a 3-vector")
    return _boost_3d_rows(v, c)
