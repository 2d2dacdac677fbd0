"""One-parameter boost family from the relativity principle.

The family is A(v) = [[a, k v a], [-v a, a]] with a(v) = 1/sqrt(1 + k v^2);
the sign of the constant k picks the branch: k > 0 gives Euclidean rotations
in a rescaled time coordinate, k = 0 the Galilean shear, k < 0 hyperbolic
boosts with invariant speed c = 1/sqrt(-k).  Full spatial boosts follow from
rotation equivariance.
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
    "rotation_embedding",
    "rotation_taking_x_axis",
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


def rotation_embedding(D: np.ndarray) -> np.ndarray:
    """4x4 block matrix acting as identity on time and D on space; one per
    matrix of a stack (..., 3, 3)."""
    D = np.asarray(D, dtype=float)
    out = np.zeros(D.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = D
    return out


_EX = np.array([1.0, 0.0, 0.0])


def rotation_taking_x_axis(direction: np.ndarray) -> np.ndarray:
    """Minimal rotation D with D e_x = direction/|direction|; one per
    direction of a stack (..., 3).

    Rodrigues construction about e_x cross direction; the antipodal case
    uses the 180-degree rotation about e_y.
    """
    d = np.asarray(direction, dtype=float)
    norm = np.sqrt(np.vecdot(d, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = d / norm[..., None]
        c = np.vecdot(_EX, d)
        # e_x cross d is (0, -d_z, d_y).  np.cross puts 0 d_z - 0 d_y, a zero
        # of either sign, in the first entry; no result depends on that sign,
        # so the (1, 2) and (2, 1) entries of K stay 0.
        axis = np.zeros_like(d)
        axis[..., 1], axis[..., 2] = -d[..., 2], d[..., 1]
        s = np.sqrt(np.vecdot(axis, axis))
        axis = axis / s[..., None]
    K = np.zeros(d.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -axis[..., 2], axis[..., 1]
    K[..., 1, 0], K[..., 2, 0] = axis[..., 2], -axis[..., 1]
    out = np.eye(3) + s[..., None, None] * K + (1.0 - c)[..., None, None] * (K @ K)
    out = np.where((c < -1.0 + 1e-14)[..., None, None], np.diag([-1.0, 1.0, -1.0]), out)
    return np.where(((norm == 0.0) | (c > 1.0 - 1e-14))[..., None, None], np.eye(3), out)


def _boost_3d_rows(v: np.ndarray, c: float) -> np.ndarray:
    """boost_3d of each velocity of a stack (..., 3), all below c."""
    speed = np.sqrt(np.vecdot(v, v))
    B = np.zeros(v.shape[:-1] + (4, 4))
    B[..., :2, :2] = boost_matrix_1d(-1.0 / (c * c), speed)
    B[..., 2, 2] = B[..., 3, 3] = 1.0
    D = rotation_embedding(rotation_taking_x_axis(v))
    return np.where((speed == 0.0)[..., None, None], np.eye(4),
                    D @ B @ np.swapaxes(D, -1, -2))


def boost_3d(velocity: np.ndarray, c: float = 1.0) -> np.ndarray:
    """4x4 boost on (t, x, y, z) for a spatial velocity below c.

    Built by rotating the x-axis onto the velocity direction, applying the
    1D family member with k = -1/c^2 on the (t, x) block, and rotating back.
    """
    v = np.asarray(velocity, dtype=float)
    if v.shape != (3,):
        raise ValueError("velocity must be a 3-vector")
    speed = float(np.linalg.norm(v))
    if not speed < c:  # NaN included
        raise PreconditionError(f"speed {speed} is not below c = {c}")
    return _boost_3d_rows(v, c)
