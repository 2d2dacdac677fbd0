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


def _check_domain(k: float, v: float) -> None:
    if not (math.isfinite(v) and 1.0 + k * v * v > 0.0):  # NaN k included
        raise PreconditionError(
            f"velocity {v} outside the branch domain (needs a finite v with 1 + k v^2 > 0)")


def a_of_v(k: float, v: float) -> float:
    """Diagonal entry a(v) = 1/sqrt(1 + k v^2); even in v, a(0) = 1."""
    _check_domain(k, v)
    return 1.0 / math.sqrt(1.0 + k * v * v)


def boost_matrix_1d(k: float, v: float) -> np.ndarray:
    """2x2 action on (t, x): [[a, k v a], [-v a, a]].

    Unimodular with equal diagonal entries; A(-v) is the inverse of A(v).
    """
    a = a_of_v(k, v)
    return np.array([[a, k * v * a], [-v * a, a]])


def compose_velocities(k: float, v: float, vp: float) -> float:
    """Composition law v'' = (v + v')/(1 - k v v').

    At the pole k v v' = 1 (reachable only for k > 0) the composed velocity
    is infinite: math.inf is returned rather than raising, since the
    rotation branch genuinely passes through the point at infinity.
    """
    _check_domain(k, v)
    _check_domain(k, vp)
    denom = 1.0 - k * v * vp
    if denom == 0.0:
        return math.inf
    return (v + vp) / denom


def rapidity(v: float, c: float = 1.0) -> float:
    """artanh(v/c); additive under composition on the k < 0 branch."""
    if not abs(v) < c:  # NaN included
        raise PreconditionError(f"|v| must be below the invariant speed {c}")
    return math.atanh(v / c)


def rotation_embedding(D: np.ndarray) -> np.ndarray:
    """4x4 block matrix acting as identity on time and D on space."""
    D = np.asarray(D, dtype=float)
    out = np.eye(4)
    out[1:, 1:] = D
    return out


def rotation_taking_x_axis(direction: np.ndarray) -> np.ndarray:
    """Minimal rotation D with D e_x = direction/|direction|.

    Rodrigues construction about e_x cross direction; the antipodal case
    uses the 180-degree rotation about e_y.
    """
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        return np.eye(3)
    d = d / norm
    ex = np.array([1.0, 0.0, 0.0])
    c = float(ex @ d)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([-1.0, 1.0, -1.0])  # pi about e_y
    axis = np.cross(ex, d)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


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
    if speed == 0.0:
        return np.eye(4)
    k = -1.0 / (c * c)
    B = np.eye(4)
    B[:2, :2] = boost_matrix_1d(k, speed)
    D = rotation_embedding(rotation_taking_x_axis(v))
    return D @ B @ D.T
