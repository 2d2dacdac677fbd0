import math

import numpy as np
import pytest

from minklab.rigid import VelocityField, WorldLineCurve


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_future_timelike(rng, n=4, margin=0.1):
    v = rng.standard_normal(n)
    v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + margin
    return v


# Control fields and curves for the rigid tests, at c = 1 in 3+1 ----------

def constant_field() -> VelocityField:
    """Inertial rest-frame field u = e0."""
    return VelocityField(lambda x: np.array([1.0, 0.0, 0.0, 0.0]), lambda x: True)


def radial_expanding_field(eps: float) -> VelocityField:
    """Non-rigid comparison field: normalised e0 + eps * (0, x-vector)."""

    def ev(x: np.ndarray) -> np.ndarray:
        v = np.zeros(x.size)
        v[0] = 1.0
        v[1:] = eps * x[1:]
        return v * (1.0 / math.sqrt(v[0] * v[0] - float(v[1:] @ v[1:])))

    def dom(x: np.ndarray) -> bool:
        return eps * eps * float(x[1:] @ x[1:]) < 1.0

    return VelocityField(ev, dom)


def straight_worldline() -> WorldLineCurve:
    """Inertial curve z(tau) = (tau, 0, 0, 0)."""
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    return WorldLineCurve(z=lambda t: t * e0, zdot=lambda t: e0.copy(),
                          zddot=lambda t: np.zeros(4), zdddot=lambda t: np.zeros(4))
