import math

import numpy as np
import pytest

from minklab.rigid import VelocityField, WorldLineCurve, decomp, foliation_time, worldline


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_future_timelike(rng, n=4, margin=0.1):
    v = rng.standard_normal(n)
    v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + margin
    return v


# Control fields and curves for the rigid tests, at c = 1 in 3+1.  Like
# the package's own, they take rows of events (..., 4) and curve
# parameters of any shape; one event is the one-row case. ---------------

def constant_field() -> VelocityField:
    """Inertial rest-frame field u = e0."""

    def ev(x: np.ndarray) -> np.ndarray:
        u = np.zeros(x.shape)
        u[..., 0] = 1.0
        return u

    return VelocityField(ev, lambda x: True)


def per_event_constant_field() -> VelocityField:
    """constant_field in its old per-event form: one vector whatever the
    input, which the row-wise contract refuses for a stack."""
    return VelocityField(lambda x: np.array([1.0, 0.0, 0.0, 0.0]), lambda x: True)


def radial_expanding_field(eps: float) -> VelocityField:
    """Non-rigid comparison field: normalised e0 + eps * (0, x-vector)."""

    def ev(x: np.ndarray) -> np.ndarray:
        v = np.zeros(x.shape)
        v[..., 0] = 1.0
        v[..., 1:] = eps * x[..., 1:]
        q = v[..., 0] * v[..., 0] - np.vecdot(v[..., 1:], v[..., 1:])
        return v * (1.0 / np.sqrt(q))[..., None]

    def dom(x: np.ndarray) -> np.ndarray:
        return eps * eps * np.vecdot(x[..., 1:], x[..., 1:]) < 1.0

    return VelocityField(ev, dom)


def straight_worldline() -> WorldLineCurve:
    """Inertial curve z(tau) = (tau, 0, 0, 0)."""

    def along_e0(value):
        def ev(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape + (4,))
            out[..., 0] = value(t)
            return out
        return ev

    return WorldLineCurve(z=along_e0(lambda t: t), zdot=along_e0(lambda t: 1.0),
                          zddot=along_e0(lambda t: 0.0), zdddot=along_e0(lambda t: 0.0))


# Test-only verdicts and closed forms, composed from the rigid modules'
# private parts ---------------------------------------------------------

def is_rigid(field: VelocityField, probes, step: float) -> dict:
    """The rigidity verdict of a field at probes: theta from one split over
    all probes' stencils, as reparameterization_invariance_check judges."""
    return decomp._rigidity(decomp._split_rows(field, decomp._probe_rows(probes), step)[1])


def expected_lie_accel(curve: WorldLineCurve, event, tau_window) -> np.ndarray:
    """Closed-form L_u a-flat of a curve's induced field at an event, at its
    solved sigma(x)."""
    return worldline._lie_accel_at(curve, event, foliation_time(curve, event, tau_window))
