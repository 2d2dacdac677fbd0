"""Normalised timelike velocity fields, the wedge chart and the central
difference every finite-difference quantity of the package is built from.

Events are plain arrays (c t, x, y, z) in length units, so the form matrix
is always diag(1, -1, ..., -1) and the light speed c enters only through
the normalisation u.u = c^2 and explicit factors in derived formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import PreconditionError, inner, metric_matrix, norm_g

__all__ = [
    "VelocityField",
    "boost_killing_field",
    "rotation_killing_field",
    "rescaled_field",
    "boost_killing_flow",
    "rindler_from_event",
    "wedge_chart_metric",
]

NORMALIZATION_RTOL = 1e-10
# step of the central differences of the wedge chart's embedding
WEDGE_CHART_STEP = 1e-5


@dataclass(frozen=True)
class VelocityField:
    """Event -> vector evaluator with u.u = c^2 enforced on evaluation.

    `domain` is checked before every evaluation and guards evaluators that
    would otherwise return a wrong vector off their domain; an evaluator
    that raises PreconditionError there itself passes `lambda x: True`.
    `tag` records the provenance
    (boost-killing | rotation-killing | worldline-induced | user).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool]
    c: float = 1.0
    tag: str = "user"

    def __call__(self, event) -> np.ndarray:
        x = np.asarray(event, dtype=float)
        if not self.domain(x):
            raise PreconditionError(f"event {x.tolist()} outside the field domain")
        u = np.asarray(self.evaluator(x), dtype=float)
        c2 = self.c * self.c
        q = inner(u, u)
        if abs(q - c2) > NORMALIZATION_RTOL * c2:
            raise PreconditionError(
                f"field not normalised at {x.tolist()}: u.u = {q!r}, expected {c2!r}")
        return u

    def lower(self, event) -> np.ndarray:
        """Covector u-flat = G u at the event."""
        u = self(event)
        G = metric_matrix(u.size)
        return G @ u


def boost_killing_field() -> VelocityField:
    """Normalised generator of boosts, on the right wedge x > |ct|, at c = 1.

    The unnormalised generator is x d_ct + ct d_x; its flow moves each
    point along the hyperbola x^2 - (ct)^2 = const.
    """

    def ev(x: np.ndarray) -> np.ndarray:
        x0 = norm_g(x[:2])  # the orbit label, sqrt(x^2 - (ct)^2)
        u = np.zeros(x.size)
        u[0] = x[1] / x0
        u[1] = x[0] / x0
        return u

    def dom(x: np.ndarray) -> bool:
        return x[1] > abs(x[0])

    return VelocityField(ev, dom, 1.0, "boost-killing")


def rotation_killing_field(kappa: float, c: float = 1.0) -> VelocityField:
    """Normalised rigid-rotation generator d_t + kappa d_phi, where timelike.

    In coordinates (ct, x, y, z) the generator is (c, -kappa y, kappa x, 0);
    it stays timelike for radii below c/kappa.
    """

    def ev(x: np.ndarray) -> np.ndarray:
        rho2 = x[1] * x[1] + x[2] * x[2]
        k2 = c * c - kappa * kappa * rho2
        f = c / math.sqrt(k2)
        return np.array([c * f, -kappa * x[2] * f, kappa * x[1] * f, 0.0])

    def dom(x: np.ndarray) -> bool:
        return kappa * math.hypot(x[1], x[2]) < c

    return VelocityField(ev, dom, c, "rotation-killing")


def rescaled_field(field: VelocityField, scaling: Callable[[np.ndarray], float]) -> Callable:
    """Pointwise rescaling of the (un-normalised) generator.

    Returns a raw evaluator, not a VelocityField: the result is
    deliberately unnormalised.  Rigidity is a property of the flow lines,
    so verdicts must not change under such rescalings.
    """

    def ev(x: np.ndarray) -> np.ndarray:
        s = float(scaling(np.asarray(x, dtype=float)))
        if s == 0.0:
            raise PreconditionError("scaling must be nowhere zero")
        return s * field(x)

    return ev


def _central(fn, x: np.ndarray, step: float) -> np.ndarray:
    """out[a] = d_a fn(x) by central differences, for array-valued fn."""
    rows = []
    for a in range(x.size):
        dx = np.zeros(x.size)
        dx[a] = step
        rows.append((np.asarray(fn(x + dx), dtype=float)
                     - np.asarray(fn(x - dx), dtype=float)) / (2 * step))
    return np.array(rows)


# Wedge chart -------------------------------------------------------------

def boost_killing_flow(x0: float, tau: float) -> np.ndarray:
    """Orbit point (ct, x) = x0 (sinh(tau / x0), cosh(tau / x0)), at c = 1.

    tau is the proper time along the orbit labelled by x0 > 0, with tau = 0
    on the x axis.
    """
    if not 0 < x0 < math.inf:  # NaN included
        raise PreconditionError("orbit label x0 must be positive and finite")
    lam = tau / x0
    return np.array([x0 * math.sinh(lam), x0 * math.cosh(lam)])


def rindler_from_event(ct: float, x: float) -> tuple[float, float, float]:
    """Invert the wedge flow: (lambda, tau, x0) from an event with x > |ct|, at c = 1.

    lambda = artanh(ct/x) is the flow parameter of the unnormalised
    generator, x0 = sqrt(x^2 - (ct)^2) the orbit label, tau = x0 lambda
    the proper time.
    """
    if not x > abs(ct):
        raise PreconditionError("event must lie in the right wedge x > |ct|")
    lam = math.atanh(ct / x)
    x0 = math.sqrt(x * x - ct * ct)
    return lam, x0 * lam, x0


def wedge_chart_metric(x0: float, lam: float) -> np.ndarray:
    """Pulled-back form components in the comoving chart (lambda, x0).

    Computed by finite differences of the embedding; the exact components
    are diag(x0^2, -1).
    """

    def embed(q):
        l, r = q
        return np.array([r * math.sinh(l), r * math.cosh(l)])

    jac_t = _central(embed, np.array([lam, x0]), WEDGE_CHART_STEP)  # jac_t[j] = d_j embed
    return jac_t @ metric_matrix(2) @ jac_t.T
