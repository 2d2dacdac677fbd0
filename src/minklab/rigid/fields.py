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

from ..core import PreconditionError, _inner_rows, _norm_g_rows, metric_matrix

__all__ = [
    "VelocityField",
    "boost_killing_field",
    "rotation_killing_field",
    "boost_killing_flow",
    "rindler_from_event",
    "wedge_chart_metric",
]

NORMALIZATION_RTOL = 1e-10
# step of the central differences of the wedge chart's embedding
WEDGE_CHART_STEP = 1e-5


@dataclass(frozen=True)
class VelocityField:
    """Evaluator of rows of events -> rows of vectors, with u.u = c^2
    enforced on evaluation.

    The evaluator and the domain take events as rows, an array (..., n);
    one event (n,) is the one-row case.  The evaluator returns one vector
    per row, in the shape of its input; the domain returns one bool, or one
    bool per row.  The domain is checked before every evaluation and guards
    evaluators that would otherwise return a wrong vector off their domain;
    an evaluator that raises PreconditionError there itself passes
    `lambda x: True`.  A stack with any row off the domain or not
    normalised is refused whole, naming its first such row.  `tag` records
    the provenance (boost-killing | rotation-killing | worldline-induced |
    user).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool | np.ndarray]
    c: float = 1.0
    tag: str = "user"

    def __call__(self, event) -> np.ndarray:
        x = np.asarray(event, dtype=float)
        inside = self.domain(x)
        if not _every(inside):
            raise PreconditionError(
                f"event {_first_row(x, np.logical_not(inside)).tolist()} outside the field domain")
        u = np.asarray(self.evaluator(x), dtype=float)
        if u.shape != x.shape:
            raise PreconditionError(
                f"evaluator returned shape {u.shape} for events of shape {x.shape}")
        c2 = self.c * self.c
        q = _inner_rows(u, u)
        normalised = abs(q - c2) <= NORMALIZATION_RTOL * c2  # False for NaN
        if not _every(normalised):
            off = np.logical_not(normalised)
            raise PreconditionError(
                f"field not normalised at {_first_row(x, off).tolist()}: "
                f"u.u = {float(np.ravel(q)[np.argmax(off)])!r}, expected {c2!r}")
        return u


def _every(mask) -> bool:
    """Whether one bool, or every entry of a bool array, holds.  One event
    gives a single bool, which bool() reads without numpy's reduction."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) and mask.ndim else bool(mask)


def _first_row(x: np.ndarray, mask) -> np.ndarray:
    """The first row of events x (..., n) at which mask (one bool, or one
    per row) holds."""
    i = int(np.argmax(np.broadcast_to(mask, x.shape[:-1])))
    return x.reshape(-1, x.shape[-1])[i]


# The closed-form fields read component i of every row as x.T[i]: a numpy
# scalar for one event, whose arithmetic costs what the one-event formula
# did, and for a stack an array over the rows in reversed axis order, which
# u.T[i] = ... writes back in place (and a domain's .T undoes).

def boost_killing_field() -> VelocityField:
    """Normalised generator of boosts, on the right wedge x > |ct|, at c = 1.

    The unnormalised generator is x d_ct + ct d_x; its flow moves each
    point along the hyperbola x^2 - (ct)^2 = const.
    """

    def ev(x: np.ndarray) -> np.ndarray:
        x0 = _norm_g_rows(x[..., :2]).T  # the orbit label, sqrt(x^2 - (ct)^2)
        u = np.zeros(x.shape)
        u.T[0] = x.T[1] / x0
        u.T[1] = x.T[0] / x0
        return u

    def dom(x: np.ndarray) -> np.ndarray:
        return (x.T[1] > abs(x.T[0])).T

    return VelocityField(ev, dom, 1.0, "boost-killing")


def rotation_killing_field(kappa: float, c: float = 1.0) -> VelocityField:
    """Normalised rigid-rotation generator d_t + kappa d_phi, where timelike.

    In coordinates (ct, x, y, z) the generator is (c, -kappa y, kappa x, 0);
    it stays timelike for radii below c/kappa.
    """

    def ev(x: np.ndarray) -> np.ndarray:
        px, py = x.T[1], x.T[2]
        k2 = c * c - kappa * kappa * (px * px + py * py)
        f = c / np.sqrt(k2)
        u = np.zeros(x.shape)
        u.T[0] = c * f
        u.T[1] = -kappa * py * f
        u.T[2] = kappa * px * f
        return u

    def dom(x: np.ndarray) -> np.ndarray:
        return kappa * np.hypot(x[..., 1], x[..., 2]) < c

    return VelocityField(ev, dom, c, "rotation-killing")


def _stencil(x: np.ndarray, step: float) -> np.ndarray:
    """Rows x + step e_a for every axis a, then x - step e_a: (..., 2n, n)
    for rows x (..., n)."""
    dx = step * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + dx, x[..., None, :] - dx], axis=-2)


def _jet(fn, x, step: float):
    """(fn(x), d fn(x)) at rows x (..., n), the derivative by central
    differences, out[1][..., a, ...] = d_a fn.

    fn takes rows and returns one value (of any shape) per row, or a tuple
    of such arrays, for which both results are tuples with one entry per
    part.  fn is called once, on the rows and their 2n stencil rows, so a
    nested jet is one call on (2n + 1)^2 rows per outer row.
    """
    if not 0 < step < math.inf:  # NaN included
        raise PreconditionError("step must be positive and finite")
    x = np.asarray(x, dtype=float)
    rows = np.concatenate([x[..., None, :], _stencil(x, step)], axis=-2)
    axis = x.ndim - 1

    def split(f):
        centre, plus, minus = np.split(np.asarray(f, dtype=float), [1, 1 + x.shape[-1]], axis=axis)
        return np.squeeze(centre, axis), (plus - minus) / (2 * step)

    f = fn(rows)
    if isinstance(f, tuple):
        centres, derivatives = zip(*map(split, f))
        return centres, derivatives
    return split(f)


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
        l, r = q[..., 0], q[..., 1]
        out = np.empty(q.shape)
        out[..., 0] = r * np.sinh(l)
        out[..., 1] = r * np.cosh(l)
        return out

    jac_t = _jet(embed, np.array([lam, x0]), WEDGE_CHART_STEP)[1]  # jac_t[j] = d_j embed
    return jac_t @ metric_matrix(2) @ jac_t.T
