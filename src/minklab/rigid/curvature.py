"""Finite-difference Riemannian curvature of a coordinate metric.

Conventions: Christoffels from the metric in the usual way, curvature
R^m_[a, bc] = d_b Gamma^m_ac - d_c Gamma^m_ab + Gamma^m_sb Gamma^s_ac
- Gamma^m_sc Gamma^s_ab, lowered with the metric in the first slot.  The
unit sphere then has R_[th ph th ph] = +sin^2."""

from __future__ import annotations

from itertools import permutations
from typing import Callable

import numpy as np

from .fields import _jet

__all__ = [
    "christoffels_fd",
    "riemann_lowered_fd",
    "total_antisymmetrizer",
]

# step of the nested central differences of a closed-form metric
METRIC_STEP = 1e-4


def christoffels_fd(metric: Callable[[np.ndarray], np.ndarray], q: np.ndarray) -> np.ndarray:
    """Gamma[..., m, a, b] at rows q (..., k) by central differences of the
    metric.

    `metric` takes rows of chart points and returns one matrix per row; it
    is called once, on the points and their stencils.
    """
    g, dg = _jet(metric, np.asarray(q, dtype=float), METRIC_STEP)  # dg[..., c, a, b] = d_c g_ab
    ginv = np.linalg.inv(g)
    # Gamma^m_ab = 1/2 g^ml (d_a g_lb + d_b g_al - d_l g_ab)
    gamma = 0.5 * np.einsum("...ml,...alb->...mab", ginv, dg)
    gamma += 0.5 * np.einsum("...ml,...bal->...mab", ginv, dg)
    gamma -= 0.5 * np.einsum("...ml,...lab->...mab", ginv, dg)
    return gamma


def riemann_lowered_fd(metric: Callable[[np.ndarray], np.ndarray], q: np.ndarray) -> np.ndarray:
    """Totally covariant curvature R[..., m, a, b, c] at rows q, nested
    differences.

    `metric` takes rows, as in christoffels_fd; one call covers the nested
    stencil.
    """
    q = np.asarray(q, dtype=float)
    # dgamma[..., d, m, a, b] = d_d Gamma^m_ab
    gamma, dgamma = _jet(lambda y: christoffels_fd(metric, y), q, METRIC_STEP)
    # R^m_abc = d_b Gamma^m_ac - d_c Gamma^m_ab + Gam^m_sb Gam^s_ac - Gam^m_sc Gam^s_ab
    riem_up = (np.einsum("...bmac->...mabc", dgamma)
               - np.einsum("...cmab->...mabc", dgamma)
               + np.einsum("...msb,...sac->...mabc", gamma, gamma)
               - np.einsum("...msc,...sab->...mabc", gamma, gamma))
    return np.einsum("...mn,...nabc->...mabc", metric(q), riem_up)


def total_antisymmetrizer(t: np.ndarray) -> np.ndarray:
    """Projection of rank-4 tensors, the last four axes of t, onto their
    totally antisymmetric parts."""
    lead = tuple(range(t.ndim - 4))
    out = np.zeros_like(t)
    for perm in permutations(range(4)):
        s = _perm_sign(perm)
        out += s * np.transpose(t, lead + tuple(len(lead) + a for a in perm))
    return out / 24.0


def _perm_sign(perm) -> float:
    p = list(perm)
    sign = 1.0
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign
