"""Per-event references for the stacked rigid code.

These are the one-event formulas the rigid modules computed before they
took rows: the per-axis central-difference loop, the scalar closed forms
of the fields and curves, the per-event Herglotz root solve, and the
decomposition, Lie-derivative and curvature algebra on one event.  The
tests compare the stacked code with them byte for byte.  Every callable
here takes one event (or one tau) and returns one value.  The closed forms
call numpy's ufuncs (np.sinh, np.cosh, np.arctan, np.hypot, np.arctan2)
on one number, which give the bits they give on a whole array; a square
is a product, as numpy's array power computes it.
"""

import itertools
import math

import numpy as np

from minklab.core import PreconditionError, inner, metric_matrix, norm_g
from minklab.rigid import worldline
from minklab.rigid.worldline import CAUSTIC_GUARD


def central_loop(fn, x, step):
    """out[a] = d_a fn(x), one axis at a time, fn called on one event."""
    rows = []
    for a in range(x.size):
        dx = np.zeros(x.size)
        dx[a] = step
        rows.append((np.asarray(fn(x + dx), dtype=float)
                     - np.asarray(fn(x - dx), dtype=float)) / (2 * step))
    return np.array(rows)


# fields and curves, one event or one tau at a time -------------------------

def boost_ev(x):
    x0 = norm_g(x[:2])
    u = np.zeros(x.size)
    u[0] = x[1] / x0
    u[1] = x[0] / x0
    return u


def boost_dom(x):
    return x[1] > abs(x[0])


def rotation_ev(kappa, c):
    def ev(x):
        rho2 = x[1] * x[1] + x[2] * x[2]
        k2 = c * c - kappa * kappa * rho2
        f = c / math.sqrt(k2)
        return np.array([c * f, -kappa * x[2] * f, kappa * x[1] * f, 0.0])
    return ev


def rotation_dom(kappa, c):
    return lambda x: kappa * np.hypot(x[1], x[2]) < c


class ScalarCurve:
    """A worldline's closed forms on one tau at a time."""

    def __init__(self, z, zdot, zddot, zdddot, c=1.0):
        self.z, self.zdot, self.zddot, self.zdddot, self.c = z, zdot, zddot, zdddot, c


def hyperbolic_curve(x0, c=1.0):
    def make(fn0, fn1, scale):
        def ev(t):
            out = np.zeros(4)
            lam = c * t / x0
            out[0] = scale * fn0(lam)
            out[1] = scale * fn1(lam)
            return out
        return ev

    return ScalarCurve(make(np.sinh, np.cosh, x0), make(np.cosh, np.sinh, c),
                       make(np.sinh, np.cosh, c * c / x0),
                       make(np.cosh, np.sinh, c ** 3 / (x0 * x0)), c)


def wiggly_curve(eps):
    s = math.sqrt(eps)

    def uexp(t):
        u = 1.0 + eps * t * t
        chi_p = 2.0 * eps * t / u
        chi_pp = 2.0 * eps / u - chi_p * chi_p
        return 0.5 * (u + 1.0 / u), 0.5 * (u - 1.0 / u), chi_p, chi_pp

    def z(t):
        out = np.zeros(4)
        poly = t + eps * (t * t * t) / 3.0
        arct = np.arctan(s * t) / s
        out[0] = 0.5 * (poly + arct)
        out[1] = 0.5 * (poly - arct)
        return out

    def zdot(t):
        out = np.zeros(4)
        out[0], out[1], _, _ = uexp(t)
        return out

    def zddot(t):
        out = np.zeros(4)
        cosh, sinh, chi_p, _ = uexp(t)
        out[0] = chi_p * sinh
        out[1] = chi_p * cosh
        return out

    def zdddot(t):
        out = np.zeros(4)
        cosh, sinh, chi_p, chi_pp = uexp(t)
        out[0] = chi_pp * sinh + chi_p * chi_p * cosh
        out[1] = chi_pp * cosh + chi_p * chi_p * sinh
        return out

    return ScalarCurve(z, zdot, zddot, zdddot)


def foliation_time(curve, x, tau_window, evaluations=None, bisections=None):
    """The per-event Herglotz root solve: the bracket grown on its own
    until f changes sign strictly, then Newton steps tau += f/(c^2 N) from
    its midpoint, a bisection where the step would leave the bracket or
    N <= 0, until a step of at most 1e-14 + 8.9e-16 |tau| has been taken.
    `evaluations`, a list, collects every tau at which f was evaluated, and
    `bisections` every tau the solve bisected from."""
    c2 = curve.c * curve.c

    def f_and_n(tau):
        if evaluations is not None:
            evaluations.append(tau)
        rel = x - curve.z(tau)
        return inner(curve.zdot(tau), rel), 1.0 - inner(curve.zddot(tau), rel) / c2

    lo, hi = tau_window
    flo, fhi = f_and_n(lo)[0], f_and_n(hi)[0]
    grow = 0
    while not (flo < 0 < fhi or fhi < 0 < flo):
        span = hi - lo
        lo, hi = lo - 0.5 * span, hi + 0.5 * span
        flo, fhi = f_and_n(lo)[0], f_and_n(hi)[0]
        grow += 1
        if grow > 60:
            raise PreconditionError("could not bracket the hyperplane parameter")
    tau = 0.5 * (lo + hi)
    for _ in range(200):
        f, n = f_and_n(tau)
        if (f < 0) == (flo < 0):
            lo = tau
        else:
            hi = tau
        new = tau + f / (c2 * n)
        if not (n > 0 and lo <= new <= hi):
            new = 0.5 * (lo + hi)
            if bisections is not None:
                bisections.append(tau)
        tau, step = new, new - tau
        if abs(step) <= 1e-14 + 8.9e-16 * abs(tau):
            break
    else:
        raise PreconditionError("the hyperplane parameter did not converge")
    n = 1.0 - inner(curve.zddot(tau), x - curve.z(tau)) / c2
    if n <= CAUSTIC_GUARD:
        raise PreconditionError("event within the caustic guard")
    return float(tau)


def herglotz_ev(curve, tau_window):
    return lambda x: curve.zdot(foliation_time(curve, x, tau_window))


# decomposition, Lie derivatives and curvature on one event -------------------

def decomposition(ev, x, step, c=1.0):
    """(theta, omega, accel, accel_flat, u) of a per-event evaluator."""
    u = ev(x)
    n = u.size
    G = metric_matrix(n)
    D = central_loop(ev, x, step) @ G
    accel_flat = u @ D
    accel = G @ accel_flat
    ul = G @ u
    P = np.eye(n) - np.outer(u, ul) / (c * c)
    sym = 0.5 * (D + D.T)
    antisym = 0.5 * (D - D.T)
    return P.T @ sym @ P, P.T @ antisym @ P, accel, accel_flat, u


def accel_oneform(ev, x, step):
    u = ev(x)
    D = central_loop(ev, x, step) @ metric_matrix(x.size)
    return u @ D


def lie_derivative_oneform(ev, oneform, x, step):
    u = ev(x)
    alpha = np.asarray(oneform(x), dtype=float)
    dalpha = central_loop(oneform, x, step)
    du = central_loop(ev, x, step)
    return np.array([u @ dalpha[:, b] + alpha @ du[b, :] for b in range(x.size)])


def lie_derivative_2tensor(ev, tensor, x, step):
    u = ev(x)
    T = np.asarray(tensor(x), dtype=float)
    dT = central_loop(tensor, x, step)
    du = central_loop(ev, x, step)
    out = np.einsum("c,cab->ab", u, dT)
    out += np.einsum("cb,ac->ab", T, du)
    out += np.einsum("ac,bc->ab", T, du)
    return out


def spatial_metric(u, c):
    G = metric_matrix(u.size)
    if not abs(inner(u, u) - c * c) <= 1e-8 * c * c:
        raise PreconditionError("u must be normalised to u.u = c^2")
    ul = G @ u
    return np.outer(ul, ul) / (c * c) - G


def comoving_coords(x, kappa, c):
    rho = np.hypot(x[1], x[2])
    psi = np.arctan2(x[2], x[1]) - kappa * x[0] / c
    return np.array([x[3], rho, psi])


def comoving_frame(x):
    rho = np.hypot(x[1], x[2])
    cphi, sphi = x[1] / rho, x[2] / rho
    return np.column_stack([[0.0, 0.0, 0.0, 1.0], [0.0, cphi, sphi, 0.0],
                            [0.0, -rho * sphi, rho * cphi, 0.0]])


def comoving_metric(kappa, c):
    def metric(q):
        rho = q[1]
        r = kappa * rho / c
        f = 1.0 - r * r
        if f <= 0:
            raise PreconditionError("radius outside the timelike region")
        return np.diag([1.0, 1.0, rho * rho / f])
    return metric


def christoffels(metric, q, step):
    dg = central_loop(metric, q, step)
    ginv = np.linalg.inv(metric(q))
    gamma = 0.5 * np.einsum("ml,alb->mab", ginv, dg)
    gamma += 0.5 * np.einsum("ml,bal->mab", ginv, dg)
    gamma -= 0.5 * np.einsum("ml,lab->mab", ginv, dg)
    return gamma


def riemann(metric, q, step):
    dgamma = central_loop(lambda y: christoffels(metric, y, step), q, step)
    gamma = christoffels(metric, q, step)
    riem_up = (np.einsum("bmac->mabc", dgamma)
               - np.einsum("cmab->mabc", dgamma)
               + np.einsum("msb,sac->mabc", gamma, gamma)
               - np.einsum("msc,sab->mabc", gamma, gamma))
    return np.einsum("mn,nabc->mabc", metric(q), riem_up)


def total_antisymmetrizer(t):
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(4)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out += (-1.0) ** inversions * np.transpose(t, perm)
    return out / 24.0


def rotation_probe(kappa, c, x, step):
    """(theta, omega, L_u omega, projected-metric split residual) of the
    rotation checks at one probe."""
    ev = rotation_ev(kappa, c)
    theta, omega, *_ = decomposition(ev, x, step, c)
    lie = lie_derivative_2tensor(ev, lambda y: decomposition(ev, y, step, c)[1], x, step)
    frame = comoving_frame(x)
    h_frame = frame.T @ spatial_metric(ev(x), c) @ frame
    split = h_frame - comoving_metric(kappa, c)(comoving_coords(x, kappa, c))
    return (float(np.abs(theta).max()), float(np.abs(omega).max()),
            float(np.abs(lie).max()), float(np.abs(split).max()))


def curvature_residual(kappa, c, x, step, metric_step):
    """Residual of the projected-curvature identity at one probe."""
    riem = riemann(comoving_metric(kappa, c), comoving_coords(x, kappa, c), metric_step)
    frame = comoving_frame(x)
    om = frame.T @ decomposition(rotation_ev(kappa, c), x, step, c)[1] @ frame
    ww = np.einsum("ij,kl->ijkl", om, om)
    return float(np.abs(riem + 3.0 * (ww - total_antisymmetrizer(ww))).max())


def wedge_chart_metric(x0, lam, step):
    def embed(q):
        l, r = q
        return np.array([r * np.sinh(l), r * np.cosh(l)])

    jac_t = central_loop(embed, np.array([lam, x0]), step)
    return jac_t @ metric_matrix(2) @ jac_t.T


def record_offsets(monkeypatch, events):
    """Record, per row of `events`, every tau at which the stacked solve
    evaluates its root function; the rows must be distinct."""
    index = {row.tobytes(): i for i, row in enumerate(events)}
    taus = [[] for _ in events]
    real = worldline._offset_and_gap

    def counted(curve, x, tau, **gap):
        for row, t in zip(x, np.ravel(tau).tolist()):
            taus[index[row.tobytes()]].append(t)
        return real(curve, x, tau, **gap)

    monkeypatch.setattr(worldline, "_offset_and_gap", counted)
    return taus
