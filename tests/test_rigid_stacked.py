"""The rigid modules evaluate rows: fields, curves, finite-difference
stencils and the Herglotz root solve take stacks, and one event is the
one-row case.  These tests compare them, byte for byte, with the per-event
references in rigid_reference: the per-axis central-difference loop, the
scalar closed forms and the per-event root solve."""

import math
import warnings

import numpy as np
import pytest

import rigid_reference as ref
from minklab.core import PreconditionError
from minklab.rigid import (VelocityField,
                           boost_killing_field, christoffels_fd,
                           comoving_coords, comoving_frame_vectors,
                           comoving_rotation_metric, foliation_gap, foliation_time,
                           herglotz_field, hyperbolic_worldline,
                           killing_test, kinematic_decomposition,
                           lie_accel, projected_curvature_check,
                           reparameterization_invariance_check,
                           riemann_lowered_fd, rotation_killing_checks,
                           rotation_killing_field, spatial_metric,
                           total_antisymmetrizer, wiggly_worldline)
from minklab.rigid import decomp, fields, rotation, worldline
from minklab.rigid.curvature import METRIC_STEP
from minklab.suites import Config, suite_rigid

from conftest import constant_field, is_rigid, per_event_constant_field

STEPS = (1e-5, 2e-4, 1e-3)
HYPERBOLIC_WINDOW = (-1.5, 1.5)
WIGGLY_WINDOW = (-0.5, 1.5)


def same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def wedge_events(rng, k):
    x = rng.uniform(0.6, 2.0, k)
    return np.column_stack([rng.uniform(-0.4, 0.4, k) * x, x,
                            rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)])


def disk_events(rng, k, rho_max=0.7):
    rho, phi = rng.uniform(0.05, rho_max, k), rng.uniform(0, 2 * math.pi, k)
    return np.column_stack([rng.uniform(-1, 1, k), rho * np.cos(phi),
                            rho * np.sin(phi), rng.uniform(-1, 1, k)])


def tube_events(rng, k):
    """Events inside the hyperbolic worldline's tube, as perfbench draws them."""
    x = rng.uniform(0.9, 1.6, k)
    return np.column_stack([rng.uniform(-0.3, 0.3, k) * x, x,
                            rng.uniform(-0.5, 0.5, k), rng.uniform(-0.5, 0.5, k)])


def wiggly_events(rng, k):
    wl = wiggly_worldline(0.5)
    return wl.z(rng.uniform(0.2, 1.0, k)) + rng.uniform(-0.1, 0.1, (k, 4)) * [0, 1, 1, 1]


def bisecting_events(rng, k):
    """Events on the wiggly curve's hyperplanes of tau0 in [-1.6, -1], up to
    a distance 1 from it: outside WIGGLY_WINDOW, so their brackets grow, and
    from the grown bracket's midpoint some take a Newton step out of the
    bracket, and bisect."""
    wl = wiggly_worldline(0.5)
    tau0 = rng.uniform(-1.6, -1.0, k)
    zd = wl.zdot(tau0)
    w = rng.standard_normal((k, 4))
    w -= zd * (w[:, 0] * zd[:, 0] - np.vecdot(w[:, 1:], zd[:, 1:]))[:, None]
    return wl.z(tau0) + rng.uniform(0.0, 1.0, (k, 1)) * w / np.linalg.norm(w, axis=1)[:, None]


# the fields under test with their per-event references
def cases():
    rot = ref.rotation_ev(1.0, 1.0)
    hyp, wig = ref.hyperbolic_curve(1.0), ref.wiggly_curve(0.5)
    return {
        "boost": (boost_killing_field(), ref.boost_ev, wedge_events),
        "rotation": (rotation_killing_field(1.0), rot, disk_events),
        "herglotz-hyperbolic": (herglotz_field(hyperbolic_worldline(1.0), HYPERBOLIC_WINDOW),
                                ref.herglotz_ev(hyp, HYPERBOLIC_WINDOW), tube_events),
        "herglotz-wiggly": (herglotz_field(wiggly_worldline(0.5), WIGGLY_WINDOW),
                            ref.herglotz_ev(wig, WIGGLY_WINDOW), wiggly_events),
    }


CASES = cases()


class TestRowWiseFieldsAndCurves:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("name", list(CASES))
    def test_field_rows_match_per_event_formula(self, name, shape, rng):
        field, ev, draw = CASES[name]
        x = draw(rng, max(1, math.prod(shape))).reshape(shape + (4,))
        want = np.array([ev(row) for row in x.reshape(-1, 4)]).reshape(x.shape)
        assert same(field(x), want)

    def test_domains_per_row(self, rng):
        x = np.concatenate([wedge_events(rng, 50), disk_events(rng, 50, 1.3),
                            rng.uniform(-2, 2, (100, 4))])
        for field, dom in ((boost_killing_field(), ref.boost_dom),
                           (rotation_killing_field(1.0), ref.rotation_dom(1.0, 1.0)),
                           (rotation_killing_field(0.8, 1.5), ref.rotation_dom(0.8, 1.5))):
            got = field.domain(x)
            assert got.shape == (200,) and 0 < got.sum() < 200
            assert got.tolist() == [bool(dom(row)) for row in x]
            assert bool(field.domain(x[0])) == bool(dom(x[0]))

    @pytest.mark.parametrize("shape", [(), (9,), (2, 3)])
    @pytest.mark.parametrize("curve, scalar", [
        (hyperbolic_worldline(1.0), ref.hyperbolic_curve(1.0)),
        (hyperbolic_worldline(0.7, c=2.0), ref.hyperbolic_curve(0.7, c=2.0)),
        (wiggly_worldline(0.5), ref.wiggly_curve(0.5)),
    ], ids=["hyperbolic", "hyperbolic-c2", "wiggly"])
    def test_curves_match_scalar_closed_forms(self, curve, scalar, shape, rng):
        tau = rng.uniform(-3, 3, shape) * 10.0 ** rng.uniform(-3, 0.5, shape)
        for name in ("z", "zdot", "zddot", "zdddot"):
            want = np.array([getattr(scalar, name)(t) for t in np.ravel(tau).tolist()])
            assert same(getattr(curve, name)(tau), want.reshape(np.shape(tau) + (4,)))

    def test_ufuncs_within_two_ulp_of_math(self, rng):
        # the closed forms run numpy's ufuncs, not libm's functions through
        # the math module: at most 2 ulp apart (sinh; 1 ulp for the others
        # on these draws), and the same bits on one entry, a strided view
        # and a whole array
        x, y = rng.uniform(-3, 3, (2, 200_000))
        for fn, libm, args in ((np.sinh, math.sinh, (x,)), (np.cosh, math.cosh, (x,)),
                               (np.arctan, math.atan, (x,)), (np.hypot, math.hypot, (x, y)),
                               (np.arctan2, math.atan2, (y, x))):
            got = fn(*args)
            want = np.array(list(map(libm, *(a.tolist() for a in args))))
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
            assert same(fn(*(a[::7] for a in args)), got[::7])
            assert all(same(fn(*(float(a[i]) for a in args)), got[i]) for i in range(0, 200_000, 9973))

    def test_per_event_evaluator_refused_on_a_stack(self):
        field = per_event_constant_field()
        assert same(field(np.zeros(4)), [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(PreconditionError, match=r"returned shape \(4,\) for events of shape \(9, 4\)"):
            field(np.zeros((9, 4)))
        with pytest.raises(PreconditionError, match="shape"):
            kinematic_decomposition(field, np.zeros(4), 1e-3)
        assert kinematic_decomposition(constant_field(), np.zeros(4), 1e-3).theta_norm == 0.0

    def test_domain_gives_one_bool_or_one_per_row(self, rng):
        x = rng.uniform(-1, 1, (6, 4))
        ev = constant_field().evaluator
        assert same(VelocityField(ev, lambda y: True)(x), ev(x))
        assert same(VelocityField(ev, lambda y: np.ones(y.shape[:-1], bool))(x), ev(x))
        with pytest.raises(PreconditionError, match="outside the field domain"):
            VelocityField(ev, lambda y: False)(x)
        per_row = VelocityField(ev, lambda y: y[..., 0] < x[3, 0])
        with pytest.raises(PreconditionError) as exc:
            per_row(x)
        first = int(np.argmax(~(x[:, 0] < x[3, 0])))
        assert str(exc.value) == f"event {x[first].tolist()} outside the field domain"

    def test_normalisation_names_the_first_bad_row(self, rng):
        x = rng.uniform(-1, 1, (5, 4))

        def ev(y):
            u = np.zeros(y.shape)
            u[..., 0] = np.where(y[..., 1] > x[2, 1], 1.0, 2.0)
            return u

        field = VelocityField(ev, lambda y: True)
        first = int(np.argmax(~(x[:, 1] > x[2, 1])))
        with pytest.raises(PreconditionError) as exc:
            field(x)
        assert str(exc.value) == (f"field not normalised at {x[first].tolist()}: "
                                  f"u.u = 4.0, expected 1.0")

    @pytest.mark.parametrize("bad", [0, 3])
    def test_nan_row_refused_and_named(self, rng, bad):
        x = rng.uniform(-1, 1, (5, 4))

        def ev(y):
            u = np.zeros(y.shape)
            u[..., 0] = np.where(np.all(y == x[bad], axis=-1), np.nan, 1.0)
            return u

        field = VelocityField(ev, lambda y: True)
        want = f"field not normalised at {x[bad].tolist()}: u.u = nan, expected 1.0"
        for events in (x, x[bad]):  # the stack and the one event
            with pytest.raises(PreconditionError) as exc:
                field(events)
            assert str(exc.value) == want


class TestCentralDifferences:
    """fields._jet evaluates its function once on the rows and their whole
    stencil; the per-axis loop evaluates one event at a time."""

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name", list(CASES))
    def test_vector_valued(self, name, step, rng):
        field, ev, draw = CASES[name]
        for x in draw(rng, 3):
            calls = []
            counted = lambda y: calls.append(y.shape) or field(y)
            value, derivative = fields._jet(counted, x, step)
            assert same(value, ev(x)) and same(derivative, ref.central_loop(ev, x, step))
            assert calls == [(9, 4)]

    @pytest.mark.parametrize("step", STEPS)
    def test_matrix_valued(self, step, rng):
        field, ev = rotation_killing_field(1.0), ref.rotation_ev(1.0, 1.0)
        metric, metric_ref = comoving_rotation_metric(1.0, 1.0), ref.comoving_metric(1.0, 1.0)
        for x in disk_events(rng, 3):
            omega = lambda y: decomp._split_rows(field, y, step)[2]
            omega_ref = lambda y: ref.decomposition(ev, y, step)[1]
            assert same(fields._jet(omega, x, step)[1], ref.central_loop(omega_ref, x, step))
            q = comoving_coords(x, 1.0, 1.0)
            assert same(fields._jet(metric, q, step)[1], ref.central_loop(metric_ref, q, step))

    @pytest.mark.parametrize("step", STEPS)
    def test_tuple_valued(self, step, rng):
        # a tuple of parts gives each part's jet, from one call
        field = rotation_killing_field(1.0)
        x = disk_events(rng, 3)
        calls = []
        parts = lambda y: calls.append(y.shape) or (field(y), decomp._split_rows(field, y, step)[2])
        (u, omega), (du, domega) = fields._jet(parts, x, step)
        assert calls == [(3, 9, 4)]
        for got, want in zip((u, du, omega, domega),
                             (*fields._jet(field, x, step),
                              *fields._jet(lambda y: decomp._split_rows(field, y, step)[2], x, step))):
            assert same(got, want)

    @pytest.mark.parametrize("step", STEPS)
    def test_nested(self, step, rng):
        field = boost_killing_field()
        for x in wedge_events(rng, 3):
            calls = []
            counted = lambda y: calls.append(y.shape) or field(y)
            got = fields._jet(lambda y: fields._jet(counted, y, step)[1], x, step)[1]
            want = ref.central_loop(lambda y: ref.central_loop(ref.boost_ev, y, step), x, step)
            assert same(got, want) and calls == [(9, 9, 4)]
        metric, metric_ref = comoving_rotation_metric(1.0, 1.0), ref.comoving_metric(1.0, 1.0)
        for x in disk_events(rng, 3):
            q = comoving_coords(x, 1.0, 1.0)
            assert same(christoffels_fd(metric, q), ref.christoffels(metric_ref, q, METRIC_STEP))
            assert same(riemann_lowered_fd(metric, q), ref.riemann(metric_ref, q, METRIC_STEP))

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name", ["boost", "herglotz-hyperbolic", "herglotz-wiggly"])
    def test_nested_acceleration(self, name, step, rng):
        field, ev, draw = CASES[name]
        x = draw(rng, 1)[0]
        da = ref.central_loop(lambda y: ref.accel_oneform(ev, y, step), x, step)
        got = decomp._split_jet(field, x, step)[1][3]
        assert same(got - got.T, da - da.T)
        assert killing_test(field, [x], step)["closedness_residual"] == float(np.abs(da - da.T).max())
        lie = ref.lie_derivative_oneform(ev, lambda y: ref.accel_oneform(ev, y, step), x, step)
        assert same(lie_accel(field, x, step), lie)
        rows = draw(rng, 3)
        assert same(lie_accel(field, rows, step), [lie_accel(field, y, step) for y in rows])

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name", list(CASES))
    def test_split_jet(self, name, step, rng):
        # the split and its derivatives from one nested jet, against the
        # per-event decomposition and the per-axis loop around it
        field, ev, draw = CASES[name]
        x = draw(rng, 1)[0]
        centres, derivatives = decomp._split_jet(field, x, step)
        for part, i in enumerate((4, 0, 1, 3)):  # u, theta, omega, accel_flat
            one = lambda y: ref.decomposition(ev, y, step, field.c)[i]
            assert same(centres[part], one(x))
            assert same(derivatives[part], ref.central_loop(one, x, step))

    def test_stencil_rows(self, rng):
        # x + step e_a and x - step e_a with the loop's float operations,
        # signed zeros included
        x = np.array([-0.0, 0.0, 1.5, -2.25])
        for step in STEPS:
            rows = fields._stencil(x, step)
            for a in range(4):
                dx = np.zeros(4)
                dx[a] = step
                assert same(rows[a], x + dx) and same(rows[4 + a], x - dx)


class TestDecompositionsMatchTheLoop:
    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name", list(CASES))
    def test_kinematic_decomposition(self, name, step, rng):
        field, ev, draw = CASES[name]
        for x in draw(rng, 2):
            got = kinematic_decomposition(field, x, step)
            u, _, _, accel_flat = decomp._split_rows(field, x, step)
            want = ref.decomposition(ev, x, step, field.c)
            for a, b in zip((got.theta, got.omega, got.accel, accel_flat, u), want):
                assert same(a, b)

    @pytest.mark.parametrize("step", STEPS)
    def test_rotation_checks(self, step, rng):
        probes = list(disk_events(rng, 3, 0.6))
        got = rotation_killing_checks(1.0, 1.0, probes, step)
        theta, omega, lie, split = zip(*[ref.rotation_probe(1.0, 1.0, x, step) for x in probes])
        assert got == {"max_theta": max(theta), "min_omega": min(omega),
                       "max_lie_omega": max(lie), "max_h_split_residual": max(split)}

    @pytest.mark.parametrize("step", STEPS)
    def test_projected_curvature(self, step, rng):
        probes = list(disk_events(rng, 3, 0.7))
        got = projected_curvature_check(1.0, 1.0, probes, step)
        worst = max(ref.curvature_residual(1.0, 1.0, x, step, METRIC_STEP) for x in probes)
        assert got == {"max_residual": worst, "passes": worst < decomp.SECOND_DERIV_TOL}

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
    def test_comoving_chart_rows(self, shape, rng):
        x = disk_events(rng, max(1, math.prod(shape)), 0.9).reshape(shape + (4,))
        rows = x.reshape(-1, 4)
        for got, one in ((comoving_coords(x, 0.8, 1.3), lambda y: ref.comoving_coords(y, 0.8, 1.3)),
                         (comoving_frame_vectors(x), ref.comoving_frame),
                         (spatial_metric(rotation_killing_field(0.8, 1.3)(x), 1.3),
                          lambda y: ref.spatial_metric(ref.rotation_ev(0.8, 1.3)(y), 1.3))):
            want = np.array([one(y) for y in rows])
            assert same(got, want.reshape(x.shape[:-1] + want.shape[1:]))

    def test_antisymmetrizer_rows(self, rng):
        t = rng.standard_normal((2, 3, 4, 4, 4, 4))
        want = np.array([ref.total_antisymmetrizer(s) for s in t.reshape(-1, 4, 4, 4, 4)])
        assert same(total_antisymmetrizer(t), want.reshape(t.shape))

    def test_wedge_chart_metric(self, rng):
        from minklab.rigid import wedge_chart_metric
        for x0, lam in zip(rng.uniform(0.05, 6.0, 200), rng.uniform(-4.0, 4.0, 200)):
            assert same(wedge_chart_metric(x0, lam),
                        ref.wedge_chart_metric(x0, lam, fields.WEDGE_CHART_STEP))


class TestStackedRootSolve:
    @pytest.mark.parametrize("curve, scalar, window, draw", [
        (hyperbolic_worldline(1.0), ref.hyperbolic_curve(1.0), HYPERBOLIC_WINDOW, tube_events),
        (hyperbolic_worldline(1.0), ref.hyperbolic_curve(1.0), (0.01, 0.02), tube_events),
        (wiggly_worldline(0.5), ref.wiggly_curve(0.5), WIGGLY_WINDOW, wiggly_events),
        (wiggly_worldline(0.5), ref.wiggly_curve(0.5), (-0.001, 0.001), wiggly_events),
        (wiggly_worldline(0.5), ref.wiggly_curve(0.5), WIGGLY_WINDOW, bisecting_events),
    ], ids=["hyperbolic", "hyperbolic-grown", "wiggly", "wiggly-grown", "wiggly-bisecting"])
    def test_rows_take_the_steps_of_their_own_solve(self, curve, scalar, window, draw,
                                                   rng, monkeypatch):
        x = draw(rng, 60)
        want, want_taus, bisections = [], [], []
        for row in x:
            evaluations = []
            want.append(ref.foliation_time(scalar, row, window, evaluations, bisections))
            want_taus.append(evaluations)
        got_taus = ref.record_offsets(monkeypatch, x)
        got = foliation_time(curve, x, window)
        assert same(got, want)
        # each row is evaluated at the same taus, in the same order, as alone
        assert got_taus == [[float(t) for t in taus] for taus in want_taus]
        assert len({len(taus) for taus in want_taus}) > 1  # rows finish at different rounds
        # a row whose bracket grows evaluates the grown ends third, not the
        # window's midpoint
        grew = [taus[2] != 0.5 * (window[0] + window[1]) for taus in want_taus]
        assert any(grew) == (window not in (HYPERBOLIC_WINDOW, WIGGLY_WINDOW)
                             or draw is bisecting_events)
        assert bisections or draw is not bisecting_events

    def test_a_row_bisects_where_n_is_not_positive(self, rng):
        # at the bracket's midpoint the event lies past the caustic of that
        # hyperplane (N < 0), so the solve bisects there
        wl, window = wiggly_worldline(0.5), (-0.5, 2.9)
        x = np.array([-1.8, -3.2, 0.16, 0.2])
        bisections = []
        want = ref.foliation_time(ref.wiggly_curve(0.5), x, window, bisections=bisections)
        assert foliation_gap(wl, bisections[0], x) < 0 < foliation_gap(wl, want, x)
        rows = np.concatenate([x[None], wiggly_events(rng, 3)])
        assert same(foliation_time(wl, rows, window)[0], want)

    def test_a_row_in_the_caustic_guard_refuses_the_stack(self, rng):
        wl = hyperbolic_worldline(1.0)
        x = tube_events(rng, 5)
        foliation_time(wl, x, HYPERBOLIC_WINDOW)
        near = np.insert(x, 3, [0.0, 1e-4, 0.0, 0.0], axis=0)
        with pytest.raises(PreconditionError, match="caustic guard"):
            foliation_time(wl, near, HYPERBOLIC_WINDOW)
        with pytest.raises(PreconditionError, match="caustic guard"):
            herglotz_field(wl, HYPERBOLIC_WINDOW)(near)

    def test_no_rows_solve_to_no_rows(self):
        for name in ("herglotz-hyperbolic", "herglotz-wiggly"):
            assert CASES[name][0](np.empty((0, 4))).shape == (0, 4)
        got = foliation_time(hyperbolic_worldline(1.0), np.empty((0, 4)), HYPERBOLIC_WINDOW)
        assert got.shape == (0,)
        assert foliation_time(hyperbolic_worldline(1.0), np.empty((2, 0, 4)),
                              HYPERBOLIC_WINDOW).shape == (2, 0)

    def test_a_window_past_the_closed_form_is_a_precondition_error(self):
        # outside the wedge the hyperplanes never pass through the event:
        # the window grows past where np.sinh overflows to inf, whose f
        # brackets nothing, and gives up without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="could not bracket"):
                foliation_time(hyperbolic_worldline(1.0), np.array([1e-3, 1e-4, 0.0, 0.0]), (-1, 1))


# the five verdicts, each as (verdict of a probe list and a step, probe draw)
def _reparameterization(field):
    return lambda probes, step: reparameterization_invariance_check(
        field, lambda x: 1.0 + 0.1 * np.sin(x[..., 1]), probes, step)


VERDICTS = {
    "is_rigid-boost": (lambda p, s: is_rigid(CASES["boost"][0], p, s), wedge_events),
    "is_rigid-herglotz-wiggly": (lambda p, s: is_rigid(CASES["herglotz-wiggly"][0], p, s),
                                 wiggly_events),
    "killing_test-boost": (lambda p, s: killing_test(CASES["boost"][0], p, s), wedge_events),
    "killing_test-herglotz-hyperbolic": (
        lambda p, s: killing_test(CASES["herglotz-hyperbolic"][0], p, s), tube_events),
    "killing_test-herglotz-wiggly": (
        lambda p, s: killing_test(CASES["herglotz-wiggly"][0], p, s), wiggly_events),
    "reparameterization-boost": (_reparameterization(CASES["boost"][0]), wedge_events),
    "rotation_killing_checks": (lambda p, s: rotation_killing_checks(1.0, 1.0, p, s),
                                lambda rng, k: disk_events(rng, k, 0.6)),
    "projected_curvature_check": (lambda p, s: projected_curvature_check(1.0, 1.0, p, s),
                                  lambda rng, k: disk_events(rng, k, 0.7)),
}


def _fold(verdicts):
    """The verdict of a probe list from the verdicts of its probes alone:
    the worst number, and every probe's pass."""
    out = {}
    for key, first in verdicts[0].items():
        values = [v[key] for v in verdicts]
        if isinstance(first, dict):
            out[key] = _fold(values)
        elif isinstance(first, bool):
            out[key] = all(values)
        else:
            assert all(math.isfinite(v) for v in values)
            out[key] = (min if key == "min_omega" else max)(values)
    return out


class TestVerdictsFoldTheirProbes:
    """Each verdict evaluates all its probes as one stack; its numbers are
    the folds of the one-probe verdicts, bit for bit."""

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("name", list(VERDICTS))
    def test_stack_is_the_fold_of_one_probe_verdicts(self, name, step, rng):
        verdict, draw = VERDICTS[name]
        for k in range(1, 6):
            probes = list(draw(rng, k))
            got = verdict(probes, step)
            ones = [verdict([x], step) for x in probes]
            if "velocity" in got:  # killing_test's field at the probes, a row each
                assert np.array_equal(got.pop("velocity"),
                                      np.concatenate([v.pop("velocity") for v in ones]))
            want = _fold(ones)
            if "verdict_unchanged" in got:  # the rigid verdicts agree, not each probe's
                want["verdict_unchanged"] = (
                    got["base"]["rigid"] == (got["scaled_max_theta"] < decomp.FIRST_DERIV_TOL))
            assert got == want

    @pytest.mark.parametrize("name", ["is_rigid-boost", "killing_test-boost",
                                      "reparameterization-boost", "rotation_killing_checks",
                                      "projected_curvature_check"])
    @pytest.mark.parametrize("probes", [[], np.empty((0, 4)), np.zeros(4),
                                        [np.zeros(4), np.zeros(3)], [["a", "b", "c", "d"]]],
                             ids=["empty", "empty-array", "one-event", "ragged", "not-numbers"])
    def test_no_probes_is_a_precondition_error(self, name, probes):
        verdict, _ = VERDICTS[name]
        with pytest.raises(PreconditionError, match="probes must be"):
            verdict(probes, 1e-3)


def _counting_field(field, calls):
    return VelocityField(lambda x: calls.append(x.shape) or field.evaluator(x),
                         field.domain, field.c, field.tag)


def _count_solves(monkeypatch) -> list[int]:
    """The row counts of the Herglotz root solves made from now on."""
    solved = []
    real = worldline._foliation_rows

    def counted(curve, x, tau_window):
        solved.append(len(x))
        return real(curve, x, tau_window)

    monkeypatch.setattr(worldline, "_foliation_rows", counted)
    return solved


class TestOneCallPerDerivativeOrder:
    """The numbers of field evaluations and root solves of a verdict do not
    grow with its probe count."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_field_calls(self, k, rng, monkeypatch):
        calls = []
        field = _counting_field(boost_killing_field(), calls)
        is_rigid(field, wedge_events(rng, k), 1e-3)
        assert calls == [(k, 9, 4)]
        real = rotation.rotation_killing_field
        monkeypatch.setattr(rotation, "rotation_killing_field",
                            lambda *args: _counting_field(real(*args), calls))
        for verdict, shape in ((rotation_killing_checks, (k, 9, 9, 4)),
                               (projected_curvature_check, (k, 9, 4))):
            calls.clear()
            verdict(1.0, 1.0, disk_events(rng, k, 0.6), 1e-3)
            assert calls == [shape]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_killing_velocity_is_the_field_at_the_probes(self, k, rng):
        # the centre rows of the Killing test's one solve, bit for bit
        for name, draw in (("boost", wedge_events), ("herglotz-hyperbolic", tube_events),
                           ("herglotz-wiggly", wiggly_events)):
            field = CASES[name][0]
            probes = draw(rng, k)
            got = killing_test(field, probes, 1e-3)["velocity"]
            assert np.array_equal(got, field(probes))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_herglotz_verdicts_solve_once(self, k, rng, monkeypatch):
        solved = _count_solves(monkeypatch)
        killing_test(CASES["herglotz-hyperbolic"][0], tube_events(rng, k), 1e-3)
        assert solved == [81 * k]
        solved.clear()
        lie_accel(CASES["herglotz-wiggly"][0], wiggly_events(rng, k), 1e-3)
        assert solved == [81 * k]


def test_rigid_suite_evaluations(monkeypatch):
    # one field evaluation per verdict and derivative order: 7 calls, and
    # the two second-order Herglotz checks one root solve of 81 rows each;
    # hf(p) is the Killing test's "velocity" and the closed form of the jerk
    # check is taken at the known sigma, so neither solves a row again
    calls = []
    real = VelocityField.__call__
    monkeypatch.setattr(VelocityField, "__call__",
                        lambda self, x: calls.append(np.shape(x)) or real(self, x))
    solved = _count_solves(monkeypatch)
    suite_rigid(0, Config())
    assert solved == [81, 81]
    assert len(calls) == 7
