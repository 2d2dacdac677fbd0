import math

import numpy as np
import pytest

from minklab.core import PreconditionError, inner
from minklab.rigid import decomp, fields, rotation, worldline
from minklab.rigid import (KinematicDecomposition, VelocityField, WorldLineCurve,
                           boost_killing_field,
                           boost_killing_flow, comoving_frame_vectors,
                           expected_accel_curl,
                           foliation_gap,
                           foliation_time, herglotz_field,
                           hyperbolic_worldline, killing_test,
                           kinematic_decomposition, lie_accel,
                           projected_curvature_check,
                           reparameterization_invariance_check,
                           rindler_from_event, rotation_killing_checks,
                           rotation_killing_field, spatial_metric,
                           wedge_chart_metric, wiggly_worldline)
from minklab.suites import Config, suite_rigid

import rigid_reference
from conftest import (constant_field, expected_lie_accel, is_rigid, radial_expanding_field,
                      straight_worldline)

STEP = 1e-3


def grad_lowered(field, x, step):
    """D[a, b] = d_a u_b by central differences, for any callable of rows."""
    return fields._jet(field, x, step)[1] @ np.diag([1.0, -1.0, -1.0, -1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda v: boost_killing_flow(v, 0.0),
    lambda v: hyperbolic_worldline(v),
    lambda v: wiggly_worldline(v),
    lambda v: kinematic_decomposition(constant_field(), np.zeros(4), v),
], ids=["boost_killing_flow-x0", "hyperbolic_worldline-x0", "wiggly_worldline-eps",
        "kinematic_decomposition-step"])
def test_positive_finite_preconditions(call, bad):
    with pytest.raises(PreconditionError, match="positive and finite"):
        call(bad)


class TestSpatialMetric:
    def test_rest_frame(self):
        h = spatial_metric(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        assert np.allclose(h, np.diag([0.0, 1.0, 1.0, 1.0]), atol=1e-15)

    def test_boosted_eigenvalues(self, rng):
        from minklab.kinematics import boost_3d
        v = np.array([0.5, 0.2, -0.1])
        B = boost_3d(v, 1.0)
        u = B @ np.array([1.0, 0.0, 0.0, 0.0])
        # column convention: u = boost image of the rest velocity
        u = u / math.sqrt(abs(u[0] ** 2 - u[1:] @ u[1:]))
        h = spatial_metric(u, 1.0)
        eig = np.sort(np.linalg.eigvalsh(h))
        assert eig[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(eig[1:] > 0)

    def test_annihilates_velocity(self, rng):
        for _ in range(20):
            sp = rng.uniform(-0.5, 0.5, 3)
            u = np.concatenate([[1.0], sp])
            u = u / math.sqrt(abs(u[0] ** 2 - u[1:] @ u[1:]))
            h = spatial_metric(u, 1.0)
            assert np.abs(h @ u).max() < 1e-12

    def test_unnormalised_rejected(self):
        with pytest.raises(PreconditionError):
            spatial_metric(np.array([2.0, 0.0, 0.0, 0.0]), 1.0)

    def test_nan_velocity_rejected(self):
        with pytest.raises(PreconditionError):
            spatial_metric(np.full(4, np.nan))


class TestDecomposition:
    def test_constant_field_trivial(self):
        f = constant_field()
        d = kinematic_decomposition(f, np.zeros(4), STEP)
        assert d.theta_norm < 1e-12 and d.omega_norm < 1e-12
        assert np.abs(d.accel).max() < 1e-12

    def test_boost_field(self):
        f = boost_killing_field()
        for x0 in (0.5, 1.0, 2.0):
            d = kinematic_decomposition(f, np.array([0.0, x0, 0.0, 0.0]), STEP)
            assert d.theta_norm < 1e-5
            assert d.omega_norm < 1e-5
            d_fine = kinematic_decomposition(f, np.array([0.0, x0, 0.0, 0.0]), 2e-4)
            assert d_fine.accel_norm_g == pytest.approx(1.0 / x0, abs=1e-6)

    def test_rotation_field(self):
        f = rotation_killing_field(1.0, 1.0)
        d = kinematic_decomposition(f, np.array([0.0, 0.3, 0.0, 0.0]), STEP)
        assert d.theta_norm < 1e-5
        assert d.omega_norm > 1e-2

    def test_reconstruction(self, rng):
        # the split re-sums to the gradient up to the step^2 error of the
        # numerically differentiated normalisation constraint
        f = rotation_killing_field(0.8, 1.0)
        x = np.array([0.1, 0.4, -0.2, 0.3])
        d = kinematic_decomposition(f, x, STEP)
        u, _, _, accel_flat = decomp._split_rows(f, x, STEP)
        grad = grad_lowered(f, x, STEP)
        ul = np.diag([1.0, -1.0, -1.0, -1.0]) @ u
        model = d.theta + d.omega + np.outer(ul, accel_flat)  # c = 1
        assert np.abs(model - grad).max() < 1e-5

    def test_horizontality(self):
        f = rotation_killing_field(0.8, 1.0)
        x = np.array([0.1, 0.4, -0.2, 0.3])
        d = kinematic_decomposition(f, x, STEP)
        u = f(x)
        assert np.abs(d.theta @ u).max() < 1e-9
        assert np.abs(d.omega @ u).max() < 1e-9

    def test_convergence_second_order(self):
        # halving the step divides the error by about four
        f = radial_expanding_field(0.1)
        x = np.array([0.0, 0.4, 0.2, 0.1])
        exact = _expanding_theta_exact(0.1, x)
        errs = []
        for s in (2e-3, 1e-3):
            d = kinematic_decomposition(f, x, s)
            errs.append(np.abs(d.theta - exact).max())
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_domain_boundary_guard(self):
        f = boost_killing_field()
        with pytest.raises(PreconditionError):
            kinematic_decomposition(f, np.array([0.0, 1e-4, 0.0, 0.0]), 1e-3)


def _expanding_theta_exact(eps, x):
    """Analytic expansion tensor of the normalised c e0 + eps x field.

    Central-difference oracle at a much finer step stands in for the closed
    form; at step 1e-5 its own error is far below the compared errors.
    """
    f = radial_expanding_field(eps)
    return kinematic_decomposition(f, x, 1e-5).theta


class TestRigidityVerdicts:
    def test_boost_rigid(self):
        f = boost_killing_field()
        got = is_rigid(f, [np.array([0.0, 1.0, 0.0, 0.0]),
                           np.array([0.3, 1.5, 0.2, -0.4])], STEP)
        assert got["rigid"]

    def test_rotation_rigid(self):
        f = rotation_killing_field(1.0, 1.0)
        got = is_rigid(f, [np.array([0.0, 0.3, 0.1, 0.0]),
                           np.array([0.5, 0.1, -0.4, 0.2])], STEP)
        assert got["rigid"]

    def test_expanding_not_rigid(self):
        f = radial_expanding_field(0.1)
        got = is_rigid(f, [np.array([0.0, 0.5, 0.2, 0.1])], STEP)
        assert not got["rigid"]
        assert got["max_theta"] > 1e-2

    def test_reparameterization_invariance(self):
        f = boost_killing_field()
        probes = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.2, 1.4, 0.3, 0.0])]
        for scaling in (lambda x: 2.0, lambda x: 1.0 + 0.1 * np.sin(x[..., 1])):
            got = reparameterization_invariance_check(f, scaling, probes, STEP)
            assert got["verdict_unchanged"]

    @pytest.mark.parametrize("scaling,match", [
        (lambda x: 0.0, "nowhere zero"),
        (lambda x: np.where(x[..., 1] > 1.0, 0.0, 1.0), "nowhere zero"),
        (lambda x: math.nan, "finite"),
        (lambda x: np.where(x[..., 1] > 1.0, math.inf, 1.0), "finite"),
        (lambda x: -math.inf, "finite"),
        (lambda x: np.ones(x.shape), "shape"),
        (lambda x: np.ones(x.shape[-2:-1]), "shape"),
    ], ids=["zero", "zero-at-a-row", "nan", "inf-at-a-row", "minus-inf", "per-entry",
            "per-stencil-row"])
    def test_a_bad_scaling_is_a_precondition_error(self, scaling, match):
        probes = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.2, 1.4, 0.3, 0.0])]
        with pytest.raises(PreconditionError, match=match):
            reparameterization_invariance_check(boost_killing_field(), scaling, probes, STEP)

    def test_non_rigid_stays_non_rigid_under_scaling(self):
        f = radial_expanding_field(0.1)
        probes = [np.array([0.0, 0.5, 0.2, 0.1])]
        got = reparameterization_invariance_check(
            f, lambda x: 1.0 + 0.2 * x[..., 1], probes, STEP)
        assert got["verdict_unchanged"]
        assert got["scaled_max_theta"] > 1e-3


def _nan_at_probe(monkeypatch, module, name, k, *part):
    """Make module.name set row k, the k-th probe's, of its stacked result
    (of output out[part[0]][part[1]]..., for nested tuples) to NaN."""
    real = getattr(module, name)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        target = out
        for i in part:
            target = target[i]
        target[k] = np.nan
        return out

    monkeypatch.setattr(module, name, patched)


BOOST_PROBES = [np.array([0.0, x0, 0.0, 0.0]) for x0 in (0.5, 1.0, 2.0)]
ROTATION_PROBES = [np.array([0.0, 0.3, 0.0, 0.0]), np.array([0.2, 0.2, 0.4, -0.1]),
                   np.array([-0.1, 0.0, 0.55, 0.3])]


@pytest.mark.parametrize("k", [0, 1, 2], ids=["first", "middle", "last"])
class TestNanFailsTheVerdict:
    """A NaN at any probe's row of the one stacked evaluation fails the
    verdict it enters: the folds keep it where Python's max and min would
    drop it."""

    def test_is_rigid(self, monkeypatch, k):
        _nan_at_probe(monkeypatch, decomp, "_split_rows", k, 1)
        got = is_rigid(boost_killing_field(), BOOST_PROBES, STEP)
        assert not got["rigid"] and math.isnan(got["max_theta"])

    def test_killing_test(self, monkeypatch, k):
        _nan_at_probe(monkeypatch, decomp, "_split_jet", k, 1, 3)  # d accel_flat
        got = killing_test(boost_killing_field(), BOOST_PROBES, STEP)
        assert got["rigid"] and not got["is_killing"]
        assert math.isnan(got["closedness_residual"])

    @pytest.mark.parametrize("name,part,key", [
        ("_split_jet", (0, 1), "max_theta"),
        ("_split_jet", (0, 2), "min_omega"),
        ("_split_jet", (1, 2), "max_lie_omega"),  # d omega
        ("spatial_metric", (), "max_h_split_residual"),
    ], ids=["theta", "omega", "lie_omega", "h_split"])
    def test_rotation_killing_checks(self, monkeypatch, k, name, part, key):
        _nan_at_probe(monkeypatch, rotation, name, k, *part)
        got = rotation_killing_checks(1.0, 1.0, ROTATION_PROBES, STEP)
        assert math.isnan(got[key])

    def test_projected_curvature_check(self, monkeypatch, k):
        _nan_at_probe(monkeypatch, rotation, "riemann_lowered_fd", k)
        probes = [np.array([0.0, rho, 0.0, 0.0]) for rho in (0.1, 0.4, 0.7)]
        got = projected_curvature_check(1.0, 1.0, probes, STEP)
        assert not got["passes"] and math.isnan(got["max_residual"])

    def test_suite_boost_acceleration(self, monkeypatch, k):
        # the suite splits its three boost probes at step 2e-4 in one call
        real = decomp._split_rows

        def poisoned(field, x, step):
            out = real(field, x, step)
            if step == 2e-4:
                out[3][k] = np.nan
            return out

        monkeypatch.setattr(decomp, "_split_rows", poisoned)
        checks = {c.name: c for c in suite_rigid(0, Config())}
        assert not checks["boost.acceleration"].passed
        assert math.isnan(checks["boost.acceleration"].residual)


def test_suite_constant_accel_killing_nan_fails(monkeypatch):
    # killing_test gets one probe; its NaN closedness residual must not be
    # dropped beside a finite theta
    _nan_at_probe(monkeypatch, decomp, "_split_jet", 0, 1, 3)  # d accel_flat
    checks = {c.name: c for c in suite_rigid(0, Config())}
    assert not checks["worldline.constant_accel_killing"].passed
    assert math.isnan(checks["worldline.constant_accel_killing"].residual)


class TestLieIdentities:
    def test_lie_u_of_velocity_oneform_is_accel(self):
        # transport of the lowered velocity along itself gives the
        # lowered acceleration
        G = np.diag([1.0, -1.0, -1.0, -1.0])
        for f in (boost_killing_field(), rotation_killing_field(0.9, 1.0)):
            x = np.array([0.1, 0.6, 0.2, 0.0])
            u, du = fields._jet(f, x, STEP)
            lie = decomp._lie_rows(u, du, u @ G, du @ G)
            a_fd = decomp._split_rows(f, x, STEP)[3]
            assert np.abs(lie - a_fd).max() < 1e-5

    @staticmethod
    def killing_residual(field, x):
        """Sup-norm of L_u g, for the flat form the symmetrised lowered gradient."""
        D = grad_lowered(field, x, STEP)
        return float(np.abs(D + D.T).max())

    def test_generators_satisfy_killing_equation(self):
        x = np.array([0.1, 0.6, 0.2, 0.0])

        def boost_gen(y):
            out = np.zeros(y.shape)
            out[..., 0], out[..., 1] = y[..., 1], y[..., 0]
            return out

        def rot_gen(y):
            out = np.zeros(y.shape)
            out[..., 0], out[..., 1], out[..., 2] = 1.0, -0.9 * y[..., 2], 0.9 * y[..., 1]
            return out

        assert self.killing_residual(boost_gen, x) < 1e-12
        assert self.killing_residual(rot_gen, x) < 1e-12
        # the normalised velocity of the same flow is not itself a
        # generator of isometries: normalisation rescales pointwise
        assert self.killing_residual(boost_killing_field(), x) > 1e-3

    def test_expanding_field_generator_is_not_killing(self):
        gen = lambda y: np.concatenate([np.ones(y.shape[:-1] + (1,)), 0.1 * y[..., 1:]], axis=-1)
        assert self.killing_residual(gen, np.array([0.0, 0.5, 0.2, 0.1])) > 1e-2


class TestWedgeChart:
    def test_flow_value(self):
        got = boost_killing_flow(1.0, 0.0)
        assert np.allclose(got, [0.0, 1.0], atol=1e-15)

    def test_hyperbola_invariant(self, rng):
        for _ in range(50):
            x0 = float(rng.uniform(0.3, 3.0))
            tau = float(rng.uniform(-2, 2))
            ct, x = boost_killing_flow(x0, tau)
            assert x * x - ct * ct == pytest.approx(x0 * x0, rel=1e-12)

    def test_round_trip(self, rng):
        for _ in range(100):
            ct = float(rng.uniform(-1.5, 1.5))
            x = float(rng.uniform(abs(ct) + 0.05, 4.0))
            lam, tau, x0 = rindler_from_event(ct, x)
            back = boost_killing_flow(x0, tau)
            assert np.abs(back - [ct, x]).max() < 1e-10

    def test_eigentime_to_speed(self):
        # reaching speed v takes proper time x0/c artanh(v/c)
        x0, v = 2.0, 0.5
        tau = x0 * math.atanh(v)
        ct, x = boost_killing_flow(x0, tau)
        lam, tau_back, x0_back = rindler_from_event(ct, x)
        assert ct / x == pytest.approx(v)  # coordinate velocity = tanh(lam)
        assert tau_back == pytest.approx(tau, rel=1e-12)

    def test_chart_metric_components(self, rng):
        for _ in range(20):
            x0 = float(rng.uniform(0.4, 3.0))
            lam = float(rng.uniform(-1.5, 1.5))
            g = wedge_chart_metric(x0, lam)
            assert np.abs(g - np.diag([x0 * x0, -1.0])).max() < 1e-8

    def test_wedge_guard(self):
        with pytest.raises(PreconditionError):
            rindler_from_event(2.0, 1.0)

    def test_acceleration_matches_orbit_label(self):
        f = boost_killing_field()
        for x0 in (0.5, 1.0, 2.0):
            d = kinematic_decomposition(f, np.array([0.0, x0, 0.0, 0.0]), 2e-4)
            assert d.accel_norm_g == pytest.approx(1.0 / x0, abs=1e-6)


class TestRotationChecks:
    def test_split_and_transport(self):
        probes = [np.array([0.0, 0.3, 0.0, 0.0]),
                  np.array([0.2, 0.2, 0.4, -0.1]),
                  np.array([-0.1, 0.0, 0.55, 0.3])]
        got = rotation_killing_checks(1.0, 1.0, probes, STEP)
        assert got["max_theta"] < 1e-5
        assert got["min_omega"] > 1e-3
        assert got["max_lie_omega"] < 1e-5
        assert got["max_h_split_residual"] < 1e-10

    @staticmethod
    def h_psi_psi(rho):
        """The projected metric's psi-psi entry in the comoving frame."""
        x = np.array([0.0, rho, 0.0, 0.0])
        frame = comoving_frame_vectors(x)
        return (frame.T @ spatial_metric(rotation_killing_field(1.0, 1.0)(x), 1.0) @ frame)[2, 2]

    def test_h_psi_psi_factor(self):
        rho = 0.5
        assert self.h_psi_psi(rho) == pytest.approx(rho * rho / 0.75, abs=1e-12)

    def test_small_radius_is_flat_cylindrical(self):
        rho = 1e-3
        assert self.h_psi_psi(rho) == pytest.approx(rho * rho, rel=1e-5)

    def test_probe_outside_region_rejected(self):
        with pytest.raises(PreconditionError):
            rotation_killing_checks(1.0, 1.0, [np.array([0.0, 2.0, 0.0, 0.0])])


class TestProjectedCurvature:
    def test_identity_across_radii(self):
        probes = [np.array([0.0, rho * math.cos(s), rho * math.sin(s), 0.1 * s])
                  for rho, s in [(0.1, 0.0), (0.25, 0.7), (0.4, 1.9),
                                 (0.55, 3.0), (0.7, 4.2)]]
        got = projected_curvature_check(1.0, 1.0, probes, STEP)
        assert got["passes"]
        assert got["max_residual"] < 1e-4

    def test_total_antisymmetrisation_drops(self):
        # Alt of omega (x) omega over the three comoving directions
        x = np.array([0.0, 0.4, 0.0, 0.0])
        frame = comoving_frame_vectors(x)
        omega = kinematic_decomposition(rotation_killing_field(1.0, 1.0), x, STEP).omega
        om = frame.T @ omega @ frame
        assert np.abs(om).max() > 0.1
        # projected_curvature_check leaves the term out: it must be exactly 0
        alt = rigid_reference.total_antisymmetrizer(np.einsum("ij,kl->ijkl", om, om))
        assert not alt.any()

    def test_irrotational_flat(self):
        # the boost flow has zero vorticity and a flat comoving geometry
        g = wedge_chart_metric(1.3, 0.4)
        from minklab.rigid import riemann_lowered_fd

        def chart_metric(q):  # spatial part only, 2-d chart, rows of (lam, x0)
            out = np.zeros(q.shape + (2,))
            out[..., 0, 0] = q[..., 1] * q[..., 1]
            out[..., 1, 1] = 1.0
            return out

        R = riemann_lowered_fd(chart_metric, np.array([0.2, 1.3]))
        assert np.abs(R).max() < 1e-6


class TestWorldlineInduced:
    def test_straight_gives_rest_field(self):
        f = herglotz_field(straight_worldline())
        x = np.array([0.7, 0.3, -0.2, 0.5])
        assert np.allclose(f(x), [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert foliation_time(straight_worldline(), x, (-1, 1)) == pytest.approx(0.7)

    def test_hyperbolic_matches_boost_field(self, rng):
        f = herglotz_field(hyperbolic_worldline(1.0), (-1.5, 1.5))
        bf = boost_killing_field()
        for _ in range(20):
            x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0),
                          rng.uniform(-1, 1), rng.uniform(-1, 1)])
            assert np.abs(f(x) - bf(x)).max() < 1e-12

    def test_hyperbolic_is_killing(self):
        f = herglotz_field(hyperbolic_worldline(1.0), (-1.5, 1.5))
        got = killing_test(f, [np.array([0.1, 1.2, 0.3, -0.2])], STEP)
        assert got["is_killing"]
        assert got["closedness_residual"] < 1e-5
        assert got["max_theta"] < 1e-5

    def test_wiggly_rigid_but_not_killing(self):
        wl = wiggly_worldline(0.5)
        f = herglotz_field(wl, (-0.5, 1.5))
        p = wl.z(0.8) + np.array([0.0, 0.02, 0.1, -0.05])
        rigid = is_rigid(f, [p], STEP)
        assert rigid["rigid"]
        got = killing_test(f, [p], STEP)
        assert not got["is_killing"]
        assert got["closedness_residual"] > 1e-2

    def test_wiggly_curl_matches_closed_form(self):
        wl = wiggly_worldline(0.5)
        f = herglotz_field(wl, (-0.5, 1.5))
        p = wl.z(0.8) + np.array([0.0, 0.05, 0.1, -0.08])
        da = decomp._split_jet(f, p, STEP)[1][3]  # da[a, b] = d_a accel_b
        fd = da - da.T
        assert np.abs(fd - expected_accel_curl(wl, p, (-0.5, 1.5))).max() < 1e-4

    def test_wiggly_lie_accel_on_and_off_worldline(self):
        wl = wiggly_worldline(0.5)
        f = herglotz_field(wl, (-0.5, 1.5))
        for offset in (np.zeros(4), np.array([0.0, 0.05, 0.1, -0.08])):
            p = wl.z(0.8) + offset
            fd = lie_accel(f, p, STEP)
            assert np.abs(fd - expected_lie_accel(wl, p, (-0.5, 1.5))).max() < 1e-4

    def test_on_worldline_jerk_term_only(self):
        # at the curve itself the transported acceleration is the projected
        # jerk: the caustic factor is one and the relative-position term drops
        wl = wiggly_worldline(0.5)
        tau = 0.8
        p = wl.z(tau)
        assert foliation_gap(wl, tau, p) == pytest.approx(1.0, abs=1e-12)
        G = np.diag([1.0, -1.0, -1.0, -1.0])
        zd, zddd = wl.zdot(tau), wl.zdddot(tau)
        proj_jerk = zddd - zd * ((zd[0] * zddd[0] - zd[1:] @ zddd[1:]))
        expect = expected_lie_accel(wl, p, (-0.5, 1.5))
        assert np.allclose(expect, G @ proj_jerk, atol=1e-10)

    def test_foliation_planes_are_flat(self, rng):
        # straight segments orthogonal to the curve stay on one leaf
        wl = wiggly_worldline(0.5)
        tau = 0.6
        zd = wl.zdot(tau)
        for _ in range(10):
            w = rng.standard_normal(4)
            w = w - zd * ((zd[0] * w[0] - zd[1:] @ w[1:]))  # g-orthogonal part
            w = 0.2 * w / np.linalg.norm(w)
            for s in np.linspace(-1.0, 1.0, 7):
                x = wl.z(tau) + s * w
                assert foliation_time(wl, x, (-0.5, 1.5)) == pytest.approx(
                    tau, abs=1e-9)

    def test_caustic_guard(self):
        wl = hyperbolic_worldline(1.0)
        # the wedge vertex is the caustic of the orbit hyperplanes
        near = np.array([0.0, 1e-4, 0.0, 0.0])
        with pytest.raises(PreconditionError):
            foliation_time(wl, near, (-1, 1))
        with pytest.raises(PreconditionError):
            kinematic_decomposition(herglotz_field(wl), near, STEP)

    def test_one_root_solve_per_field_value(self, monkeypatch):
        # the event and its 8 central-difference neighbours are solved
        # together, as 9 rows of one stacked solve
        solved = []

        def counted(curve, x, tau_window):
            solved.append(len(x))
            return real(curve, x, tau_window)

        real = worldline._foliation_rows
        monkeypatch.setattr(worldline, "_foliation_rows", counted)
        f = herglotz_field(hyperbolic_worldline(1.0), (-1.5, 1.5))
        kinematic_decomposition(f, np.array([0.1, 1.2, 0.3, -0.2]), STEP)
        assert solved == [9]

    def test_no_repeated_field_evaluation_per_solve(self, rng, monkeypatch):
        # the bracket's end values are kept, not recomputed, and the
        # Newton steps move: no row is evaluated twice at one tau
        x = np.array([[rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0),
                       rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(200)])
        taus = rigid_reference.record_offsets(monkeypatch, x)
        foliation_time(hyperbolic_worldline(1.0), x, (-1.5, 1.5))
        assert all(len(set(t)) == len(t) for t in taus)
        # the 2 ends and 3 to 5 Newton points a row; 2 more if the ends were
        # evaluated again
        assert sum(map(len, taus)) / 200 < 7

    def test_event_outside_tube_raises(self):
        # two roots in the window, both ends negative: the grown bracket must
        # not stop where cancellation rounds f to exactly 0.0 (at tau = -2^21)
        with pytest.raises(PreconditionError):
            foliation_time(wiggly_worldline(0.5), (0, 50, 0, 0), (-1, 1))

    @pytest.mark.parametrize("curve", [wiggly_worldline(0.3), hyperbolic_worldline(2.0)],
                             ids=["wiggly", "hyperbolic"])
    def test_curve_is_normalised(self, curve):
        # zdot.zdot = c^2 and, differentiated, zdot.zddot = 0
        for tau in np.linspace(-1, 1, 9):
            v, a = curve.zdot(tau), curve.zddot(tau)
            assert abs(inner(v, v) - curve.c ** 2) <= 1e-10 * curve.c ** 2
            assert abs(inner(v, a)) <= 1e-10 * max(curve.c ** 2, 1.0)


def foliation_function(curve, x):
    """The function whose root foliation_time finds."""
    return lambda tau: inner(curve.zdot(tau), x - curve.z(tau))


# the solve's stopping tolerances, which scipy's brentq takes as its own
XTOL, RTOL = 1e-14, 8.9e-16
# worst |sigma - artanh(ct/x)| of the Brent root finder this solve replaced,
# a port of brentq.c, on the 400 wedge events of test_hyperbolic_closed_form
BRENT_WORST_ERROR = 5.551115123125783e-15


class TestRootSolve:
    """The bracketed Newton solve against scipy.optimize.brentq, the
    hyperbolic curve's closed form and its refusals."""

    @pytest.mark.parametrize("curve", [hyperbolic_worldline(1.0),
                                       hyperbolic_worldline(1.0, c=2.0),
                                       wiggly_worldline(0.5)],
                             ids=["hyperbolic-c1", "hyperbolic-c2", "wiggly"])
    def test_matches_brentq(self, curve, rng):
        # both stop within XTOL + RTOL |tau| of the root
        brentq = pytest.importorskip("scipy.optimize").brentq
        used = 0
        for _ in range(1000):
            # an event on the hyperplane of tau0, inside the tube
            tau0 = rng.uniform(-1.0, 1.0)
            zd = curve.zdot(tau0)
            w = rng.standard_normal(4)
            w = w - zd * (inner(zd, w) / curve.c ** 2)
            x = curve.z(tau0) + rng.uniform(0.0, 0.6) * w / np.linalg.norm(w)
            lo, hi = tau0 - rng.uniform(0.01, 1.5), tau0 + rng.uniform(0.01, 1.5)
            f = foliation_function(curve, x)
            if f(lo) * f(hi) > 0:
                continue
            used += 1
            want = brentq(f, lo, hi, xtol=XTOL, rtol=RTOL, maxiter=200)
            assert abs(foliation_time(curve, x, (lo, hi)) - want) <= XTOL + RTOL * abs(want)
        assert used >= 900

    def test_hyperbolic_closed_form(self, rng):
        # sigma = x0 artanh(ct/x) on the wedge; the solve is no further
        # from it than the Brent port was on the same events
        x = rng.uniform(0.05, 2.5, 400)
        events = np.column_stack([rng.uniform(-0.95, 0.95, 400) * x, x,
                                  rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400)])
        want = np.array([math.atanh(ct / r) for ct, r, _, _ in events.tolist()])
        for got in (foliation_time(hyperbolic_worldline(1.0), events, (-1.5, 1.5)),
                    [foliation_time(hyperbolic_worldline(1.0), e, (-1.5, 1.5)) for e in events]):
            assert np.abs(np.asarray(got) - want).max() <= BRENT_WORST_ERROR

    @pytest.mark.parametrize("window", [(0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)])
    def test_root_at_bracket_end(self, window):
        # a window with f = 0 at an end grows past it (the growth wants a
        # strict sign change) and the solve comes back to that root; in
        # (-1, 1) the root is the first Newton point, where f = 0 ends it
        wl = hyperbolic_worldline(1.0)
        x = wl.z(0.0) + np.array([0.0, 0.5, 0.1, 0.0])
        assert foliation_function(wl, x)(0.0) == 0.0
        assert foliation_time(wl, x, window) == 0.0

    def test_nan_offset_is_a_precondition_error(self):
        # the window brackets the root, but the curve is NaN at the first
        # Newton point, the bracket's midpoint
        wl = hyperbolic_worldline(1.0)

        def z(t):
            out = wl.z(t)
            out[np.asarray(t) == 0.0] = np.nan
            return out

        curve = WorldLineCurve(z, wl.zdot, wl.zddot, wl.zdddot)
        x = np.array([0.1, 1.2, 0.3, -0.2])
        assert foliation_time(wl, x, (-1.0, 1.0)) > 0
        with pytest.raises(PreconditionError, match="offset is NaN at tau = 0.0"):
            foliation_time(curve, x, (-1.0, 1.0))


class TestOneForm:
    """The rigid modules take the bilinear form from core and the central
    difference from fields._jet.  The references are the inline
    formulas they replaced, compared bit for bit, refusals included."""

    @staticmethod
    def normalised_or_not(rng, c):
        u = np.concatenate([[0.0], rng.uniform(-3, 3, 3)])
        u[0] = math.sqrt(c * c + float(u[1:] @ u[1:]))
        return u * (1.0 + float(rng.choice([0.0, 0.0, 1e-11, 3e-9, 2e-8, -1e-6])))

    def test_velocity_field_normalisation(self, rng):
        refused = 0
        for _ in range(2000):
            c = float(rng.uniform(0.5, 3.0))
            u = self.normalised_or_not(rng, c)
            x = rng.standard_normal(4)
            c2 = c * c
            q = u[0] * u[0] - float(u[1:] @ u[1:])
            if abs(q - c2) > 1e-10 * c2:
                want = (f"field not normalised at {x.tolist()}: u.u = {float(q)!r}, "
                        f"expected {c2!r}")
            else:
                want = u.tobytes()
            try:
                got = VelocityField(lambda y: u, lambda y: True, c)(x).tobytes()
            except PreconditionError as exc:
                got = str(exc)
                refused += 1
            assert got == want
        assert refused > 100

    def test_spatial_metric(self, rng):
        refused = 0
        for _ in range(2000):
            c = float(rng.uniform(0.5, 3.0))
            u = self.normalised_or_not(rng, c)
            q = u[0] * u[0] - float(u[1:] @ u[1:])
            G = np.diag([1.0, -1.0, -1.0, -1.0])
            if abs(q - c * c) > 1e-8 * c * c:
                want = None
            else:
                ul = G @ u
                want = (np.outer(ul, ul) / (c * c) - G).tobytes()
            try:
                got = spatial_metric(u, c).tobytes()
            except PreconditionError:
                got = None
                refused += 1
            assert got == want
        assert refused > 100

    def test_accel_norm_g(self, rng):
        zero = np.zeros((4, 4))
        for _ in range(2000):
            a = rng.standard_normal(4) * 10.0 ** rng.uniform(-6, 3)
            dec = KinematicDecomposition(zero, zero, a)
            want = float(np.sqrt(abs(a[0] * a[0] - a[1:] @ a[1:])))
            assert np.float64(dec.accel_norm_g).tobytes() == np.float64(want).tobytes()

    def test_wedge_chart_metric(self, rng):
        G = np.diag([1.0, -1.0])
        step = 1e-5

        def embed(q):
            return np.array([q[1] * np.sinh(q[0]), q[1] * np.cosh(q[0])])

        for _ in range(2000):
            x0, lam = float(rng.uniform(0.05, 6.0)), float(rng.uniform(-4.0, 4.0))
            q0 = np.array([lam, x0])
            jac = np.zeros((2, 2))
            for j in range(2):
                dq = np.zeros(2)
                dq[j] = step
                jac[:, j] = (embed(q0 + dq) - embed(q0 - dq)) / (2 * step)
            assert wedge_chart_metric(x0, lam).tobytes() == (jac.T @ G @ jac).tobytes()

