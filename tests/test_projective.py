import math

import numpy as np
import pytest

from minklab.core import Event, PreconditionError
from minklab.projective import (EPS_SINGULAR, FLBoost, ProjectiveMap,
                                SingularHyperplaneError, collinearity_residual,
                                conjugation_check, deformation_phi,
                                deformation_phi_inverse, fl_boost_apply,
                                lorentz_boost_event,
                                parallelism_breaking_demo, proj_apply,
                                time_slab)


class TestProjApply:
    def test_affine_when_improper(self, rng):
        A = rng.standard_normal((3, 3))
        a = rng.standard_normal(3)
        m = ProjectiveMap(A, a, np.zeros(3), 1.0)
        assert not m.proper
        x = rng.standard_normal(3)
        assert np.allclose(proj_apply(m, x), A @ x + a, atol=1e-14)

    def test_worked_map(self):
        m = ProjectiveMap.worked_example(2)
        s, sigma = 0.25, 0.7
        got = proj_apply(m, np.array([s, sigma]))
        assert np.allclose(got, np.array([s, sigma]) / (1 - s), atol=1e-14)

    def test_singular_hyperplane_guarded(self):
        m = ProjectiveMap.worked_example(2)
        with pytest.raises(SingularHyperplaneError):
            proj_apply(m, np.array([1.0, 0.5]))
        with pytest.raises(SingularHyperplaneError):
            proj_apply(m, np.array([1.0 + 0.5 * EPS_SINGULAR, 0.5]))

    def test_event_in_event_out(self):
        m = ProjectiveMap.worked_example(4)
        out = proj_apply(m, Event([0.5, 1.0, 2.0, 3.0]))
        assert isinstance(out, Event)

    def test_segments_stay_straight(self, rng):
        for _ in range(50):
            A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
            m = ProjectiveMap(A, rng.standard_normal(4),
                              0.3 * rng.standard_normal(4), 2.0)
            for _ in range(20):
                base = rng.uniform(-0.4, 0.4, 4)
                d = rng.standard_normal(4)
                try:
                    pts = [proj_apply(m, base + s * d)
                           for s in np.linspace(-0.15, 0.15, 5)]
                except SingularHyperplaneError:
                    continue
                assert collinearity_residual(pts) < 1e-10


class TestCollinearity:
    def test_line_samples(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([2.0, 4.0]),
               np.array([-3.0, -6.0]), np.array([0.5, 1.0])]
        assert collinearity_residual(pts) < 1e-15

    def test_triangle_nonzero(self):
        pts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert collinearity_residual(pts) > 0.1

    def test_two_points_by_convention(self):
        assert collinearity_residual([np.zeros(3), np.ones(3)]) == 0.0

    def test_duplicates_rejected(self):
        with pytest.raises(PreconditionError):
            collinearity_residual([np.zeros(2), np.zeros(2), np.ones(2)])


class TestParallelismDemo:
    def test_two_lines(self):
        got = parallelism_breaking_demo([0.0, 1.0])
        d0, d1 = got["directions"][0.0], got["directions"][1.0]
        assert np.allclose(d0, [1.0, 0.0])
        assert np.allclose(d1, np.array([1.0, 1.0]) / math.sqrt(2))
        assert got["pairwise_angles"][(0.0, 1.0)] == pytest.approx(math.pi / 4)

    def test_single_sigma_trivially_parallel(self):
        got = parallelism_breaking_demo([2.5])
        assert got["pairwise_angles"] == {}

    def test_three_distinct_directions(self):
        got = parallelism_breaking_demo([1.0, 2.0, 3.0])
        assert len(got["directions"]) == 3
        assert all(a > 0 for a in got["pairwise_angles"].values())

    def test_duplicate_sigmas_rejected(self):
        with pytest.raises(PreconditionError):
            parallelism_breaking_demo([1.0, 1.0])

    def test_directions_equal_the_closed_form(self, rng):
        # the map's image points give exactly (1, sigma), so demo files keep
        # the bytes of the closed form
        sigmas = np.concatenate([rng.uniform(-1e6, 1e6, 500),
                                 rng.standard_normal(500) * 10.0 ** rng.uniform(-300, 5, 500),
                                 [0.0, 1e-308, 5e-324, 1e150]])
        for s in sigmas.tolist():
            got = parallelism_breaking_demo([s])["directions"][s]
            want = np.array([1.0, s]) / np.linalg.norm([1.0, s])
            assert got.tobytes() == want.tobytes()

    def test_overflowing_image_rejected(self):
        with pytest.raises(PreconditionError, match="twice"):
            parallelism_breaking_demo([1.0, 1e308])

    def test_directions_come_from_the_map(self, monkeypatch):
        # with a map that moves nothing the lines stay parallel, and the
        # suite's check must see it
        from minklab import projective, suites
        monkeypatch.setattr(projective, "proj_apply", lambda m, x: np.asarray(x, dtype=float))
        report = suites.run_suite("projective", 0, suites.Config())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == {"proj.worked_map", "proj.parallelism_broken"}

    def test_directions_are_line_image_velocities(self):
        # direction of the image line must match differences of image points
        m = ProjectiveMap.worked_example(2)
        sigma = 2.0
        pts = [proj_apply(m, np.array([s, sigma])) for s in (-0.2, 0.0, 0.3)]
        d = pts[2] - pts[0]
        d = d / np.linalg.norm(d)
        expect = parallelism_breaking_demo([sigma])["directions"][sigma]
        assert np.allclose(abs(d), abs(expect), atol=1e-12)


class TestFLBoost:
    def test_zero_velocity_identity(self, rng):
        b = FLBoost(np.zeros(3), c=1.0, R=5.0)
        for _ in range(20):
            t = float(rng.uniform(-3, 3))
            x = rng.standard_normal(3)
            tp, xp = fl_boost_apply(b, t, x)
            assert tp == t and np.array_equal(xp, x)

    def test_origin_fixed(self):
        b = FLBoost(np.array([0.5, 0.1, -0.2]), c=1.0, R=3.0)
        tp, xp = fl_boost_apply(b, 0.0, np.zeros(3))
        assert tp == 0.0 and np.array_equal(xp, np.zeros(3))

    def test_large_scale_limit(self, rng):
        R = 1e6
        b = FLBoost(np.array([0.5, 0.0, 0.0]), c=1.0, R=R)
        for _ in range(200):
            t = float(rng.uniform(-1, 1))
            x = rng.uniform(-1, 1, 3)
            tp, xp = fl_boost_apply(b, t, x)
            tl, xl = lorentz_boost_event(b.velocity, t, x, 1.0)
            bound = 10.0 * (np.linalg.norm(x) + abs(t)) / R
            assert abs(tp - tl) <= bound
            assert np.abs(xp - xl).max() <= bound

    def test_superluminal_rejected(self):
        with pytest.raises(PreconditionError):
            FLBoost(np.array([1.5, 0, 0]), c=1.0, R=1.0)

    def test_inverse_pair(self, rng):
        b = FLBoost(np.array([0.4, 0.2, -0.1]), c=1.0, R=7.0)
        binv = FLBoost(-b.velocity, b.c, b.R)
        for _ in range(200):
            t = float(rng.uniform(0.2, 5.0))
            x = rng.uniform(-2, 2, 3)
            try:
                t1, x1 = fl_boost_apply(b, t, x)
                t2, x2 = fl_boost_apply(binv, t1, x1)
            except SingularHyperplaneError:
                continue
            assert abs(t2 - t) < 1e-10
            assert np.abs(x2 - x).max() < 1e-10

    def test_composition_is_einstein_composed_boost(self, rng):
        from minklab.kinematics import compose_velocities
        c, R = 1.0, 9.0
        v1, v2 = 0.3, 0.45  # collinear boosts along x
        b1 = FLBoost(np.array([v1, 0, 0]), c, R)
        b2 = FLBoost(np.array([v2, 0, 0]), c, R)
        v12 = compose_velocities(-1.0 / (c * c), v2, v1)
        b12 = FLBoost(np.array([v12, 0, 0]), c, R)
        for _ in range(200):
            t = float(rng.uniform(0.2, 4.0))
            x = rng.uniform(-2, 2, 3)
            try:
                ta, xa = fl_boost_apply(b2, *fl_boost_apply(b1, t, x))
                tb, xb = fl_boost_apply(b12, t, x)
            except SingularHyperplaneError:
                continue
            assert abs(ta - tb) < 1e-10
            assert np.abs(xa - xb).max() < 1e-10


class TestDeformation:
    def test_time_zero_fixed(self, rng):
        x = rng.standard_normal(3)
        tp, xp = deformation_phi(5.0, 1.0, 0.0, x)
        assert tp == 0.0 and np.array_equal(xp, x)

    def test_half_horizon_lands_on_horizon(self):
        R, c = 4.0, 2.0
        tp, _ = deformation_phi(R, c, R / (2 * c), np.zeros(3))
        assert tp == pytest.approx(R / c, abs=1e-15)

    def test_round_trip(self, rng):
        R, c = 6.0, 1.0
        for _ in range(100):
            t = float(rng.uniform(-10, 10))
            if abs(1 - c * t / R) < 1e-3 or abs(1 + c * t / R) < 1e-3:
                continue
            x = rng.standard_normal(3)
            tp, xp = deformation_phi(R, c, t, x)
            tb, xb = deformation_phi_inverse(R, c, tp, xp)
            assert abs(tb - t) < 1e-12
            assert np.abs(xb - x).max() < 1e-12

    def test_singularities(self):
        with pytest.raises(SingularHyperplaneError):
            deformation_phi(2.0, 1.0, 2.0, np.zeros(3))
        with pytest.raises(SingularHyperplaneError):
            deformation_phi_inverse(2.0, 1.0, -2.0, np.zeros(3))

    def test_slab_table(self, rng):
        R, c = 3.0, 1.5
        horizon = R / c
        for _ in range(1000):
            t = float(rng.uniform(-5 * horizon, 5 * horizon))
            if abs(abs(t) - horizon) < 1e-6:
                continue
            slab = time_slab(t, R, c)
            tp, _ = deformation_phi(R, c, t, np.zeros(3))
            if slab == "front":
                assert 0 <= t < horizon and tp >= 0
            elif slab == "beyond":
                assert t > horizon and tp < -horizon
            else:
                assert t < 0 and -horizon < tp <= 0


class TestConjugation:
    def test_zero_velocity(self, rng):
        b = FLBoost(np.zeros(3), c=1.0, R=4.0)
        samples = [(float(rng.uniform(-2, 2)), rng.standard_normal(3))
                   for _ in range(50)]
        got = conjugation_check(b, samples)
        assert got["max_residual"] < 1e-14

    def test_slab_samples(self, rng):
        b = FLBoost(np.array([0.5, 0, 0]), c=1.0, R=10.0)
        samples = [(float(rng.uniform(0.5, 9.5)), rng.uniform(-3, 3, 3))
                   for _ in range(1000)]
        got = conjugation_check(b, samples)
        assert got["max_residual"] < 1e-10
        assert got["used"] + got["skipped"] == 1000

    def test_singular_sample_skipped(self):
        b = FLBoost(np.array([0.3, 0, 0]), c=1.0, R=2.0)
        # the first squash leg is singular at t = -R/c
        got = conjugation_check(b, [(-2.0, np.zeros(3))])
        assert got["skipped"] == 1 and got["used"] == 0

    def test_fl_denominator_guard(self):
        b = FLBoost(np.array([0.99, 0, 0]), c=1.0, R=1.0)
        g = b.gamma
        t_sing = b.R / (b.c * (g - 1.0))  # x = 0 root of the deformed denominator
        with pytest.raises(SingularHyperplaneError):
            fl_boost_apply(b, t_sing, np.zeros(3))


class TestOneClosedForm:
    """fl_boost_apply divides lorentz_boost_event's numerators by its own
    denominator, and deformation_phi_inverse is the squash at -R.  The
    references are the separate formulas they replaced, compared bit for
    bit, refusals included."""

    @staticmethod
    def fl_boost_reference(b, t, x):
        xa = np.asarray(x, dtype=float).reshape(3)
        g = b.gamma
        denom = 1.0 - (g - 1.0) * b.c * t / b.R + g * float(b.velocity @ xa) / (b.R * b.c)
        if abs(denom) <= EPS_SINGULAR:
            raise SingularHyperplaneError(f"denominator {denom!r} within {EPS_SINGULAR} of zero")
        vv = float(b.velocity @ b.velocity)
        xpar = np.zeros_like(xa) if vv == 0.0 else (float(xa @ b.velocity) / vv) * b.velocity
        xperp = xa - xpar
        tp = g * (t - float(b.velocity @ xa) / (b.c * b.c)) / denom
        xp = (g * (xpar - b.velocity * t) + xperp) / denom
        return tp, xp

    @staticmethod
    def phi_inverse_reference(R, c, t, x):
        xa = np.asarray(x, dtype=float)
        d = 1.0 + c * t / R
        if abs(d) <= EPS_SINGULAR:
            raise SingularHyperplaneError(f"deformation denominator {d!r} too small")
        return t / d, xa / d

    @staticmethod
    def outcome(fn, *args):
        try:
            t, x = fn(*args)
        except SingularHyperplaneError as exc:
            return "refused", str(exc)
        return np.float64(t).tobytes(), np.asarray(x).tobytes()

    def test_fl_boost_apply(self, rng):
        refused = 0
        for i in range(2000):
            c = float(rng.uniform(0.5, 3.0))
            v = rng.standard_normal(3) * (0.0 if i % 50 == 0 else 1.0)
            v *= rng.uniform(0.0, 0.99) * c / max(float(np.linalg.norm(v)), 1e-300)
            b = FLBoost(v, c=c, R=float(rng.uniform(0.5, 20.0)))
            x = rng.uniform(-5, 5, 3)
            if i % 4 == 0:  # on or next to the singular hyperplane
                g = b.gamma
                t = (1.0 + g * float(v @ x) / (b.R * c)) * b.R / ((g - 1.0) * c or 1.0)
                t += float(rng.choice([0.0, 1e-12, -1e-9, 1e-7]))
            else:
                t = float(rng.uniform(-20, 20))
            want = self.outcome(self.fl_boost_reference, b, t, x)
            assert self.outcome(fl_boost_apply, b, t, x) == want
            refused += want[0] == "refused"
        assert refused > 100

    def test_deformation_phi_inverse(self, rng):
        refused = 0
        for i in range(2000):
            R = float(rng.uniform(0.1, 50.0)) * (-1.0 if i % 3 == 0 else 1.0)
            c = float(rng.uniform(0.5, 3.0))
            if i % 4 == 0:  # on or next to the singular t = -R/c
                t = -R / c + float(rng.choice([0.0, 1e-12, -1e-9, 1e-7])) * R / c
            else:
                t = float(rng.uniform(-60, 60))
            x = rng.uniform(-5, 5, 3)
            want = self.outcome(self.phi_inverse_reference, R, c, t, x)
            assert self.outcome(deformation_phi_inverse, R, c, t, x) == want
            refused += want[0] == "refused"
        assert refused > 100
