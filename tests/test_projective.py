import math
import warnings

import numpy as np
import pytest

from minklab import projective, suites
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
        with pytest.raises(PreconditionError):  # -0.0 equals 0.0
            collinearity_residual([np.array([0.0, 1.0]), np.ones(2), np.array([-0.0, 1.0])])

    def test_duplicate_test_matches_the_pairwise_reference(self, rng):
        # the sorted neighbour test finds the duplicates the pairwise loop
        # finds: repeated rows anywhere in the cloud and signed zeros, but not
        # rows with an infinite or NaN coordinate, whose difference is NaN
        def found_duplicate(fn, pts):
            try:
                fn(pts)
            except PreconditionError:
                return True
            except np.linalg.LinAlgError:  # the SVD of a non-finite cloud
                pass
            return False

        values = [0.0, -0.0, 1.0, 2.0, math.inf, math.nan]
        found = 0
        with np.errstate(invalid="ignore"):
            for _ in range(400):
                pts = rng.choice(values, size=(int(rng.integers(1, 7)), 2))
                want = found_duplicate(collinearity_reference, pts)
                assert found_duplicate(collinearity_residual, pts) == want
                found += want
        assert 50 < found < 350


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


def test_squash_pair_takes_stacks(rng):
    t, x = rng.uniform(-20, 20, (4, 5)), rng.uniform(-3, 3, (4, 5, 2))
    for fn in (deformation_phi, deformation_phi_inverse):
        tp, xp = fn(3.0, 1.5, t, x)
        want = [fn(3.0, 1.5, ti, xi) for ti, xi in zip(t.ravel().tolist(), x.reshape(-1, 2))]
        assert tp.shape == (4, 5) and xp.shape == (4, 5, 2)
        assert tp.tobytes() == np.array([w[0] for w in want]).tobytes()
        assert xp.tobytes() == np.array([w[1] for w in want]).tobytes()


# The projective suite's sweeps, drawn and computed sample by sample with the
# scalar formulas the stacked helpers replaced; the suite must report the
# same residuals bit for bit and leave the generator in the same state after
# each sweep.

def proj_reference(m, x):
    xa = np.asarray(x, dtype=float)
    d = float(m.p @ xa + m.q)
    if abs(d) <= EPS_SINGULAR:
        raise SingularHyperplaneError(f"denominator {d!r} within {EPS_SINGULAR} of zero")
    return (m.A @ xa + m.a) / d


def collinearity_reference(points):
    pts = np.vstack([np.asarray(p, dtype=float) for p in points])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.abs(pts[i] - pts[j]).max() == 0.0:
                raise PreconditionError("duplicate points")
    if len(pts) < 3:
        return 0.0
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return 0.0 if s[0] == 0.0 else float(s[1] / s[0])


def boost_reference(velocity, t, x, c=1.0):
    v = np.asarray(velocity, dtype=float).reshape(3)
    xa = np.asarray(x, dtype=float).reshape(3)
    vv = float(v @ v)
    gamma = 1.0 / math.sqrt(1.0 - vv / (c * c))
    xpar = np.zeros_like(xa) if vv == 0.0 else (float(xa @ v) / vv) * v
    return gamma * (t - float(v @ xa) / (c * c)), gamma * (xpar - v * t) + (xa - xpar)


def squash_reference(R, c, t, x):
    d = 1.0 - c * t / R
    if abs(d) <= EPS_SINGULAR:
        raise SingularHyperplaneError(f"deformation denominator {d!r} too small")
    return t / d, np.asarray(x, dtype=float) / d


def slab_reference(t, R, c):
    horizon = R / c
    if t == horizon or t == -horizon:
        raise SingularHyperplaneError("t sits on a singular hyperplane")
    if 0.0 <= t < horizon:
        return "front"
    return "beyond" if t > horizon else "past"


def _per_sample_lines(rng):
    """The suite's segment sweep one segment at a time, on its draws: 25
    random segments, then a fixed one whose middle point (0.5, 0, 0) is
    singular for p = (-4, 0, 0)."""
    A = rng.standard_normal((26, 3, 3)) + 2 * np.eye(3)
    a = rng.standard_normal((26, 3))
    p = np.vstack([0.2 * rng.standard_normal((25, 3)), [-4.0, 0.0, 0.0]])
    base = np.vstack([rng.uniform(-0.5, 0.5, (25, 3)), [0.5, 0.0, 0.0]])
    direction = np.vstack([rng.standard_normal((25, 3)), [1.0, 0.0, 0.0]])
    worst, used = 0.0, 0
    for i in range(26):
        m = ProjectiveMap(A[i], a[i], p[i], 2.0)
        pts = []
        for s in np.linspace(-0.2, 0.2, 5):
            try:
                pts.append(proj_reference(m, base[i] + s * direction[i]))
            except SingularHyperplaneError:
                pts = []
                break
        if len(pts) >= 3:
            used += 1
            worst = max(worst, collinearity_reference(pts))
    return worst, used


def _per_sample_fl_samples(rng, samples):
    return [(float(row[0]), row[1:])
            for row in rng.uniform([0.5, -3, -3, -3], [9, 3, 3, 3], (samples, 4))]


def _per_sample_conjugation(b, samples):
    fl = TestOneClosedForm.fl_boost_reference
    worst, used = 0.0, 0
    for t, x in samples:
        try:
            t1, x1 = fl(b, t, x)
            tm, xm = squash_reference(-b.R, b.c, t, x)
            tl, xl = boost_reference(b.velocity, tm, xm, b.c)
            t2, x2 = squash_reference(b.R, b.c, tl, xl)
        except SingularHyperplaneError:
            continue
        used += 1
        worst = max(worst, abs(t1 - t2) * b.c, float(np.abs(x1 - x2).max()))
    return worst, used


def _per_sample_inverse(b, samples):
    fl = TestOneClosedForm.fl_boost_reference
    binv = FLBoost(-b.velocity, b.c, b.R)
    worst, used = 0.0, 0
    for t, x in samples:
        try:
            t1, x1 = fl(b, t, x)
            t2, x2 = fl(binv, t1, x1)
        except SingularHyperplaneError:
            continue
        used += 1
        worst = max(worst, abs(t2 - t), float(np.abs(x2 - x).max()))
    return worst, used


def _per_sample_large_scale(samples, R=1e6):
    b = FLBoost(np.array([0.5, 0, 0]), c=1.0, R=R)
    worst = 0.0
    for t, x in samples:
        t1, x1 = TestOneClosedForm.fl_boost_reference(b, t, x)
        t2, x2 = boost_reference(b.velocity, t, x, 1.0)
        bound = 10.0 * (float(np.linalg.norm(x)) + abs(t)) / R
        worst = max(worst, max(abs(t1 - t2), float(np.abs(x1 - x2).max())) / bound)
    return worst


def _per_sample_slab(rng, samples, R=5.0, c=1.0):
    bad, used = 0, 0
    for t in rng.uniform(-20, 20, samples).tolist() + [R / c]:
        if abs(abs(t) - R / c) < 1e-9:
            continue
        slab = slab_reference(t, R, c)
        try:
            tp, _ = squash_reference(R, c, t, np.zeros(3))
        except SingularHyperplaneError:
            continue
        used += 1
        bad += ((slab == "front" and not tp >= 0) or (slab == "beyond" and not tp < -R / c)
                or (slab == "past" and not (-R / c < tp <= 0)))
    return bad, used


def _bits(*values):
    return [np.float64(x).tobytes() for x in values]


def _streams(seed, name):
    return suites._stream(seed, name), suites._stream(seed, name)


@pytest.mark.parametrize("samples", [60, 200, 800])
@pytest.mark.parametrize("seed", range(10))
def test_suite_sweeps_match_per_sample_reference(seed, samples):
    ref, rng = _streams(seed, "proj.lines_to_lines")
    want_lines, got_lines = _per_sample_lines(ref), suites._lines_sweep(rng)
    assert rng.bit_generator.state == ref.bit_generator.state
    b = FLBoost(np.array([0.5, 0, 0]), c=1.0, R=10.0)
    singular = [(b.R / (b.c * (b.gamma - 1.0)), np.zeros(3))]
    n = min(100, samples)
    ref, rng = _streams(seed, "fl.conjugation")
    want_conj = _per_sample_conjugation(b, _per_sample_fl_samples(ref, samples) + singular)
    got_conj = suites._fl_sweep(projective._conjugation_rows, b, rng, samples)
    assert rng.bit_generator.state == ref.bit_generator.state
    ref, rng = _streams(seed, "fl.inverse")
    want_inv = _per_sample_inverse(b, _per_sample_fl_samples(ref, n) + singular)
    got_inv = suites._fl_sweep(suites._inverse_rows, b, rng, n)
    assert rng.bit_generator.state == ref.bit_generator.state
    ref, rng = _streams(seed, "fl.large_scale_limit")
    want_lim = _per_sample_large_scale(_per_sample_fl_samples(ref, n))
    got_lim = suites._large_scale_sweep(*suites._fl_samples(rng, n))
    assert rng.bit_generator.state == ref.bit_generator.state
    ref, rng = _streams(seed, "fl.slab_table")
    want_slab, got_slab = _per_sample_slab(ref, samples), suites._slab_sweep(rng, samples)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert got_lines[1:] == (want_lines[1], 26 - want_lines[1])
    assert got_conj[1:] == (want_conj[1], samples + 1 - want_conj[1])
    assert got_inv[1:] == (want_inv[1], n + 1 - want_inv[1])
    assert got_slab == (*want_slab, samples + 1 - want_slab[1])
    assert _bits(got_lines[0], got_conj[0], got_inv[0], got_lim) == _bits(
        want_lines[0], want_conj[0], want_inv[0], want_lim)
    report = suites.run_suite("projective", seed, suites.Config(samples=samples))
    reported = {c["name"]: c for c in report["checks"]}
    assert _bits(*(reported[name]["residual"] for name in (
        "proj.lines_to_lines", "fl.conjugation", "fl.inverse", "fl.large_scale_limit",
        "fl.slab_table"))) == _bits(want_lines[0], want_conj[0], want_inv[0], want_lim,
                                    want_slab[0])
    assert reported["proj.lines_to_lines"]["note"].endswith(
        f"; {want_lines[1]} samples, {26 - want_lines[1]} skipped")
    assert reported["fl.conjugation"]["note"] == (
        f"{want_conj[1]} samples, {samples + 1 - want_conj[1]} skipped")
    assert reported["fl.inverse"]["note"] == (
        f"{want_inv[1]} samples, {n + 1 - want_inv[1]} skipped")
    assert reported["fl.slab_table"]["note"].endswith(
        f"; {want_slab[1]} samples, {samples + 1 - want_slab[1]} skipped")
    assert report["passed"]


@pytest.mark.parametrize("seed", range(10))
def test_every_skip_note_shows_a_skipped_sample(seed):
    # each sweep that can skip ends on a fixed singular row
    notes = {c["name"]: c["note"] for c in suites.run_suite("projective", seed,
                                                             suites.Config())["checks"]}
    for name in ("proj.lines_to_lines", "fl.conjugation", "fl.inverse", "fl.slab_table"):
        skipped = int(notes[name].removesuffix(" skipped").rsplit(" ", 1)[1])
        assert skipped >= 1, (name, notes[name])


def test_conjugation_check_matches_per_sample_reference(rng):
    # mixed slabs, both velocities signs and events next to every singular
    # hyperplane, through the public function
    for R, v in [(10.0, [0.5, 0, 0]), (3.0, [-0.3, 0.4, 0.2]), (0.7, [0.0, 0.0, 0.0])]:
        b = FLBoost(np.array(v), c=1.0, R=R)
        samples = [(float(rng.uniform(-3 * R, 3 * R)), rng.uniform(-3, 3, 3))
                   for _ in range(500)]
        samples += [(-R, rng.uniform(-3, 3, 3)), (R, np.zeros(3)), (0.0, np.zeros(3))]
        worst, used = _per_sample_conjugation(b, samples)
        got = conjugation_check(b, samples)
        assert (got["used"], got["skipped"]) == (used, len(samples) - used)
        assert _bits(got["max_residual"]) == _bits(worst)
    assert conjugation_check(b, []) == {"max_residual": 0.0, "skipped": 0, "used": 0}


class TestSingularRows:
    """Rows exactly on t = R/c, on t = -R/c and on the zero of the deformed
    boost's denominator are masked and counted by the stacked helpers, and
    the public one-event functions still raise there."""

    R, c = 4.0, 2.0

    def fl_zero(self):
        b = FLBoost(np.array([0.6, 0.0, 0.0]), c=1.0, R=3.0)
        t = b.R / (b.c * (b.gamma - 1.0))  # the x = 0 root of the denominator
        assert projective._fl_rows(b, np.float64(t), np.zeros(3))[2] == 0.0
        return b, t

    def test_squash_horizons(self):
        R, c = self.R, self.c
        t = np.array([R / c, -R / c, 0.5, -7.0, R / c + 1e-12])
        kept, tp = projective._slab_table(t, R, c, 1e-9)
        assert kept.tolist() == [0.5, -7.0]
        assert tp.tolist() == [deformation_phi(R, c, s, np.zeros(3))[0] for s in (0.5, -7.0)]
        assert not projective._regular(projective._squash_rows(R, c, t, np.zeros((5, 3)))[2])[0]
        assert not projective._regular(projective._squash_rows(-R, c, t, np.zeros((5, 3)))[2])[1]
        with pytest.raises(SingularHyperplaneError, match="deformation denominator 0.0 too small"):
            deformation_phi(R, c, R / c, np.zeros(3))
        with pytest.raises(SingularHyperplaneError, match="deformation denominator 0.0 too small"):
            deformation_phi_inverse(R, c, -R / c, np.zeros(3))
        for fn, horizon in ((deformation_phi, R / c), (deformation_phi_inverse, -R / c)):
            with pytest.raises(SingularHyperplaneError, match="deformation denominator 0.0 too small"):
                fn(R, c, np.array([0.5, horizon, 1.0]), np.zeros((3, 2)))
        for horizon in (R / c, -R / c):
            with pytest.raises(SingularHyperplaneError, match="singular hyperplane"):
                time_slab(horizon, R, c)
        assert [time_slab(s, R, c) for s in (0.0, 1.0, 2.5, -0.0, -3.0)] == [
            "front", "front", "beyond", "front", "past"]

    def test_conjugation_masks_and_counts(self):
        b, t0 = self.fl_zero()
        t = np.array([1.0, -b.R / b.c, t0, 2.0])
        x = np.zeros((4, 3))
        res, keep = projective._conjugation_rows(b, t, x)
        assert keep.tolist() == [True, False, False, True]
        got = conjugation_check(b, list(zip(t.tolist(), x)))
        assert (got["used"], got["skipped"]) == (2, 2)
        assert got["max_residual"] == float(res[keep].max())
        with pytest.raises(SingularHyperplaneError, match="denominator 0.0 within 1e-08 of zero"):
            fl_boost_apply(b, t0, np.zeros(3))
        with pytest.raises(SingularHyperplaneError):
            deformation_phi_inverse(b.R, b.c, -b.R / b.c, np.zeros(3))

    def test_inverse_sweep_counts(self):
        b, t0 = self.fl_zero()
        res, keep = suites._inverse_rows(b, np.array([1.0, t0, 2.0]), np.zeros((3, 3)))
        assert keep.tolist() == [True, False, True] and res[keep].max() < 1e-10

    def test_lines_skip_whole_segments(self):
        m = ProjectiveMap.worked_example(2)
        x = np.array([[[0.5, 0.0], [1.0, 0.5], [1.5, 1.0]], [[0.1, 0.0], [0.2, 0.1], [0.3, 0.2]]])
        img, den = projective._proj_rows(m.A, m.a, m.p, m.q, x)
        assert projective._regular(den).all(axis=1).tolist() == [False, True]
        with pytest.raises(SingularHyperplaneError, match="denominator 0.0 within 1e-08 of zero"):
            proj_apply(m, x[0, 1])
        assert img[1].tobytes() == np.array([proj_apply(m, p) for p in x[1]]).tobytes()

    def test_lines_sweep_skips_a_segment_with_one_singular_point(self, monkeypatch):
        proj_rows = projective._proj_rows

        def one_singular_point(A, a, p, q, x):
            img, den = proj_rows(A, a, p, q, x)
            den[3, 2] = 0.5 * EPS_SINGULAR
            return img, den

        want = _per_sample_lines(np.random.default_rng(5))
        monkeypatch.setattr(projective, "_proj_rows", one_singular_point)
        worst, used, skipped = suites._lines_sweep(np.random.default_rng(5))
        assert (want[1], used, skipped) == (25, 24, 2) and worst <= want[0]

    def test_large_scale_sweep_refuses_a_singular_row(self):
        b = FLBoost(np.array([0.5, 0, 0]), c=1.0, R=1e6)
        t = b.R / (b.c * (b.gamma - 1.0))
        with pytest.raises(SingularHyperplaneError):
            suites._large_scale_sweep(np.array([1.0, t]), np.zeros((2, 3)))


def test_nan_in_a_later_sample_fails_the_check(monkeypatch):
    boost_rows = projective._boost_rows

    def poisoned(v, gamma, t, x, c):
        tp, xp = boost_rows(v, gamma, t, x, c)
        if np.ndim(tp) and tp.size > 7:
            tp = tp.copy()
            tp[7] = math.nan
        return tp, xp

    monkeypatch.setattr(projective, "_boost_rows", poisoned)
    report = suites.run_suite("projective", 0, suites.Config())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"fl.conjugation", "fl.inverse", "fl.large_scale_limit"}
    assert all(math.isnan(c["residual"]) for c in report["checks"] if c["name"] in failed)
    b = FLBoost(np.array([0.5, 0, 0]), c=1.0, R=10.0)
    samples = [(1.0 + 0.1 * i, np.full(3, 0.1)) for i in range(10)]
    assert math.isnan(conjugation_check(b, samples)["max_residual"])


class TestParallelismDemoOverflow:
    def test_huge_sigma_gives_a_unit_direction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parallelism_breaking_demo([0.0, 1e200, -1e300])["directions"]
        assert got[1e200].tolist() == [1e-200, 1.0]
        assert got[-1e300].tolist() == [1e-300, -1.0]
        for d in got.values():
            assert abs(np.linalg.norm(d) - 1.0) < 1e-15
