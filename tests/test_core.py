import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minklab import core, suites
from minklab.core import (AffineFrame, CausalClass, DimensionMismatchError,
                          Event, Metric, MinkVector, PreconditionError,
                          affine_combination,
                          cauchy_schwarz_case, classify, frame_coords,
                          frame_point, inner, metric_matrix,
                          minkowski_distance, norm_g, reversed_triangle_check,
                          strict_inverted_cs_holds, _inner_rows, _norm_g_rows)

E = np.eye(4)


class TestInner:
    def test_signature_on_basis(self):
        assert inner(E[0], E[0]) == 1.0
        for i in (1, 2, 3):
            assert inner(E[i], E[i]) == -1.0
        assert inner(E[0] + E[1], E[0] + E[1]) == 0.0

    def test_symmetric_bilinear(self, rng):
        v, w, u = rng.standard_normal((3, 4))
        assert inner(v, w) == pytest.approx(inner(w, v), abs=1e-14)
        assert inner(v + 2 * u, w) == pytest.approx(
            inner(v, w) + 2 * inner(u, w), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(np.ones(4), np.ones(3))

    def test_metric_matrix(self):
        g = metric_matrix(4)
        assert np.array_equal(np.diag(g), [1, -1, -1, -1])


class TestEventVectorDiscipline:
    def test_difference_and_translation(self):
        p = Event([1.0, 2.0, 3.0, 4.0])
        q = Event([0.0, 1.0, 1.0, 1.0])
        d = p - q
        assert isinstance(d, MinkVector)
        assert isinstance(q + d, Event)
        assert np.array_equal((q + d).a, p.a)

    def test_no_event_addition(self):
        p = Event([0.0, 0.0])
        with pytest.raises(TypeError):
            p + p

    def test_exchange_identity_exact_on_integers(self, rng):
        pts = rng.integers(-50, 50, size=(3, 4)).astype(float)
        p, q, r = (Event(row) for row in pts)
        assert np.array_equal((p + (q - r)).a, (q + (p - r)).a)


class TestClassify:
    @pytest.fixture
    def metric(self):
        return Metric(4)

    def test_future_timelike(self, metric):
        got = classify(MinkVector([1, 0, 0, 0]), metric)
        assert got == CausalClass("timelike", "future")

    def test_future_lightlike(self, metric):
        got = classify(MinkVector([1, 1, 0, 0]), metric)
        assert got == CausalClass("lightlike", "future")

    def test_spacelike(self, metric):
        # interval 0.25 - 1 = -0.75
        assert classify(MinkVector([0.5, 1, 0, 0]), metric).label == "spacelike"

    def test_zero_vector_not_lightlike(self, metric):
        assert classify(MinkVector([0, 0, 0, 0]), metric).label == "zero"

    def test_past_orientation(self, metric):
        assert classify(MinkVector([-2, 1, 0, 0]), metric).oriented == "past"

    def test_trichotomy(self, metric, rng):
        labels = {"timelike", "lightlike", "spacelike"}
        for _ in range(200):
            v = rng.standard_normal(4)
            got = classify(MinkVector(v), metric)
            assert got.label in labels

    def test_orientation_transitive(self, rng):
        from conftest import random_future_timelike
        for _ in range(1000):
            u, v, w = (random_future_timelike(rng) for _ in range(3))
            if inner(u, v) > 0 and inner(v, w) > 0:
                assert inner(u, w) > 0


class TestCauchySchwarz:
    def test_timelike_span(self):
        got = cauchy_schwarz_case(E[0], E[1])
        assert got["case"] == "<=" and got["span"] == "timelike"
        assert got["lhs"] == -1.0 and got["rhs"] == 0.0

    def test_lightlike_span(self):
        got = cauchy_schwarz_case(E[0] + E[1], E[2])
        assert got["case"] == "==" and got["lhs"] == got["rhs"] == 0.0

    def test_spacelike_span(self):
        got = cauchy_schwarz_case(E[1], E[2])
        assert got["case"] == ">=" and got["lhs"] == 1.0 and got["rhs"] == 0.0

    def test_dependent_rejected(self):
        with pytest.raises(PreconditionError):
            cauchy_schwarz_case(E[1], 2.0 * E[1])


class TestStrictInvertedCS:
    def test_timelike_holds(self):
        got = strict_inverted_cs_holds(MinkVector([2, 0.3, -0.4, 1]), 1000, seed=5)
        assert got["holds"] and got["witness"] is None

    def test_spacelike_witness(self):
        got = strict_inverted_cs_holds(MinkVector([0.3, 2, 0, 0]), 1000, seed=5)
        assert not got["holds"]
        w = got["witness"]
        v = MinkVector([0.3, 2, 0, 0])
        assert inner(v, v) * inner(w, w) >= inner(v, w) ** 2 - 1e-12

    def test_lightlike_witness_in_orthogonal_complement(self):
        v = MinkVector([1, 1, 0, 0])
        got = strict_inverted_cs_holds(v, 1000, seed=5)
        assert not got["holds"]
        w = got["witness"]
        assert abs(inner(v, w)) < 1e-10  # witness lies in the degenerate plane


def _reference_strict_ics(v, sample_count, seed):
    """Sample-by-sample strict inverted Cauchy-Schwarz sweep, one draw, one
    rank test and one scalar check per sample."""
    va = np.asarray(v, dtype=float)
    rng = np.random.default_rng(seed)

    def dependent(w):
        m = np.vstack([va, w])
        return np.linalg.matrix_rank(m, tol=1e-12 * max(1.0, float(np.abs(m).max()))) < 2

    def violates(w):
        lhs = inner(va, va) * inner(w, w)
        rhs = inner(va, w) ** 2
        scale = max(float((va @ va) * (w @ w)), 1e-300)
        return lhs >= rhs - 1e-14 * scale

    vv = inner(va, va)
    if abs(vv) > 1e-14 * float(va @ va):
        subtract, denom = va, vv
    else:
        subtract = va.copy()
        subtract[0] = -subtract[0]
        denom = inner(subtract, va)
    candidates = [b - subtract * (inner(b, va) / denom) for b in np.eye(va.size)]
    if va.size >= 3:
        # (0, u), u a unit spatial vector orthogonal to v's spatial part
        s = va[1:]
        e = np.eye(s.size)[np.argmin(np.abs(s))]
        u = e - s * ((e @ s) / ((s @ s) or 1.0))
        candidates.append(np.concatenate([[0.0], u / np.linalg.norm(u)]))
    for w in candidates:
        if not dependent(w) and violates(w):
            return {"holds": False, "witness": w, "sampled": False}
    for _ in range(sample_count):
        w = rng.standard_normal(va.size)
        if not dependent(w) and violates(w):
            return {"holds": False, "witness": w, "sampled": True}
    return {"holds": True, "witness": None, "sampled": False}


# time component per unit spatial norm; "near-null" is spacelike by 1e-6
# relative, which defeats every basis projection on some axes
AXIS_KINDS = {"timelike": 1.5, "spacelike": 0.5, "lightlike": 1.0, "near-null": 1.0 - 1e-6}


def _axis(kind, n, seed):
    s = np.random.default_rng([seed, n]).standard_normal(n - 1)
    return np.concatenate([[AXIS_KINDS[kind] * float(np.linalg.norm(s))], s])


class TestStrictInvertedCSSweep:
    @pytest.mark.parametrize("sample_count", [0, 1, 500])
    @pytest.mark.parametrize("kind", list(AXIS_KINDS))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_sequential_reference(self, n, kind, sample_count):
        for seed in range(5):
            v = _axis(kind, n, seed)
            got = strict_inverted_cs_holds(MinkVector(v), sample_count, seed)
            want = _reference_strict_ics(v, sample_count, seed)
            assert got["holds"] is want["holds"]
            if want["witness"] is None:
                assert got["witness"] is None
            else:
                assert got["witness"].a.tobytes() == want["witness"].tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_near_null_witness_constructed(self, n):
        # spacelike by 1e-6 relative: every basis projection is timelike on
        # these axes, and (0, u) still violates without a sample
        for seed in range(5):
            v = _axis("near-null", n, seed)
            got = strict_inverted_cs_holds(MinkVector(v), 0, seed)
            assert got["holds"] is False
            w = got["witness"].a
            assert inner(v, v) * inner(w, w) >= inner(v, w) ** 2

    def test_timelike_holds_in_every_dimension(self):
        for n in (3, 4, 5):
            assert strict_inverted_cs_holds(MinkVector(_axis("timelike", n, 0)), 500, 0)["holds"]

    def test_zero_samples_still_hold(self):
        got = strict_inverted_cs_holds(MinkVector([2, 0.3, -0.4, 1]), 0)
        assert got == {"holds": True, "witness": None}

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError, match="sample_count"):
            strict_inverted_cs_holds(MinkVector([2, 0.3, -0.4, 1]), -1)


class TestReversedTriangle:
    def test_parallel_equality(self):
        got = reversed_triangle_check(E[0], E[0])
        assert got["holds"] and abs(got["slack"]) < 1e-12

    def test_worked_slack(self):
        got = reversed_triangle_check(MinkVector([2, 1, 0, 0]),
                                      MinkVector([2, -1, 0, 0]))
        assert got["slack"] == pytest.approx(4 - 2 * math.sqrt(3), abs=1e-14)
        assert got["holds"]

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            reversed_triangle_check(E[0], -1.0 * MinkVector(E[0]).a)

    def test_non_timelike_rejected(self):
        with pytest.raises(PreconditionError):
            reversed_triangle_check(E[1], E[0])

    def test_random_future_pairs(self, rng):
        from conftest import random_future_timelike
        for _ in range(300):
            v, w = random_future_timelike(rng), random_future_timelike(rng)
            got = reversed_triangle_check(v, w)
            assert got["holds"]


class TestDistanceIsNotAMetric:
    def test_null_pair_at_distance_zero(self):
        p, q = Event([0, 0, 0, 0]), Event([3, 3, 0, 0])
        assert minkowski_distance(p, q) == 0.0

    def test_triangle_inequality_fails(self):
        p, q = Event([0, 0, 0, 0]), Event([2, 0, 0, 0])
        w = Event([1, 0.999, 0, 0])
        assert (minkowski_distance(p, w) + minkowski_distance(w, q)
                < minkowski_distance(p, q))


class TestAffine:
    def test_combination_identity_weight(self):
        p, q = Event([1, 2, 3, 4]), Event([5, 6, 7, 8])
        got = affine_combination([p, q], [1.0, 0.0])
        assert np.array_equal(got.a, p.a)

    def test_midpoint(self):
        p, q = Event([0, 0]), Event([2, 4])
        got = affine_combination([p, q], [0.5, 0.5])
        assert np.array_equal(got.a, [1, 2])

    def test_extrapolation_both_expansions(self):
        p, q = Event([1, 1]), Event([0, 3])
        got = affine_combination([p, q], [2.0, -1.0])
        # expanding around q instead must agree
        other = q + 2.0 * (p - q)
        assert np.allclose(got.a, other.a, atol=1e-14)
        assert np.array_equal(got.a, (p + (p - q)).a)

    def test_weight_sum_enforced(self):
        with pytest.raises(PreconditionError):
            affine_combination([Event([0, 0]), Event([1, 1])], [0.7, 0.2])

    def test_base_point_free(self, rng):
        pts = [Event(row) for row in rng.standard_normal((4, 4))]
        w = rng.standard_normal(4)
        w[0] = 1.0 - w[1:].sum()
        a = affine_combination(pts, w)
        b = affine_combination(list(reversed(pts)), list(reversed(w)))
        assert np.allclose(a.a, b.a, atol=1e-12)


class TestFrames:
    def test_origin_maps_to_zero(self, rng):
        fr = AffineFrame(Event([1, 2, 3, 4]),
                         tuple(MinkVector(r) for r in np.eye(4)))
        assert np.array_equal(frame_coords(fr, fr.origin), np.zeros(4))

    def test_unit_coordinates_hit_basis(self):
        basis = tuple(MinkVector(r) for r in np.eye(4))
        fr = AffineFrame(Event([0, 0, 0, 0]), basis)
        got = frame_point(fr, [0, 1, 0, 0])
        assert np.array_equal(got.a, basis[1].a)

    def test_round_trip(self, rng):
        mat = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        fr = AffineFrame(Event(rng.standard_normal(4)),
                         tuple(MinkVector(r) for r in mat))
        for _ in range(20):
            p = Event(rng.standard_normal(4))
            x = frame_coords(fr, p)
            assert np.abs(frame_point(fr, x).a - p.a).max() < 1e-12

    def test_singular_basis_rejected(self):
        rows = [np.array([1.0, 0, 0, 0])] * 4
        with pytest.raises(ValueError):
            AffineFrame(Event([0, 0, 0, 0]), tuple(MinkVector(r) for r in rows))


@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_inner_product_symmetry_property(a, b):
    assert inner(np.array(a), np.array(b)) == inner(np.array(b), np.array(a))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30))
@settings(max_examples=200, deadline=None)
def test_norm_invariant_under_integer_reflection_property(t, x, y, z):
    v = np.array([t, x, y, z], dtype=float)
    flipped = v.copy()
    flipped[1] = -flipped[1]
    assert norm_g(v) == norm_g(flipped)


class TestHyperplane:
    def test_zero_normal_rejected(self):
        from minklab.core import Hyperplane
        with pytest.raises(ValueError):
            Hyperplane(MinkVector([0, 0, 0, 0]), Event([0, 0, 0, 0]))

    def test_membership(self):
        from minklab.core import Hyperplane
        plane = Hyperplane(MinkVector([1, 0, 0, 0]), Event([2, 0, 0, 0]))
        assert plane.contains(Event([2, 5, -3, 1]))
        assert not plane.contains(Event([2.1, 5, -3, 1]))


class TestStackedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_equal_scalar_calls(self, rng, n):
        V, W = rng.standard_normal((2, 50, n))
        assert _inner_rows(V, W).tobytes() == np.array(
            [inner(v, w) for v, w in zip(V, W)]).tobytes()
        assert _inner_rows(V[0], W).tobytes() == np.array([inner(V[0], w) for w in W]).tobytes()
        assert _norm_g_rows(V).tobytes() == np.array([norm_g(v) for v in V]).tobytes()

    @pytest.mark.parametrize("margin", [0.1, 0.2])
    def test_future_timelike_equals_row_by_row(self, rng, margin):
        V = rng.standard_normal((40, 3, 4))
        want = V.copy()
        for v in want.reshape(-1, 4):
            v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + margin
        assert suites._future_timelike(V, margin).tobytes() == want.tobytes()


def _per_sample_orientation(rng, samples):
    """The core suite's transitivity sweep, drawn and tested triple by triple."""
    bad = 0
    for _ in range(samples):
        vs = []
        while len(vs) < 3:
            v = rng.standard_normal(4)
            v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + 0.1
            vs.append(v)
        uv, vw, uw = inner(vs[0], vs[1]), inner(vs[1], vs[2]), inner(vs[0], vs[2])
        if uv > 0 and vw > 0 and uw <= 0:
            bad += 1
    return bad


@pytest.mark.parametrize("samples", [60, 200, 800])
@pytest.mark.parametrize("seed", range(10))
def test_orientation_sweep_matches_per_sample_reference(seed, samples):
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _per_sample_orientation(ref, samples)
    assert suites._orientation_sweep(rng, samples) == want
    assert rng.bit_generator.state == ref.bit_generator.state
    report = suites.run_suite("core", seed, suites.Config(samples=samples))
    reported = {c["name"]: c["residual"] for c in report["checks"]}
    assert reported["orientation.transitive"] == float(want)
    assert report["passed"]


def test_nan_product_fails_orientation(monkeypatch):
    # a NaN in one triple's products decides nothing, so the triple counts
    original = core._inner_rows
    samples = suites.Config().samples

    def poisoned(v, w):
        out = original(v, w)
        if out.shape == (samples,):  # the sweep's stacks, not strict_ics's
            out[-1] = np.nan
        return out

    monkeypatch.setattr(core, "_inner_rows", poisoned)
    report = suites.run_suite("core", 0, suites.Config())
    failed = {c["name"]: c["residual"] for c in report["checks"] if not c["passed"]}
    assert failed == {"orientation.transitive": 1.0}
