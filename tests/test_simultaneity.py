import math

import numpy as np
import pytest

from minklab import simultaneity, suites
from minklab.core import Event, MinkVector, PreconditionError, inner, norm_g
from minklab.simultaneity import (WorldLine, line_cone_intersect,
                                  mutual_simultaneity, radar_echo_points,
                                  radar_simultaneous_event,
                                  simultaneity_hyperplane)
from minklab.suites import Config, run_suite


def random_timelike_line(rng, dim=4, c=1.0):
    v = rng.standard_normal(dim)
    v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + 0.2
    return WorldLine(Event(rng.uniform(-2, 2, dim)), MinkVector(v), c)


class TestWorldLine:
    def test_canonical_form_reparameterization(self):
        a = WorldLine(Event([0.0, 2.0]), MinkVector([1.0, 0.0]))
        b = WorldLine(Event([5.0, 2.0]), MinkVector([-3.0, 0.0]))
        assert np.allclose(a.base.a, b.base.a, rtol=0.0, atol=1e-12)
        assert np.allclose(a.direction.a, b.direction.a, rtol=0.0, atol=1e-12)

    def test_direction_future_normalised(self, rng):
        ln = random_timelike_line(rng)
        assert inner(ln.direction, ln.direction) == pytest.approx(1.0, abs=1e-12)
        assert ln.direction.a[0] > 0

    def test_contains(self):
        ln = WorldLine(Event([0.0, 1.0]), MinkVector([2.0, 0.0]))
        assert ln.contains(Event([7.5, 1.0]))
        assert not ln.contains(Event([7.5, 1.1]))

    def test_spacelike_rejected(self):
        with pytest.raises(PreconditionError):
            WorldLine(Event([0.0, 0.0]), MinkVector([0.3, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["base", "direction"])
    def test_non_finite_rejected(self, bad, where):
        base, direction = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        (base if where == "base" else direction)[1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            WorldLine(Event(base), MinkVector(direction))

    def test_near_null_direction_is_not_timelike(self):
        # canonicalised as lightlike, so the radar construction refuses it
        ln = WorldLine(Event([0.0, 0.0]), MinkVector([1.0 + 3e-13, 1.0]))
        assert not ln.timelike
        with pytest.raises(PreconditionError, match="timelike"):
            radar_simultaneous_event(ln, Event([0.0, 1.0]))


class TestLineConeIntersect:
    def test_two_points_worked(self):
        ln = WorldLine(Event([0.0, 2.0]), MinkVector([1.0, 0.0]))
        pts = line_cone_intersect(ln, Event([0.0, 0.0]))
        got = sorted(tuple(p.a) for p in pts)
        assert np.allclose(got, [(-2.0, 2.0), (2.0, 2.0)], atol=1e-12)

    def test_lightlike_one_point(self):
        ln = WorldLine(Event([0.0, 2.0]), MinkVector([1.0, 1.0]))
        pts = line_cone_intersect(ln, Event([0.0, 0.0]))
        assert len(pts) == 1
        d = pts[0] - Event([0.0, 0.0])
        assert abs(inner(d, d)) < 1e-12

    def test_lightlike_empty_when_orthogonal(self):
        # p - r in the direction's orthogonal plane: never meets the cone
        ln = WorldLine(Event([0.0, 0.0, 2.0]), MinkVector([1.0, 1.0, 0.0]))
        assert line_cone_intersect(ln, Event([0.0, 0.0, 0.0])) == []

    def test_vertex_on_line_rejected(self):
        ln = WorldLine(Event([0.0, 2.0]), MinkVector([1.0, 0.0]))
        with pytest.raises(PreconditionError):
            line_cone_intersect(ln, Event([3.0, 2.0]))

    def test_base_on_cone_is_a_solution(self):
        # base representative sitting on the cone is itself an intersection
        ln = WorldLine(Event([2.0, 2.0]), MinkVector([1.0, 0.0]))
        pts = line_cone_intersect(ln, Event([0.0, 0.0]))
        got = sorted(tuple(p.a) for p in pts)
        assert np.allclose(got, [(-2.0, 2.0), (2.0, 2.0)], atol=1e-12)

    def test_reparameterization_invariant(self, rng):
        for _ in range(50):
            ln = random_timelike_line(rng)
            shifted = WorldLine(ln.point(3.7), ln.direction, ln.c)
            p = Event(rng.uniform(-2, 2, 4))
            if ln.contains(p):
                continue
            a = sorted(tuple(q.a) for q in line_cone_intersect(ln, p))
            b = sorted(tuple(q.a) for q in line_cone_intersect(shifted, p))
            assert np.allclose(a, b, atol=1e-9)

    def test_solutions_are_on_cone(self, rng):
        for _ in range(100):
            ln = random_timelike_line(rng)
            p = Event(rng.uniform(-2, 2, 4))
            if ln.contains(p):
                continue
            for q in line_cone_intersect(ln, p):
                d = q - p
                assert abs(inner(d, d)) < 1e-8


class TestRadar:
    def test_time_axis_symmetry(self):
        ln = WorldLine(Event([0.0, 0.0, 0.0, 0.0]), MinkVector([1.0, 0.0, 0.0, 0.0]))
        q = radar_simultaneous_event(ln, Event([0.0, 5.0, 0.0, 0.0]))
        assert np.allclose(q.a, [0.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_orthogonality(self, rng):
        for _ in range(50):
            ln = random_timelike_line(rng)
            p = Event(rng.uniform(-3, 3, 4))
            if ln.contains(p):
                continue
            q = radar_simultaneous_event(ln, p)
            assert abs(inner(q - p, ln.direction)) < 1e-10

    def test_product_identity_any_interior_point(self, rng):
        # the echo-product identity holds off the midpoint as well
        for _ in range(50):
            ln = random_timelike_line(rng)
            p = Event(rng.uniform(-3, 3, 4))
            if ln.contains(p):
                continue
            qm, qp = radar_echo_points(ln, p)
            for s in np.linspace(0.05, 0.95, 10):
                q = Event((1 - s) * qm.a + s * qp.a)
                lhs = norm_g(q - p) ** 2
                rhs = norm_g(qp - q) * norm_g(q - qm)
                assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    def test_on_line_rejected(self):
        ln = WorldLine(Event([0.0, 0.0]), MinkVector([1.0, 0.0]))
        with pytest.raises(PreconditionError):
            radar_simultaneous_event(ln, Event([3.0, 0.0]))

    def test_parallel_lines_share_the_relation(self, rng):
        # the radar event depends only on the direction, through orthogonality
        for _ in range(30):
            v = rng.standard_normal(4)
            v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + 0.2
            l1 = WorldLine(Event(rng.uniform(-2, 2, 4)), MinkVector(v))
            p = Event(rng.uniform(-2, 2, 4))
            if l1.contains(p):
                continue
            q1 = radar_simultaneous_event(l1, p)
            # the simultaneity class of p for any parallel observer is the
            # same hyperplane: same normal, containing p
            assert abs(inner(q1 - p, MinkVector(v))) < 1e-9


class TestMutualSimultaneity:
    def test_intersection_case_worked(self):
        l1 = WorldLine(Event([0.0, 0.0]), MinkVector([1.0, 0.0]))
        l2 = WorldLine(Event([0.0, 1.0]), MinkVector([1.0, 0.5]))
        q, qp = mutual_simultaneity(l1, l2)
        assert np.allclose(q.a, [-2.0, 0.0], atol=1e-12)
        assert np.allclose(qp.a, [-2.0, 0.0], atol=1e-12)

    def test_skew_pair(self, rng):
        found_distinct = False
        for _ in range(50):
            l1 = random_timelike_line(rng)
            l2 = random_timelike_line(rng)
            try:
                q, qp = mutual_simultaneity(l1, l2)
            except PreconditionError:
                continue
            d = q - qp
            assert abs(inner(d, l1.direction)) < 1e-10
            assert abs(inner(d, l2.direction)) < 1e-10
            if np.abs(d.a).max() > 1e-6:
                found_distinct = True
        assert found_distinct

    def test_parallel_rejected(self):
        l1 = WorldLine(Event([0.0, 0.0]), MinkVector([1.0, 0.0]))
        l2 = WorldLine(Event([0.0, 1.0]), MinkVector([2.0, 0.0]))
        with pytest.raises(PreconditionError):
            mutual_simultaneity(l1, l2)

    def test_not_symmetric_in_general(self):
        # q' simultaneous for the first observer at q does not make q
        # simultaneous for the second observer at q'
        l1 = WorldLine(Event([0.0, 0.0]), MinkVector([1.0, 0.0]))
        l2 = WorldLine(Event([0.0, 1.0]), MinkVector([1.0, 0.5]))
        q = Event([0.0, 0.0])
        # the point of l2 that l1's observer at q calls simultaneous
        lam = -inner(l2.base - q, l1.direction) / inner(l2.direction, l1.direction)
        qp = l2.point(lam)
        assert abs(inner(qp - q, l1.direction)) < 1e-12
        assert abs(inner(qp - q, l2.direction)) > 1e-3


class TestHyperplanes:
    def test_time_axis_slice(self):
        ln = WorldLine(Event([0.0, 0.0, 0.0, 0.0]), MinkVector([1.0, 0.0, 0.0, 0.0]))
        plane = simultaneity_hyperplane(ln, Event([0.0, 0.0, 0.0, 0.0]))
        assert plane.contains(Event([0.0, 3.0, -1.0, 2.0]))
        assert not plane.contains(Event([0.1, 3.0, -1.0, 2.0]))

    def test_distinct_points_disjoint_planes(self, rng):
        ln = random_timelike_line(rng)
        p1 = simultaneity_hyperplane(ln, ln.point(0.0))
        p2 = simultaneity_hyperplane(ln, ln.point(1.0))
        for _ in range(50):
            x = Event(rng.uniform(-5, 5, 4))
            assert not (p1.contains(x) and p2.contains(x))

    def test_partition_of_sampled_events(self, rng):
        ln = random_timelike_line(rng)
        planes = [simultaneity_hyperplane(ln, ln.point(k - 10.0)) for k in range(21)]
        v = ln.direction
        for _ in range(100):
            k = int(rng.integers(0, 21))
            # an event in plane k: its anchor plus any orthogonal offset
            w = rng.standard_normal(4)
            w = w - v.a * (inner(w, v) / inner(v, v))
            x = planes[k].base + MinkVector(w)
            memberships = [i for i, pl in enumerate(planes) if pl.contains(x)]
            assert memberships == [k]

    def test_off_line_anchor_rejected(self, rng):
        ln = random_timelike_line(rng)
        with pytest.raises(PreconditionError):
            simultaneity_hyperplane(ln, ln.point(0.0) + MinkVector([0, 1.0, 0, 0]))


class TestFrameStabilizerHarness:
    def test_rotations_and_translations_permute_the_planes(self, rng):
        # maps fixing the preferred line family (rotations about it plus
        # arbitrary translations) send simultaneity classes to classes
        from minklab.isometry import random_rotation
        ln = WorldLine(Event([0.0, 0.0, 0.0, 0.0]), MinkVector([1.0, 0.0, 0.0, 0.0]))
        for _ in range(25):
            R = random_rotation(4, rng)
            shift = rng.uniform(-2, 2, 4)
            q = ln.point(float(rng.uniform(-3, 3)))
            plane = simultaneity_hyperplane(ln, q)
            # image of the plane's base under the stabiliser element
            img_base = Event(R @ q.a + shift)
            img_plane = simultaneity_hyperplane(
                WorldLine(Event(shift), MinkVector([1.0, 0, 0, 0])), img_base)
            for _ in range(10):
                w = rng.standard_normal(4)
                w[0] = 0.0  # spatial offset inside the plane
                x = q + MinkVector(w)
                assert img_plane.contains(Event(R @ x.a + shift))


# Scalar forms of the line formulas, computed one line at a time with the
# 1-D inner product; the stacked helpers must equal them bit for bit.

def _scalar_canonical(b, v, c=1.0):
    q, eucl2 = inner(v, v), float(v @ v)
    v = v * (c / np.sqrt(q)) if q > 1e-12 * eucl2 else v / np.sqrt(eucl2)
    if v[0] < 0:
        v = -v
    return b - (float(b @ v) / float(v @ v)) * v, v


def _scalar_echoes(r, v, p):
    d = r - p
    dd, vv, vd = inner(d, d), inner(v, v), inner(v, d)
    root = np.sqrt(vd * vd - vv * dd)
    return [r + float(lam) * v for lam in sorted([(-vd - root) / vv, (-vd + root) / vv])]


def _scalar_mutual(r, v, rp, vp):
    mat = np.array([[inner(v, v), -inner(v, vp)], [inner(v, vp), -inner(vp, vp)]])
    lam, lamp = np.linalg.solve(mat, np.array([inner(rp - r, v), inner(rp - r, vp)]))
    return r + float(lam) * v, rp + float(lamp) * vp


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


class TestScalarForms:
    @pytest.mark.parametrize("c", [1.0, 0.3])
    def test_lines_match(self, rng, c):
        for dim in (2, 3, 4):
            for _ in range(100):
                v = rng.standard_normal(dim)
                if rng.random() < 0.3:  # lightlike, either orientation
                    v[0] = np.sign(v[0]) * np.linalg.norm(v[1:])
                else:
                    v[0] = np.sign(v[0]) * (abs(v[0]) + np.linalg.norm(v[1:]) + 0.2)
                b, p = rng.uniform(-2, 2, (2, dim))
                ln = WorldLine(Event(b), MinkVector(v), c)
                r, d = _scalar_canonical(b, v, c)
                assert _bits(ln.base.a, ln.direction.a) == _bits(r, d)
                if ln.timelike and not ln.contains(Event(p)):
                    got = [q.a for q in radar_echo_points(ln, Event(p))]
                    want = _scalar_echoes(r, d, p)
                    assert _bits(*got) == _bits(*want)
                    assert _bits(radar_simultaneous_event(ln, Event(p)).a) == _bits(
                        0.5 * (want[0] + want[1]))

    def test_mutual_matches(self, rng):
        for dim in (2, 3, 4):
            for _ in range(100):
                l1, l2 = random_timelike_line(rng, dim), random_timelike_line(rng, dim)
                got = [q.a for q in mutual_simultaneity(l1, l2)]
                want = _scalar_mutual(l1.base.a, l1.direction.a, l2.base.a, l2.direction.a)
                assert _bits(*got) == _bits(*want)


# The simultaneity suite's sweeps computed sample by sample, on inputs drawn
# as the sweeps draw them; the suite must report the same residuals bit for
# bit and leave each sweep's generator in the same state.

def _per_sample_radar(rng, lines):
    worst_mid = worst_prod = 0.0
    V = rng.standard_normal((lines, 4))
    B, P = rng.uniform(-2, 2, (2, lines, 4))
    for v, base, event in zip(V, B, P):
        v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + 0.2
        ln = WorldLine(Event(base), MinkVector(v))
        p = Event(event)
        if ln.contains(p):
            continue
        q = radar_simultaneous_event(ln, p)
        worst_mid = max(worst_mid, abs(inner(q - p, ln.direction)))
        qm, qp = radar_echo_points(ln, p)
        for s in np.linspace(0.05, 0.95, 10):
            qq = Event((1 - s) * qm.a + s * qp.a)
            lhs = inner(qq - p, qq - p)
            rhs = norm_g(qp - qq) * norm_g(qq - qm)
            worst_prod = max(worst_prod, abs(-lhs - rhs))
    return worst_mid, worst_prod


def _per_sample_mutual(rng, pairs):
    worst = 0.0
    V = rng.standard_normal((pairs, 2, 3))
    B = rng.uniform(-2, 2, (pairs, 2, 3))
    for (v1, v2), (b1, b2) in zip(V, B):
        v1[0] = abs(v1[0]) + np.linalg.norm(v1[1:]) + 0.2
        v2[0] = abs(v2[0]) + np.linalg.norm(v2[1:]) + 0.2
        la = WorldLine(Event(b1), MinkVector(v1))
        lb = WorldLine(Event(b2), MinkVector(v2))
        try:
            q, qp = mutual_simultaneity(la, lb)
        except PreconditionError:
            continue
        d = q - qp
        worst = max(worst, abs(inner(d, la.direction)), abs(inner(d, lb.direction)))
    return worst


@pytest.mark.parametrize("samples", [60, 200, 800])
@pytest.mark.parametrize("seed", range(10))
def test_suite_sweeps_match_per_sample_reference(seed, samples):
    ref, rng = suites._stream(seed, "radar"), suites._stream(seed, "radar")
    want = dict(zip(["radar.orthogonal", "radar.product_identity"],
                    _per_sample_radar(ref, samples // 4)))
    got = dict(zip(want, suites._radar_sweep(rng, samples // 4)))
    assert rng.bit_generator.state == ref.bit_generator.state
    name = "mutual.orthogonality"
    ref, rng = suites._stream(seed, name), suites._stream(seed, name)
    want[name], got[name] = _per_sample_mutual(ref, samples // 4), suites._mutual_sweep(
        rng, samples // 4)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert _bits(*got.values()) == _bits(*want.values())
    report = run_suite("simultaneity", seed, Config(samples=samples))
    reported = {c["name"]: c["residual"] for c in report["checks"]}
    assert _bits(*(reported[name] for name in want)) == _bits(*want.values())
    assert report["passed"]


@pytest.mark.parametrize("helper, checks", [
    ("_echo_points", ["radar.orthogonal", "radar.product_identity"]),
    ("_mutual_points", ["mutual.orthogonality"]),
])
def test_nan_in_a_later_sample_fails_the_check(monkeypatch, helper, checks):
    original = getattr(simultaneity, helper)

    def poisoned(*args):
        out = original(*args)
        if out[0].ndim == 2:  # the suite's stack, not a single worked line
            out[0][-1] = np.nan
        return out

    monkeypatch.setattr(simultaneity, helper, poisoned)
    report = run_suite("simultaneity", 0, Config())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == set(checks)


def test_sweeps_that_keep_no_sample_fail():
    # samples // 4 == 0 lines: an empty sweep is NaN, not a pass at 0.0
    # (the command line refuses samples < 4 before any suite runs)
    report = run_suite("simultaneity", 0, Config(samples=3))
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"radar.orthogonal", "radar.product_identity", "mutual.orthogonality"}
    assert all(math.isnan(c["residual"]) for c in report["checks"] if c["name"] in failed)
    notes = {c["name"]: c["note"] for c in run_suite("simultaneity", 0, Config())["checks"]}
    assert {c["name"]: c["note"] for c in report["checks"]} == notes


@pytest.mark.parametrize("which", [0, 1], ids=["q", "q_prime"])
def test_nan_in_the_intersection_case_fails_the_check(monkeypatch, which):
    # the worked intersecting pair folds both events with one np.max, so a
    # NaN in either fails mutual.intersection_case
    original = simultaneity.mutual_simultaneity

    def poisoned(*args):
        pair = list(original(*args))
        pair[which] = Event(np.full(2, np.nan))
        return tuple(pair)

    monkeypatch.setattr(simultaneity, "mutual_simultaneity", poisoned)
    checks = {c["name"]: c for c in run_suite("simultaneity", 0, Config())["checks"]}
    assert not checks["mutual.intersection_case"]["passed"]
    assert math.isnan(checks["mutual.intersection_case"]["residual"])
