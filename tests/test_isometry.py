import math

import numpy as np
import pytest

from minklab import isometry, suites
from minklab.core import (DimensionMismatchError, Event, MinkVector,
                          PreconditionError, inner, metric_matrix)
from minklab.isometry import (AffineIsometry, ConformalProbeError, Dilation,
                              Reflection, _reflection_sweep, cartan_dieudonne,
                              compose_reflections, conformal_factor,
                              dilation_apply, is_lorentz, lorentz_residual,
                              random_lorentz, random_rotation, reflect,
                              reflection_matrix,
                              relation_preservation_harness,
                              unit_distance_harness)
from minklab.suites import Config, run_suite


class TestIsLorentz:
    def test_identity(self):
        ok, res = is_lorentz(np.eye(4))
        assert ok and res == 0.0

    def test_standard_boost(self):
        # cosh^2 - sinh^2 = 1 keeps the residual at rounding level
        rho = 0.3
        L = np.eye(4)
        L[0, 0] = L[1, 1] = np.cosh(rho)
        L[0, 1] = L[1, 0] = -np.sinh(rho)
        ok, res = is_lorentz(L)
        assert ok and res < 1e-15

    def test_scaling_rejected(self):
        ok, res = is_lorentz(np.diag([2.0, 1.0, 1.0, 1.0]))
        assert not ok and res == 3.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_lorentz(np.ones((3, 4)))


class TestReflect:
    def test_axis_negated(self):
        v = np.array([2.0, 1.0, 0.0, 0.0])
        assert np.allclose(reflect(v, v), -v, atol=1e-14)

    def test_orthogonal_fixed(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 3.0, -2.0, 1.0])
        assert np.array_equal(reflect(v, w), w)

    def test_worked_2d(self):
        got = reflect(np.array([1.0, 0.0]), np.array([2.0, 3.0]))
        assert np.array_equal(got, [-2.0, 3.0])
        assert inner(got, got) == inner(np.array([2.0, 3.0]), np.array([2.0, 3.0])) == -5.0

    def test_null_axis_rejected(self):
        with pytest.raises(PreconditionError):
            reflect(np.array([1.0, 1.0]), np.array([0.0, 1.0]))

    def test_involutive_matrix(self, rng):
        for _ in range(50):
            v = rng.standard_normal(4)
            if abs(inner(v, v)) < 1e-6:
                continue
            m = Reflection(v).matrix
            assert np.abs(m @ m - np.eye(4)).max() < 1e-10
            assert lorentz_residual(m) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_stored_matrix_is_reflection_matrix(self, dim, rng):
        for _ in range(50):
            v = rng.standard_normal(dim)
            if abs(inner(v, v)) < 1e-6:
                continue
            assert np.array_equal(Reflection(v).matrix, reflection_matrix(v))
            assert np.array_equal(Reflection(MinkVector(v)).matrix, reflection_matrix(v))

    @pytest.mark.parametrize("axis", [[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, -2.0], [0.0, 0.0]])
    def test_null_axis_rejected_at_construction(self, axis):
        with pytest.raises(PreconditionError):
            Reflection(axis)

    @pytest.mark.parametrize("axis", [2.0, [1.0], [[1.0, 0.5]]])
    def test_axis_that_is_not_a_flat_vector_rejected(self, axis):
        # the axis goes through core's one converter, as inner's operands do
        for build in (Reflection, reflection_matrix, lambda v: reflect(v, np.ones(2))):
            with pytest.raises(ValueError, match="at least 2 components"):
                build(axis)

    @pytest.mark.parametrize("axis", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf, 0.0],
                                      [2.0, 1.0, np.nan]])
    def test_non_finite_axis_rejected(self, axis):
        with pytest.raises(PreconditionError):
            Reflection(axis)
        with pytest.raises(PreconditionError):
            reflection_matrix(axis)
        with pytest.raises(PreconditionError):
            reflect(np.array(axis), np.ones(len(axis)))


def _product(factors, dim):
    """The product of a list of Reflection, in order."""
    return compose_reflections(np.array([f.matrix for f in factors]).reshape(-1, dim, dim))


class TestCartanDieudonne:
    def test_identity_is_empty(self):
        assert cartan_dieudonne(np.eye(4)) == []

    def test_single_reflection_recovered(self):
        v = np.array([3.0, 1.0, 0.5, 0.0])
        m = Reflection(v).matrix
        factors = cartan_dieudonne(m)
        assert 1 <= len(factors) <= 7
        assert np.abs(_product(factors, 4) - m).max() < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_isometries(self, dim, rng):
        for _ in range(100):
            L = random_lorentz(dim, rng, orthochronous=False, proper=False)
            factors = cartan_dieudonne(L)
            assert len(factors) <= 2 * dim - 1
            assert np.abs(_product(factors, dim) - L).max() < 1e-9

    def test_non_isometry_rejected(self):
        with pytest.raises(PreconditionError):
            cartan_dieudonne(np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        L = np.eye(3)
        L[1, 2] = bad
        with pytest.raises(PreconditionError), np.errstate(invalid="ignore"):
            cartan_dieudonne(L)

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="ROADMAP item 2: near-identity inputs pass the precondition, "
                              "then the sweep raises RuntimeError")
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_identity_decomposes_or_is_refused(self, n):
        for eps in (1e-10, 3e-10, 1e-9):
            L = np.eye(n) + eps * np.random.default_rng(0).standard_normal((n, n))
            try:
                cartan_dieudonne(L)
            except PreconditionError:
                pass


def _null_rotation(a):
    """exp(a X) for the 2+1 null rotation X = l (G e1)^T - e1 (G l)^T about
    l = (1, 0, 1); X^3 = 0, so the series stops."""
    G = metric_matrix(3)
    l, e1 = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
    X = np.outer(l, G @ e1) - np.outer(e1, G @ l)
    return np.eye(3) + a * X + (a * a / 2) * (X @ X)


def _reference_axes(L):
    """Cartan-Dieudonne axes by the per-matrix sweep in the docstring."""
    n = len(L)
    phi = np.array(L, dtype=float)
    axes = []
    for k in range(n):
        v = np.eye(n)[k]
        w = phi @ v
        if np.abs(w - v).max() < 1e-13:
            continue
        d = v - w
        if abs(inner(d, d)) > 1e-8 * max(1.0, float(d @ d)):
            a = d / np.linalg.norm(d)
            phi = reflection_matrix(a) @ phi
            axes.append(a)
        else:
            s = v + w
            a = s / np.linalg.norm(s)
            phi = reflection_matrix(v) @ reflection_matrix(a) @ phi
            axes += [a, v]
    return axes


def _same_axes(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


class TestCartanDieudonneStack:
    def test_finite_null_rotation_takes_single_reflections(self):
        # v - w is never exactly null for a moved basis vector, so a finite
        # null rotation takes one reflection for e0 and one for e1
        L = _null_rotation(1.0)
        d = np.array([-0.5, 1.0, -0.5])  # e0 - L e0
        axes = [f.axis for f in cartan_dieudonne(L)]
        assert _same_axes(axes, [d / np.linalg.norm(d), np.array([0.0, 1.0, 0.0])])

    def test_pair_branch(self):
        # within about 1e-4 of the identity |d.d| falls inside the relative
        # 1e-8 band, so e0 and e1 each take the pair of reflections at s/|s| and v
        L = _null_rotation(1e-5)
        assert np.array_equal(L @ [1.0, 0.0, 1.0], [1.0, 0.0, 1.0]) and lorentz_residual(L) < 1e-15
        factors = cartan_dieudonne(L)
        axes = [f.axis for f in factors]
        assert _same_axes(axes, _reference_axes(L))
        s = np.array([1.0, 0.0, 0.0]) + L[:, 0]
        assert len(axes) == 4 and np.array_equal(axes[0], s / np.linalg.norm(s))
        assert np.array_equal(axes[1], [1.0, 0.0, 0.0]) and np.array_equal(axes[3], [0.0, 1.0, 0.0])
        assert np.abs(_product(factors, 3) - L).max() < 1e-9

    def test_mixed_stack_matches_stack_of_one(self):
        draws = random_lorentz(3, np.random.default_rng(11), 6, orthochronous=False, proper=False)
        assert (np.linalg.det(draws) < 0).any() and (draws[:, 0, 0] < 0).any()
        stack = np.stack([np.eye(3), _null_rotation(1e-5), _null_rotation(1.0), *draws])
        axes, mats, used = _reflection_sweep(stack)
        products = compose_reflections(mats)
        assert np.abs(products - stack).max() < 1e-9
        for j, L in enumerate(stack):
            factors = cartan_dieudonne(L)
            assert _same_axes(list(axes[j][used[j]]), [f.axis for f in factors])
            assert _same_axes(list(mats[j][used[j]]), [f.matrix for f in factors])
            assert _same_axes(list(axes[j][used[j]]), _reference_axes(L))
            assert np.array_equal(products[j], _product(factors, 3))
        assert used[0].sum() == 0 and used[1].sum() == 4

    def test_one_non_isometry_in_stack_rejected(self):
        stack = random_lorentz(3, np.random.default_rng(2), 5)
        _reflection_sweep(stack)
        stack[3] = np.diag([2.0, 1.0, 1.0])
        with pytest.raises(PreconditionError):
            _reflection_sweep(stack)

    def test_empty_stack(self):
        axes, mats, used = _reflection_sweep(np.zeros((0, 4, 4)))
        assert axes.shape == (0, 8, 4) and mats.shape == (0, 8, 4, 4) and used.shape == (0, 8)


class TestDilation:
    def test_center_fixed(self):
        m = Event([1.0, 2.0, 0.0, 0.0])
        d = Dilation(3.0, m)
        assert np.array_equal(dilation_apply(d, m).a, m.a)

    def test_worked(self):
        d = Dilation(2.0, Event([0, 0, 0, 0]))
        assert np.array_equal(dilation_apply(d, Event([1, 1, 0, 0])).a, [2, 2, 0, 0])

    def test_interval_scaling(self, rng):
        d = Dilation(1.7, Event(rng.standard_normal(4)))
        for _ in range(50):
            p, q = Event(rng.standard_normal(4)), Event(rng.standard_normal(4))
            before = inner(p - q, p - q)
            img = dilation_apply(d, p) - dilation_apply(d, q)
            assert inner(img, img) == pytest.approx(1.7 ** 2 * before, abs=1e-12)

    def test_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            Dilation(-1.0, Event([0, 0]))


class TestConformalFactor:
    def test_identity(self):
        got = conformal_factor(np.eye(4))
        assert got["alpha"] == 1.0 and got["residual"] == 0.0

    def test_scaled_isometry(self, rng):
        for lam in (0.5, 1.3, 2.0):
            f = lam * random_lorentz(4, rng)
            got = conformal_factor(f)
            assert got["alpha"] == pytest.approx(lam * lam, abs=1e-9)
            assert got["residual"] < 1e-9

    def test_probe_violation_reported(self):
        f = np.diag([1.0, 1.0, 2.0, 2.0])
        with pytest.raises(ConformalProbeError) as err:
            conformal_factor(f)
        # the sqrt(2) e0 + e1 + e2 probe maps to interval 2 - 1 - 4 != 0
        probe = np.array([np.sqrt(2.0), 1.0, 1.0, 0.0])
        assert any(np.allclose(p, probe) for p in err.value.probes)

    def test_only_the_violating_probes_reported(self):
        # f keeps e0 + e1 null but maps e0 - e1 to (1, 0), which is timelike
        with pytest.raises(ConformalProbeError) as err:
            conformal_factor(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert np.array_equal(err.value.probes, [[1.0, -1.0]])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_null_probes_in_order(self, n):
        e = np.eye(n)
        want = [e[0] + s * e[a] for a in range(1, n) for s in (1.0, -1.0)]
        want += [np.sqrt(2.0) * e[0] + e[a] + e[b] for a in range(1, n) for b in range(a + 1, n)]
        assert isometry._null_probes(n).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, entry):
        f = np.eye(4)
        f[2, 1] = entry
        with pytest.raises(ConformalProbeError), np.errstate(invalid="ignore"):
            conformal_factor(f)

    def test_negative_alpha_for_time_flip_composite(self):
        # swapping time and space axes pulls back to -g
        f = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = conformal_factor(f)
        assert got["alpha"] == -1.0 and got["residual"] < 1e-12


def _moved(rows, value):
    """The row map that sends the events at `rows` to `value` and fixes the
    others: a map by row index, not a function of the coordinates."""
    def fmap(P):
        out = P.copy()
        out[rows] = value
        return out
    return fmap


class TestRelationHarness:
    @pytest.fixture
    def events(self, rng):
        return rng.uniform(-5, 5, (40, 4))

    def test_poincare_dilation_preserves_all(self, events, rng):
        L = random_lorentz(4, rng)
        shift = rng.uniform(-1, 1, 4)

        def fmap(P):
            return 1.5 * (P @ L.T) + shift

        for rel in ("ge", "gt", "lightlike-successor", "interval-sign"):
            assert relation_preservation_harness(events, fmap, rel) == []

    def test_time_reflection(self, events):
        trev = lambda P: P * [-1.0, 1.0, 1.0, 1.0]
        assert relation_preservation_harness(events, trev, "gt") != []
        assert relation_preservation_harness(events, trev, "interval-sign") == []

    def test_random_permutation_caught(self, events, rng):
        perm = rng.permutation(len(events))
        assert relation_preservation_harness(events, lambda P: P[perm], "gt") != []

    def test_non_injective_rejected(self, events):
        with pytest.raises(PreconditionError):
            relation_preservation_harness(events, lambda P: np.broadcast_to(P[0], P.shape), "gt")


def _reference_rel_holds(relation, d, tol):
    """One pair's relation value, computed with the scalar form."""
    q = inner(d, d)
    scale = max(1.0, float(d @ d))
    if relation == "ge":
        return (q >= -tol * scale) and (d[0] > 0 or float(d @ d) == 0.0)
    if relation == "gt":
        return q > tol * scale and d[0] > 0
    if relation == "lightlike-successor":
        return abs(q) <= tol * scale and float(d @ d) > 0 and d[0] > 0
    if abs(q) <= tol * scale:
        return "null"
    return "pos" if q > 0 else "neg"


def _reference_harness(events, mapping, relation):
    """The relation harness as a loop over ordered pairs, the map called
    once on all rows."""
    tol = 1e-9
    events = np.asarray(events, dtype=float)
    if events.ndim != 2:
        raise DimensionMismatchError("events must be rows")
    images = mapping(events)
    if images.shape != events.shape:
        raise DimensionMismatchError("images must have the shape of the events")
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if np.abs(images[i] - images[j]).max() < 1e-12:
                raise PreconditionError("mapping is not injective on the event set")
    violations = []
    for i in range(len(events)):
        for j in range(len(events)):
            if i == j:
                continue
            before = _reference_rel_holds(relation, events[i] - events[j], tol)
            after = _reference_rel_holds(relation, images[i] - images[j], tol)
            if relation == "interval-sign":
                if before != after:
                    violations.append((i, j, "forward"))
            else:
                if before and not after:
                    violations.append((i, j, "forward"))
                if after and not before:
                    violations.append((i, j, "inverse"))
    return sorted(violations)


RELATIONS = ("ge", "gt", "lightlike-successor", "interval-sign")


def _events(family, seed):
    rng = np.random.default_rng(seed)
    if family == "float":
        return rng.uniform(-5, 5, (30, 4))
    if family == "integer":
        # distinct integer events: many pairs are exactly null
        return np.unique(rng.integers(-3, 4, (50, 4)), axis=0)[:30].astype(float)
    # pairs p, p + d with d short and null up to a relative 4e-9, so the
    # interval falls on both sides of the tolerance band
    out = []
    for p in rng.uniform(-3, 3, (25, 4)):
        u = rng.standard_normal(3)
        s = rng.uniform(0.1, 2.0)
        d = s * np.concatenate([[1.0 + rng.uniform(-4e-9, 4e-9)], u / np.linalg.norm(u)])
        out += [p, p + d]
    return np.array(out)


def _map(kind, seed):
    rng = np.random.default_rng([seed, 1])
    if kind == "poincare-dilation":
        L, shift = random_lorentz(4, rng), rng.uniform(-1, 1, 4)
        return lambda P: 1.5 * (P @ L.T) + shift
    if kind == "time-reversal":
        return lambda P: P * [-1.0, 1.0, 1.0, 1.0]
    return lambda P: P * [1.0, 2.0, 1.0, 0.5] + [0.0, 1.0, 0.0, -1.0]


def _mixed_events(dim, count, seed):
    """Random events with integer and near-null pairs among them."""
    rng = np.random.default_rng([seed, dim, count])
    out = rng.uniform(-4, 4, (count, dim))
    out[::3] = np.unique(rng.integers(-3, 4, (count, dim)), axis=0)[:len(out[::3])]
    for a in range(1, count, 4):  # a null partner of the event before it
        d = rng.standard_normal(dim - 1)
        out[a] = out[a - 1] + rng.uniform(0.2, 2) * np.concatenate(
            [[1.0 + rng.uniform(-4e-9, 4e-9)], d / np.linalg.norm(d)])
    return out


def _maps(dim, seed):
    rng = np.random.default_rng([seed, dim, 2])
    L, shift = random_lorentz(dim, rng), rng.uniform(-1, 1, dim)
    squeeze = np.linspace(0.5, 2.0, dim)
    return {"poincare-dilation": lambda P: 1.5 * (P @ L.T) + shift,
            "time-reversal": lambda P: P * np.r_[-1.0, np.ones(dim - 1)],
            "anisotropic": lambda P: P * squeeze + 0.25}


class TestRelationHarnessReference:
    @pytest.mark.parametrize("kind", ["poincare-dilation", "time-reversal", "anisotropic"])
    @pytest.mark.parametrize("family", ["float", "integer", "near-null"])
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_matches_pairwise_reference(self, relation, family, kind):
        events, fmap = _events(family, 0), _map(kind, 0)
        want = _reference_harness(events, fmap, relation)
        assert relation_preservation_harness(events, fmap, relation) == want

    @pytest.mark.parametrize("kind", ["poincare-dilation", "time-reversal", "anisotropic"])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 70])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_mixed_events_match_reference(self, dim, count, kind):
        events = _mixed_events(dim, count, 0)
        fmap = _maps(dim, 0)[kind]
        for relation in RELATIONS:
            want = _reference_harness(events, fmap, relation)
            assert relation_preservation_harness(events, fmap, relation) == want

    def test_integer_events_have_null_pairs(self):
        events = _events("integer", 0)
        nulls = sum(inner(p - q, p - q) == 0.0 for i, p in enumerate(events)
                    for j, q in enumerate(events) if i != j)
        assert nulls > 0

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_nan_image_matches_reference(self, relation):
        events = _events("float", 0)
        fmap = _moved(3, np.nan)
        want = _reference_harness(events, fmap, relation)
        assert relation_preservation_harness(events, fmap, relation) == want

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_non_finite_images_match_reference(self, relation, value):
        events = _mixed_events(3, 30, 2)
        fmap = _moved([0, 11, 29], value)
        with np.errstate(invalid="ignore"):  # inf - inf between two images
            want = _reference_harness(events, fmap, relation)
            assert want
            assert relation_preservation_harness(events, fmap, relation) == want

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_events(self, count):
        events = np.array([[1.0, 0.0, 0.0]])[:count]
        assert relation_preservation_harness(events, lambda P: P, "gt") == []

    @pytest.mark.parametrize("pair", [(0, 1), (4, 17)])
    def test_one_colliding_pair_rejected(self, pair):
        events = _events("float", 0)
        fmap = _moved(pair[1], events[pair[0]])
        with pytest.raises(PreconditionError):
            _reference_harness(events, fmap, "gt")
        with pytest.raises(PreconditionError):
            relation_preservation_harness(events, fmap, "gt")

    @pytest.mark.parametrize("relation", RELATIONS)
    @pytest.mark.parametrize("pair", [(0, 1), (3, 68), (68, 69)])
    def test_non_injective_map_rejected(self, pair, relation):
        events = _mixed_events(4, 70, 3)
        fmap = _moved(pair[1], events[pair[0]])
        for harness in (_reference_harness, relation_preservation_harness):
            with pytest.raises(PreconditionError, match="injective"):
                harness(events, fmap, relation)

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_coincident_events_match_reference(self, relation):
        # a map that is not a function of the coordinates can separate two
        # coincident events; 'ge' holds on their zero displacement
        events = np.concatenate([_events("float", 1)[:6], [[0.5, 0.0, 1.0, 0.0]] * 2])
        fmap = _moved(7, events[7] + [0.3, 0.1, 0.0, 0.0])
        want = _reference_harness(events, fmap, relation)
        assert relation_preservation_harness(events, fmap, relation) == want
        if relation == "ge":
            assert (6, 7, "forward") in want

    @pytest.mark.parametrize("events", [np.zeros(4), np.zeros((2, 3, 4)), np.zeros((0,))],
                             ids=["one-event", "stack-of-sets", "empty-list"])
    def test_events_that_are_not_rows_rejected(self, events):
        for harness in (_reference_harness, relation_preservation_harness):
            with pytest.raises(DimensionMismatchError):
                harness(events, lambda P: P, "gt")

    @pytest.mark.parametrize("fmap", [lambda P: np.column_stack([P, np.ones(len(P))]),
                                      lambda P: P[:, :-1], lambda P: P[:-1], lambda P: P[0]],
                             ids=["wider", "narrower", "fewer", "one-row"])
    def test_images_of_another_shape_rejected(self, fmap):
        events = _mixed_events(3, 6, 4)
        for harness in (_reference_harness, relation_preservation_harness):
            with pytest.raises(DimensionMismatchError):
                harness(events, fmap, "gt")

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            relation_preservation_harness(np.empty((0, 4)), lambda P: P, "before")


class TestUnitDistanceHarness:
    def test_euclidean_motion_clean(self, rng):
        Q = random_rotation(4, rng)[1:, 1:]
        t = rng.standard_normal(3)
        pts = rng.uniform(-3, 3, (20, 3))
        dirs = rng.standard_normal((6, 3))
        assert unit_distance_harness(lambda x: x @ Q.T + t, 1.0, pts, dirs) == []

    def test_scaling_caught(self, rng):
        pts = rng.uniform(-3, 3, (10, 3))
        dirs = rng.standard_normal((4, 3))
        assert unit_distance_harness(lambda x: 2.0 * x, 1.0, pts, dirs) != []

    def test_reflection_composition_clean(self, rng):
        # product of two Euclidean hyperplane reflections
        def refl(nrm):
            n = nrm / np.linalg.norm(nrm)
            return np.eye(3) - 2.0 * np.outer(n, n)

        M = refl(rng.standard_normal(3)) @ refl(rng.standard_normal(3))
        pts = rng.uniform(-3, 3, (15, 3))
        dirs = rng.standard_normal((5, 3))
        assert unit_distance_harness(lambda x: x @ M.T, 1.0, pts, dirs) == []

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0],
                                     [np.inf, 0.0, 0.0], [1e300, 1e300, 0.0]])
    def test_degenerate_direction_rejected(self, bad, rng):
        pts = rng.uniform(-3, 3, (3, 3))
        dirs = np.array([rng.standard_normal(3), bad])
        with pytest.raises(PreconditionError), np.errstate(over="ignore"):
            unit_distance_harness(lambda x: 2.0 * x, 1.0, pts, dirs)

    @pytest.mark.parametrize("pts, dirs", [(np.zeros(3), np.ones((2, 3))),
                                           (np.zeros((2, 3)), []),
                                           (np.zeros((2, 3)), np.ones(3)),
                                           (np.zeros((2, 3)), np.ones((2, 2)))],
                             ids=["one-point", "empty-list", "one-direction", "narrower"])
    def test_points_and_directions_must_be_rows_of_one_width(self, pts, dirs):
        with pytest.raises(DimensionMismatchError):
            unit_distance_harness(lambda x: x, 1.0, pts, dirs)

    def test_non_finite_distance_is_violation(self, rng):
        pts = rng.uniform(-3, 3, (4, 3))
        dirs = rng.standard_normal((3, 3))
        report = unit_distance_harness(lambda x: x * np.nan, 1.0, pts, dirs)
        assert [(i, j) for i, j, _ in report] == [(i, j) for i in range(4) for j in range(3)]
        assert all(math.isnan(err) for _, _, err in report)
        # finite images whose distance overflows
        with np.errstate(over="ignore"):
            overflow = unit_distance_harness(lambda x: x * 1e307, 1.0, pts, dirs)
        assert len(overflow) == 12 and not any(math.isfinite(err) for _, _, err in overflow)


def _pair_loop_unit_distance(f, delta, points, directions):
    """The unit-distance harness as a loop over (point, direction) pairs,
    one np.linalg.norm per pair; the map is called once, on the points
    followed by each point's displaced points."""
    units = []
    for d in directions:
        u = np.asarray(d, dtype=float)
        norm = np.linalg.norm(u)
        if not 0.0 < norm < np.inf:
            raise PreconditionError("directions must be nonzero and finite")
        units.append(u / norm)
    moved = [x + delta * u for x in points for u in units]
    images = f(np.concatenate([points, np.reshape(moved, (-1, points.shape[1]))]))
    report = []
    for i in range(len(points)):
        for j in range(len(units)):
            fy = images[len(points) + i * len(units) + j]
            err = abs(float(np.linalg.norm(fy - images[i])) - delta)
            if not err <= isometry.RESIDUAL_TOL * max(1.0, delta):
                report.append((i, j, err))
    return report


class TestUnitDistanceHarnessReference:
    def test_row_norms_are_linalg_norms(self, rng):
        for n in (2, 3, 4, 7):
            d = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-150, 150, (500, 1))
            want = np.array([np.linalg.norm(row) for row in d])
            assert np.sqrt(np.vecdot(d, d)).tobytes() == want.tobytes()

    def test_matches_the_pair_loop(self, rng):
        Q = random_rotation(4, rng)[1:, 1:]
        t = rng.standard_normal(3)
        maps = [lambda x: x @ Q.T + t, lambda x: 2.0 * x, lambda x: x * np.nan,
                lambda x: x @ Q.T + 1e-9 * np.sin(x), lambda x: x * 1e307,
                lambda x: x + 1e-10 * np.vecdot(x, x)[:, None]]
        compared = reported = 0
        for _ in range(40):
            pts = rng.uniform(-3, 3, (int(rng.integers(0, 6)), 3))
            dirs = np.array([rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
                             for _ in range(int(rng.integers(1, 7)))])
            delta = float(rng.choice([1.0, 0.5, 3.0, 1e-4]))
            for f in maps:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _pair_loop_unit_distance(f, delta, pts, dirs)
                    got = unit_distance_harness(f, delta, pts, dirs)
                assert repr(got) == repr(want)
                compared += 1
                reported += bool(want)
        assert reported > compared // 4


class TestOneMapCall:
    def test_relation_harness_calls_its_map_once(self, rng):
        events, calls = rng.uniform(-5, 5, (40, 4)), []

        def fmap(P):
            calls.append(P.shape)
            return P * [-1.0, 1.0, 1.0, 1.0]

        for relation in RELATIONS:
            calls.clear()
            relation_preservation_harness(events, fmap, relation)
            assert calls == [(40, 4)]

    def test_unit_distance_harness_calls_its_map_once(self, rng):
        pts, dirs, calls = rng.uniform(-3, 3, (25, 3)), rng.standard_normal((8, 3)), []

        def f(x):
            calls.append(x.shape)
            return 2.0 * x

        assert len(unit_distance_harness(f, 1.0, pts, dirs)) == 25 * 8
        assert calls == [(25 + 25 * 8, 3)]


class TestSuiteDraws:
    """Each sampled isometry check, recomputed alone from its own stream,
    gives the residual that the suite reports."""

    @pytest.mark.parametrize("samples", [60, 200, 800])
    @pytest.mark.parametrize("seed", range(5))
    def test_checks_recomputed_from_their_streams(self, seed, samples):
        report = suites.run_suite("isometry", seed, suites.Config(samples=samples))
        reported = {c["name"]: c["residual"] for c in report["checks"]}
        name = "cartan_dieudonne.reconstruction"
        assert reported[name] == suites._cartan_dieudonne_sweep(
            suites._stream(seed, name), max(20, samples // 4))
        rng = suites._stream(seed, "conformal")
        lam = float(rng.uniform(0.5, 2.0))
        cf = conformal_factor(lam * random_lorentz(4, rng))
        assert reported["conformal.alpha"] == abs(cf["alpha"] - lam * lam)
        assert reported["conformal.residual"] == cf["residual"]
        rng = suites._stream(seed, "group.closure")
        A = AffineIsometry(random_lorentz(4, rng), rng.uniform(-1, 1, 4))
        B = AffineIsometry(random_lorentz(4, rng), rng.uniform(-1, 1, 4))
        assert reported["group.closure"] == lorentz_residual((A @ B).linear)
        assert report["passed"]


FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def _reference_lorentz(n, rng, k, orthochronous, proper):
    """k random Lorentz matrices, computed matrix by matrix from the three
    array draws of random_lorentz."""
    def rotation(m):
        q, r = np.linalg.qr(m)
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        out = np.eye(n)
        out[1:, 1:] = q
        return out

    rapidity = rng.uniform(-2.0, 2.0, k)
    normals = rng.standard_normal((k, 2, n - 1, n - 1))
    coins = rng.random((k, (not proper) + (not orthochronous)))
    out = []
    for rho, (m1, m2), flips in zip(rapidity, normals, coins):
        boost = np.eye(n)
        boost[0, 0] = boost[1, 1] = np.cosh(rho)
        boost[0, 1] = boost[1, 0] = -np.sinh(rho)
        L = rotation(m1) @ boost @ rotation(m2)
        if not proper and flips[0] < 0.5:
            L = L @ np.diag([1.0] * (n - 1) + [-1.0])
        if not orthochronous and flips[-1] < 0.5:
            L = np.diag([-1.0] + [1.0] * (n - 1)) @ L
        out.append(L)
    return out


class TestRandomDraws:
    @pytest.mark.parametrize("k", [0, 1, 7])
    @pytest.mark.parametrize("orthochronous, proper", FLAGS)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_matches_per_matrix_reference(self, dim, orthochronous, proper, k):
        flags = dict(orthochronous=orthochronous, proper=proper)
        stack_rng, ref_rng = np.random.default_rng([dim, k]), np.random.default_rng([dim, k])
        stack = random_lorentz(dim, stack_rng, k, **flags)
        refs = _reference_lorentz(dim, ref_rng, k, **flags)
        assert stack.shape == (k, dim, dim)
        assert stack.tobytes() == b"".join(L.tobytes() for L in refs)
        assert stack_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("orthochronous, proper", FLAGS)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_single_call_is_the_stack_of_one(self, dim, orthochronous, proper):
        flags = dict(orthochronous=orthochronous, proper=proper)
        single_rng, stack_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        single = random_lorentz(dim, single_rng, **flags)
        assert single.shape == (dim, dim)
        assert single.tobytes() == random_lorentz(dim, stack_rng, 1, **flags)[0].tobytes()
        assert single_rng.bit_generator.state == stack_rng.bit_generator.state

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_components_drawn(self, dim):
        L = random_lorentz(dim, np.random.default_rng(dim), 200, orthochronous=False, proper=False)
        assert max(lorentz_residual(m) for m in L) < 1e-10
        assert {(np.linalg.det(m) > 0, m[0, 0] > 0) for m in L} == {
            (True, True), (True, False), (False, True), (False, False)}
        kept = random_lorentz(dim, np.random.default_rng(dim), 50)
        assert (np.linalg.det(kept) > 0).all() and (kept[:, 0, 0] > 0).all()

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_dimension_below_two_rejected(self, n):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="dimension"):
            random_lorentz(n, rng)
        with pytest.raises(ValueError, match="dimension"):
            random_rotation(n, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("size", [-1, 2.0, True, "3", (2,)])
    def test_bad_size_rejected(self, size):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="size"):
            random_lorentz(3, rng, size)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestAffineIsometry:
    def test_group_closure(self, rng):
        for _ in range(1000):
            a = AffineIsometry(random_lorentz(4, rng), rng.uniform(-1, 1, 4))
            b = AffineIsometry(random_lorentz(4, rng), rng.uniform(-1, 1, 4))
            assert lorentz_residual((a @ b).linear) < 1e-9

    def test_composition_applies_right_factor_first(self, rng):
        a = AffineIsometry(random_lorentz(4, rng), rng.uniform(-1, 1, 4))
        b = AffineIsometry(random_lorentz(4, rng), rng.uniform(-1, 1, 4))
        ab = a @ b
        for p in rng.standard_normal((20, 4)):
            want = a.linear @ (b.linear @ p + b.translation) + a.translation
            assert np.abs(ab.linear @ p + ab.translation - want).max() < 1e-10

    def test_invalid_linear_part_rejected(self):
        with pytest.raises(ValueError):
            AffineIsometry(np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_preserves_inner_products(self, rng):
        a = AffineIsometry(random_lorentz(4, rng))
        for _ in range(100):
            v, w = rng.standard_normal((2, 4))
            lhs = inner(a.linear @ v, a.linear @ w)
            assert lhs == pytest.approx(inner(v, w), rel=1e-10, abs=1e-10)

    def test_cones_preserved_with_dilations(self, rng):
        # joint action keeps every oriented cone relation
        L = random_lorentz(4, rng)
        events = rng.uniform(-4, 4, (30, 4))

        def fmap(P):
            return 0.7 * (P @ L.T) + np.array([1.0, 0, 0, 0])

        for rel in ("ge", "gt", "lightlike-successor"):
            assert relation_preservation_harness(events, fmap, rel) == []


@pytest.mark.parametrize("k", [0, 1, 2], ids=["dim2", "dim3", "dim4"])
def test_nan_in_any_dimension_fails_the_reconstruction(monkeypatch, k):
    # the suite folds its three dimensions' reconstruction residuals with
    # one np.max, so a NaN in any of them fails the check
    original, calls = isometry.compose_reflections, []

    def poisoned(*args):
        out = original(*args)
        calls.append(None)
        return out * np.nan if len(calls) == k + 1 else out

    monkeypatch.setattr(isometry, "compose_reflections", poisoned)
    checks = {c["name"]: c for c in run_suite("isometry", 0, Config())["checks"]}
    assert not checks["cartan_dieudonne.reconstruction"]["passed"]
    assert math.isnan(checks["cartan_dieudonne.reconstruction"]["residual"])
