import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minklab import kinematics, suites
from minklab.core import PreconditionError, metric_matrix
from minklab.isometry import _rotations, random_rotation
from minklab.kinematics import (BoostFamily, a_of_v, boost_3d,
                                boost_matrix_1d, classify_branch,
                                compose_velocities, rapidity)
from minklab.projective import lorentz_boost_event


def hyperbolic_form(v, c):
    """Oracle for the k = -1/c^2 matrix in rescaled time tau = c t."""
    beta = v / c
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return np.array([[gamma, -beta * gamma], [-beta * gamma, gamma]])


class TestAOfV:
    def test_at_rest(self):
        assert a_of_v(-1.0, 0.0) == 1.0
        assert a_of_v(0.5, 0.0) == 1.0

    def test_gamma_value(self):
        assert a_of_v(-1.0, 0.6) == pytest.approx(1.25, abs=1e-15)

    def test_galilei_branch(self):
        for v in (0.1, 5.0, -100.0):
            assert a_of_v(0.0, v) == 1.0

    def test_even(self, rng):
        for _ in range(100):
            k = float(rng.uniform(-2, 2))
            vmax = 0.99 / math.sqrt(-k) if k < 0 else 3.0
            v = float(rng.uniform(0, vmax))
            assert a_of_v(k, v) == a_of_v(k, -v)

    def test_domain_guard(self):
        with pytest.raises(PreconditionError):
            a_of_v(-1.0, 1.5)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_non_finite_velocity_rejected(self, k, v):
        for call in (lambda: a_of_v(k, v), lambda: boost_matrix_1d(k, v),
                     lambda: compose_velocities(k, v, 0.1),
                     lambda: compose_velocities(k, 0.1, v)):
            with pytest.raises(PreconditionError, match="domain"):
                call()

    def test_nan_constant_rejected(self):
        with pytest.raises(PreconditionError):
            a_of_v(math.nan, 0.5)

    def test_b_from_a_identity(self, rng):
        # the unimodularity route b = (a/v)(1/a^2 - 1) equals k v a
        for _ in range(200):
            k = float(rng.uniform(-2, 2))
            vmax = 0.99 / math.sqrt(-k) if k < 0 else 3.0
            v = float(rng.uniform(0.01, vmax))
            a = a_of_v(k, v)
            assert (a / v) * (1.0 / (a * a) - 1.0) == pytest.approx(
                k * v * a, abs=1e-12)


class TestBoostMatrix1D:
    def test_rest_is_identity(self):
        assert np.array_equal(boost_matrix_1d(-1.0, 0.0), np.eye(2))

    def test_matches_hyperbolic_form(self, rng):
        for _ in range(200):
            c = float(rng.uniform(0.3, 3.0))
            v = float(rng.uniform(-0.95, 0.95)) * c
            A = boost_matrix_1d(-1.0 / (c * c), v)
            S = np.diag([c, 1.0])
            assert np.abs(S @ A @ np.linalg.inv(S)
                          - hyperbolic_form(v, c)).max() < 1e-12

    def test_rotation_branch(self):
        # k = +1 with v = tan(alpha) rotates the rescaled plane by alpha
        alpha = 0.4
        A = boost_matrix_1d(1.0, math.tan(alpha))
        rot = np.array([[math.cos(alpha), math.sin(alpha)],
                        [-math.sin(alpha), math.cos(alpha)]])
        assert np.abs(A - rot).max() < 1e-14

    def test_unimodular_equal_diagonal(self, rng):
        for _ in range(100):
            k = float(rng.uniform(-2, 2))
            vmax = 0.99 / math.sqrt(-k) if k < 0 else 3.0
            v = float(rng.uniform(-vmax, vmax))
            A = boost_matrix_1d(k, v)
            assert abs(np.linalg.det(A) - 1.0) < 1e-12
            assert A[0, 0] == A[1, 1]

    def test_opposite_velocity_inverts(self, rng):
        for _ in range(100):
            k = float(rng.uniform(-2, 2))
            vmax = 0.99 / math.sqrt(-k) if k < 0 else 3.0
            v = float(rng.uniform(-vmax, vmax))
            prod = boost_matrix_1d(k, v) @ boost_matrix_1d(k, -v)
            assert np.abs(prod - np.eye(2)).max() < 1e-12

    def test_composition_matches_velocity_law(self, rng):
        for _ in range(200):
            k = float(rng.uniform(-1.5, 1.5))
            vmax = 0.7 / math.sqrt(-k) if k < 0 else 1.0
            v, vp = (float(rng.uniform(-vmax, vmax)) for _ in range(2))
            v2 = compose_velocities(k, v, vp)
            if math.isinf(v2) or (k > 0 and 1 + k * v2 * v2 <= 0):
                continue
            prod = boost_matrix_1d(k, v) @ boost_matrix_1d(k, vp)
            assert np.abs(prod - boost_matrix_1d(k, v2)).max() < 1e-12


class TestComposeVelocities:
    def test_einstein_half_half(self):
        assert compose_velocities(-1.0, 0.5, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_tanh_oracle(self, rng):
        for _ in range(500):
            v, vp = rng.uniform(-0.95, 0.95, 2)
            oracle = math.tanh(math.atanh(v) + math.atanh(vp))
            assert compose_velocities(-1.0, v, vp) == pytest.approx(
                oracle, abs=1e-12)

    def test_galilei_addition(self):
        assert compose_velocities(0.0, 0.3, 0.4) == pytest.approx(0.7, abs=1e-15)

    def test_rotation_pole(self):
        assert math.isinf(compose_velocities(1.0, 0.5, 2.0))

    def test_rotation_negative_outcome(self):
        assert compose_velocities(1.0, 2.0, 3.0) == -1.0

    def test_bounded_below_c(self, rng):
        for _ in range(300):
            c = float(rng.uniform(0.5, 2.0))
            k = -1.0 / (c * c)
            v, vp = rng.uniform(-0.999 * c, 0.999 * c, 2)
            assert abs(compose_velocities(k, v, vp)) < c

    def test_associative(self, rng):
        for _ in range(1000):
            v1, v2, v3 = rng.uniform(-0.9, 0.9, 3)
            lhs = compose_velocities(-1.0, compose_velocities(-1.0, v1, v2), v3)
            rhs = compose_velocities(-1.0, v1, compose_velocities(-1.0, v2, v3))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRapidity:
    def test_zero(self):
        assert rapidity(0.0) == 0.0

    def test_half_c(self):
        assert rapidity(0.5) == pytest.approx(0.5493061443340549, abs=1e-15)

    @pytest.mark.parametrize("v", [1.0, -1.0, 2.0, math.inf, math.nan])
    def test_speed_not_below_c_rejected(self, v):
        with pytest.raises(PreconditionError):
            rapidity(v)

    def test_inverse(self, rng):
        for _ in range(100):
            c = float(rng.uniform(0.5, 2.0))
            v = float(rng.uniform(-0.95, 0.95)) * c
            assert c * math.tanh(rapidity(v, c)) == pytest.approx(v, abs=1e-12)

    def test_additivity(self, rng):
        for _ in range(300):
            v, vp = rng.uniform(-0.9, 0.9, 2)
            composed = compose_velocities(-1.0, v, vp)
            assert rapidity(composed) == pytest.approx(
                rapidity(v) + rapidity(vp), abs=1e-12)

    def test_superluminal_rejected(self):
        with pytest.raises(PreconditionError):
            rapidity(1.2)


class TestBranches:
    def test_lorentz(self):
        fam = classify_branch(-1.0)
        assert fam.branch == "lorentz" and fam.invariant_speed == 1.0

    def test_galilei(self):
        fam = classify_branch(0.0)
        assert fam.branch == "galilei" and math.isinf(fam.invariant_speed)

    def test_euclidean(self):
        fam = classify_branch(1.0)
        assert fam.branch == "euclidean" and fam.invariant_speed is None

    def test_family_value(self):
        assert BoostFamily(-4.0).invariant_speed == 0.5


# the basis events (t, x) of (t, x, y, z), in column order
_BASIS_EVENTS = [(1.0, np.zeros(3)), *((0.0, e) for e in np.eye(3))]


class TestBoost3D:
    def test_zero_velocity_identity(self):
        assert np.array_equal(boost_3d(np.zeros(3)), np.eye(4))

    def test_x_axis_block_form(self):
        v = 0.6
        B = boost_3d(np.array([v, 0, 0]), 1.0)
        assert np.abs(B[:2, :2] - boost_matrix_1d(-1.0, v)).max() < 1e-14
        assert np.array_equal(B[2:, 2:], np.eye(2))
        assert np.abs(B[:2, 2:]).max() == 0.0

    def test_is_isometry(self, rng):
        for _ in range(100):
            c = float(rng.uniform(0.5, 2.0))
            v = rng.uniform(-0.5, 0.5, 3) * c
            if np.linalg.norm(v) >= 0.95 * c:
                continue
            Gc = np.diag([c * c, -1.0, -1.0, -1.0])
            B = boost_3d(v, c)
            assert np.abs(B.T @ Gc @ B - Gc).max() < 1e-10

    def test_equivariance(self, rng):
        for _ in range(100):
            v = rng.uniform(-0.55, 0.55, 3)
            if np.linalg.norm(v) >= 0.95:
                continue
            R = random_rotation(4, rng)
            assert np.abs(R @ boost_3d(v) @ R.T - boost_3d(R[1:, 1:] @ v)).max() < 1e-12

    def test_columns_are_the_boosted_basis_events(self, rng):
        for _ in range(50):
            c = float(rng.uniform(0.5, 2.0))
            v = rng.uniform(-0.5, 0.5, 3) * c
            if np.linalg.norm(v) >= 0.9 * c:
                continue
            columns = [np.concatenate([[tp], xp]) for tp, xp in (
                lorentz_boost_event(v, t, x, c) for t, x in _BASIS_EVENTS)]
            assert boost_3d(v, c).tobytes() == np.stack(columns, axis=1).tobytes()

    def test_superluminal_rejected(self):
        with pytest.raises(PreconditionError):
            boost_3d(np.array([1.2, 0, 0]), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocity_rejected(self, bad):
        with pytest.raises(PreconditionError):
            boost_3d(np.array([0.1, bad, 0.0]))


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
@settings(max_examples=300, deadline=None)
def test_composition_stays_subluminal_property(v, vp):
    assert abs(compose_velocities(-1.0, v, vp)) < 1.0


@given(st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_rapidity_round_trip_property(v):
    assert math.tanh(rapidity(v)) == pytest.approx(v, abs=1e-12)



# The kinematics suite's sweeps computed sample by sample, on inputs drawn
# as the sweeps draw them; the suite must report the same residuals bit for
# bit and leave each sweep's generator in the same state.

def _per_sample_rapidity(rng, samples):
    worst = 0.0
    for v, vp in rng.uniform(-0.9, 0.9, (samples, 2)):
        lhs = rapidity(compose_velocities(-1.0, v, vp))
        rhs = rapidity(v) + rapidity(vp)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _per_sample_hyperbolic_form(rng, samples):
    worst = 0.0
    cs = rng.uniform(0.5, 3.0, samples)
    for c, v in zip(cs.tolist(), rng.uniform(-0.9 * cs, 0.9 * cs).tolist()):
        k = -1.0 / (c * c)
        A = boost_matrix_1d(k, v)
        beta = v / c
        gam = 1.0 / math.sqrt(1 - beta * beta)
        S = np.diag([c, 1.0])
        hyper = np.array([[gam, -beta * gam], [-beta * gam, gam]])
        worst = max(worst, float(np.abs(S @ A @ np.linalg.inv(S) - hyper).max()))
    return worst


def _per_sample_reciprocity(rng, samples):
    worst = 0.0
    ks = rng.uniform(-2.0, 2.0, samples).tolist()
    vmax = np.array([0.9 / math.sqrt(-k) if k < 0 else 2.0 for k in ks])
    for k, v in zip(ks, rng.uniform(-vmax, vmax).tolist()):
        A = boost_matrix_1d(k, v)
        worst = max(worst, float(np.abs(A @ boost_matrix_1d(k, -v) - np.eye(2)).max()))
    return worst


def closed_form_reference(v, c=1.0):
    """boost_3d of one velocity, column by column: the closed-form boost
    t' = gamma (t - v.x/c^2), x' = gamma (x_par - v t) + x_perp of each
    basis event, written out for that velocity alone."""
    vv = float(v @ v)
    gamma = 1.0 / math.sqrt(1.0 - vv / (c * c))
    B = np.empty((4, 4))
    for col, (t, x) in enumerate(_BASIS_EVENTS):
        vx = float(x @ v)
        xpar = np.zeros(3) if vv == 0.0 else (vx / vv) * v
        B[0, col] = gamma * (t - vx / (c * c))
        B[1:, col] = gamma * (xpar - v * t) + (x - xpar)
    return B


def _per_sample_boost3d(rng):
    """The suite's spatial-boost sweep, one velocity and its rotation at a
    time: 50 velocities, and a rotation for each one below 0.95 c."""
    G = metric_matrix(4)
    worst_lor = worst_eq = 0.0
    V = rng.uniform(-0.6, 0.6, (50, 3))
    V = V[np.sqrt(np.vecdot(V, V)) < 0.95]
    normals = rng.standard_normal((len(V), 3, 3))
    for v, m in zip(V, normals):
        B = closed_form_reference(v)
        worst_lor = max(worst_lor, float(np.abs(B.T @ G @ B - G).max()))
        R = _rotations(m[None])[0]
        lhs = R @ B @ R.T
        worst_eq = max(worst_eq, float(np.abs(lhs - closed_form_reference(R[1:, 1:] @ v)).max()))
    return worst_lor, worst_eq


def _per_sample_associativity(rng, samples):
    worst = 0.0
    for v1, v2, v3 in rng.uniform(-0.9, 0.9, (samples, 3)):
        lhs = compose_velocities(-1.0, compose_velocities(-1.0, v1, v2), v3)
        rhs = compose_velocities(-1.0, v1, compose_velocities(-1.0, v2, v3))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _bits(*values):
    return [np.float64(x).tobytes() for x in values]


@pytest.mark.parametrize("samples", [60, 200, 800])
@pytest.mark.parametrize("seed", range(10))
def test_suite_sweeps_match_per_sample_reference(seed, samples):
    want, got = {}, {}
    for name, reference, sweep in [
            ("rapidity.additive", _per_sample_rapidity, suites._rapidity_sweep),
            ("boost1d.hyperbolic_form", _per_sample_hyperbolic_form, suites._hyperbolic_form_sweep),
            ("boost1d.reciprocity", _per_sample_reciprocity, suites._reciprocity_sweep),
            ("compose.associative", _per_sample_associativity, suites._associativity_sweep)]:
        ref, rng = suites._stream(seed, name), suites._stream(seed, name)
        want[name], got[name] = reference(ref, samples), sweep(rng, samples)
        assert rng.bit_generator.state == ref.bit_generator.state
    ref, rng = suites._stream(seed, "boost3d"), suites._stream(seed, "boost3d")
    (want["boost3d.isometry"], want["boost3d.equivariance"]) = _per_sample_boost3d(ref)
    (got["boost3d.isometry"], got["boost3d.equivariance"]) = suites._boost3d_sweep(rng)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert _bits(*got.values()) == _bits(*want.values())
    report = suites.run_suite("kinematics", seed, suites.Config(samples=samples))
    reported = {c["name"]: c["residual"] for c in report["checks"]}
    assert _bits(*(reported[name] for name in want)) == _bits(*want.values())
    assert report["passed"]


def _failed_with_a_nan_row(monkeypatch, sweep, function, call=1):
    """The kinematics report's failed checks when row 6 of the stack that
    the call-th call of `function` inside `sweep` returns is NaN."""
    real_sweep, real_function = getattr(suites, sweep), getattr(kinematics, function)
    calls = []

    def poisoned(*args):
        out = real_function(*args)
        if calls:
            calls[-1] += 1
            if calls[-1] == call:
                out[6] = math.nan
        return out

    def scoped(*args):
        calls.append(0)
        try:
            return real_sweep(*args)
        finally:
            calls.pop()

    monkeypatch.setattr(kinematics, function, poisoned)
    monkeypatch.setattr(suites, sweep, scoped)
    report = suites.run_suite("kinematics", 0, suites.Config())
    return {c["name"] for c in report["checks"] if not c["passed"]}


def test_nan_in_a_later_sample_fails_the_check(monkeypatch):
    failed = _failed_with_a_nan_row(monkeypatch, "_rapidity_sweep", "rapidity")
    assert failed == {"rapidity.additive"}


# compose_velocities refuses a NaN velocity, so the associativity sweep's
# poisoned call is its second, the outer composition of the left side
@pytest.mark.parametrize("check, sweep, function, call", [
    ("boost1d.hyperbolic_form", "_hyperbolic_form_sweep", "boost_matrix_1d", 1),
    ("boost1d.reciprocity", "_reciprocity_sweep", "boost_matrix_1d", 1),
    ("boost1d.reciprocity", "_reciprocity_sweep", "boost_matrix_1d", 2),
    ("compose.associative", "_associativity_sweep", "compose_velocities", 2),
    ("compose.associative", "_associativity_sweep", "compose_velocities", 4)])
def test_nan_in_a_later_row_fails_its_check(monkeypatch, check, sweep, function, call):
    assert _failed_with_a_nan_row(monkeypatch, sweep, function, call) == {check}


@pytest.mark.parametrize("seed", range(10))
def test_boost3d_sweep_draws_one_rotation_per_kept_velocity(seed):
    # a faster velocity draws no rotation; the seeds include skipped draws
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _per_sample_boost3d(ref)
    assert _bits(*suites._boost3d_sweep(rng)) == _bits(*want)
    assert rng.bit_generator.state == ref.bit_generator.state


def _directions(rng):
    """Random directions plus the special ones: zero, the axes and their
    negatives, directions in the coordinate planes with zeros of both signs,
    and directions within 1e-14 of +-e_x."""
    special = [np.zeros(3), [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
               [0, 0, 1.0], [0, 0, -1.0], [0.3, -0.0, 0.2], [-0.3, 0.4, -0.0],
               [0.0, -0.0, -2.0], [-0.0, 0.5, 0.5], [1.0, 1e-8, 0], [-1.0, 0, 1e-8],
               [1.0, 1e-7, -1e-7], [-2.5, -0.0, 0.0], [1e-300, 0, 0], [0.0, 1e-300, 0]]
    return np.concatenate([np.array(special, dtype=float),
                           rng.standard_normal((400, 3)),
                           rng.uniform(-0.55, 0.55, (400, 3)) * (rng.random((400, 3)) < 0.7)])


def test_boost_3d_equals_the_per_velocity_closed_form(rng):
    vel = _directions(rng)
    vel = vel[np.sqrt(np.vecdot(vel, vel)) < 0.95]
    stacked = kinematics._boost_3d_rows(vel, 1.0)
    for v, got in zip(vel, stacked):
        want = closed_form_reference(v).tobytes()
        assert boost_3d(v).tobytes() == want
        assert got.tobytes() == want


def rodrigues_reference(v, c=1.0):
    """An independent construction of the spatial boost: rotate e_x onto
    the velocity with the Rodrigues formula, apply the 1D family member on
    the (t, x) block, and rotate back."""
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return np.eye(4)
    d = v / speed
    ex = np.array([1.0, 0.0, 0.0])
    cos = float(ex @ d)
    if cos > 1.0 - 1e-14:
        D = np.eye(3)
    elif cos < -1.0 + 1e-14:
        D = np.diag([-1.0, 1.0, -1.0])
    else:
        axis = np.cross(ex, d)
        sin = np.linalg.norm(axis)
        axis = axis / sin
        K = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        D = np.eye(3) + sin * K + (1.0 - cos) * (K @ K)
    E = np.eye(4)
    E[1:, 1:] = D
    B = np.eye(4)
    B[:2, :2] = boost_matrix_1d(-1.0 / (c * c), speed)
    return E @ B @ E.T


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_boost_3d_matches_the_rodrigues_construction(rng, c):
    vel = _directions(rng) * c
    for v in vel[np.sqrt(np.vecdot(vel, vel)) < 0.95 * c]:
        assert np.abs(boost_3d(v, c) - rodrigues_reference(v, c)).max() < 1e-12


# The boost family on stacks: each row equals the single-velocity call bit
# for bit, on every branch, and one bad row refuses the whole stack.

def _branch_rows(rng):
    """(k, v, v') rows on the three branches, each velocity in the domain of
    its k, plus k > 0 rows at the pole k v v' = 1."""
    k = np.repeat([-2.0, -1.0, -0.25, 0.0, 0.5, 1.0], 40)
    vmax = np.full(k.size, 3.0)
    vmax[k < 0] = 0.99 / np.sqrt(-k[k < 0])
    v, vp = rng.uniform(-vmax, vmax, (2, k.size))
    pole_k = np.array([1.0, 1.0, 4.0, 0.5])
    pole_v = np.array([0.5, -2.0, 0.25, 1.0])
    return (np.concatenate([k, pole_k]), np.concatenate([v, pole_v]),
            np.concatenate([vp, 1.0 / (pole_k * pole_v)]))


def test_stacked_boost_family_equals_single_calls(rng):
    k, v, vp = _branch_rows(rng)
    composed = compose_velocities(k, v, vp)
    assert np.isinf(composed[-4:]).all() and (composed[-4:] > 0).all()
    assert composed.tobytes() == np.array(
        [compose_velocities(*row) for row in zip(k.tolist(), v.tolist(), vp.tolist())]).tobytes()
    A = boost_matrix_1d(k, v)
    assert A.shape == (k.size, 2, 2)
    for row, (kr, vr) in enumerate(zip(k.tolist(), v.tolist())):
        assert A[row].tobytes() == boost_matrix_1d(kr, vr).tobytes()
    # k broadcast: one constant against a 2-D stack of velocities
    grid = v[:240].reshape(6, 40) * 0.2
    assert boost_matrix_1d(-1.0, grid).shape == (6, 40, 2, 2)
    assert compose_velocities(-1.0, grid, grid[::-1]).tobytes() == np.array(
        [compose_velocities(-1.0, a, b) for a, b in zip(grid.ravel().tolist(),
                                                         grid[::-1].ravel().tolist())]).tobytes()
    w = rng.uniform(-0.999, 0.999, (7, 30))
    assert rapidity(w).tobytes() == np.array([rapidity(x) for x in w.ravel().tolist()]).tobytes()
    assert rapidity(w * 2.0, 2.0).shape == (7, 30)
    assert rapidity(np.array([])).shape == (0,)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("k_bad, v_bad", [(-1.0, 1.5), (-1.0, math.nan), (-1.0, math.inf),
                                          (0.0, -math.inf), (1.0, math.inf), (math.nan, 0.5)])
def test_one_bad_row_refuses_the_stack(rng, k_bad, v_bad):
    # 0 v is NaN for an infinite row, and numpy warns of it
    k, v = np.full(20, -1.0), rng.uniform(-0.9, 0.9, 20)
    k[12], v[12] = k_bad, v_bad
    for call in (lambda: boost_matrix_1d(k, v), lambda: compose_velocities(k, v, 0.5),
                 lambda: compose_velocities(k, 0.5, v)):
        with pytest.raises(PreconditionError, match="domain"):
            call()


@pytest.mark.parametrize("v_bad", [1.0, -1.5, math.nan, math.inf, -math.inf])
def test_one_bad_row_refuses_the_rapidity_stack(rng, v_bad):
    v = rng.uniform(-0.9, 0.9, 20)
    v[12] = v_bad
    with pytest.raises(PreconditionError, match="invariant speed"):
        rapidity(v)
