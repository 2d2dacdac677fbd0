"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (lines are also emitted into the captured output on plain
runs).  Stated runtime budgets are asserted alongside the numerics.
"""

import math
import time

import numpy as np

import minklab.lattice as lat
from minklab.core import Event, MinkVector, inner, norm_g
from minklab.isometry import (cartan_dieudonne, compose_reflections,
                              conformal_factor, lorentz_residual,
                              random_lorentz, random_rotation)
from minklab.kinematics import boost_3d, boost_matrix_1d, compose_velocities
from minklab.lattice.laws import LAWS
from minklab.projective import (FLBoost,
                                conjugation_check, deformation_phi,
                                fl_boost_apply, lorentz_boost_event, time_slab)
from minklab.rigid import (boost_killing_field,
                           herglotz_field,
                           hyperbolic_worldline, killing_test,
                           kinematic_decomposition, lie_accel,
                           projected_curvature_check,
                           rotation_killing_checks, wiggly_worldline)
from minklab.simultaneity import (WorldLine, mutual_simultaneity,
                                  radar_echo_points)

from conftest import expected_lie_accel, radial_expanding_field

SEED = 20260810


def _report(num: int, title: str):
    print(f"[acceptance {num}] PASS: {title}")


class TestAcceptance:
    def test_01_velocity_composition(self):
        t0 = time.perf_counter()
        oracle = math.tanh(math.atanh(0.5) + math.atanh(0.5))
        got = compose_velocities(-1.0, 0.5, 0.5)
        assert abs(got - 0.8) < 1e-12
        assert abs(got - oracle) < 1e-12
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            v1, v2, v3 = rng.uniform(-0.95, 0.95, 3)
            lhs = compose_velocities(-1.0, compose_velocities(-1.0, v1, v2), v3)
            rhs = compose_velocities(-1.0, v1, compose_velocities(-1.0, v2, v3))
            assert abs(lhs - rhs) < 1e-12
        assert math.isinf(compose_velocities(1.0, 0.5, 2.0))  # v v' = 1/k
        assert compose_velocities(1.0, 2.0, 3.0) == -1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        _report(1, f"velocity composition ({elapsed:.2f}s)")

    def test_02_boost_matrices(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            c = float(rng.uniform(0.4, 3.0))
            v = float(rng.uniform(-0.95, 0.95)) * c
            beta = v / c
            gam = 1.0 / math.sqrt(1.0 - beta * beta)
            S = np.diag([c, 1.0])
            hyper = np.array([[gam, -beta * gam], [-beta * gam, gam]])
            A = boost_matrix_1d(-1.0 / (c * c), v)
            assert np.abs(S @ A @ np.linalg.inv(S) - hyper).max() < 1e-12
        for _ in range(100):
            v = rng.uniform(-0.57, 0.57, 3)
            B = boost_3d(v, 1.0)
            assert lorentz_residual(B) < 1e-10
            R = random_rotation(4, rng)
            assert np.abs(R @ B @ R.T - boost_3d(R[1:, 1:] @ v, 1.0)).max() < 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        _report(2, f"boost matrices and equivariance ({elapsed:.2f}s)")

    def test_03_reflection_decomposition(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        total = 0
        for dim in (2, 3, 4):
            for _ in range(334):
                L = random_lorentz(dim, rng, orthochronous=False, proper=False)
                factors = cartan_dieudonne(L)
                assert len(factors) <= 2 * dim - 1
                mats = np.array([f.matrix for f in factors])
                assert np.abs(compose_reflections(mats, dim) - L).max() < 1e-9
                total += 1
        assert total >= 1000
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        _report(3, f"{total} reflection decompositions, dims 2-4 ({elapsed:.2f}s)")

    def test_04_conformal_factor(self):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            lam = float(rng.uniform(0.5, 2.0))
            got = conformal_factor(lam * random_lorentz(4, rng))
            assert abs(got["alpha"] - lam * lam) < 1e-9
            assert got["residual"] < 1e-9
        _report(4, "conformal factor recovers the squared scaling")

    def test_05_simultaneity(self):
        rng = np.random.default_rng(SEED)
        configs = 0
        while configs < 50:
            v = rng.standard_normal(4)
            v[0] = abs(v[0]) + np.linalg.norm(v[1:]) + 0.2
            line = WorldLine(Event(rng.uniform(-2, 2, 4)), MinkVector(v))
            p = Event(rng.uniform(-3, 3, 4))
            if line.contains(p):
                continue
            qm, qp = radar_echo_points(line, p)
            for s in np.linspace(0.05, 0.95, 10):
                q = Event((1 - s) * qm.a + s * qp.a)
                lhs = -inner(q - p, q - p)
                rhs = norm_g(qp - q) * norm_g(q - qm)
                assert abs(lhs - rhs) < 1e-10
            configs += 1
        # mutual simultaneity: orthogonality on skew pairs
        pairs = 0
        while pairs < 50:
            d1, d2 = rng.standard_normal((2, 4))
            d1[0] = abs(d1[0]) + np.linalg.norm(d1[1:]) + 0.2
            d2[0] = abs(d2[0]) + np.linalg.norm(d2[1:]) + 0.2
            l1 = WorldLine(Event(rng.uniform(-2, 2, 4)), MinkVector(d1))
            l2 = WorldLine(Event(rng.uniform(-2, 2, 4)), MinkVector(d2))
            try:
                q, qp = mutual_simultaneity(l1, l2)
            except Exception:
                continue
            assert abs(inner(q - qp, l1.direction)) < 1e-10
            assert abs(inner(q - qp, l2.direction)) < 1e-10
            pairs += 1
        # intersecting lines, arithmetic exact by construction
        l1 = WorldLine(Event([0.0, 0.0]), MinkVector([1.0, 0.0]))
        l2 = WorldLine(Event([0.0, 0.0]), MinkVector([1.25, 0.75]))
        q, qp = mutual_simultaneity(l1, l2)
        assert tuple(q.a) == (0.0, 0.0) and tuple(qp.a) == (0.0, 0.0)
        # worked intersecting pair with an off-origin crossing
        l3 = WorldLine(Event([0.0, 1.0]), MinkVector([1.0, 0.5]))
        q, qp = mutual_simultaneity(l1, l3)
        assert np.abs(q.a - [-2.0, 0.0]).max() < 1e-12
        assert np.abs(qp.a - [-2.0, 0.0]).max() < 1e-12
        _report(5, "radar product identity and mutual simultaneity")

    def test_06_lattice_laws(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        grid = lat.IntegerGrid.centered(41, 41)
        regions = [lat.random_region(grid, rng) for _ in range(1000)]
        # even draws are swept causally, odd ones chronologically
        sweeps = {lat.CAUSAL: lat.law_sweep(regions[0::2], lat.CAUSAL),
                  lat.CHRONOLOGICAL: lat.law_sweep(regions[1::2], lat.CHRONOLOGICAL)}
        for sweep in sweeps.values():
            assert len(sweep["completions"]) == 500
            assert sweep["violations"] == {law: [] for law in LAWS}
        comps = sweeps[lat.CAUSAL]["completions"]
        pairs = list(zip(comps, comps[1:]))
        assert lat.de_morgan_check(pairs, lat.CAUSAL) == []
        demorgan_pairs = len(pairs)
        assert demorgan_pairs >= 400
        fig = lat.fig2_counterexample(grid)
        assert not fig["holds"]
        assert fig["witness"].count > 0
        p, q = (0, 0), (4, 0)
        joined = lat.join(lat.Region.from_points(grid, [p]),
                          lat.Region.from_points(grid, [q]), lat.CAUSAL)
        assert joined == lat.diamond(grid, p, q, closed=True)
        cov = lat.covering_counterexample(grid, p, q, lat.CAUSAL)
        assert cov["intermediate"] is not None
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        _report(6, f"lattice laws on 1000 regions, two-diamond witness "
                   f"{fig['witness'].count} cells ({elapsed:.1f}s)")

    def test_07_rigid_motion(self):
        bf = boost_killing_field()
        for x0 in (0.5, 1.0, 2.0):
            p = np.array([0.0, x0, 0.0, 0.0])
            dec = kinematic_decomposition(bf, p, 1e-3)
            assert dec.theta_norm < 1e-5
            assert dec.omega_norm < 1e-5
            # the acceleration needs a finer step than the split norms at
            # the smallest orbit label to resolve its 1e-6 tolerance
            dec_fine = kinematic_decomposition(bf, p, 2e-4)
            assert abs(dec_fine.accel_norm_g - 1.0 / x0) < 1e-6
        rot = rotation_killing_checks(1.0, 1.0, [
            np.array([0.0, 0.3, 0.0, 0.0]), np.array([0.1, 0.1, 0.45, 0.2])],
            1e-3)
        assert rot["max_theta"] < 1e-5
        assert rot["min_omega"] > 1e-3
        assert rot["max_lie_omega"] < 1e-5
        hw = hyperbolic_worldline(1.0)
        hf = herglotz_field(hw, (-1.5, 1.5))
        probe = np.array([0.1, 1.2, 0.3, -0.2])
        assert np.abs(hf(probe) - bf(probe)).max() < 1e-12
        assert killing_test(hf, [probe], 1e-3)["closedness_residual"] < 1e-5
        wig = wiggly_worldline(0.5)
        wf = herglotz_field(wig, (-0.5, 1.5))
        for offset in (np.zeros(4), np.array([0.0, 0.05, 0.1, -0.08])):
            pw = wig.z(0.8) + offset
            fd = lie_accel(wf, pw, 1e-3)
            assert np.abs(fd - expected_lie_accel(wig, pw, (-0.5, 1.5))).max() < 1e-4
        # second-order convergence: halving the step quarters the error
        exp_f = radial_expanding_field(0.1)
        x = np.array([0.0, 0.4, 0.2, 0.1])
        ref = kinematic_decomposition(exp_f, x, 1e-5).theta
        errs = [np.abs(kinematic_decomposition(exp_f, x, s).theta - ref).max()
                for s in (2e-3, 1e-3)]
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        _report(7, "rigid motion: boost / rotation / worldline-induced flows")

    def test_08_projected_curvature(self):
        rng = np.random.default_rng(SEED)
        probes = []
        for ratio in np.linspace(0.1, 0.7, 10):
            ang = float(rng.uniform(0, 2 * math.pi))
            probes.append(np.array([0.0, ratio * math.cos(ang),
                                    ratio * math.sin(ang),
                                    float(rng.uniform(-0.3, 0.3))]))
        got = projected_curvature_check(1.0, 1.0, probes, 1e-3)
        assert got["passes"]
        assert got["max_residual"] < 1e-4
        _report(8, f"curvature identity, max residual {got['max_residual']:.2e}")

    def test_09_deformed_boosts(self):
        rng = np.random.default_rng(SEED)
        b = FLBoost(np.array([0.5, 0.1, -0.2]), c=1.0, R=10.0)
        samples = [(float(rng.uniform(0.3, 9.5)), rng.uniform(-3, 3, 3))
                   for _ in range(1000)]
        got = conjugation_check(b, samples)
        assert got["used"] >= 900
        assert got["max_residual"] < 1e-10
        R = 1e6
        bR = FLBoost(np.array([0.5, 0.0, 0.0]), c=1.0, R=R)
        for _ in range(200):
            t = float(rng.uniform(-1, 1))
            x = rng.uniform(-1, 1, 3)
            tp, xp = fl_boost_apply(bR, t, x)
            tl, xl = lorentz_boost_event(bR.velocity, t, x, 1.0)
            bound = 10.0 * (float(np.linalg.norm(x)) + abs(t)) / R
            assert abs(tp - tl) <= bound
            assert np.abs(xp - xl).max() <= bound
        checked = 0
        R, c = 5.0, 1.0
        while checked < 1000:
            t = float(rng.uniform(-20, 20))
            if abs(abs(t) - R / c) < 1e-9:
                continue
            slab = time_slab(t, R, c)
            tp, _ = deformation_phi(R, c, t, np.zeros(3))
            if slab == "front":
                assert 0.0 <= t < R / c and tp >= 0.0
            elif slab == "beyond":
                assert t > R / c and tp < -R / c
            else:
                assert t <= 0.0 and -R / c < tp <= 0.0
            checked += 1
        _report(9, "deformed boosts: conjugation, large-scale limit, slabs")

    def test_10_acceptance_style(self):
        # no empirical tables exist to replicate: every criterion above is
        # an identity or property check with an explicit tolerance, which
        # this suite runs end to end
        _report(10, "identity/property-based acceptance, no empirical tables")
