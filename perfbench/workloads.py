"""The four workloads: seeded inputs, one pass of checked operations each.

A workload builds its inputs once from the seed and then offers the same
pass again and again.  A pass is a list of operations; each operation calls
minklab's public API and returns what it produced, and is checked after the
timed pass by `check(output, full)`.  Cheap property checks run on every
pass; `full` adds the reference recomputation, which the worker runs on every
operation of the warm-up pass and on a rotating sample afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from reference import require


class Op:
    """One checked call into minklab."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ------------------------------------------------------------------ lattice

class _LatticeWorkload:
    def __init__(self, workdir: Path):
        from minklab import lattice

        self.lat = lattice
        self.workdir = workdir
        self.ops: list[Op] = []

    def region(self, grid, mask):
        return self.lat.Region(grid, mask)

    def random_mask(self, grid, rng, density):
        return rng.random(grid.size) < density

    def complement_laws_op(self, grid, mask, mode, tag):
        """S', S'' (completion) and S''' for one region."""
        lat = self.lat
        s = self.region(grid, mask)
        coords = ref.grid_coords(grid.extents)

        def run():
            s1 = lat.complement(s, mode)
            s2 = lat.completion(s, mode)
            s3 = lat.complement(s2, mode)
            return s1.mask, s2.mask, s3.mask

        def check(out, full):
            s1, s2, s3 = out
            ref.check_complement_laws(mask, s1, s2, s3)
            if full:
                ref.check_complement(coords, mask, mode, s1)
                ref.check_complement(coords, s1, mode, s2)

        self.ops.append(Op(f"laws.{tag}.{mode}", run, check))

    def complement_op(self, grid, mask, mode, tag):
        lat = self.lat
        s = self.region(grid, mask)
        coords = ref.grid_coords(grid.extents)

        def run():
            return lat.complement(s, mode).mask

        def check(out, full):
            require(not (mask & out).any(), "complement meets its set")
            if full:
                ref.check_complement(coords, mask, mode, out)

        self.ops.append(Op(f"complement.{tag}.{mode}", run, check))

    def antitone_op(self, grid, small, extra, mode, tag):
        lat = self.lat
        a = self.region(grid, small)
        b = self.region(grid, small | extra)
        coords = ref.grid_coords(grid.extents)

        def run():
            return lat.complement(a, mode).mask, lat.complement(b, mode).mask

        def check(out, full):
            ref.check_antitone(a.mask, b.mask, out[0], out[1])
            if full:
                ref.check_complement(coords, b.mask, mode, out[1])

        self.ops.append(Op(f"antitone.{tag}.{mode}", run, check))

    def join_meet_op(self, grid, a_mask, b_mask, mode, tag):
        lat = self.lat
        a, b = self.region(grid, a_mask), self.region(grid, b_mask)
        coords = ref.grid_coords(grid.extents)

        def run():
            return lat.join(a, b, mode).mask, lat.meet(a, b, mode).mask

        def check(out, full):
            j, m = out
            require(not ((a_mask | b_mask) & ~j).any(), "join misses an input cell")
            require(np.array_equal(m, a_mask & b_mask), "meet of complete sets is not the intersection")
            if full:
                require(np.array_equal(j, ref.join_ref(coords, a_mask, b_mask, mode)),
                        f"{mode} join differs from the reference")

        self.ops.append(Op(f"join_meet.{tag}.{mode}", run, check))


class LatticeDense(_LatticeWorkload):
    """Orthocomplement-law sweeps over seeded random regions.

    1+1 grids below (41x41) and above (85x85) the program's 7000-cell
    relation-table limit, and a 13x13x13 grid; densities 0.01-0.4 in the
    causal and chronological modes, plus galilei.
    """

    DENSITIES = (0.01, 0.05, 0.1, 0.2, 0.4)
    DENSITIES_3D = (0.01, 0.1, 0.4)
    MODES = (ref.CAUSAL, ref.CHRONOLOGICAL)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        lat = self.lat
        g41 = lat.IntegerGrid.centered(41, 41)
        g85 = lat.IntegerGrid.centered(85, 85)
        g13 = lat.IntegerGrid.centered(13, 13, 13)
        rng = _rng(seed, 1)
        for mode in self.MODES:
            for d in self.DENSITIES:
                s = self.random_mask(g41, rng, d)
                self.complement_laws_op(g41, s, mode, f"41x41.d{d}")
                self.antitone_op(g41, s, self.random_mask(g41, rng, d / 2), mode, f"41x41.d{d}")
            for d in self.DENSITIES_3D:
                self.complement_laws_op(g13, self.random_mask(g13, rng, d), mode, f"13x13x13.d{d}")
        # above the table limit one sweep of a dense set costs 10-50x more,
        # so the 85x85 grid gets single complements, not law triples
        for mode, d in ((ref.CAUSAL, 0.05), (ref.CHRONOLOGICAL, 0.1)):
            self.complement_op(g85, self.random_mask(g85, rng, d), mode, f"85x85.d{d}")
        # complete inputs for joins, meets and De Morgan pairs
        for mode in self.MODES:
            complete = [lat.completion(self.region(g41, self.random_mask(g41, rng, d)), mode).mask
                        for d in (0.02, 0.1, 0.2)]
            self.join_meet_op(g41, complete[0], complete[2], mode, "41x41")
            self.de_morgan_op(g41, complete, mode)
        for grid in (g41, g13):
            for d in (0.01, 0.2):
                self.galilei_op(grid, self.random_mask(grid, rng, d))
            self.galilei_op(grid, self.single_slice_mask(grid, rng))

    def de_morgan_op(self, grid, complete, mode):
        lat = self.lat
        regions = [self.region(grid, m) for m in complete]
        pairs = list(zip(regions[:-1], regions[1:]))
        coords = ref.grid_coords(grid.extents)

        def run():
            return lat.de_morgan_check(pairs, mode)

        def check(out, full):
            require(out == [], f"De Morgan violations {out}")
            if full:
                a, b = complete[0], complete[1]
                lhs = ref.complement_ref(coords, a & b, mode)
                ac, bc = ref.complement_ref(coords, a, mode), ref.complement_ref(coords, b, mode)
                rhs = ref.complement_ref(coords, ref.complement_ref(coords, ac | bc, mode), mode)
                require(np.array_equal(lhs, rhs), "reference De Morgan identity fails")

        self.ops.append(Op(f"de_morgan.{mode}", run, check))

    def single_slice_mask(self, grid, rng):
        t = grid.extents[0][0] + grid.shape[0] // 2
        return (ref.grid_coords(grid.extents)[:, 0] == t) & (rng.random(grid.size) < 0.3)

    def galilei_op(self, grid, mask):
        lat = self.lat
        s = self.region(grid, mask)
        coords = ref.grid_coords(grid.extents)
        times = np.unique(coords[mask, 0])

        def run():
            return lat.galilei_chron_complement(s).mask, lat.complement(s, ref.GALILEI).mask

        def check(out, full):
            gal, comp = out
            require(np.array_equal(gal, comp), "galilei complement disagrees with galilei_chron_complement")
            # closed form: empty if the set spans several slices, else its slice minus the set
            if times.size == 0:
                expect = np.ones(grid.size, dtype=bool)
            elif times.size > 1:
                expect = np.zeros(grid.size, dtype=bool)
            else:
                expect = (coords[:, 0] == times[0]) & ~mask
            require(np.array_equal(comp, expect), "galilei complement differs from the closed form")
            if full:
                ref.check_complement(coords, mask, ref.GALILEI, comp)

        self.ops.append(Op(f"galilei.{grid.dim}d", run, check))


class LatticeSparse(_LatticeWorkload):
    """Completions and joins of tiny sets, the structural searches, fig. 2
    and the region file formats."""

    SETS_PER_GRID = 6
    SEARCH_SEED = 0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        lat = self.lat
        g41 = lat.IntegerGrid.centered(41, 41)
        g13 = lat.IntegerGrid.centered(13, 13, 13)
        rng = _rng(seed, 2)
        for grid in (g41, g13):
            centre = np.array([(lo + hi) // 2 for lo, hi in grid.extents])
            half = np.array([(hi - lo) // 4 for lo, hi in grid.extents])
            for i in range(self.SETS_PER_GRID):
                npts = 1 + i % 4
                pts = centre + rng.integers(-half, half + 1, size=(npts, grid.dim))
                mask = lat.Region.from_points(grid, [tuple(p) for p in pts]).mask
                for mode in (ref.CAUSAL, ref.CHRONOLOGICAL):
                    self.completion_op(grid, mask, mode, f"{npts}pt")
                self.io_op(grid, mask)
            # p's time leaves room for q = p + dt and for the diamond's tip.
            # Complements are grid-relative: near the grid's edge the join of
            # two points outgrows their diamond, so both stay near the centre.
            offset = rng.integers(-(half // 2), half // 2 + 1)
            offset[0] = -rng.integers(0, half[0] + 1)
            p = tuple(int(c) for c in centre + offset)
            dt = int(rng.integers(2, min(5, half[0] + 1) + 1))
            reach = dt - 1 if grid.dim == 2 else 1  # |dx|^2 < dt^2: q is timelike to p
            dx = rng.integers(-reach, reach + 1, size=grid.dim - 1)
            q = (p[0] + dt,) + tuple(int(a + b) for a, b in zip(p[1:], dx))
            self.point_join_op(grid, p, q)
            tip = (p[0] + 2,) + p[1:]
            small = lat.diamond(grid, p, tip, closed=True).mask
            for mode in (ref.CAUSAL, ref.CHRONOLOGICAL):
                self.completion_op(grid, small, mode, "diamond")
            self.io_op(grid, small)
            self.covering_op(grid, tuple(int(c) for c in centre))
        self.property_suite_op(g41)
        self.fig2_op(g41)

    def completion_op(self, grid, mask, mode, tag):
        lat = self.lat
        s = self.region(grid, mask)
        coords = ref.grid_coords(grid.extents)
        single = int(mask.sum()) == 1

        def run():
            return lat.completion(s, mode).mask

        def check(out, full):
            require(not (mask & ~out).any(), "set not inside its completion")
            if single:
                require(np.array_equal(out, mask), "a point is not complete")
            if full:
                expect = ref.complement_ref(coords, ref.complement_ref(coords, mask, mode), mode)
                require(np.array_equal(out, expect), f"{mode} completion differs from the reference")

        self.ops.append(Op(f"completion.{grid.dim}d.{tag}.{mode}", run, check))

    def point_join_op(self, grid, p, q):
        lat = self.lat
        a = lat.Region.from_points(grid, [p])
        b = lat.Region.from_points(grid, [q])
        coords = ref.grid_coords(grid.extents)
        expect = ref.closed_diamond_ref(coords, p, q)

        def run():
            return lat.join(a, b, ref.CAUSAL).mask

        def check(out, full):
            require(np.array_equal(out, expect),
                    "join of timelike-separated points is not their closed diamond")

        self.ops.append(Op(f"join.points.{grid.dim}d", run, check))

    def io_op(self, grid, mask):
        lat = self.lat
        s = self.region(grid, mask)

        def run():
            text = lat.region_to_json(s)
            back = lat.region_from_json(text)
            pbm = lat.region_to_pbm(s) if grid.dim == 2 else None
            return text, back.mask, pbm

        def check(out, full):
            text, back, pbm = out
            extents, decoded = ref.decode_region_json(text)
            require(tuple(extents) == tuple(grid.extents), "exported extents differ")
            require(np.array_equal(decoded, mask), "exported region decodes to other cells")
            require(np.array_equal(back, mask), "region_from_json does not round-trip")
            if pbm is not None:
                require(np.array_equal(ref.decode_pbm(pbm).reshape(-1), mask),
                        "PBM export decodes to other cells")

        self.ops.append(Op(f"io.{grid.dim}d", run, check))

    def covering_op(self, grid, p):
        lat = self.lat
        q = (p[0] + 4,) + p[1:]
        coords = ref.grid_coords(grid.extents)
        atom = lat.Region.from_points(grid, [p]).mask

        def run():
            return lat.covering_counterexample(grid, p, q, ref.CAUSAL)

        def check(out, full):
            k = out["intermediate"]
            require(out["join_is_expected_diamond"], "two-point join is not the closed diamond")
            require(k is not None, "no element strictly between the atom and the join")
            diamond = ref.closed_diamond_ref(coords, p, q)
            require(not (atom & ~k.mask).any() and not (k.mask & ~diamond).any(),
                    "covering witness is not between the atom and the join")
            require(not np.array_equal(k.mask, atom) and not np.array_equal(k.mask, diamond),
                    "covering witness is not strictly between")
            if full:
                require(np.array_equal(ref.complement_ref(coords, ref.complement_ref(
                    coords, k.mask, ref.CAUSAL), ref.CAUSAL), k.mask),
                    "covering witness is not complete")

        self.ops.append(Op(f"covering.{grid.dim}d", run, check))

    def property_suite_op(self, grid):
        lat = self.lat
        coords = ref.grid_coords(grid.extents)

        def run():
            # the searches stop at the first counterexample, after a number of
            # tries that differs several-fold between seeds; a fixed seed keeps
            # the work of every run the same
            return lat.lattice_property_suite(grid, ref.CAUSAL, self.SEARCH_SEED, n_regions=2)

        def check(out, full):
            require(out["failures"] == [], f"orthocomplement law failures {out['failures']}")
            require(out["atom_complete"], "a point is not complete")
            require(out["covering"]["intermediate"] is not None, "covering search found nothing")
            mod, dis = out["modularity"], out["distributivity"]
            require(mod is not None and dis is not None, "lattice searches found no counterexample")
            if not full:
                return
            a, b, c = (mod[k].mask for k in "abc")
            require(not (a & ~b).any(), "modularity counterexample has a not below b")
            lhs = ref.join_ref(coords, a, b & c, ref.CAUSAL)
            rhs = b & ref.join_ref(coords, a, c, ref.CAUSAL)
            require(np.array_equal(lhs, mod["lhs"].mask) and np.array_equal(rhs, mod["rhs"].mask),
                    "modularity sides differ from the reference")
            require(not np.array_equal(lhs, rhs), "reference finds the modular law holds")
            a, b, c = (dis[k].mask for k in "abc")
            lhs = a & ref.join_ref(coords, b, c, ref.CAUSAL)
            rhs = ref.join_ref(coords, a & b, a & c, ref.CAUSAL)
            require(np.array_equal(lhs, dis["lhs"].mask) and np.array_equal(rhs, dis["rhs"].mask),
                    "distributivity sides differ from the reference")
            require(not np.array_equal(lhs, rhs), "reference finds the distributive law holds")

        self.ops.append(Op("lattice_property_suite", run, check))

    def fig2_op(self, grid):
        lat = self.lat
        coords = ref.grid_coords(grid.extents)
        outdir = self.workdir / "fig2"
        outdir.mkdir(parents=True, exist_ok=True)
        argv = ["demo", "fig2", "--grid", "x".join(str(s) for s in grid.shape),
                "--out", str(outdir)]

        def run():
            from minklab import cli

            fig = lat.fig2_counterexample(grid)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return fig, code

        def check(out, full):
            fig, code = out
            require(code == 0, f"demo fig2 exited {code}")
            a, b, bp, w = (fig[k].mask for k in ("a", "b", "bprime", "witness"))
            require(not fig["holds"] and w.any(), "fig. 2 reports orthomodularity")
            require(not (a & ~b).any(), "fig. 2 small diamond is not inside the wedge")
            if full:
                # re-derive the orthomodularity failure: b meet (a join b') - a
                require(np.array_equal(b, ref.complement_ref(coords, bp, ref.CAUSAL)),
                        "fig. 2 wedge is not the complement of the open diamond")
                expect = b & ref.join_ref(coords, a, bp, ref.CAUSAL) & ~a
                require(np.array_equal(expect, w), "fig. 2 witness differs from the reference")
            for key in ("a", "b", "bprime", "join_a_bprime", "witness"):
                _, decoded = ref.decode_region_json((outdir / f"fig2_{key}.json").read_text())
                require(np.array_equal(decoded, fig[key].mask), f"exported fig2_{key}.json differs")
                pbm = ref.decode_pbm((outdir / f"fig2_{key}.pbm").read_text())
                require(np.array_equal(pbm.reshape(-1), fig[key].mask), f"exported fig2_{key}.pbm differs")
            summary = json.loads((outdir / "fig2_summary.json").read_text())
            require(summary["witness_cells"] == int(w.sum()) and summary["orthomodular"] is False,
                    "fig2 summary disagrees with the regions")

        self.ops.append(Op("fig2", run, check))


# ------------------------------------------------------------------ geometry

# the program's stated tolerance for first-derivative identities at step 1e-3
FIRST_DERIV_TOL = 1e-5


class Geometry:
    """The six non-lattice suites at raised sample counts, plus direct calls
    into isometry, rigid, kinematics, projective, simultaneity and core."""

    SAMPLES = 800
    SUITES = ("core", "isometry", "kinematics", "projective", "simultaneity", "rigid")
    MATRICES_PER_DIM = 30
    FD_STEP = 1e-2

    def __init__(self, seed: int, workdir: Path, count_herglotz: bool = False):
        from minklab import (core, isometry, kinematics, projective, rigid,
                             simultaneity, suites)

        self.ops: list[Op] = []
        self.herglotz_counts = {"field_evals": 0, "domain_checks": 0, "decompositions": 0}
        rng = _rng(seed, 3)
        config = suites.Config(samples=self.SAMPLES)
        for name in self.SUITES:
            self.ops.append(Op(f"suite.{name}",
                               lambda name=name: suites.run_suite(name, seed, config),
                               lambda out, full: ref.check_report(out)))
        for n in (2, 3, 4):
            for _ in range(self.MATRICES_PER_DIM):
                L = ref.random_lorentz_ref(n, rng)
                self.ops.append(Op(f"cartan_dieudonne.{n}",
                                   lambda L=L: [f.axis for f in isometry.cartan_dieudonne(L)],
                                   lambda out, full, L=L: ref.check_reflections(L, out)))
        for _ in range(10):
            lam = float(rng.uniform(0.5, 2.0))
            f = lam * ref.random_lorentz_ref(4, rng)
            self.ops.append(Op("conformal_factor", lambda f=f: isometry.conformal_factor(f),
                               lambda out, full, lam=lam: require(
                                   abs(out["alpha"] - lam * lam) < 1e-9 * lam * lam
                                   and out["residual"] < 1e-9, "conformal factor is not lambda^2")))

        boost = rigid.boost_killing_field()
        for _ in range(8):
            x = float(rng.uniform(0.8, 2.0))
            event = np.array([float(rng.uniform(-0.5, 0.5)) * x, x,
                              float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))])
            self.decomposition_op("boost", rigid, boost, event, ref.boost_accel_ref(event),
                                  order_check=True)
        rotation = rigid.rotation_killing_field(1.0)
        for _ in range(8):
            rho, phi = float(rng.uniform(0.1, 0.7)), float(rng.uniform(0, 2 * math.pi))
            event = np.array([float(rng.uniform(-1, 1)), rho * math.cos(phi),
                              rho * math.sin(phi), float(rng.uniform(-1, 1))])
            self.decomposition_op("rotation", rigid, rotation, event,
                                  ref.rotation_accel_ref(event, 1.0))
        herglotz = rigid.herglotz_field(rigid.hyperbolic_worldline(1.0), (-1.5, 1.5))
        if count_herglotz:
            herglotz = self.counting_field(rigid, herglotz)
        for _ in range(8):
            x = float(rng.uniform(0.9, 1.6))
            event = np.array([float(rng.uniform(-0.3, 0.3)) * x, x,
                              float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))])
            self.decomposition_op("herglotz", rigid, herglotz, event, ref.boost_accel_ref(event))

        curv_probes = [np.array([0.0, rho, 0.0, 0.0]) for rho in rng.uniform(0.1, 0.7, 3)]
        self.ops.append(Op("projected_curvature_check",
                           lambda: rigid.projected_curvature_check(1.0, 1.0, curv_probes, 1e-3),
                           lambda out, full: require(out["passes"] and out["max_residual"] < 1e-4,
                                                     "comoving curvature identity fails")))
        rot_probes = [np.array([float(rng.uniform(-1, 1)), rho * math.cos(phi), rho * math.sin(phi), 0.0])
                      for rho, phi in zip(rng.uniform(0.1, 0.6, 2), rng.uniform(0, 2 * math.pi, 2))]
        self.ops.append(Op("rotation_killing_checks",
                           lambda: rigid.rotation_killing_checks(1.0, 1.0, rot_probes, 1e-3),
                           lambda out, full: require(
                               out["max_theta"] < 1e-5 and out["min_omega"] > 1e-3
                               and out["max_lie_omega"] < 1e-5 and out["max_h_split_residual"] < 1e-10,
                               "rotation flow checks fail")))

        for _ in range(20):
            v = rng.standard_normal(4)
            v[0] = abs(v[0]) + float(np.linalg.norm(v[1:])) + 0.2
            line = simultaneity.WorldLine(core.Event(rng.uniform(-2, 2, 4)), core.MinkVector(v))
            p = core.Event(rng.uniform(-2, 2, 4))
            expect = ref.radar_foot_ref(line.base.a, line.direction.a, p.a)
            self.ops.append(Op("radar_simultaneous_event",
                               lambda line=line, p=p: simultaneity.radar_simultaneous_event(line, p).a,
                               lambda out, full, e=expect: require(
                                   float(np.abs(out - e).max()) < 1e-9, "radar event is not the orthogonal foot")))
        for _ in range(20):
            v1, v2 = rng.standard_normal((2, 4))
            for v in (v1, v2):
                v[0] = abs(v[0]) + float(np.linalg.norm(v[1:])) + 0.2
            l1 = simultaneity.WorldLine(core.Event(rng.uniform(-2, 2, 4)), core.MinkVector(v1))
            l2 = simultaneity.WorldLine(core.Event(rng.uniform(-2, 2, 4)), core.MinkVector(v2))

            def check_mutual(out, full, d1=l1.direction.a, d2=l2.direction.a):
                d = out[0].a - out[1].a
                require(max(abs(ref.mink(d, d1)), abs(ref.mink(d, d2))) < 1e-9,
                        "mutual simultaneity pair is not orthogonal to both lines")

            self.ops.append(Op("mutual_simultaneity",
                               lambda l1=l1, l2=l2: simultaneity.mutual_simultaneity(l1, l2),
                               check_mutual))

        pairs = rng.uniform(-0.95, 0.95, size=(200, 2))

        def compose():
            return [kinematics.compose_velocities(-1.0, float(v), float(w)) for v, w in pairs]

        def check_compose(out, full):
            worst = max(abs(math.atanh(u) - math.atanh(v) - math.atanh(w))
                        for u, (v, w) in zip(out, pairs))
            require(worst < 1e-12, f"rapidity is not additive (error {worst:.3e})")

        self.ops.append(Op("compose_velocities", compose, check_compose))
        for _ in range(20):
            vel = rng.uniform(-0.55, 0.55, 3)
            self.ops.append(Op("boost_3d", lambda vel=vel: kinematics.boost_3d(vel),
                               lambda out, full, vel=vel: require(
                                   float(np.abs(out - ref.boost3d_ref(vel)).max()) < 1e-12,
                                   "boost_3d differs from the closed-form boost")))

        fl = projective.FLBoost(np.array([0.5, 0.1, -0.2]), c=1.0, R=10.0)
        fl_inv = projective.FLBoost(-fl.velocity, c=1.0, R=10.0)
        events = [(float(rng.uniform(0.5, 4.0)), rng.uniform(-2, 2, 3)) for _ in range(100)]

        def fl_round_trip():
            out = []
            for t, x in events:
                t1, x1 = projective.fl_boost_apply(fl, t, x)
                out.append(projective.fl_boost_apply(fl_inv, t1, x1))
            return out

        def check_fl(out, full):
            worst = max(max(abs(t2 - t), float(np.abs(x2 - x).max()))
                        for (t, x), (t2, x2) in zip(events, out))
            require(worst < 1e-10, "deformed boost and its inverse do not round-trip")

        self.ops.append(Op("fl_boost_apply", fl_round_trip, check_fl))
        self.ops.append(Op("conjugation_check", lambda: projective.conjugation_check(fl, events),
                           lambda out, full: require(out["max_residual"] < 1e-10 and out["used"] > 0,
                                                     "deformed boost is not the conjugated boost")))

        vecs = rng.standard_normal((300, 4))
        vecs[:100, 0] = np.linalg.norm(vecs[:100, 1:], axis=1)  # lightlike
        metric = core.Metric(4)

        def classify():
            return [core.classify(v, metric).label for v in vecs]

        def inner():
            return [core.inner(v, w) for v, w in zip(vecs[:-1], vecs[1:])]

        self.ops.append(Op("classify", classify, lambda out, full: require(
            out == [ref.classify_ref(v) for v in vecs], "causal classes differ from the reference")))
        self.ops.append(Op("inner", inner, lambda out, full: require(
            max(abs(a - ref.mink(v, w)) for a, v, w in zip(out, vecs[:-1], vecs[1:])) < 1e-12,
            "inner product differs from the reference")))

    def counting_field(self, rigid, field):
        """Same field, with counted evaluations and domain checks."""
        counts = self.herglotz_counts

        def evaluator(x):
            counts["field_evals"] += 1
            return field.evaluator(x)

        def domain(x):
            counts["domain_checks"] += 1
            return field.domain(x)

        return rigid.VelocityField(evaluator, domain, field.c, field.tag)

    def decomposition_op(self, kind, rigid, field, event, accel, order_check=False):
        counts = self.herglotz_counts
        steps = (self.FD_STEP, self.FD_STEP / 2) if order_check else (1e-3,)

        def run():
            if kind == "herglotz":
                counts["decompositions"] += len(steps)
            return [rigid.kinematic_decomposition(field, event, h) for h in steps]

        def check(out, full):
            if order_check:
                errs = [float(np.abs(d.accel - accel).max()) for d in out]
                ref.check_fd_order(errs[0], errs[1], f"{kind} acceleration")
                require(errs[1] < 1e-4, f"{kind} acceleration off by {errs[1]:.3e}")
            else:
                ref.check_accel(out[0].accel, accel, FIRST_DERIV_TOL, kind)
                require(out[0].theta_norm < 1e-5, f"{kind} flow is not rigid")

        self.ops.append(Op(f"kinematic_decomposition.{kind}", run, check))


# ---------------------------------------------------------------- verify-all

class VerifyAll:
    """`minklab --suite all` in a fresh interpreter per pass.

    Consecutive passes share a seed in pairs (seed, seed, seed+1, seed+1,
    ...), so every second report is compared byte for byte with the one
    before it.
    """

    def __init__(self, seed: int, workdir: Path, python: str):
        self.seed = seed
        self.workdir = workdir
        self.python = python
        self.last_report: dict[int, bytes] = {}
        self.child_rss_mb: list[float] = []
        self.index = 0
        self.ops = [Op("cli.suite_all", self.run_cli, self.check_cli)]

    def cli_argv(self, *args):
        return [self.python, "-c", "import sys; from minklab.cli import main; sys.exit(main())", *args]

    def run_child(self, argv):
        """Run one CLI process; returns (exit code, peak RSS in MB)."""
        with open(self.workdir / "cli.stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def warm_up(self):
        code, _ = self.run_child(self.cli_argv("--suite", "core", "--seed", str(self.seed),
                                               "--out", str(self.workdir / "warmup.json")))
        require(code == 0, f"minklab --suite core exited {code}")

    def run_cli(self):
        seed = self.seed + self.index // 2
        out = self.workdir / f"report-{self.index % 2}.json"
        self.index += 1
        code, rss = self.run_child(self.cli_argv("--suite", "all", "--seed", str(seed),
                                                 "--out", str(out)))
        self.child_rss_mb.append(rss)
        return seed, code, out.read_bytes() if out.exists() else b""

    def check_cli(self, result, full):
        seed, code, data = result
        require(code == 0, f"minklab --suite all --seed {seed} exited {code}")
        doc = json.loads(data)
        require(doc["seed"] == seed and doc["suite"] == "all", "report echoes another run")
        tally = ref.check_report(doc)
        previous = self.last_report.get(seed)
        if previous is not None:
            require(previous == data, f"two reports for seed {seed} differ")
        self.last_report = {seed: data}
        return tally


class VerifyAllInProcess:
    """Traced stand-in for the verify-all pass: `minklab.cli.main` in this
    process, so that spans can see the suites."""

    def __init__(self, seed: int, workdir: Path):
        from minklab import cli

        self.cli = cli
        self.seed = seed
        self.out = workdir / "report-traced.json"
        self.checks = 0
        self.ops = [Op("cli.suite_all", self.run, self.check)]

    def main(self, *argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(list(argv))

    def warm_up(self):
        code = self.main("--suite", "core", "--seed", str(self.seed), "--out", str(self.out))
        require(code == 0, f"minklab --suite core exited {code}")

    def run(self):
        code = self.main("--suite", "all", "--seed", str(self.seed), "--out", str(self.out))
        return code, self.out.read_bytes()

    def check(self, result, full):
        code, data = result
        require(code == 0, f"minklab --suite all exited {code}")
        tally = ref.check_report(json.loads(data))
        self.checks = tally[0]
        return tally


def build(name: str, seed: int, workdir: Path, trace: bool = False):
    if name == "verify-all":
        if trace:
            return VerifyAllInProcess(seed, workdir)
        return VerifyAll(seed, workdir, sys.executable)
    if name == "lattice-dense":
        return LatticeDense(seed, workdir)
    if name == "lattice-sparse":
        return LatticeSparse(seed, workdir)
    if name == "geometry":
        return Geometry(seed, workdir, count_herglotz=trace)
    raise KeyError(name)


WORKLOADS = ("verify-all", "lattice-dense", "lattice-sparse", "geometry")
