"""Tests of the benchmark's own reference and checkers.

    python3 perfbench/selftest.py

The reference complement must agree with minklab's brute-force oracle, and
the checkers must reject outputs that are wrong by one cell or by 1e-3.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

MODE_CODES = {ref.CAUSAL: 0, ref.CHRONOLOGICAL: 1, ref.GALILEI: 2}


def bruteforce_oracle():
    """minklab's literal double-loop complement, wherever the lattice package keeps it."""
    import minklab.lattice as lattice

    for info in pkgutil.iter_modules(lattice.__path__, lattice.__name__ + "."):
        fn = getattr(importlib.import_module(info.name), "complement_mask_bruteforce", None)
        if fn is not None:
            return fn
    raise unittest.SkipTest("minklab has no complement_mask_bruteforce")


def regions(coords, rng):
    """Empty, full, single-point (centre and corner), diamond and random masks."""
    n = coords.shape[0]
    centre = coords[n // 2]
    yield "empty", np.zeros(n, dtype=bool)
    yield "full", np.ones(n, dtype=bool)
    for name, idx in (("centre point", n // 2), ("corner point", 0)):
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        yield name, mask
    tip = centre.copy()
    tip[0] += 2
    yield "diamond", ref.closed_diamond_ref(coords, centre - np.eye(len(centre), dtype=int)[0], tip)
    yield "random", rng.random(n) < 0.2


class ReferenceComplement(unittest.TestCase):
    GRIDS = {
        "7x7 centred": [(-3, 3), (-3, 3)],
        "6x5 off-centre": [(-1, 4), (2, 6)],
        "5x5x5 centred": [(-2, 2), (-2, 2), (-2, 2)],
        "4x3x5 off-centre": [(0, 3), (-3, -1), (1, 5)],
    }

    def test_agrees_with_bruteforce_oracle(self):
        oracle = bruteforce_oracle()
        rng = np.random.default_rng(7)
        for grid_name, extents in self.GRIDS.items():
            coords = ref.grid_coords(extents)
            for region_name, mask in regions(coords, rng):
                for mode, code in MODE_CODES.items():
                    with self.subTest(grid=grid_name, region=region_name, mode=mode):
                        expect = oracle(coords, mask, code)
                        np.testing.assert_array_equal(ref.complement_ref(coords, mask, mode), expect)

    def test_matches_program_grid_order(self):
        from minklab.lattice import IntegerGrid

        for extents in self.GRIDS.values():
            np.testing.assert_array_equal(ref.grid_coords(extents), IntegerGrid(extents).coords)


class CheckersReject(unittest.TestCase):
    def test_one_flipped_cell(self):
        from minklab import lattice as lat

        grid = lat.IntegerGrid.centered(15, 15)
        coords = ref.grid_coords(grid.extents)
        mask = np.random.default_rng(3).random(grid.size) < 0.05
        for mode in ref.MODES:
            out = lat.complement(lat.Region(grid, mask), mode).mask
            ref.check_complement(coords, mask, mode, out)
            for cell in (0, grid.size // 2, grid.size - 1):
                wrong = out.copy()
                wrong[cell] = not wrong[cell]
                with self.subTest(mode=mode, cell=cell), self.assertRaises(ref.Mismatch):
                    ref.check_complement(coords, mask, mode, wrong)

    def test_acceleration_off_by_1e_3(self):
        with tempfile.TemporaryDirectory() as tmp:
            geo = workloads.Geometry(seed=0, workdir=Path(tmp))
        for kind in ("boost", "rotation", "herglotz"):
            op = next(op for op in geo.ops if op.name == f"kinematic_decomposition.{kind}")
            out = op.run()
            op.check(out, True)
            for axis in (0, 1, 2):
                shift = np.zeros(4)
                shift[axis] = 1e-3
                wrong = [dataclasses.replace(d, accel=d.accel + shift) for d in out]
                with self.subTest(field=kind, axis=axis), self.assertRaises(ref.Mismatch):
                    op.check(wrong, True)

    def test_report_verdicts(self):
        check = {"name": "x", "passed": True, "residual": 1e-12, "tolerance": 1e-10, "note": ""}
        report = {"checks": [check], "passed": True, "counts": {"total": 1, "failed": 0}}
        self.assertEqual(ref.check_report(report), (1, 0))
        check.update(residual=0.0, tolerance=0.0)
        self.assertEqual(ref.check_report(report), (1, 1))
        check.update(residual=2e-10, tolerance=1e-10)
        with self.assertRaises(ref.Mismatch):
            ref.check_report(report)


if __name__ == "__main__":
    unittest.main()
