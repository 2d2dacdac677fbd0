import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minklab
from minklab.cli import main
from minklab.lattice import engine
from minklab.rigid import decomp
from minklab.suites import Check, Config, parse_grid, run_suite, suite_lattice


class TestConfig:
    def test_parse_grid(self):
        assert parse_grid("41x41") == (41, 41)
        assert parse_grid("9x9x9") == (9, 9, 9)
        assert parse_grid("9x9x9x9") == (9, 9, 9, 9)
        with pytest.raises(ValueError):
            parse_grid("41")

    def test_from_mapping(self):
        cfg = Config.from_mapping({"grid": "21x21", "fd_step": "1e-4",
                                   "samples": "50"})
        assert cfg.grid == (21, 21)
        assert cfg.fd_step == 1e-4
        assert cfg.samples == 50

    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\nfd_step = 5e-4\ngrid=21x21\n\n")
        rc = main(["--suite", "core", "--seed", "1", "--config", str(path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["fd_step"] == 5e-4
        assert report["config"]["grid"] == "21x21"


class TestBadInput:
    """Bad input is a usage error (exit 2), never a silent default."""

    def test_bad_grid(self, tmp_path, capsys):
        assert main(["--suite", "core", "--grid", "2x2",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "error: bad grid spec" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("spec", ["3x3", "3x5", "5x3", "4x4", "3x9", "9x3",
                                      "3x3x3", "4x4x4", "3x7x7"])
    def test_grid_too_small_for_lattice(self, tmp_path, capsys, spec):
        # no covering pair with spacelike room beside its diamond fits
        assert main(["--suite", "lattice", "--grid", spec,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "error: bad grid spec" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("spec", ["4294967296x4294967296", "5x3037000501",
                                      "5x5x2147483649x2147483649"])
    def test_int64_overflowing_grid(self, capsys, spec):
        # refused while parsing: no grid cells are ever allocated
        with pytest.raises(ValueError, match="int64"):
            parse_grid(spec)
        assert main(["--suite", "core", "--grid", spec]) == 2
        assert "int64" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("regoins=5\n")
        assert main(["--suite", "core", "--config", str(path)]) == 2
        assert "regoins" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["samples=0", "regions=-3", "fd_step=0"])
    def test_non_positive_value(self, tmp_path, line):
        path = tmp_path / "cfg"
        path.write_text(line + "\n")
        assert main(["--suite", "core", "--config", str(path)]) == 2

    @pytest.mark.parametrize("line", ["samples=1", "samples=3", "regions=1"])
    def test_value_below_minimum(self, tmp_path, capsys, line):
        # samples < 4 leaves the simultaneity sweeps empty, and one region
        # makes no De Morgan pair
        path = tmp_path / "cfg"
        path.write_text(line + "\n")
        assert main(["--suite", "all", "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"{line.split('=')[0]} must be at least" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_least_accepted_values(self):
        config = Config.from_mapping({"samples": "4", "regions": "2"})
        assert (config.samples, config.regions) == (4, 2)

    @pytest.mark.parametrize("line", ["fd_step=4e-3", "fd_step=1e-6"])
    def test_fd_step_outside_convergent_range(self, tmp_path, capsys, line):
        path = tmp_path / "cfg"
        path.write_text(line + "\n")
        assert main(["--suite", "rigid", "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "fd_step must lie in [1e-05, 0.001]" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("args", [["--suite", "core"], ["--suite", "all"],
                                      ["demo", "fl-slab"], ["demo", "rindler"]],
                             ids=["suite-core", "suite-all", "demo-fl-slab", "demo-rindler"])
    @pytest.mark.parametrize("seed", ["-1", "-7", "x"])
    def test_bad_seed(self, tmp_path, capsys, args, seed):
        # numpy seeds are non-negative: refused by argparse, not by numpy
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*args, "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("v_final", ["1", "2", "-1", "nan"])
    def test_rindler_speed_not_below_c(self, tmp_path, capsys, v_final):
        out = tmp_path / "out"
        assert main(["demo", "rindler", "--v-final", v_final, "--out", str(out)]) == 2
        assert "error: |v| must be below the invariant speed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("demo, flag, value, error", [
        *[("disk", "--kappa", v, "kappa must be positive and finite")
          for v in ("0", "-1", "inf", "nan")],
        *[(demo, "--samples", v, "samples must be positive and finite")
          for demo in ("rindler", "disk", "fl-slab") for v in ("0", "-1")],
        *[("rindler", "--orbits", v, "orbits must be positive and finite")
          for v in ("0", "-1")],
        *[("rindler", "--x0", v, "x0 must be positive and finite")
          for v in ("nan", "1..inf", "0..1")],
        *[("fl-slab", "--R", v, "R must be positive and finite")
          for v in ("0", "-5", "inf", "nan")],
        ("fl-slab", "--R", "1e-7", "every sample of t was skipped"),
        *[("image-lines", "--sigmas", v, "sigma values must be finite")
          for v in ("nan", "0,inf")],
    ])
    def test_demo_input_rejected(self, tmp_path, capsys, demo, flag, value, error):
        out = tmp_path / "out"
        assert main(["demo", demo, flag, value, "--out", str(out)]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["2x2", "15x15", "41x41x41", "9x9x9x9"])
    def test_bad_fig2_grid(self, tmp_path, capsys, spec):
        out = tmp_path / "out"
        assert main(["demo", "fig2", "--grid", spec, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestSuiteRuns:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["--suite", "nope"]) == 2

    def test_missing_suite_usage_error(self):
        assert main([]) == 2

    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["--suite", "kinematics", "--seed", "42", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 2
        assert report["suite"] == "kinematics"
        assert report["seed"] == 42
        assert report["passed"] is True
        assert report["counts"]["failed"] == 0
        for check in report["checks"]:
            assert set(check) == {"name", "passed", "residual", "tolerance", "note"}

    def test_all_suites_pass(self, tmp_path):
        cfg = Config(grid=(21, 21), samples=60, regions=12)
        report = run_suite("all", 3, cfg)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed == []

    def test_byte_identical_reports(self, tmp_path):
        config = tmp_path / "samples.cfg"
        config.write_text("samples=800\n")  # stacked sweeps of 200 to 800 samples
        for args in (["--suite", "lattice", "--grid", "21x21"],
                     *(["--suite", name, "--config", str(config)]
                       for name in ("isometry", "simultaneity", "kinematics", "core",
                                    "projective", "rigid"))):
            outs = []
            for name in ("a.json", "b.json"):
                out = tmp_path / name
                rc = main(args + ["--seed", "9", "--out", str(out)])
                assert rc == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("spec", ["5x5", "5x6", "6x5", "6x6", "5x7", "7x5", "9x5",
                                      "11x5", "5x5x5", "5x5x7", "7x5x5", "5x5x5x5"])
    def test_smallest_grids_pass_lattice(self, tmp_path, spec):
        out = tmp_path / "r.json"
        assert main(["--suite", "lattice", "--grid", spec, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["counts"]["failed"] == 0

    @pytest.mark.parametrize("spec, seed", [("41x11", "0"), ("5x15", "6")])
    def test_narrow_and_tall_grids_not_modular(self, tmp_path, spec, seed):
        out = tmp_path / "r.json"
        assert main(["--suite", "lattice", "--grid", spec, "--seed", seed,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["counts"]["failed"] == 0

    def test_lattice_3_plus_1(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["--suite", "lattice", "--grid", "7x7x7x7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["grid"] == "7x7x7x7"
        assert report["counts"] == {"failed": 0, "total": 10}

    def test_large_scale_limit_has_margin(self):
        for seed in range(3):
            report = run_suite("projective", seed, Config())
            check, = (c for c in report["checks"] if c["name"] == "fl.large_scale_limit")
            assert 0.0 < check["residual"] < check["tolerance"]
            assert check["passed"]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["--suite", "core", "--seed", "1", "--csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,passed,residual,tolerance,note"
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_entrypoint_subprocess(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_child(["-m", "minklab.cli", "--suite", "core", "--seed", "2",
                          "--out", str(out)])
        assert proc.returncode == 0
        assert "[pass]" in proc.stderr
        assert json.loads(out.read_text())["passed"] is True

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test-only reference; the program must not import it
        code = ("import sys\n"
                "from minklab.cli import main\n"
                f"rc = main(['--suite', 'rigid', '--out', {str(tmp_path / 'r.json')!r}])\n"
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = run_child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "0 []"


class TestVerdictRule:
    """A check passes iff its residual is below its tolerance."""

    @pytest.mark.parametrize("seed, grid", [(0, (41, 41)), (1, (41, 41)), (0, (5, 5, 7))])
    def test_passed_is_residual_below_tolerance(self, seed, grid):
        report = run_suite("all", seed, Config(grid=grid))
        for c in report["checks"]:
            assert math.isfinite(c["residual"]), c
            assert c["passed"] == (c["residual"] < c["tolerance"]), c
        assert report["passed"] == all(c["passed"] for c in report["checks"])

    def test_nan_residual_fails(self):
        assert not Check("nan", math.nan, 1.0).passed

    def test_killing_closedness_at_printed_tolerance(self, monkeypatch):
        # a closedness residual of 5e-5 passes killing_test's own 1e-4 bound,
        # but the report prints 1e-5 and must fail at it
        real = decomp._split_jet

        def closedness_5e_5(field, x, step):
            centres, (du, dtheta, domega, da) = real(field, x, step)
            da = np.zeros_like(da)
            da[..., 0, 1] = 5e-5  # d_0 a_1, so the curl is +-5e-5 off the diagonal
            return centres, (du, dtheta, domega, da)

        monkeypatch.setattr(decomp, "_split_jet", closedness_5e_5)
        report = run_suite("rigid", 0, Config())
        check, = (c for c in report["checks"]
                  if c["name"] == "worldline.constant_accel_killing")
        assert check["residual"] == 5e-5 and check["tolerance"] == 1e-5
        assert not check["passed"] and not report["passed"]

    def test_oracle_comparison_has_the_grid_axes(self, monkeypatch):
        real = engine._complement_mask

        def wrong_in_2_plus_1(region, code, **kwargs):
            out = real(region, code, **kwargs)
            if region.grid.dim == 3:
                out[0] = not out[0]
            return out

        monkeypatch.setattr(engine, "_complement_mask", wrong_in_2_plus_1)
        check, *_ = suite_lattice(0, Config(grid=(7, 7, 7), regions=2))
        assert check.name == "kernel.bit_identical"
        assert check.residual == 45.0 and not check.passed

    def test_fig2_construction_error_is_a_failed_check(self, tmp_path, monkeypatch):
        def broken(grid):
            raise RuntimeError("construction error: small diamond not inside the wedge")

        monkeypatch.setattr(minklab.lattice, "fig2_counterexample", broken)
        out = tmp_path / "r.json"
        assert main(["--suite", "lattice", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failed = [(c["name"], c["note"]) for c in report["checks"] if not c["passed"]]
        note = "construction error: small diamond not inside the wedge"
        assert failed == [("fig2.witness_nonempty", note), ("fig2.chron_analogue", note)]
        assert report["counts"] == {"failed": 2, "total": 10}

    @pytest.mark.parametrize("suite", ["lattice", "all"])
    @pytest.mark.parametrize("wrong", ["drop the last cell", "add cell 0"])
    def test_wrong_complement_fails_fig2_checks(self, tmp_path, monkeypatch, wrong, suite):
        # the construction's completeness check refuses the wrong complements
        real = engine._complement_mask

        def mutated(region, code, **kwargs):
            out = real(region, code, **kwargs)
            if wrong == "add cell 0":
                out[0] = True
            elif out.any():
                out[np.flatnonzero(out)[-1]] = False
            return out

        monkeypatch.setattr(engine, "_complement_mask", mutated)
        out = tmp_path / "r.json"
        assert main(["--suite", suite, "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("fig2.witness_nonempty", "fig2.chron_analogue"):
            assert not checks[name]["passed"]
            assert checks[name]["note"] == "orthomodularity check needs complete inputs"


def run_child(args):
    """Run this interpreter on `args`, importing the same minklab as this
    process, installed or not."""
    path = [str(Path(minklab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


class TestDemos:
    def test_rindler(self, tmp_path):
        rc = main(["demo", "rindler", "--out", str(tmp_path), "--x0", "1..2",
                   "--v-final", "0.5", "--samples", "20", "--orbits", "3"])
        assert rc == 0
        lines = (tmp_path / "rindler_orbits.csv").read_text().splitlines()
        assert lines[0] == "tau,ct,x,y,z"
        assert len(lines) == 1 + 3 * 20
        # orbit rows satisfy the hyperbola invariant
        tau, ct, x = np.loadtxt(lines[1:][:20], delimiter=",",
                                usecols=(0, 1, 2), unpack=True)
        assert np.allclose(x ** 2 - ct ** 2, x[0] ** 2 - ct[0] ** 2, atol=1e-9)

    def test_disk(self, tmp_path):
        rc = main(["demo", "disk", "--out", str(tmp_path), "--kappa", "1.0",
                   "--samples", "8"])
        assert rc == 0
        lines = (tmp_path / "disk_field.csv").read_text().splitlines()
        assert lines[0] == "tau,ct,x,y,z,theta_norm,omega_norm,accel_norm"
        assert len(lines) == 9

    def test_fig2(self, tmp_path):
        rc = main(["demo", "fig2", "--out", str(tmp_path), "--grid", "41x41"])
        assert rc == 0
        summary = json.loads((tmp_path / "fig2_summary.json").read_text())
        assert summary["witness_cells"] > 0
        assert summary["orthomodular"] is False
        from minklab.lattice import region_from_json
        witness = region_from_json((tmp_path / "fig2_witness.json").read_text())
        assert witness.count == summary["witness_cells"]
        assert (tmp_path / "fig2_a.pbm").read_text().startswith("P1")

    def test_fl_slab(self, tmp_path):
        rc = main(["demo", "fl-slab", "--out", str(tmp_path), "--R", "5",
                   "--samples", "60"])
        assert rc == 0
        doc = json.loads((tmp_path / "fl_slab.json").read_text())
        assert doc["R"] == 5
        assert all(row["slab"] in ("front", "beyond", "past") for row in doc["rows"])

    @staticmethod
    def fl_slab_reference(seed, R, samples):
        """The demo's file from the per-draw loop that the stacked slab
        table replaced."""
        from minklab.projective import (SingularHyperplaneError, deformation_phi,
                                        time_slab)
        rng = np.random.default_rng(seed)
        c = 1.0
        rows = []
        for _ in range(samples):
            t = float(rng.uniform(-3 * R / c, 3 * R / c))
            if abs(abs(t) - R / c) < 1e-6:
                continue
            slab = time_slab(t, R, c)
            try:
                tp, _ = deformation_phi(R, c, t, np.zeros(3))
            except SingularHyperplaneError:
                continue
            rows.append({"t": t, "slab": slab, "t_image": tp})
        return json.dumps({"R": R, "c": c, "rows": rows}, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    @pytest.mark.parametrize("R, samples", [(10.0, 200), (3e-6, 500), (0.37, 999)])
    def test_fl_slab_matches_per_draw_reference(self, tmp_path, seed, R, samples):
        rc = main(["demo", "fl-slab", "--out", str(tmp_path), "--seed", seed,
                   "--R", repr(R), "--samples", str(samples)])
        assert rc == 0
        text = (tmp_path / "fl_slab.json").read_text()
        assert text == self.fl_slab_reference(int(seed), R, samples)

    def test_image_lines(self, tmp_path):
        rc = main(["demo", "image-lines", "--out", str(tmp_path),
                   "--sigmas", "0,1,2"])
        assert rc == 0
        lines = (tmp_path / "image_line_directions.csv").read_text().splitlines()
        assert lines[0] == "sigma,dir_t,dir_x"
        assert len(lines) == 4
        sigma, dir_t, dir_x = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        assert sigma.tolist() == [0.0, 1.0, 2.0]
        norm = np.sqrt(1.0 + sigma ** 2)
        assert np.allclose(dir_t, 1.0 / norm, rtol=0.0, atol=1e-15)
        assert np.allclose(dir_x, sigma / norm, rtol=0.0, atol=1e-15)
