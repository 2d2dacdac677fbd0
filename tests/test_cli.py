import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minklab
from minklab.cli import main
from minklab.suites import Config, parse_grid, run_suite


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
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["--suite", "lattice", "--seed", "9", "--grid", "21x21",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
        import numpy as np
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

    def test_image_lines(self, tmp_path):
        rc = main(["demo", "image-lines", "--out", str(tmp_path),
                   "--sigmas", "0,1,2"])
        assert rc == 0
        lines = (tmp_path / "image_line_directions.csv").read_text().splitlines()
        assert lines[0] == "sigma,dir_t,dir_x"
        assert len(lines) == 4
