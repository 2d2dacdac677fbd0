"""Command line front end: verification suites and data-producing demos.

Suite runs write a canonical JSON (or CSV) report and exit 0 exactly when
every check passed: a check passes iff its residual is below its
tolerance, and a yes/no check reports its count of failed conditions
against 1.0.  Unknown suite names, bad grid specs (an axis under 5 cells,
int64 overflow), unknown config keys and non-positive sample counts or
steps are usage errors (exit 2).
Reports are byte-identical across repeated runs; the lattice suite's
complements come from per-slice light-cone distances and are checked
against the brute-force oracle in the report itself.  Demos write
CSV/JSON/PBM files for external plotting; bad demo input (a fig2 grid that
is not 1+1 with 41+ cells per axis, a count, kappa, R or x0 that is not
positive and finite, a non-finite sigma) is a usage error too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import lattice as lat
from . import kinematics, projective, rigid
from .suites import Config, SUITES, parse_grid, run_suite

__all__ = ["main"]

DEMOS = ("rindler", "disk", "fig2", "fl-slab", "image-lines")


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r} (expected key=value)")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _report_csv(report: dict) -> str:
    lines = ["name,passed,residual,tolerance,note"]
    for c in report["checks"]:
        note = c["note"].replace(",", ";")
        lines.append(f"{c['name']},{int(c['passed'])},{c['residual']!r},"
                     f"{c['tolerance']!r},{note}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_suite(args) -> int:
    try:
        mapping = _read_config(args.config)
        if args.grid:
            mapping["grid"] = args.grid
        config = Config.from_mapping(mapping)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_suite(args.suite, args.seed, config)
    except KeyError:
        print(f"error: unknown suite {args.suite!r} "
              f"(choose from {', '.join([*SUITES, 'all'])})", file=sys.stderr)
        return 2
    text = (_report_csv(report) if args.format == "csv"
            else json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit(text, args.out)
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: residual {c['residual']:.3e} "
              f"(tol {c['tolerance']:.1e})", file=sys.stderr)
    return 0 if report["passed"] else 1


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds are non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _positive(name: str, value) -> None:
    """Refuse a demo input that is not positive and finite (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition("..")
    return float(lo), float(hi) if hi else float(lo)


def _demo_rindler(args) -> list[tuple[str, str]]:
    _positive("orbits", args.orbits)
    _positive("samples", args.samples)
    lo, hi = _parse_range(args.x0)
    _positive("x0", lo)
    _positive("x0", hi)
    vf = args.v_final
    kinematics.rapidity(vf)  # PreconditionError unless |v| < c
    labels = np.linspace(lo, hi, args.orbits)
    rows = []
    for x0 in labels:
        # np.arctanh, not rapidity's math.atanh: they differ in the last bit at 0.5
        tau_final = x0 * np.arctanh(vf)
        for tau in np.linspace(0.0, tau_final, args.samples):
            rows.append((tau, rigid.boost_killing_flow(float(x0), float(tau))))
    return [("rindler_orbits.csv", rigid.trajectory_csv(rows))]


def _demo_disk(args) -> list[tuple[str, str]]:
    _positive("kappa", args.kappa)
    _positive("samples", args.samples)
    field = rigid.rotation_killing_field(args.kappa)
    rows = []
    radii = np.linspace(0.1, 0.9, args.samples) * (1.0 / args.kappa)
    for rho in radii:
        event = np.array([0.0, float(rho), 0.0, 0.0])
        dec = rigid.kinematic_decomposition(field, event, 1e-3)
        rows.append((0.0, event, dec.theta_norm, dec.omega_norm, dec.accel_norm_g))
    return [("disk_field.csv", rigid.field_csv(rows))]


def _demo_fig2(args) -> list[tuple[str, str]]:
    grid = lat.IntegerGrid.centered(*parse_grid(args.grid or "41x41"))
    fig = lat.fig2_counterexample(grid)
    files = []
    for key in ("a", "b", "bprime", "join_a_bprime", "witness"):
        files.append((f"fig2_{key}.json", lat.region_to_json(fig[key]) + "\n"))
        files.append((f"fig2_{key}.pbm", lat.region_to_pbm(fig[key])))
    files.append(("fig2_summary.json", json.dumps({
        "witness_cells": fig["witness"].count,
        "orthomodular": fig["holds"],
        "chron_analogue_holds": fig["chron_analogue_holds"],
        "chron_edge_aligned_holds": fig["chron_edge_aligned_holds"],
    }, indent=2, sort_keys=True) + "\n"))
    return files


def _demo_fl_slab(args) -> list[tuple[str, str]]:
    _positive("R", args.R)
    _positive("samples", args.samples)
    rng = np.random.default_rng(args.seed)
    R, c = args.R, 1.0
    t = rng.uniform(-3 * R / c, 3 * R / c, args.samples)
    kept, tp = projective._slab_table(t, R, c, 1e-6)
    rows = [{"t": ti, "slab": projective.time_slab(ti, R, c), "t_image": tpi}
            for ti, tpi in zip(kept.tolist(), tp.tolist())]
    if not rows:  # an R below about 1e-6 puts every sample in the horizon band
        raise ValueError(f"every sample of t was skipped at the horizon or a "
                         f"singular hyperplane, R={R!r}")
    return [("fl_slab.json", json.dumps({"R": R, "c": c, "rows": rows},
                                        indent=2, sort_keys=True) + "\n")]


def _demo_image_lines(args) -> list[tuple[str, str]]:
    sigmas = [float(s) for s in args.sigmas.split(",")]
    demo = projective.parallelism_breaking_demo(sigmas)
    lines = ["sigma,dir_t,dir_x"]
    for s, d in demo["directions"].items():
        lines.append(f"{s!r},{float(d[0])!r},{float(d[1])!r}")
    return [("image_line_directions.csv", "\n".join(lines) + "\n")]


def _cmd_demo(args) -> int:
    runner = {
        "rindler": _demo_rindler,
        "disk": _demo_disk,
        "fig2": _demo_fig2,
        "fl-slab": _demo_fl_slab,
        "image-lines": _demo_image_lines,
    }[args.name]
    try:
        files = runner(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        path = outdir / name
        path.write_text(text)
        print(path, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minklab",
        description="Verification suites and demos for flat-spacetime geometry.")
    parser.add_argument("--suite", help=f"run a suite: {', '.join([*SUITES, 'all'])}")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output path (suite report or demo dir)")
    parser.add_argument("--grid", help="lattice grid size, time axis first: "
                        "41x41, 13x13x13 or 9x9x9x9")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    parser.set_defaults(format="json")

    sub = parser.add_subparsers(dest="command")
    demo = sub.add_parser("demo", help="write demo data files")
    demo.add_argument("name", choices=DEMOS)
    demo.add_argument("--out", help="output directory (default: cwd)")
    demo.add_argument("--grid", help="grid for the lattice demo, e.g. 61x61")
    demo.add_argument("--seed", type=_seed, default=0)
    demo.add_argument("--samples", type=int, default=200)
    demo.add_argument("--x0", default="1..2", help="orbit label range lo..hi")
    demo.add_argument("--v-final", dest="v_final", type=float, default=0.5)
    demo.add_argument("--orbits", type=int, default=5)
    demo.add_argument("--kappa", type=float, default=1.0)
    demo.add_argument("--R", type=float, default=10.0)
    demo.add_argument("--sigmas", default="0,1,2")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _cmd_demo(args)
    if not args.suite:
        parser.print_usage(sys.stderr)
        print("error: either --suite NAME or a demo subcommand is required",
              file=sys.stderr)
        return 2
    return _cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
