"""Command line front end: verification suites and data-producing demos.

Suite runs write a canonical JSON (or CSV) report and exit 0 exactly when
every check passed: a check passes iff its residual is below its
tolerance, and a yes/no check reports its count of failed conditions
against 1.0.  Unknown suite names, bad grid specs (an axis under 5 cells,
int64 overflow), unknown or repeated config keys, a grid set both in the
config and by --grid, and non-positive sample counts or steps are usage
errors (exit 2).  So is an option given to a command that does not read
it (see COMMANDS), on either side of `demo NAME`.
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"config key {key!r} is set twice in {path}")
        out[key] = value
    return out


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row, a string cell as
    it is and any other cell (an int, a float) as its repr."""
    lines = [header, *(",".join(c if isinstance(c, str) else repr(c) for c in row)
                       for row in rows)]
    return "\n".join(lines) + "\n"


def _cmd_suite(args) -> int:
    try:
        mapping = _read_config(args.config)
        if args.grid is not None:
            if "grid" in mapping:
                raise ValueError(f"config key 'grid' is set both in {args.config} and by --grid")
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
    text = (_csv("name,passed,residual,tolerance,note",
                 ((c["name"], int(c["passed"]), c["residual"], c["tolerance"],
                   c["note"].replace(",", ";")) for c in report["checks"]))
            if args.format == "csv" else json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: residual {c['residual']:.3e} "
              f"(tol {c['tolerance']:.1e})", file=sys.stderr)
    return 0 if report["passed"] else 1


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive(name: str, value) -> None:
    """Refuse a demo input that is not positive and finite (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _demo_rindler(args) -> list[tuple[str, str]]:
    _positive("orbits", args.orbits)
    _positive("samples", args.samples)
    lo, _, hi = args.x0.partition("..")
    lo, hi = float(lo), float(hi or lo)
    _positive("x0", lo)
    _positive("x0", hi)
    kinematics.rapidity(args.v_final)  # PreconditionError unless |v| < c
    rows = []
    for x0 in np.linspace(lo, hi, args.orbits):
        # np.arctanh, not rapidity's math.atanh: they differ in the last bit at 0.5
        tau_final = x0 * np.arctanh(args.v_final)
        for tau in np.linspace(0.0, tau_final, args.samples).tolist():
            ct, x = rigid.boost_killing_flow(float(x0), tau).tolist()
            rows.append((tau, ct, x, 0.0, 0.0))
    return [("rindler_orbits.csv", _csv("tau,ct,x,y,z", rows))]


def _demo_disk(args) -> list[tuple[str, str]]:
    _positive("kappa", args.kappa)
    _positive("samples", args.samples)
    field = rigid.rotation_killing_field(args.kappa)
    rows = []
    for rho in np.linspace(0.1, 0.9, args.samples) * (1.0 / args.kappa):
        event = np.array([0.0, float(rho), 0.0, 0.0])
        dec = rigid.kinematic_decomposition(field, event, 1e-3)
        rows.append((0.0, *event.tolist(), float(dec.theta_norm),
                     float(dec.omega_norm), float(dec.accel_norm_g)))
    return [("disk_field.csv", _csv("tau,ct,x,y,z,theta_norm,omega_norm,accel_norm", rows))]


def _demo_fig2(args) -> list[tuple[str, str]]:
    grid = lat.IntegerGrid.centered(*parse_grid("41x41" if args.grid is None else args.grid))
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
    rows = ((s, float(d[0]), float(d[1])) for s, d in demo["directions"].items())
    return [("image_line_directions.csv", _csv("sigma,dir_t,dir_x", rows))]


def _cmd_demo(args, runner) -> int:
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


# each command's runner and the options it reads, by dest; every command
# reads --out too, and refuses any other option
COMMANDS = {
    "suite": (_cmd_suite, ("suite", "seed", "config", "grid", "format")),
    "rindler": (_demo_rindler, ("x0", "v_final", "samples", "orbits")),
    "disk": (_demo_disk, ("kappa", "samples")),
    "fig2": (_demo_fig2, ("grid",)),
    "fl-slab": (_demo_fl_slab, ("R", "samples", "seed")),
    "image-lines": (_demo_image_lines, ("sigmas",)),
}
DEMOS = tuple(COMMANDS)[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minklab",
        description="Verification suites and demos for flat-spacetime geometry.",
        epilog="Each option belongs to the commands that read it (--out to all); "
               "any other command refuses it.")
    parser.add_argument("command", nargs="?", choices=["demo"], help="write demo data files")
    parser.add_argument("name", nargs="?", choices=DEMOS, help="the demo to run")
    parser.add_argument("--suite", help=f"run a suite: {', '.join([*SUITES, 'all'])}")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="report file (default: stdout) or demo directory")
    parser.add_argument("--grid", help="lattice grid size, time axis first: "
                        "41x41, 13x13x13 or 9x9x9x9")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    parser.set_defaults(format="json")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--x0", default="1..2", help="orbit label range lo..hi")
    parser.add_argument("--v-final", type=float, default=0.5)
    parser.add_argument("--orbits", type=int, default=5)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--R", type=float, default=10.0)
    parser.add_argument("--sigmas", default="0,1,2")
    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> tuple[argparse.Namespace, set[str]]:
    """The arguments, defaults filled in, and the dests of the options
    that argv gives, whether before or after `demo NAME`."""
    options = {"out", *(dest for _, reads in COMMANDS.values() for dest in reads)}
    unset = object()
    args = parser.parse_intermixed_args(
        argv, argparse.Namespace(**dict.fromkeys(options, unset)))
    given = {dest for dest in options if getattr(args, dest) is not unset}
    for dest in options - given:
        setattr(args, dest, parser.get_default(dest))
    return args, given


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args, given = _parse(parser, argv)
    if args.command == "demo" and args.name is None:
        return _usage_error(parser, f"demo needs a NAME: {', '.join(DEMOS)}")
    if args.command is None and args.suite is None:
        return _usage_error(parser, "either --suite NAME or a demo subcommand is required")
    if args.out == "":
        return _usage_error(parser, "--out needs a path")
    runner, reads = COMMANDS[args.name or "suite"]
    unread = sorted(f"--{args.format}" if dest == "format" else f"--{dest.replace('_', '-')}"
                    for dest in given - {"out", *reads})
    if unread:
        where = f"demo {args.name}" if args.name else "a suite run"
        return _usage_error(parser, f"{where} does not read {', '.join(unread)}")
    return _cmd_demo(args, runner) if args.name else runner(args)


if __name__ == "__main__":
    sys.exit(main())
