"""minklab benchmark: one workload per run, each in its own fresh worker.

    python3 perfbench/run.py --workload lattice-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; minklab is used from ./src, nothing
is installed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (setup_s, pass_s, peak_rss_mb); with --trace 1 they
are the per-layer ones of BENCHMARK.json, measured in a separate traced run
(see README.md).  Every run also writes its full record, with the machine
fingerprint and every pass time, under .perfbench/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-all", "lattice-dense", "lattice-sparse", "geometry")
# setup_s is the median of this many fresh set-ups per run
SETUP_REPEATS = 3
# a run must end within 180 s; workers get what is left of this
RUN_BUDGET_S = 170
IMPORT_PROBES = 3
# pinned single-threaded numeric libraries for every worker
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def fingerprint() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cython": importlib.util.find_spec("Cython") is not None,
        "machine": platform.machine(),
    }


def clean_env(root: Path) -> dict:
    """A minimal environment: no MINKLAB_* switches, BLAS on one thread,
    minklab from ./src, temporary files inside the checkout."""
    tmp = root / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG") if k in os.environ}
    env.update({pin: "1" for pin in THREAD_PINS})
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    return env


def time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_BUDGET_S} s")
    return left


def run_worker(env, deadline, workdir: Path, workload, seed, seconds, trace, setup_only=False,
               spans=None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    if spans:
        argv += ["--spans", str(spans)]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=time_left(deadline))
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build(root: Path, env: dict, deadline: float) -> None:
    """Byte-compile the sources once, so no timed interpreter compiles them."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=time_left(deadline))


def end_to_end(env, deadline, workdir, workload, seed, seconds):
    setups = [run_worker(env, deadline, workdir, workload, seed, seconds, 0,
                         setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = run_worker(env, deadline, workdir, workload, seed, seconds, 0)
    setups.append(res["setup_s"])
    res["setup_runs"] = setups
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        # the upper quartile of the pass times: the host's speed drifts, see README.md
        "pass_s": {"value": statistics.quantiles(res["pass_times"], n=4, method="inclusive")[2],
                   "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res, metrics


# ------------------------------------------------------------------ traced

def import_times(env, deadline) -> dict:
    """Median over fresh interpreters of `-X importtime` for minklab.cli:
    the whole import, and the part spent importing scipy."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import minklab.cli"],
                              env=env, stderr=subprocess.PIPE, text=True, check=True,
                              timeout=time_left(deadline))
        runs.append(_parse_importtime(proc.stderr))
    return {"cli.import_s": statistics.median(r[0] for r in runs),
            "cli.import_scipy_s": statistics.median(r[1] for r in runs)}


def _parse_importtime(text: str) -> tuple[float, float]:
    """(seconds importing minklab, seconds in the outermost scipy imports).

    -X importtime prints each module after its children, indented two
    spaces per level; read in reverse, every parent comes before its
    children."""
    entries = []
    for line in text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped) - 1) // 2, stripped, int(fields[1])))
    total = scipy = 0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if depth == 0 and (name == "minklab" or name.startswith("minklab.")):
            total += cumulative
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return total / 1e6, scipy / 1e6


def traced(root, env, deadline, workdir, seed, seconds, run_id):
    """Every workload traced in turn, seconds/4 each, so every per-layer
    metric is measured on the workload that exercises it."""
    results = {}
    share = max(1.0, seconds / len(WORKLOADS))
    for w in WORKLOADS:
        spans = root / ".perfbench" / "traces" / f"{run_id}-{w}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        results[w] = run_worker(env, deadline, workdir / w, w, seed, share, 1, spans=spans)
    metrics = layer_metrics(results)
    metrics.update({k: {"value": v, "unit": "s"} for k, v in import_times(env, deadline).items()})
    return results, metrics


def _stat(results, sources, key, field=1):
    """Sum of one aggregate (0 calls, 1 seconds, 3 weight) over source workloads."""
    return sum(results[w]["stats"].get(key, [0, 0.0, 0.0, 0])[field] for w in sources)


def _per_call(results, sources, key, scale, per_weight=False):
    calls = _stat(results, sources, key, 3 if per_weight else 0)
    return _stat(results, sources, key) * scale / calls if calls else 0.0


def layer_metrics(r) -> dict:
    dense, sparse, geo, cli = ["lattice-dense"], ["lattice-sparse"], ["geometry"], ["verify-all"]
    lattice = dense + sparse
    m = {}

    def put(name, unit, value):
        m[name] = {"value": value, "unit": unit}

    for w in ("verify-all", "lattice-dense", "lattice-sparse"):
        put(f"engine.complement.calls.{w}", "count",
            _stat(r, [w], "engine.complement", 0) / r[w]["traced_passes"])
    for dim in ("2d", "3d"):
        for kind in ("dense", "sparse"):
            put(f"engine.complement.us_per_call.{dim}.{kind}", "us",
                _per_call(r, lattice, f"engine.complement#{dim}.{kind}", 1e6))
    secs = _stat(r, lattice, "engine.complement")
    put("engine.complement.pair_tests_per_s", "1/s",
        _stat(r, lattice, "engine.complement", 3) / secs if secs else 0.0)
    put("engine.completion.us_per_call", "us", _per_call(r, dense, "engine.completion", 1e6))
    put("engine.join.us_per_call", "us", _per_call(r, dense, "engine.join", 1e6))
    put("engine.de_morgan_check.ms_per_pair", "ms",
        _per_call(r, dense, "engine.de_morgan_check", 1e3, per_weight=True))
    put("grid.relation_matrix.s", "s",
        r["lattice-dense"]["setup_stats"].get("grid.relation_matrix", [0, 0.0])[1])
    put("grid.region_init.us_per_call", "us", _per_call(r, sparse, "grid.region_init", 1e6))
    put("grid.size.calls", "count",
        _stat(r, sparse, "grid.size", 0) / r["lattice-sparse"]["traced_passes"])
    for fn in ("fig2_counterexample", "covering_counterexample", "modularity_counterexample",
               "distributivity_counterexample", "lattice_property_suite"):
        put(f"laws.{fn}.s", "s", _per_call(r, sparse, f"laws.{fn}", 1.0))
    for fn in ("region_to_json", "region_from_json", "region_to_pbm"):
        put(f"io.{fn}.us_per_call", "us", _per_call(r, sparse, f"io.{fn}", 1e6))
    for n in ("2", "3", "4"):
        put(f"isometry.cartan_dieudonne.us_per_matrix.{n}", "us",
            _per_call(r, geo, f"isometry.cartan_dieudonne#{n}", 1e6))
    for fn in ("isometry.conformal_factor", "kinematics.compose_velocities", "kinematics.boost_3d",
               "projective.fl_boost_apply", "projective.conjugation_check",
               "simultaneity.mutual_simultaneity", "simultaneity.radar_simultaneous_event",
               "core.classify", "core.inner"):
        put(f"{fn}.us_per_call", "us", _per_call(r, geo, fn, 1e6))
    for kind in ("boost", "rotation", "herglotz"):
        put(f"rigid.kinematic_decomposition.us_per_probe.{kind}", "us",
            _per_call(r, geo, f"rigid.kinematic_decomposition#{kind}", 1e6))
    counts = r["geometry"]["counts"]
    for what in ("field_evals", "domain_checks"):
        put(f"rigid.kinematic_decomposition.{what}.herglotz", "count",
            counts[what] / counts["decompositions"] if counts.get("decompositions") else 0.0)
    for fn in ("projected_curvature_check", "rotation_killing_checks"):
        put(f"rigid.{fn}.ms_per_probe", "ms",
            _per_call(r, geo, f"rigid.{fn}", 1e3, per_weight=True))
    for name in ("core", "isometry", "kinematics", "projective", "simultaneity", "lattice", "rigid"):
        put(f"suites.{name}.s", "s", _per_call(r, cli, f"suites.{name}", 1.0))
    put("suites.checks", "count", r["verify-all"]["counts"].get("suites.checks", 0))
    for w in WORKLOADS:
        on = statistics.median(r[w]["pass_times"])
        off = statistics.median(r[w]["untraced_pass_times"])
        put(f"trace.overhead_pct.{w}", "%", 100.0 * (on / off - 1.0))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "minklab" / "__init__.py").is_file():
        print("error: run from the root of a minklab checkout (no src/minklab here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = clean_env(root)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}-{os.getpid()}"
    workdir = root / ".perfbench" / "work" / run_id
    try:
        build(root, env, deadline)
        if args.trace:
            results, metrics = traced(root, env, deadline, workdir, args.seed, args.seconds, run_id)
            parts = list(results.values())
        else:
            res, metrics = end_to_end(env, deadline, workdir, args.workload, args.seed,
                                      args.seconds)
            results, parts = res, [res]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }
    record = {"run_id": run_id, "args": vars(args), "fingerprint": fingerprint(),
              "summary": summary, "workers": results}
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
