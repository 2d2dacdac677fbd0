"""Steadiness check: repeated sets of runs of every workload on the same code.

    python3 perfbench/steady.py --sets 2 --runs 5

Runs `run.py --trace 0` sets x runs times per workload, a new seed each
time, workloads interleaved so that a drift of the host hits all of them
alike.  Prints, per workload and end-to-end metric, the median and
quartiles over all runs, the quartile spread as a share of the median over
all runs ("all") and the largest one within a set ("set"; the spread over
all runs when a set has fewer than 4), and how far apart the set medians are, each next to the metric's bound in
BENCHMARK.json.  The share of failed operations must be the same in every
set.  A row is marked FAIL when the within-set spread (setup_s excepted) or
the change of median from the first set to any other exceeds the bound, and
"wide" when that spread exceeds a third of the bound.  `--load FILE` prints
the table again from results saved with `--out`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5, help="runs per workload per set")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    parser.add_argument("--load", help="report on results written earlier with --out, "
                                       "without running anything")
    args = parser.parse_args()
    if args.load:
        return report(spec, json.loads(Path(args.load).read_text()))
    names = args.workloads.split(",")
    if args.sets * args.runs < 4:
        parser.error("need at least 4 runs per workload for quartiles")

    results = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for r in range(args.runs):
            seed = args.seed_base + s * args.runs + r
            for w in names:
                start = time.monotonic()
                proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                       "--seed", str(seed), "--seconds", str(args.seconds),
                                       "--trace", "0"], stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{w} seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                res["seed"], res["wall_s"] = seed, time.monotonic() - start
                results[w][s].append(res)
                print(f"set {s} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                    + f" correct={res['correct']} failed={res['failed']}/{res['attempted']}"
                    f" ({res['wall_s']:.0f} s)", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return report(spec, results)


def report(spec, results) -> int:
    """Print the table; 0 when every metric is within its bound."""
    ok = True
    print(f"{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'all':>6s} {'set':>6s} {'set medians':>22s} {'shift':>7s} {'bound':>6s}")
    for w, sets in results.items():
        runs = [r for group in sets for r in group]
        shares = {Fraction(sum(r["failed"] for r in g), sum(r["attempted"] for r in g))
                  for g in sets}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{w}: FAIL failed shares {sorted(map(float, shares))}, "
                  f"correct {[r['correct'] for r in runs]}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            # the spread that counts is the one within a set, as the sets are compared
            groups = [[r["metrics"][name]["value"] for r in g] for g in sets]
            spread_all = (q3 - q1) / med
            spread = max((hi - lo) / mid for lo, mid, hi in map(quartiles, groups)) \
                if min(map(len, groups)) >= 4 else spread_all
            set_medians = [statistics.median(r["metrics"][name]["value"] for r in g)
                           for g in sets]
            sign = 1 if m["better"] == "lower" else -1
            shift = max(sign * (x - set_medians[0]) / set_medians[0] for x in set_medians[1:]) \
                if len(set_medians) > 1 else 0.0
            bad = shift > bound or (name != "setup_s" and spread > bound)
            ok &= not bad
            note = "  FAIL" if bad else ("  wide" if name != "setup_s" and spread > bound / 3 else "")
            print(f"{w:15s} {name:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread_all:6.1%} "
                  f"{spread:6.1%} {' '.join(f'{x:.4g}' for x in set_medians):>22s} "
                  f"{shift:7.1%} {bound:6.0%}" + note)
        print(f"{w:15s} failed share {float(next(iter(shares))):.4%} in every set"
              if len(shares) == 1 else f"{w:15s} failed share differs between sets")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
