"""One workload in one fresh, single-threaded interpreter.

Started by run.py with a clean environment.  Sets up (imports minklab,
builds the seeded inputs, runs one untimed warm-up pass), then repeats the
pass until the measuring time is spent, checking every output, and prints
one JSON object on its last line of standard output.

With --trace 1 the passes alternate between traced and untraced, so the
tracing overhead is measured on the same work in the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from reference import Mismatch

MIN_PASSES = 3
MIN_PASSES_TRACED = 2
# every pass re-checks 1 in FULL_CHECK_EVERY operations against the reference
FULL_CHECK_EVERY = 8


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def run_pass(self):
        """Time one pass; an operation that raises counts as failed."""
        outputs = []
        start = time.perf_counter()
        for op in self.ops:
            try:
                outputs.append(op.run())
            except Exception:
                self.failed += 1
                outputs.append(None)
                self.note(f"{op.name} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        self.attempted += len(self.ops)
        return elapsed, outputs

    def check(self, outputs, pass_index=None):
        """Check every output; the reference runs on all of them for the
        warm-up pass (pass_index None, not counted) and on a rotating sample
        after it.  A check may return (n, failed): the operation's output
        holds n verdicts, `failed` of which failed."""
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if out is None:
                continue
            full = pass_index is None or (i + pass_index) % FULL_CHECK_EVERY == 0
            try:
                tally = op.check(out, full)
                if tally is not None and pass_index is not None:
                    self.attempted += tally[0] - 1
                    self.failed += tally[1]
            except Mismatch as exc:
                self.correct = False
                self.note(f"{op.name}: {exc}")
            except Exception:
                self.correct = False
                self.note(f"{op.name} output could not be checked:\n{traceback.format_exc()}")

    def note(self, text):
        if len(self.errors) < 5:
            self.errors.append(text)
            print(text, file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (JSON lines)")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)

    tracer = None
    if traced:
        import minklab  # noqa: F401  (load every layer before resolving targets)
        import minklab.cli  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.prepare(suites=args.workload == "verify-all")
        tracer.install()
    work = workloads.build(args.workload, args.seed, workdir, trace=traced)
    runner = Runner(work.ops)
    warm_outputs = None
    if hasattr(work, "warm_up"):
        work.warm_up()
    else:
        _, warm_outputs = runner.run_pass()
        runner.attempted = runner.failed = 0  # the warm-up is not a counted pass
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_stats = tracer.reset() if tracer else None
    if warm_outputs is not None:
        runner.check(warm_outputs)

    times = {True: [], False: []}
    min_passes = MIN_PASSES_TRACED if traced else MIN_PASSES
    start = time.monotonic()
    index = 0
    while index < min_passes or time.monotonic() - start < args.seconds:
        on = traced and index % 2 == 0
        if tracer:
            tracer.pass_id = index if on else -1
            (tracer.install if on else tracer.remove)()
        elapsed, outputs = runner.run_pass()
        if tracer:
            tracer.remove()
        times[on].append(elapsed)
        runner.check(outputs, index)
        index += 1

    result = {
        "setup_s": setup_s,
        "pass_times": times[traced],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": runner.correct,
        "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    child_rss = getattr(work, "child_rss_mb", None)
    if child_rss:
        result["peak_rss_mb"] = statistics.median(child_rss)
    if tracer:
        result["untraced_pass_times"] = times[False]
        result["stats"] = tracer.stats
        result["setup_stats"] = setup_stats
        result["traced_passes"] = len(times[True])
        result["counts"] = dict(getattr(work, "herglotz_counts", {}))
        if isinstance(work, workloads.VerifyAllInProcess):
            result["counts"]["suites.checks"] = work.checks
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
