"""Run one benchmark workload against the miniref sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports miniref from `src/`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones (`setup_s`, `op_ms_p50`, `op_ms_p90`, `ops_per_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer ones from
`tracing.py`, and the spans go to `perfbench/out/`.  Operations that fail
are described on standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
OUT_DIR = Path(__file__).resolve().parent / "out"


class Outcome:
    """Attempted and failed operations; prints each distinct failure once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures outside the known faults
        self.reported: set[tuple[str, str]] = set()

    def record(self, op: workloads.Op, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        known = reason == op.known_fault
        self.unexpected += not known
        if (op.label, reason) not in self.reported:
            self.reported.add((op.label, reason))
            tag = "known fault" if known else "FAILED"
            print(f"{tag}: {op.label}: {reason}", file=sys.stderr)


def run_op(op: workloads.Op) -> tuple[float, str | None]:
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as e:  # a crash of the program is a failed op, not a crash here
        return time.perf_counter() - start, f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(result)
    except Exception as e:
        return elapsed, f"check raised {type(e).__name__}: {e}"


def set_up(src: Path, workload: str, seed: int, tracer=None):
    """Import miniref, load the catalog, make the inputs and run one op of
    each kind once.  The warm-up's failures are not counted."""
    program = workloads.load_program(src)
    if tracer is not None:
        tracer.install()
    ops = workloads.WORKLOADS[workload](program, seed)
    for op in workloads.warmup_ops(ops):
        run_op(op)
    return ops


def measure(ops, seconds: float, outcome: Outcome, refresh=None) -> list[float]:
    """Whole rounds over every op until `seconds` have passed, so that a slow
    phase of the host hits every op alike.  `refresh(elapsed)`, called before
    each round, may return a new op list."""
    times = []
    start = time.perf_counter()
    while True:
        if refresh is not None:
            ops = refresh(time.perf_counter() - start) or ops
        for op in ops:
            elapsed, reason = run_op(op)
            times.append(elapsed)
            outcome.record(op, reason)
        if time.perf_counter() - start >= seconds:
            return times


def end_to_end(src: Path, args) -> tuple[Outcome, dict]:
    setups = []

    def timed_set_up():
        gc.collect()
        start = time.perf_counter()
        ops = set_up(src, args.workload, args.seed)
        setups.append(time.perf_counter() - start)
        return ops

    def refresh(elapsed: float):
        # Set-ups are spread over the run: the host has slow phases lasting
        # seconds, and set-ups taken back to back would all fall in one.
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            return timed_set_up()
        return None

    outcome = Outcome()
    times = measure(timed_set_up(), args.seconds, outcome, refresh)
    deciles = statistics.quantiles(times, n=10)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (statistics.median(times) * 1000.0, "ms"),
        "op_ms_p90": (deciles[8] * 1000.0, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return outcome, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(src: Path, args) -> tuple[Outcome, dict]:
    """Set up traced, then run half the time untraced and half traced; the
    ratio of their ops_per_s is the tracing overhead."""
    tracer = tracing.Tracer()
    ops = set_up(src, args.workload, args.seed, tracer)
    tracer.uninstall()
    outcome = Outcome()
    plain = measure(ops, args.seconds / 2, outcome)
    tracer.install()
    traced = measure(ops, args.seconds / 2, outcome)
    tracer.uninstall()
    overhead = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    return outcome, tracer.metrics(overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "miniref" / "__init__.py").is_file():
        print(f"error: no miniref sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    outcome, metrics = (per_layer if args.trace else end_to_end)(src, args)
    print(json.dumps({
        "correct": outcome.unexpected == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
