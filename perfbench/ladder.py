"""Reference figures: median time of every op, and each ladder's exponent.

    python3 perfbench/ladder.py

Run it from the root of a checkout.  For each workload it sets up with seed
SEED, runs every op ROUNDS times in whole rounds, as run.py does, and prints
the median milliseconds per op kind and size.  For op kinds whose size
doubles along a ladder it also prints the fitted scaling exponent k of
time ~ size^k (least squares on log time against log size).  The table is
also written to perfbench/out/ladder.json.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import run
import workloads

SEED = 1
ROUNDS = 5


def exponent(points: list[tuple[int, float]]) -> float:
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(ms) for _, ms in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    table = {}
    for w in workloads.WORKLOADS:
        ops = run.set_up(src, w, SEED)
        times = defaultdict(list)
        for _ in range(ROUNDS):
            for op in ops:
                times[(op.kind, op.size)].append(run.run_op(op)[0] * 1000.0)
        kinds = defaultdict(list)
        for (kind, size), ms in times.items():
            kinds[kind].append((size, statistics.median(ms)))
        print(f"\n{w}")
        table[w] = {}
        for kind, points in kinds.items():
            ladder = len(points) > 1 and min(s for s, _ in points) > 0
            k = exponent(points) if ladder else None
            shown = "  ".join(f"{s}:{ms:.1f}" for s, ms in points)
            print(f"  {kind:<28} {shown}" + (f"   exponent {k:.2f}" if ladder else ""))
            table[w][kind] = {"median_ms": dict(points), "exponent": k}
    out = run.OUT_DIR / "ladder.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seed": SEED, "rounds": ROUNDS,
                               "workloads": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
