"""Steadiness check: run each workload in two sets of fresh processes.

    python3 perfbench/steady.py

Run it from the root of a checkout.  Every workload of BENCHMARK.json is
run for its `run_seconds`, RUNS times in each of two sets: set A uses seeds
1..RUNS and set B seeds 101..100+RUNS; the runs of the two sets alternate,
one process each.  For every end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over median), and how far B's
median moved from A's, and checks both against the metric's bound in
BENCHMARK.json.  The full table is written to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10  # per workload and set
SET_SEEDS = {"A": 1, "B": 101}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {w["name"]: {s: [] for s in SET_SEEDS} for w in bench["workloads"]}
    for i in range(RUNS):
        for w in results:
            for s, base in SET_SEEDS.items():
                r = run_once(w, base + i, seconds)
                results[w][s].append(r)
                print(f"{w} set {s} seed {base + i}: attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']}", file=sys.stderr)

    report, ok = {}, True
    for w, sets in results.items():
        print(f"\n{w}")
        print(f"  {'metric':<12} {'set':<3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'shift':>7} {'bound':>6}")
        shares = {s: {r["failed"] / r["attempted"] for r in runs} for s, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        report[w] = {"failed_share": {s: sorted(v) for s, v in shares.items()},
                     "correct": correct, "metrics": {}}
        for metric in sets["A"][0]["metrics"]:
            rows = {s: summary([r["metrics"][metric]["value"] for r in runs])
                    for s, runs in sets.items()}
            unit = sets["A"][0]["metrics"][metric]["unit"]
            bound = bounds[metric]["bound"]
            shift = rows["B"]["median"] / rows["A"]["median"] - 1
            worse = shift if bounds[metric]["better"] == "lower" else -shift
            report[w]["metrics"][metric] = dict(rows, unit=unit, shift=shift, bound=bound)
            for s, row in rows.items():
                flag = ""
                if s == "B" and worse > bound:
                    flag, ok = " B WORSE THAN BOUND", False
                elif row["spread"] > bound:
                    flag, ok = " SPREAD OVER BOUND", False
                elif row["spread"] > bound / 3:
                    flag = " spread over bound/3"
                print(f"  {metric:<12} {s:<3} {row['median']:>10.4g} {row['q1']:>10.4g} "
                      f"{row['q3']:>10.4g} {row['spread']:>7.1%} "
                      f"{shift if s == 'B' else 0:>7.1%} {bound:>6}{flag}  {unit}")
        if len(shares["A"] | shares["B"]) != 1:
            print(f"  failed share differs: {shares}")
            ok = False
        if not correct:
            print("  some run reported correct=false")
            ok = False
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": RUNS, "seconds": seconds,
                               "workloads": report}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; table in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
