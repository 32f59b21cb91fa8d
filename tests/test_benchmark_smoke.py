"""A one-second run of every benchmark workload, so that a change that breaks
one of the benchmark's output checks fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def runs():
    """The workloads run side by side, one process each."""
    procs = {
        w: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for w in WORKLOADS
    }
    try:
        yield {w: (p, *p.communicate(timeout=120)) for w, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()
            p.wait()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(runs, workload):
    proc, out, err = runs[workload]
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"] is True, err


def test_traced_run_reports_every_layer():
    """`--trace 1` wraps program functions by name, so a renamed or removed
    hook shows up here rather than in a full benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rename_callers", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr
    layers = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert set(layers) <= set(report["metrics"])
    assert report["metrics"]["graph.rebuild.calls"]["value"] > 0
