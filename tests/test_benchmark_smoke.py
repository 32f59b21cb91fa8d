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
