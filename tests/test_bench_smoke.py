"""Smoke test of the benchmark harness: each workload runs one traced
operation, and the harness checks itself.

The tracer wraps the package's layer functions by name, so a rename in
``src/`` that it does not follow fails here rather than only in a
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The dual loop and the seven block solvers, all of which a shipped solve
# calls; a wrapper that the solver no longer reaches reads 0 calls.
TRACED_BLOCKS = ("dual_subgradient", "solve_task_allocation",
                 "select_segments", "solve_ratio_lp", "solve_cpu_allocation",
                 "solve_power_bandwidth", "solve_altitude_beamwidth",
                 "solve_location")


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["shipped_cli", "scale_oracle"])
def test_traced_workload_runs_correct(workload):
    proc = _run("bench/run.py", "--workload", workload, "--seconds", "0",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if workload == "shipped_cli":
        for name in TRACED_BLOCKS:
            key = f"subsolvers.{name}.calls"
            assert result["metrics"][key]["value"] > 0, key


def test_benchmark_selftest_passes():
    proc = _run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
