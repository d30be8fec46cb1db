"""The benchmark scripts run as documented, from a fresh checkout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


@pytest.mark.parametrize(
    "argv",
    [
        ["bench_edit_distance.py", "--rounds", "1"],
        ["bench_edit_distance.py", "--corpus", "--rounds", "1"],
    ],
)
def test_benchmark_script_runs_without_pythonpath(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["experiment", "oversplit", "synthesize"])
def test_perfbench_reproduces_reference_report_bodies(workload, tmp_path):
    # At seed 0 one pass checks each job's output against perfbench's
    # REFERENCE_DIGESTS, which pin the report bodies.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
