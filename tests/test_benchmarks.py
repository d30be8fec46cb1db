"""The scripts under ``benchmarks/`` run as documented, from a fresh checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "argv",
    [
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
