"""Smoke test of the benchmark itself, at a tiny corpus size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import types

import pytest

import run
from speed import Speed
from tracing import Tracer
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIZE = 40


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, lines = run.run(workload, seed=0, seconds=0, trace=trace, size=SIZE)
    declared = SPEC["per_layer" if trace else "end_to_end"]

    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
            for line in lines
        ), m["name"]
    assert any(line.startswith("failed_ratio 0.0 ratio") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_mismatch_raises_failed_ratio(workload):
    result, lines = run.run(
        workload, seed=0, seconds=0, trace=False, size=SIZE, reference={workload: "0" * 64}
    )
    ratio = next(float(line.split()[1]) for line in lines if line.startswith("failed_ratio"))

    assert not result["correct"]
    assert result["failed"] == 1
    assert ratio == 1 / result["attempted"]


def test_wrapping_a_name_that_is_gone_marks_it_missing():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "gone", "layer.gone")

    assert tracer.missing == {"layer.gone"}
    assert tracer.spans == []


def test_speed_probe_child_is_ended_on_exit():
    with Speed() as speed:
        speed.tick()
        child = speed._child

    assert len(speed.probes) == 1 and speed.probes[0][1] > 0
    assert child.poll() == 0
