"""Set-up and jobs of the three benchmark workloads.

Every workload starts from the nine-source synthetic corpus of
``tests/helpers.py`` (imported, not copied), written to CSV, with outlier
and variable pools built from it and saved. A job is one unit of timed
work; a pass runs every job of the workload once, in a fixed order, and its
outputs are digested so that passes can be compared byte for byte.

* ``experiment``: ``run_experiment`` on one dataset with the tree and
  token-frequency parsers, mix strength 1.0 plus labeled fuzzing, scored
  against ground truth. Few distinct (predicted, truth) pairs per cell.
* ``oversplit``: ``run_experiment`` on one dataset with parser-derived
  surrogate labels (tree surrogate, parsed fuzzing) and one external parser
  whose output file echoes every line's content, like a parser that never
  emits a wildcard. Almost every (predicted, truth) pair is distinct.
* ``synthesize``: load, mix, fuzz, proxy statistics and H, and write the
  result, per (dataset, seed); no parser or metric runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from logblend.corpus import load_structured, write_dataset
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.harness import (
    EvaluationReport,
    ExperimentPlan,
    plan_from_dict,
    run_experiment,
)
from logblend.heterogeneity import h_score, proxy_stats
from logblend.mixing import MixConfig, mix
from logblend.parsers import write_parse_result
from logblend.pool import (
    OutlierPool,
    VariablePool,
    build_outlier_pool,
    build_variable_pool,
)

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("experiment", "oversplit", "synthesize")

#: Build seed of dataset i of k is BUILD_SEED_BASE + k * seed + i, so seed 0
#: gives ``source_datasets()`` of tests/helpers.py (seeds 300 + i).
BUILD_SEED_BASE = 300
#: Synthesis seeds per dataset in one synthesize pass.
SYNTH_SEEDS = 4
MIX_STRENGTH = 1.0
OUTLIER_FRACTION = 0.05


def load_file_module(name: str, path: Path):
    """Import a module from a file that is not on the package path."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_corpus(seed: int, size: int):
    helpers = load_file_module("logblend_test_helpers", ROOT / "tests" / "helpers.py")
    specs = helpers._source_specs()
    return [
        helpers.build_dataset(
            name, size, seed=BUILD_SEED_BASE + len(specs) * seed + i, specs=spec_list
        )
        for i, (name, spec_list) in enumerate(specs.items())
    ]


@dataclass
class Job:
    key: str
    #: Record evaluations (experiments) or records synthesized (synthesize).
    records: int
    #: The timed work; returns what `output` turns into (bytes, cell errors).
    run: Callable[[], object] = field(repr=False)
    output: Callable[[object], tuple[bytes, list[str | None]]] = field(repr=False)


@dataclass
class Setup:
    workload: str
    jobs: list[Job]


def _experiment_doc(workload: str, seed: int, csv: Path, echo: Path | None) -> dict:
    pools = {"outlier_pool": "outlier_pool.csv", "variable_pool": "variable_pool.tsv"}
    if workload == "experiment":
        parsers = [{"kind": "tree"}, {"kind": "tokenfreq"}]
        synthesis = {"mix_strength": MIX_STRENGTH, "fuzz_mode": "labeled", **pools}
    else:
        parsers = [{"kind": "external", "path": echo.name}]
        synthesis = {
            "mix_strength": MIX_STRENGTH,
            "fuzz_mode": "parsed",
            "labels": "parsed",
            **pools,
        }
    return {
        "datasets": [csv.name],
        "parsers": parsers,
        "synthesis": synthesis,
        "runs": 1,
        "base_seed": seed,
    }


def _blank_paths(doc):
    """Report body with every file path emptied; paths name the work dir."""
    if isinstance(doc, dict):
        return {
            k: "" if k == "path" else _blank_paths(v) for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [_blank_paths(v) for v in doc]
    return doc


def _report_output(report: EvaluationReport) -> tuple[bytes, list[str | None]]:
    """The report body without timings and paths, and each cell's error."""
    body = report.to_dict()
    body["plan"]["datasets"] = ["" for _ in body["plan"]["datasets"]]
    errors = [
        cell["error"]
        for ds in body["datasets"].values()
        for parser in ds["parsers"].values()
        for cell in parser["runs"]
    ]
    return json.dumps(_blank_paths(body), indent=2).encode(), errors


def _experiment_job(plan: ExperimentPlan):
    # Looks run_experiment up per call, so a wrapper installed later is seen.
    return lambda: run_experiment(plan)


def _synthesize_job(
    csv: Path, out: Path, opool: OutlierPool, vpool: VariablePool, seed: int
):
    def run() -> Path:
        ds = load_structured(csv)
        mixed = mix(ds, opool, MixConfig(strength=MIX_STRENGTH, seed=seed))
        fuzzed = fuzz(mixed, vpool, FuzzConfig(seed=seed)).dataset
        h_score(proxy_stats(fuzzed))
        write_dataset(fuzzed, out)
        return out

    return run


def _file_output(path: Path) -> tuple[bytes, list[str | None]]:
    return path.read_bytes(), []


def setup(workload: str, seed: int, size: int, work: Path) -> Setup:
    """Generate and write the corpus, build and save the pools, load the plan."""
    work.mkdir(parents=True)
    datasets = build_corpus(seed, size)
    csvs = []
    for ds in datasets:
        csv = work / f"{ds.name}.csv"
        write_dataset(ds, csv)
        csvs.append(csv)
    build_outlier_pool(datasets, outlier_fraction=OUTLIER_FRACTION).save(
        work / "outlier_pool.csv"
    )
    build_variable_pool(datasets).save(work / "variable_pool.tsv")

    jobs = []
    if workload == "synthesize":
        opool = OutlierPool.load(work / "outlier_pool.csv")
        vpool = VariablePool.load(work / "variable_pool.tsv")
        (work / "out").mkdir()
        for ds, csv in zip(datasets, csvs):
            for s in range(SYNTH_SEEDS):
                out = work / "out" / f"{ds.name}-{s}.csv"
                run = _synthesize_job(csv, out, opool, vpool, seed + s)
                jobs.append(Job(f"{ds.name}/{s}", len(ds.records), run, _file_output))
        return Setup(workload, jobs)

    for ds, csv in zip(datasets, csvs):
        echo = None
        if workload == "oversplit":
            echo = work / f"echo_{ds.name}.csv"
            write_parse_result(ds.contents(), echo)
        plan_path = work / f"plan_{ds.name}.json"
        plan_path.write_text(
            json.dumps(_experiment_doc(workload, seed, csv, echo)), encoding="utf-8"
        )
        doc = json.loads(plan_path.read_text(encoding="utf-8"))
        plan = plan_from_dict(doc, base_dir=work)
        evaluations = len(ds.records) * len(plan.parsers) * plan.runs
        jobs.append(Job(ds.name, evaluations, _experiment_job(plan), _report_output))
    return Setup(workload, jobs)


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(out).digest())
    return h.hexdigest()
