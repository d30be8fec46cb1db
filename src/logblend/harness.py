"""End-to-end experiment orchestration: load, synthesize, parse, evaluate.

An experiment plan names datasets, parsers (built-in configurations or
external output files), an optional mix/fuzz synthesis pipeline, and a run
count. Each run re-applies synthesis with seed ``base_seed + run`` and
evaluates every parser on the synthesized data, one (parser, run) cell after
another in plan order; per-run metrics are aggregated into mean and sample
standard deviation. Reports serialize to a single JSON document with a
stable field order; wall-clock timings are recorded in a section that
byte-for-byte comparisons leave out.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, stdev

from .corpus import Dataset, LogRecord, load_structured
from .errors import AllocationError, InsufficientDataError, LogblendError
from .fuzzing import MODE_LABELED, MODE_PARSED, FuzzConfig, fuzz
from .heterogeneity import (
    INDUSTRY_REFERENCE,
    ReferenceStats,
    h_score,
    proxy_stats,
)
from .metrics import MetricReport, evaluate
from .mixing import MixConfig, mix, mix_with_parser_labels
from .parsers import (
    IdentityParserConfig,
    ParserConfig,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
    read_parse_result,
)
from .pool import OutlierPool, VariablePool
from ._rng import generator

SCHEMA_VERSION = 1

LABELS_GROUND_TRUTH = "ground-truth"
LABELS_PARSED = "parsed"


@dataclass(frozen=True)
class ExternalParser:
    """A parser that participated by writing a LineId,EventTemplate file."""

    path: Path

    @property
    def name(self) -> str:
        return f"external:{self.path.name}"


ParserSpec = ParserConfig | ExternalParser


@dataclass
class SynthesisPlan:
    """Mix and/or fuzz settings applied per run with that run's seed."""

    mix_strength: float | None = None
    exclude_source: bool = True
    fuzz_mode: str | None = None
    #: Where surrogate labels come from when no ground truth is used.
    labels: str = LABELS_GROUND_TRUTH
    label_parser: ParserConfig = field(default_factory=TreeParserConfig)
    outlier_pool: OutlierPool | None = None
    variable_pool: VariablePool | None = None
    outlier_pool_path: Path | None = None
    variable_pool_path: Path | None = None


@dataclass
class ExperimentPlan:
    datasets: list[Path]
    parsers: list[ParserSpec]
    synthesis: SynthesisPlan | None = None
    runs: int = 10
    base_seed: int = 0
    reference: ReferenceStats = INDUSTRY_REFERENCE

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")


@dataclass
class RunOutcome:
    run: int
    seed: int
    metrics: MetricReport | None
    error: str | None = None


@dataclass
class EvaluationReport:
    plan_summary: dict
    datasets: dict[str, dict]
    timings: dict[str, float]

    def to_dict(self, include_timings: bool = False) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "plan": self.plan_summary,
            "datasets": self.datasets,
        }
        if include_timings:
            doc["timings"] = self.timings
        return doc

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parser_summary(spec: ParserSpec) -> dict:
    if isinstance(spec, ExternalParser):
        return {"kind": "external", "path": str(spec.path)}
    if isinstance(spec, TreeParserConfig):
        return {
            "kind": "tree",
            "depth": spec.depth,
            "similarity_threshold": spec.similarity_threshold,
            "max_children": spec.max_children,
            "masks": list(spec.masks),
        }
    if isinstance(spec, TokenFrequencyParserConfig):
        return {"kind": "tokenfreq", "threshold": spec.threshold}
    return {"kind": "identity"}


def _synthesis_summary(plan: SynthesisPlan | None) -> dict | None:
    if plan is None:
        return None
    summary: dict = {
        "mix_strength": plan.mix_strength,
        "exclude_source": plan.exclude_source,
        "fuzz_mode": plan.fuzz_mode,
        "labels": plan.labels,
    }
    if plan.labels == LABELS_PARSED:
        summary["label_parser"] = _parser_summary(plan.label_parser)
    pool_digests = {}
    if plan.outlier_pool_path is not None:
        pool_digests["outlier_pool"] = _digest(plan.outlier_pool_path)
    if plan.variable_pool_path is not None:
        pool_digests["variable_pool"] = _digest(plan.variable_pool_path)
    if pool_digests:
        summary["pool_digests"] = pool_digests
    return summary


def _synthesize(ds: Dataset, plan: SynthesisPlan, seed: int) -> Dataset:
    data = ds
    if plan.mix_strength is not None:
        if plan.outlier_pool is None:
            raise LogblendError("synthesis plan mixes but has no outlier pool")
        cfg = MixConfig(
            strength=plan.mix_strength, seed=seed, exclude_source=plan.exclude_source
        )
        if plan.labels == LABELS_PARSED:
            surrogate = parse(data, plan.label_parser)
            data = mix_with_parser_labels(data, surrogate, plan.outlier_pool, cfg)
        else:
            data = mix(data, plan.outlier_pool, cfg)
    if plan.fuzz_mode is not None:
        if plan.variable_pool is None:
            raise LogblendError("synthesis plan fuzzes but has no variable pool")
        cfg = FuzzConfig(seed=seed, mode=plan.fuzz_mode)
        if plan.fuzz_mode == MODE_PARSED:
            surrogate = parse(data, plan.label_parser)
            data = fuzz(data, plan.variable_pool, cfg, surrogate).dataset
        else:
            data = fuzz(data, plan.variable_pool, cfg).dataset
    return data


def _evaluate_cell(data: Dataset, truth: list[str], spec: ParserSpec) -> MetricReport:
    if isinstance(spec, ExternalParser):
        predicted = read_parse_result(spec.path, expected_len=len(data.records))
    else:
        predicted = parse(data, spec)
    return evaluate(predicted, truth)


def _aggregate(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], 0.0
    return mean(values), stdev(values)


def run_experiment(plan: ExperimentPlan) -> EvaluationReport:
    """Execute the plan and aggregate per-run metrics.

    Cells are evaluated serially: the work is pure Python, so threads would
    only contend for the interpreter lock. Cells that fail keep their error
    message in the report; the remaining cells still aggregate.
    """
    started = time.perf_counter()
    datasets_doc: dict[str, dict] = {}
    timings: dict[str, float] = {}
    seeds = [plan.base_seed + r for r in range(plan.runs)]

    for path in plan.datasets:
        ds = load_structured(path)
        synth_start = time.perf_counter()
        per_run_data: list[Dataset | None] = []
        per_run_error: list[str | None] = []
        for seed in seeds:
            try:
                data = (
                    _synthesize(ds, plan.synthesis, seed)
                    if plan.synthesis is not None
                    else ds
                )
                per_run_data.append(data)
                per_run_error.append(None)
            except (LogblendError, OSError) as exc:
                per_run_data.append(None)
                per_run_error.append(f"{type(exc).__name__}: {exc}")
        timings[f"{ds.name}.synthesis"] = time.perf_counter() - synth_start

        h_per_run: list[float | None] = []
        stats_per_run: list[dict | None] = []
        truths: list[list[str] | None] = []
        for data, error in zip(per_run_data, per_run_error):
            if data is None:
                h_per_run.append(None)
                stats_per_run.append(None)
                truths.append(None)
                continue
            stats = proxy_stats(data)
            h_per_run.append(h_score(stats, plan.reference).h)
            stats_per_run.append(stats.as_dict())
            try:
                truths.append(data.labels())
            except LogblendError:
                truths.append(None)

        def cell(spec: ParserSpec, run: int) -> RunOutcome:
            if per_run_data[run] is None:
                return RunOutcome(run, seeds[run], None, per_run_error[run])
            if truths[run] is None:
                return RunOutcome(
                    run, seeds[run], None, "LabelingError: dataset has no ground truth"
                )
            try:
                report = _evaluate_cell(per_run_data[run], truths[run], spec)
                return RunOutcome(run, seeds[run], report)
            except (LogblendError, OSError) as exc:
                return RunOutcome(run, seeds[run], None, f"{type(exc).__name__}: {exc}")

        eval_start = time.perf_counter()
        cells = [
            [cell(spec, run) for run in range(plan.runs)] for spec in plan.parsers
        ]
        timings[f"{ds.name}.evaluation"] = time.perf_counter() - eval_start

        parsers_doc: dict[str, dict] = {}
        for spec, outcomes in zip(plan.parsers, cells):
            ok = [o.metrics for o in outcomes if o.metrics is not None]
            doc: dict = {
                "config": _parser_summary(spec),
                "runs": [
                    {
                        "run": o.run,
                        "seed": o.seed,
                        "metrics": o.metrics.as_dict() if o.metrics else None,
                        "error": o.error,
                    }
                    for o in outcomes
                ],
            }
            if ok:
                ga, ga_std = _aggregate([m.grouping_accuracy for m in ok])
                ta, ta_std = _aggregate([m.template_accuracy for m in ok])
                ed, ed_std = _aggregate([m.mean_edit_distance for m in ok])
                doc["mean"] = {
                    "grouping_accuracy": ga,
                    "template_accuracy": ta,
                    "mean_edit_distance": ed,
                }
                doc["std"] = {
                    "grouping_accuracy": ga_std,
                    "template_accuracy": ta_std,
                    "mean_edit_distance": ed_std,
                }
            failures = [o.error for o in outcomes if o.error is not None]
            if failures:
                doc["failures"] = failures
            parsers_doc[spec.name] = doc

        ok_h = [h for h in h_per_run if h is not None]
        datasets_doc[ds.name] = {
            "path": str(path),
            "records": len(ds.records),
            "proxy_stats_per_run": stats_per_run,
            "h_per_run": h_per_run,
            "h_mean": mean(ok_h) if ok_h else None,
            "parsers": parsers_doc,
        }

    timings["total"] = time.perf_counter() - started
    plan_summary = {
        "datasets": [str(p) for p in plan.datasets],
        "parsers": [_parser_summary(s) for s in plan.parsers],
        "synthesis": _synthesis_summary(plan.synthesis),
        "runs": plan.runs,
        "base_seed": plan.base_seed,
        "seeds": seeds,
        "reference": {
            "nuw": plan.reference.nuw,
            "nuc": plan.reference.nuc,
            "nuldl": plan.reference.nuldl,
        },
    }
    return EvaluationReport(
        plan_summary=plan_summary, datasets=datasets_doc, timings=timings
    )


def build_combined_dataset(
    datasets: list[Dataset], size: int, seed: int, name: str = "combined"
) -> Dataset:
    """Draw a uniform per-dataset sample and shuffle it into one dataset.

    Each of the k datasets contributes size // k records (the first
    size % k datasets one more), sampled without replacement. Line ids are
    reassigned contiguously; records keep their ground truth and source.
    """
    if not datasets:
        raise InsufficientDataError("no datasets to combine")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    k = len(datasets)
    base, extra = divmod(size, k)
    rng = generator(seed)
    picked: list[LogRecord] = []
    for i, ds in enumerate(datasets):
        ds.labels()  # combining is for evaluation; require labels
        alloc = base + (1 if i < extra else 0)
        if alloc > len(ds.records):
            raise AllocationError(
                f"dataset {ds.name!r} has {len(ds.records)} records, needs {alloc}"
            )
        idxs = rng.choice(len(ds.records), size=alloc, replace=False)
        picked.extend(ds.records[j] for j in idxs)
    order = rng.permutation(len(picked))
    records = [
        LogRecord(
            line_id=pos + 1,
            content=picked[j].content,
            ground_truth=picked[j].ground_truth,
            source=picked[j].source,
        )
        for pos, j in enumerate(order)
    ]
    return Dataset(name=name, records=records)


def plan_from_dict(doc: dict, base_dir: Path | None = None) -> ExperimentPlan:
    """Build a plan from the JSON document accepted by the CLI."""

    def _resolve(p: str) -> Path:
        path = Path(p)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return path

    parsers: list[ParserSpec] = []
    for entry in doc.get("parsers", []):
        kind = entry.get("kind")
        if kind == "tree":
            parsers.append(
                TreeParserConfig(
                    depth=entry.get("depth", 4),
                    similarity_threshold=entry.get("similarity_threshold", 0.4),
                    max_children=entry.get("max_children", 100),
                    masks=tuple(entry.get("masks", ())),
                )
            )
        elif kind == "tokenfreq":
            parsers.append(
                TokenFrequencyParserConfig(threshold=entry.get("threshold", 0.6))
            )
        elif kind == "identity":
            parsers.append(IdentityParserConfig())
        elif kind == "external":
            parsers.append(ExternalParser(path=_resolve(entry["path"])))
        else:
            raise LogblendError(f"unknown parser kind {kind!r} in plan")

    synthesis = None
    if doc.get("synthesis"):
        s = doc["synthesis"]
        synthesis = SynthesisPlan(
            mix_strength=s.get("mix_strength"),
            exclude_source=s.get("exclude_source", True),
            fuzz_mode=s.get("fuzz_mode"),
            labels=s.get("labels", LABELS_GROUND_TRUTH),
        )
        if synthesis.fuzz_mode not in (None, MODE_LABELED, MODE_PARSED):
            raise LogblendError(f"unknown fuzz_mode {synthesis.fuzz_mode!r} in plan")
        if synthesis.labels not in (LABELS_GROUND_TRUTH, LABELS_PARSED):
            raise LogblendError(f"unknown labels {synthesis.labels!r} in plan")
        if s.get("outlier_pool"):
            synthesis.outlier_pool_path = _resolve(s["outlier_pool"])
            synthesis.outlier_pool = OutlierPool.load(synthesis.outlier_pool_path)
        if s.get("variable_pool"):
            synthesis.variable_pool_path = _resolve(s["variable_pool"])
            synthesis.variable_pool = VariablePool.load(synthesis.variable_pool_path)

    reference = INDUSTRY_REFERENCE
    if doc.get("reference"):
        r = doc["reference"]
        reference = ReferenceStats(nuw=r["nuw"], nuc=r["nuc"], nuldl=r["nuldl"])

    return ExperimentPlan(
        datasets=[_resolve(p) for p in doc.get("datasets", [])],
        parsers=parsers,
        synthesis=synthesis,
        runs=doc.get("runs", 10),
        base_seed=doc.get("base_seed", 0),
        reference=reference,
    )
