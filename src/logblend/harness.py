"""End-to-end experiment orchestration: load, synthesize, parse, evaluate.

An experiment plan names datasets, parsers (built-in configurations or
external output files), an optional mix/fuzz synthesis pipeline, and a run
count. Each dataset runs on its own, as one loop over its seeds that shares
nothing with another dataset's: run ``r`` synthesizes the data with seed
``base_seed + r``, takes its proxy statistics, H and labels, then scores
every parser on it in plan order and appends that cell to the parser's runs;
the runs are then aggregated into mean and sample standard deviation. The
datasets' entries and timings are merged in plan order. Reports serialize
to one JSON document with a stable field order; wall-clock timings, per
(dataset, seed) stage and parser, sit in a section that byte-for-byte
comparisons leave out.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from statistics import mean, stdev
from typing import get_args, get_type_hints

from .corpus import Dataset, load_structured
from .errors import AllocationError, InsufficientDataError, LogblendError
from .fuzzing import FuzzConfig, fuzz
from .heterogeneity import (
    INDUSTRY_REFERENCE,
    ProxyStats,
    check_reference,
    h_score,
    proxy_stats,
)
from .metrics import evaluate
from .mixing import MixConfig, mix
from .parsers import (
    PARSER_CONFIGS,
    ParserConfig,
    TreeParserConfig,
    parse,
    read_parse_result,
)
from .pool import OutlierPool, VariablePool
from ._rng import generator

SCHEMA_VERSION = 1

LABELS_GROUND_TRUTH = "ground-truth"
LABELS_PARSED = "parsed"
#: What fuzz aligns each line with: its ground truth or its parsed template.
MODE_LABELED = "labeled"
MODE_PARSED = "parsed"

#: The parser whose output stands in for labels (LABELS_PARSED, MODE_PARSED).
LABEL_PARSER = TreeParserConfig()


@dataclass(frozen=True)
class ExternalParser:
    """A parser that participated by writing a LineId,EventTemplate file."""

    path: Path

    @property
    def name(self) -> str:
        return f"external:{self.path.name}"


ParserSpec = ParserConfig | ExternalParser


@dataclass(frozen=True)
class SynthesisPlan:
    """Mix and/or fuzz settings applied per run with that run's seed."""

    mix_strength: float | None = None
    exclude_source: bool = True
    fuzz_mode: str | None = None
    #: Where surrogate labels come from when no ground truth is used.
    labels: str = LABELS_GROUND_TRUTH
    outlier_pool: OutlierPool | None = None
    variable_pool: VariablePool | None = None

    def __post_init__(self) -> None:
        key = "plan.synthesis"  # each message names its key, as ExperimentPlan's do
        strength = self.mix_strength
        if strength is not None and not 0.0 <= strength <= 1.0:
            raise LogblendError(f"{key}.mix_strength must be in [0, 1], got {strength}")
        for name, allowed in (
            ("fuzz_mode", (None, MODE_LABELED, MODE_PARSED)),
            ("labels", (LABELS_GROUND_TRUTH, LABELS_PARSED)),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise LogblendError(f"{key}.{name} must be one of {allowed}, got {value!r}")
        if self.labels == LABELS_PARSED and strength is None:
            raise LogblendError(
                f"{key}.labels 'parsed' needs mix_strength: only mixing reads it"
            )
        if strength is not None and self.outlier_pool is None:
            raise LogblendError(f"{key}.outlier_pool is missing: no outlier pool to mix from")
        if strength is not None and not self.outlier_pool:
            raise LogblendError(f"{key}.outlier_pool holds no lines")
        if self.fuzz_mode is not None and self.variable_pool is None:
            raise LogblendError(
                f"{key}.variable_pool is missing: no variable pool to fuzz from"
            )
        if self.fuzz_mode is not None and not self.variable_pool:
            raise LogblendError(f"{key}.variable_pool holds no values")


#: The pool settings of a synthesis plan: a file name in a plan, a loaded pool
#: in `SynthesisPlan`, and in the report the sha256 of that file.
_POOLS = {"outlier_pool": OutlierPool, "variable_pool": VariablePool}


#: The most runs a plan may ask for; the paper's plans use 10.
MAX_RUNS = 10_000


@dataclass(frozen=True)
class ExperimentPlan:
    datasets: tuple[Path, ...]
    parsers: tuple[ParserSpec, ...]
    synthesis: SynthesisPlan | None = None
    runs: int = 10
    base_seed: int = 0
    reference: ProxyStats = INDUSTRY_REFERENCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "parsers", tuple(self.parsers))
        if self.runs < 1:
            raise LogblendError(f"plan.runs must be >= 1, got {self.runs}")
        if self.runs > MAX_RUNS:
            raise LogblendError(f"plan.runs must be <= {MAX_RUNS}, got {self.runs}")
        check_reference(self.reference, "plan.reference")
        external = [isinstance(spec, ExternalParser) for spec in self.parsers]
        if any(external) and len(self.datasets) > 1:
            raise LogblendError(
                f"plan.parsers[{external.index(True)}] is external, so the plan "
                f"must have one dataset, got {len(self.datasets)}"
            )
        # The report keys parsers and datasets by name; a repeat would overwrite.
        names = [f"parser {spec.name!r}" for spec in self.parsers]
        names += [f"dataset {Path(path).stem!r}" for path in self.datasets]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise LogblendError(f"plan names {repeated[0]} twice")
        if not self.datasets:
            raise LogblendError("plan.datasets must name at least one dataset")


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


def _parser_summary(spec: ParserSpec) -> dict:
    if isinstance(spec, ExternalParser):
        return {"kind": "external", "path": str(spec.path)}
    summary = {"kind": spec.name, **asdict(spec)}
    if "masks" in summary:
        summary["masks"] = list(summary["masks"])
    return summary


def _synthesis_summary(plan: SynthesisPlan | None) -> dict | None:
    if plan is None:
        return None
    summary = {f.name: getattr(plan, f.name) for f in fields(plan) if f.name not in _POOLS}
    if plan.labels == LABELS_PARSED or plan.fuzz_mode == MODE_PARSED:
        summary["label_parser"] = _parser_summary(LABEL_PARSER)
    pools = [(name, getattr(plan, name)) for name in _POOLS]
    digests = {name: p.sha256 for name, p in pools if p is not None and p.sha256}
    if digests:
        summary["pool_digests"] = digests
    return summary


def _synthesize(ds: Dataset, plan: SynthesisPlan | None, seed: int) -> Dataset:
    if plan is None:
        return ds
    data = ds
    if plan.mix_strength is not None:
        cfg = MixConfig(
            strength=plan.mix_strength, seed=seed, exclude_source=plan.exclude_source
        )
        surrogate = parse(data, LABEL_PARSER) if plan.labels == LABELS_PARSED else None
        data = mix(data, plan.outlier_pool, cfg, surrogate)
    if plan.fuzz_mode is not None:
        surrogate = parse(data, LABEL_PARSER) if plan.fuzz_mode == MODE_PARSED else None
        data = fuzz(data, plan.variable_pool, FuzzConfig(seed=seed), surrogate).dataset
    return data


def _attempt(fn, *args, **kwargs) -> tuple:
    """`fn`'s result and None, or None and the text of the LogblendError or
    OSError it raised. Text holds no frames, so a kept error keeps no run's data.
    """
    try:
        return fn(*args, **kwargs), None
    except (LogblendError, OSError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _parser_doc(spec: ParserSpec, cells: list[dict]) -> dict:
    """One parser's report entry: its config, its runs and their aggregates."""
    doc: dict = {"config": _parser_summary(spec), "runs": cells}
    ok = [cell["metrics"] for cell in cells if cell["metrics"] is not None]
    if ok:
        values = {key: [m[key] for m in ok] for key in ok[0]}
        doc["mean"] = {key: mean(v) for key, v in values.items()}
        doc["std"] = {key: stdev(v) if len(v) > 1 else 0.0 for key, v in values.items()}
    failures = [cell["error"] for cell in cells if cell["error"] is not None]
    if failures:
        doc["failures"] = failures
    return doc


def _run_dataset(
    path: Path, plan: ExperimentPlan, seeds: list[int]
) -> tuple[str, dict, dict[str, float]]:
    """One dataset's loop over `seeds`: its name, report entry and timings.

    Everything it builds is its own, so the result depends only on the file
    at `path`, the plan and the seeds.
    """
    ds = load_structured(path)
    timings: dict[str, float] = {}
    runs: dict[str, list[dict]] = {spec.name: [] for spec in plan.parsers}
    stats_per_run: list[dict | None] = []
    h_per_run: list[float | None] = []
    read: dict = {}  # per external parser: its templates and error text, read once
    for run, seed in enumerate(seeds):
        mark = time.perf_counter()
        data = truths = None  # frees the last run's data before this run's is built
        data, error = _attempt(_synthesize, ds, plan.synthesis, seed)
        timings[f"{ds.name}/{seed}/synthesis"] = time.perf_counter() - mark
        if data is None:
            stats_per_run.append(None)
            h_per_run.append(None)
        else:
            stats = proxy_stats(data)
            stats_per_run.append(asdict(stats))
            h_per_run.append(h_score(stats, plan.reference).h)
            truths, error = _attempt(data.labels)
        for spec in plan.parsers:
            mark = time.perf_counter()
            cell = {"run": run, "seed": seed, "metrics": None, "error": error}
            if error is None and isinstance(spec, ExternalParser) and spec not in read:
                read[spec] = _attempt(read_parse_result, spec.path, dataset=data)
            if error is None:
                predicted, cell["error"] = read.get(spec) or _attempt(parse, data, spec)
            if cell["error"] is None:
                cell["metrics"], cell["error"] = _attempt(
                    lambda: evaluate(predicted, truths).as_dict()
                )
            runs[spec.name].append(cell)
            timings[f"{ds.name}/{seed}/{spec.name}"] = time.perf_counter() - mark

    ok_h = [h for h in h_per_run if h is not None]
    doc = {
        "path": str(path),
        "records": len(ds),
        "proxy_stats_per_run": stats_per_run,
        "h_per_run": h_per_run,
        "h_mean": mean(ok_h) if ok_h else None,
        "parsers": {s.name: _parser_doc(s, runs[s.name]) for s in plan.parsers},
    }
    return ds.name, doc, timings


def run_experiment(plan: ExperimentPlan) -> EvaluationReport:
    """Execute the plan and aggregate per-run metrics.

    Each dataset runs on its own and the results are merged in plan order.
    Cells that fail keep their error message in the report; the remaining
    cells still aggregate.
    """
    started = time.perf_counter()
    seeds = [plan.base_seed + r for r in range(plan.runs)]
    results = [_run_dataset(path, plan, seeds) for path in plan.datasets]
    timings = {key: t for _, _, times in results for key, t in times.items()}
    timings["total"] = time.perf_counter() - started
    plan_summary = {
        "datasets": [str(p) for p in plan.datasets],
        "parsers": [_parser_summary(s) for s in plan.parsers],
        "synthesis": _synthesis_summary(plan.synthesis),
        "runs": plan.runs,
        "base_seed": plan.base_seed,
        "seeds": seeds,
        "reference": asdict(plan.reference),
    }
    return EvaluationReport(plan_summary, {name: doc for name, doc, _ in results}, timings)


def build_combined_dataset(datasets: list[Dataset], size: int, seed: int) -> Dataset:
    """Draw a uniform per-dataset sample and shuffle it into one dataset.

    Each of the k datasets contributes size // k lines (the first
    size % k datasets one more), sampled without replacement; each line
    keeps its content, ground truth and source, and takes its row in the
    shuffled order.
    """
    if not datasets:
        raise InsufficientDataError("no datasets to combine")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    k = len(datasets)
    base, extra = divmod(size, k)
    rng = generator(seed)
    picked: tuple[list, list, list] = ([], [], [])  # contents, truths, sources
    for i, ds in enumerate(datasets):
        ds.labels()  # combining is for evaluation; require labels
        alloc = base + (1 if i < extra else 0)
        if alloc > len(ds):
            raise AllocationError(
                f"dataset {ds.name!r} has {len(ds)} records, needs {alloc}"
            )
        idxs = rng.choice(len(ds), size=alloc, replace=False).tolist()
        for column, values in zip(picked, (ds.contents(), ds.ground_truths, ds.sources)):
            column.extend(values[j] for j in idxs)
    order = rng.permutation(len(picked[0])).tolist()
    return Dataset("combined", *([column[j] for j in order] for column in picked))


def _typed(key: str, value, kind):
    """`value` if it fits `kind`: a JSON type, `tuple[str, ...]` (read from a list
    of strings) or a tuple of the allowed values; `X | None` is read as `X`.
    Anything else, a bool given for a number too, raises LogblendError naming
    `key`.
    """
    if type(None) in get_args(kind):
        (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
    if kind == tuple[str, ...]:
        items = _typed(key, value, list)
        return tuple(_typed(f"{key}[{i}]", item, str) for i, item in enumerate(items))
    if isinstance(kind, tuple):
        if value not in kind:
            raise LogblendError(f"{key} must be one of {kind}, got {value!r}")
        return value
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise LogblendError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


def _read(key: str, value, schema: dict[str, tuple]) -> dict:
    """The JSON object `value` checked against `schema`, {name: (type, default)}.

    A missing name takes its default, and is an error where that is MISSING;
    null passes where the default is None. Unknown names and values of the
    wrong type raise LogblendError naming the key.
    """
    entry = _typed(key, value, dict)
    for name in entry:
        if name not in schema:
            known = ", ".join(schema)
            raise LogblendError(f"{key}.{name} is not a known key (expected {known})")
    doc = {}
    for name, (kind, default) in schema.items():
        if name not in entry and default is MISSING:
            raise LogblendError(f"{key}.{name} is missing")
        value = entry.get(name, default)
        doc[name] = value if value is default else _typed(f"{key}.{name}", value, kind)
    return doc


def _schema(cls, **override: tuple) -> dict[str, tuple]:
    """{field: (annotated type, default)} of dataclass `cls`, in field order;
    `override` gives the type and default a plan uses for some fields."""
    hints = get_type_hints(cls)
    return {f.name: override.get(f.name, (hints[f.name], f.default)) for f in fields(cls)}


def _config(key: str, cls, value, **extra: tuple):
    """Dataclass `cls` from a plan entry of its fields, typed as annotated."""
    schema = _schema(cls)
    doc = _read(key, value, {**extra, **schema})
    try:
        return cls(**{name: doc[name] for name in schema})
    except ValueError as exc:
        raise LogblendError(f"{key}: {exc}") from exc


def plan_from_dict(doc: dict, base_dir: Path | None = None) -> ExperimentPlan:
    """Build a plan from the JSON document accepted by the CLI.

    Unknown keys, values of the wrong type, missing required keys and
    values a config rejects all raise LogblendError naming the key.
    """

    def _resolve(key: str, p: str) -> Path:
        if "\0" in p:  # no file can be named so; opening it raises ValueError
            raise LogblendError(f"{key} holds a NUL character")
        # An absolute `p` replaces `base_dir` when joined.
        return Path(p) if base_dir is None else base_dir / p

    schema = _schema(
        ExperimentPlan,
        datasets=(tuple[str, ...], ()),
        parsers=(list, ()),
        synthesis=(dict, None),
        reference=(dict, None),
    )
    doc = _read("plan", doc, schema)
    parsers: list[ParserSpec] = []
    kinds = ("external", *PARSER_CONFIGS)
    for i, entry in enumerate(doc["parsers"]):
        key = f"plan.parsers[{i}]"
        kind = _typed(f"{key}.kind", _typed(key, entry, dict).get("kind"), kinds)
        if kind == "external":
            entry = _read(key, entry, {"kind": (str, MISSING), "path": (str, MISSING)})
            parsers.append(ExternalParser(path=_resolve(f"{key}.path", entry["path"])))
        else:
            cls = PARSER_CONFIGS[kind]
            parsers.append(_config(key, cls, entry, kind=(str, MISSING)))

    synthesis = None
    if doc["synthesis"]:
        schema = _schema(SynthesisPlan, **dict.fromkeys(_POOLS, (str, None)))
        s = _read("plan.synthesis", doc["synthesis"], schema)
        for key, cls in _POOLS.items():
            s[key] = cls.load(_resolve(f"plan.synthesis.{key}", s[key])) if s[key] else None
        synthesis = SynthesisPlan(**s)

    reference = INDUSTRY_REFERENCE
    if doc["reference"] is not None:
        reference = _config("plan.reference", ProxyStats, doc["reference"])

    datasets = [_resolve(f"plan.datasets[{i}]", p) for i, p in enumerate(doc["datasets"])]
    built = dict(datasets=datasets, parsers=parsers, synthesis=synthesis, reference=reference)
    return ExperimentPlan(**(doc | built))
