"""Experiment orchestration, aggregation, and the combined dataset."""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from logblend import corpus, harness, metrics
from logblend.corpus import Dataset, load_structured, write_dataset
from logblend.errors import AllocationError, InsufficientDataError, LogblendError
from logblend.harness import (
    ExperimentPlan,
    ExternalParser,
    SynthesisPlan,
    build_combined_dataset,
    plan_from_dict,
    run_experiment,
)
from logblend.heterogeneity import h_score, proxy_stats
from logblend.metrics import evaluate
from logblend.parsers import (
    PARSER_CONFIGS,
    IdentityParserConfig,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
    write_parse_result,
)
from logblend.pool import OutlierPool, VariablePool, build_outlier_pool

from helpers import (
    apacheish,
    assert_well_formed,
    outlier_pool,
    pool_rows,
    source_datasets,
    standard_pools,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Datasets and pools on disk, as the CLI would leave them."""
    root = tmp_path_factory.mktemp("workspace")
    ds = apacheish()
    write_dataset(ds, root / "apacheish.csv")
    opool, vpool = standard_pools()
    opool.save(root / "outlier_pool.csv")
    vpool.save(root / "variable_pool.tsv")
    return root


def _synthesis(root, strength=None, fuzz_mode=None, **settings) -> SynthesisPlan:
    opool = None if strength is None else OutlierPool.load(root / "outlier_pool.csv")
    vpool = None if fuzz_mode is None else VariablePool.load(root / "variable_pool.tsv")
    return SynthesisPlan(
        mix_strength=strength,
        fuzz_mode=fuzz_mode,
        outlier_pool=opool,
        variable_pool=vpool,
        **settings,
    )


def test_identity_parser_plan_scores_one_with_zero_std(workspace):
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[IdentityParserConfig()],
        runs=10,
        base_seed=0,
    )
    report = run_experiment(plan)
    doc = report.to_dict()
    parser_doc = doc["datasets"]["apacheish"]["parsers"]["identity"]
    assert parser_doc["mean"]["template_accuracy"] == 1.0
    assert parser_doc["std"]["template_accuracy"] == 0.0
    assert parser_doc["mean"]["mean_edit_distance"] == 0.0
    assert doc["plan"]["seeds"] == list(range(10))


def test_deterministic_parsers_have_zero_std_on_fixed_data(workspace):
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig(), TokenFrequencyParserConfig()],
        runs=4,
    )
    doc = run_experiment(plan).to_dict()
    for parser_doc in doc["datasets"]["apacheish"]["parsers"].values():
        assert parser_doc["std"] == {
            "grouping_accuracy": 0.0,
            "template_accuracy": 0.0,
            "mean_edit_distance": 0.0,
        }


def test_external_output_path_reproduces_builtin_report(workspace, tmp_path):
    ds = load_structured(workspace / "apacheish.csv")
    predicted = parse(ds, TreeParserConfig())
    out = tmp_path / "tree_output.csv"
    write_parse_result(predicted, out)

    builtin = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        runs=2,
    )
    external = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[ExternalParser(path=out)],
        runs=2,
    )
    doc_b = run_experiment(builtin).to_dict()["datasets"]["apacheish"]["parsers"]["tree"]
    doc_e = run_experiment(external).to_dict()["datasets"]["apacheish"]["parsers"][
        f"external:{out.name}"
    ]
    assert doc_b["runs"][0]["metrics"] == doc_e["runs"][0]["metrics"]
    assert doc_b["mean"] == doc_e["mean"]


def test_harness_metrics_equal_direct_module_invocation(workspace):
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        runs=1,
    )
    doc = run_experiment(plan).to_dict()
    cell = doc["datasets"]["apacheish"]["parsers"]["tree"]["runs"][0]["metrics"]
    ds = load_structured(workspace / "apacheish.csv")
    direct = evaluate(parse(ds, TreeParserConfig()), ds.labels())
    assert cell == direct.as_dict()


def test_report_is_deterministic_and_parser_order_invariant(workspace):
    def make_plan(parsers) -> ExperimentPlan:
        return ExperimentPlan(
            datasets=[workspace / "apacheish.csv"],
            parsers=parsers,
            synthesis=_synthesis(workspace, strength=0.6, fuzz_mode="labeled"),
            runs=3,
            base_seed=5,
        )

    parsers = [TreeParserConfig(), IdentityParserConfig()]
    first = json.dumps(run_experiment(make_plan(parsers)).to_dict(), indent=2)
    second = json.dumps(run_experiment(make_plan(parsers)).to_dict(), indent=2)
    assert first == second
    # No cell sees another's work: each parser scores the same in either order.
    reordered = run_experiment(make_plan(parsers[::-1])).to_dict()
    cells = json.loads(first)["datasets"]["apacheish"]["parsers"]
    assert reordered["datasets"]["apacheish"]["parsers"] == cells


def test_synthesis_degrades_accuracy_and_raises_h(workspace):
    base = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        runs=2,
    )
    synth = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        synthesis=_synthesis(workspace, strength=1.0, fuzz_mode="labeled"),
        runs=2,
    )
    doc0 = run_experiment(base).to_dict()["datasets"]["apacheish"]
    doc1 = run_experiment(synth).to_dict()["datasets"]["apacheish"]
    assert (
        doc1["parsers"]["tree"]["mean"]["template_accuracy"]
        < doc0["parsers"]["tree"]["mean"]["template_accuracy"]
    )
    assert doc1["h_mean"] > doc0["h_mean"]


def _count_reads(monkeypatch) -> Counter:
    """Count, per path, the files read from now on; every reader calls `read_text`."""
    reads: Counter = Counter()
    read_text = corpus.read_text

    def counting(path):
        reads[Path(path)] += 1
        return read_text(path)

    monkeypatch.setattr(corpus, "read_text", counting)
    return reads


def test_failed_cells_are_reported_not_fatal(workspace, tmp_path, monkeypatch):
    short = tmp_path / "short.csv"
    short.write_text("LineId,EventTemplate\n1,a\n", encoding="utf-8")
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[ExternalParser(path=short), IdentityParserConfig()],
        runs=3,
    )
    reads = _count_reads(monkeypatch)
    doc = run_experiment(plan).to_dict()
    parsers = doc["datasets"]["apacheish"]["parsers"]
    records = doc["datasets"]["apacheish"]["records"]
    error = (
        f"ShapeError: {short}: 1 templates for the {records} records"
        " of dataset 'apacheish'"
    )
    assert parsers[f"external:{short.name}"]["failures"] == [error] * 3
    assert parsers["identity"]["mean"]["template_accuracy"] == 1.0
    # The external file is read once, not once per run.
    assert reads == {workspace / "apacheish.csv": 1, short: 1}


def test_a_failed_read_keeps_no_earlier_run_alive(workspace, tmp_path, monkeypatch):
    # A failed cell keeps its error as text, which holds no run's frames, so
    # each run's synthesized data is freed before the next run begins.
    short = tmp_path / "short.csv"
    short.write_text("LineId,EventTemplate\n1,a\n", encoding="utf-8")
    synthesized: list[weakref.ref] = []
    alive: list[int] = []
    real_fuzz = harness.fuzz

    def tracking(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in synthesized))
        result = real_fuzz(*args, **kwargs)
        synthesized.append(weakref.ref(result.dataset))
        return result

    monkeypatch.setattr(harness, "fuzz", tracking)
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[ExternalParser(path=short)],
        synthesis=_synthesis(workspace, fuzz_mode="labeled"),
        runs=4,
    )
    parsers = run_experiment(plan).to_dict()["datasets"]["apacheish"]["parsers"]
    assert len(parsers[f"external:{short.name}"]["failures"]) == 4
    assert alive == [0, 0, 0, 0]


def test_failed_synthesis_fails_every_cell_of_its_run(workspace, tmp_path, monkeypatch):
    echo = tmp_path / "echo.csv"
    write_parse_result(list(apacheish().contents()), echo)
    # Excluding the dataset's own source leaves mixing an empty pool.
    synthesis = SynthesisPlan(
        mix_strength=1.0,
        outlier_pool=build_outlier_pool([apacheish()], outlier_fraction=0.05),
    )
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig(), IdentityParserConfig(), ExternalParser(path=echo)],
        synthesis=synthesis,
        runs=2,
    )
    reads = _count_reads(monkeypatch)
    ds_doc = run_experiment(plan).to_dict()["datasets"]["apacheish"]
    # No run reaches a parser, so the external file is never read.
    assert reads == {workspace / "apacheish.csv": 1}
    assert ds_doc["proxy_stats_per_run"] == [None, None]
    assert ds_doc["h_per_run"] == [None, None]
    assert ds_doc["h_mean"] is None
    for parser_doc in ds_doc["parsers"].values():
        assert "mean" not in parser_doc
        failures = parser_doc["failures"]
        assert len(failures) == 2
        assert all(error.startswith("EmptyPoolError: ") for error in failures)
        assert [cell["metrics"] for cell in parser_doc["runs"]] == [None, None]


def test_unlabeled_data_without_synthesis_fails_every_cell(tmp_path):
    ds = apacheish()
    unlabeled = Dataset(ds.name, ds.contents(), [None] * len(ds), ds.sources)
    write_dataset(unlabeled, tmp_path / "apacheish.csv")
    plan = ExperimentPlan(
        datasets=[tmp_path / "apacheish.csv"], parsers=[TreeParserConfig()], runs=1
    )
    ds_doc = run_experiment(plan).to_dict()["datasets"]["apacheish"]
    assert ds_doc["proxy_stats_per_run"] == [proxy_stats(unlabeled).as_dict()]
    assert ds_doc["parsers"]["tree"]["failures"] == [
        "LabelingError: dataset has no ground truth"
    ]


@pytest.mark.parametrize(
    "settings, field",
    [
        ({"mix_strength": 1.5}, "mix_strength"),
        ({"mix_strength": -0.1}, "mix_strength"),
        ({"fuzz_mode": "bogus"}, "fuzz_mode"),
        ({"labels": "bogus"}, "labels"),
    ],
)
def test_synthesis_plan_rejects_bad_values_when_built(settings, field):
    with pytest.raises(LogblendError, match=f"^plan.synthesis.{field} must be"):
        SynthesisPlan(**settings)


@pytest.mark.parametrize(
    "settings, pool",
    [
        ({"mix_strength": 1.0}, "outlier_pool"),
        ({"fuzz_mode": "labeled"}, "variable_pool"),
    ],
)
def test_synthesis_plan_rejects_a_missing_pool_when_built(settings, pool):
    with pytest.raises(LogblendError, match=f"^plan.synthesis.{pool} is missing: no "):
        SynthesisPlan(**settings)


def _built_plans(root) -> tuple[SynthesisPlan, ExperimentPlan]:
    synthesis = _synthesis(root, strength=1.0, fuzz_mode="labeled")
    plan = ExperimentPlan(
        datasets=[root / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        synthesis=synthesis,
    )
    return synthesis, plan


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in (SynthesisPlan, ExperimentPlan) for f in fields(cls)],
)
def test_built_plan_fields_cannot_be_assigned(workspace, cls, name):
    synthesis, plan = _built_plans(workspace)
    built = synthesis if cls is SynthesisPlan else plan
    with pytest.raises(FrozenInstanceError):
        setattr(built, name, getattr(built, name))


def test_built_plan_is_checked_once_and_stays_as_checked(workspace):
    synthesis, plan = _built_plans(workspace)
    with pytest.raises(FrozenInstanceError):
        synthesis.fuzz_mode = "bogus"
    with pytest.raises(AttributeError):
        plan.parsers.append(TreeParserConfig())
    assert plan.datasets == (workspace / "apacheish.csv",)
    # A variant is a new plan, checked as it is built.
    with pytest.raises(LogblendError, match="^plan.synthesis.fuzz_mode must be"):
        replace(synthesis, fuzz_mode="bogus")
    with pytest.raises(LogblendError, match="^plan.runs must be >= 1"):
        replace(plan, runs=0)
    with pytest.raises(LogblendError, match="^plan.datasets must name at least one dataset$"):
        replace(plan, datasets=())


def test_built_plan_pools_and_digests_cannot_be_changed(workspace):
    doc = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "tree"}],
        "synthesis": {
            "mix_strength": 1.0,
            "fuzz_mode": "labeled",
            "outlier_pool": "outlier_pool.csv",
            "variable_pool": "variable_pool.tsv",
        },
        "runs": 1,
    }
    synthesis = plan_from_dict(doc, base_dir=workspace).synthesis
    opool, vpool = synthesis.outlier_pool, synthesis.variable_pool
    with pytest.raises(FrozenInstanceError):
        opool.lines = opool.lines
    with pytest.raises(FrozenInstanceError):
        vpool.values = vpool.values[::-1]
    with pytest.raises(TypeError):
        del opool.lines.sources[::2]
    with pytest.raises(AttributeError):
        vpool.values.reverse()
    with pytest.raises(TypeError):
        vpool.sources[vpool.values[0]] = ("bogus",)
    with pytest.raises(TypeError):
        vpool.skipped["bogus"] = (1,)
    built = VariablePool(sources={"v": ("a",)}, skipped={"a": [2]})
    with pytest.raises(TypeError):
        built.skipped["a"] = (3,)
    with pytest.raises(AttributeError):
        built.skipped["a"].append(3)
    # The report takes each digest from its pool.
    with pytest.raises(FrozenInstanceError):
        opool.sha256 = "bogus"


def test_synthesis_plan_rejects_parsed_labels_without_mixing():
    message = "^plan.synthesis.labels 'parsed' needs mix_strength"
    with pytest.raises(LogblendError, match=message):
        SynthesisPlan(labels="parsed")


def test_external_parser_needs_a_plan_of_one_dataset(workspace, tmp_path):
    external = ExternalParser(path=tmp_path / "out.csv")
    two = [workspace / "apacheish.csv", tmp_path / "dbsvc.csv"]
    with pytest.raises(LogblendError, match=r"^plan.parsers\[1\] is external"):
        ExperimentPlan(datasets=two, parsers=[TreeParserConfig(), external])
    plan = ExperimentPlan(datasets=two[:1], parsers=[TreeParserConfig(), external])
    assert plan.parsers[1] == external


def test_parser_driven_synthesis_runs_without_labels(workspace):
    # surrogate labels from the tree parser drive both mixing and fuzzing
    synthesis = _synthesis(workspace, strength=0.6, fuzz_mode="parsed", labels="parsed")
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        synthesis=synthesis,
        runs=2,
        base_seed=1,
    )
    doc = run_experiment(plan).to_dict()
    ds_doc = doc["datasets"]["apacheish"]
    assert ds_doc["parsers"]["tree"]["mean"]["template_accuracy"] > 0.0
    assert all(h is not None for h in ds_doc["h_per_run"])
    assert doc["plan"]["synthesis"]["labels"] == "parsed"
    assert doc["plan"]["synthesis"]["label_parser"]["kind"] == "tree"


def test_parsed_fuzz_with_ground_truth_labels_records_its_label_parser(workspace):
    # fuzzing from parsed templates runs the label parser even when mixing
    # (here absent) would read ground truth, so the summary names it
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[TreeParserConfig()],
        synthesis=_synthesis(workspace, fuzz_mode="parsed"),
        runs=1,
    )
    summary = run_experiment(plan).to_dict()["plan"]["synthesis"]
    assert summary["labels"] == harness.LABELS_GROUND_TRUTH
    assert summary["label_parser"]["kind"] == "tree"
    assert "label_parser" not in harness._synthesis_summary(
        replace(plan.synthesis, fuzz_mode="labeled")
    )


def test_parsed_label_h_tracks_ground_truth_h(workspace):
    # heterogeneity reached without labels (parser-driven mix+fuzz) stays in
    # the same ballpark as the label-driven pipeline, and both clearly beat
    # the untouched data
    truth_side = _synthesis(workspace, strength=1.0, fuzz_mode="labeled")
    parsed_side = _synthesis(workspace, strength=1.0, fuzz_mode="parsed", labels="parsed")
    h = {}
    for key, synthesis in (("gdth", truth_side), ("parsed", parsed_side)):
        plan = ExperimentPlan(
            datasets=[workspace / "apacheish.csv"],
            parsers=[IdentityParserConfig()],
            synthesis=synthesis,
            runs=3,
            base_seed=2,
        )
        h[key] = run_experiment(plan).to_dict()["datasets"]["apacheish"]["h_mean"]
    initial = h_score(proxy_stats(apacheish())).h
    assert 0.5 * h["gdth"] <= h["parsed"] <= 1.5 * h["gdth"]
    assert h["parsed"] > initial and h["gdth"] > initial


def test_per_run_h_is_attached(workspace):
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[IdentityParserConfig()],
        synthesis=_synthesis(workspace, strength=1.0),
        runs=3,
    )
    doc = run_experiment(plan).to_dict()["datasets"]["apacheish"]
    assert len(doc["h_per_run"]) == 3
    assert doc["h_mean"] == pytest.approx(sum(doc["h_per_run"]) / 3)


def test_a_plan_runs_each_dataset_alone_and_merges_them_in_order(workspace, tmp_path):
    # What running datasets apart, say in worker processes, relies on.
    paths = []
    for ds in source_datasets()[:3]:
        write_dataset(ds, tmp_path / f"{ds.name}.csv")
        paths.append(tmp_path / f"{ds.name}.csv")

    def run(datasets) -> dict:
        plan = ExperimentPlan(
            datasets=datasets,
            parsers=[TreeParserConfig(), TokenFrequencyParserConfig()],
            synthesis=_synthesis(workspace, strength=1.0, fuzz_mode="labeled"),
            runs=2,
        )
        return run_experiment(plan).to_dict(include_timings=True)

    whole = run(paths)
    parts = [run([path]) for path in paths]
    merged = {
        "schema_version": parts[0]["schema_version"],
        "plan": {**parts[0]["plan"], "datasets": [str(path) for path in paths]},
        "datasets": {name: doc for part in parts for name, doc in part["datasets"].items()},
    }
    timings = whole.pop("timings")
    assert json.dumps(whole) == json.dumps(merged)
    keys = [key for part in parts for key in part["timings"] if key != "total"]
    assert list(timings) == keys + ["total"]


#: The names perfbench's layer wraps replace, by the module that binds them.
_WRAPPED_NAMES = {
    harness: (
        "load_structured", "mix", "fuzz", "proxy_stats", "parse",
        "read_parse_result", "evaluate",
    ),
    metrics: ("grouping_accuracy", "template_accuracy", "mean_edit_distance"),
}


def test_every_name_a_layer_wrap_replaces_is_still_called(workspace, tmp_path, monkeypatch):
    # perfbench times a layer by replacing the name its caller looks up at
    # call time; a name the program stops calling leaves a metric that
    # measures nothing, which no other test would notice.
    calls: Counter = Counter()
    for module, names in _WRAPPED_NAMES.items():
        for name in names:
            key = f"{module.__name__}.{name}"

            def counting(*args, _real=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    echo = tmp_path / "echo.csv"
    write_parse_result(list(load_structured(workspace / "apacheish.csv").contents()), echo)
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[ExternalParser(path=echo)],
        synthesis=_synthesis(workspace, strength=0.5, fuzz_mode="parsed", labels="parsed"),
        runs=1,
    )
    doc = run_experiment(plan).to_dict()
    (cell,) = doc["datasets"]["apacheish"]["parsers"][f"external:{echo.name}"]["runs"]
    assert cell["error"] is None
    wrapped = {f"{m.__name__}.{name}" for m, names in _WRAPPED_NAMES.items() for name in names}
    assert set(calls) == wrapped


def test_timings_recorded_but_excluded_by_default(workspace):
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"],
        parsers=[IdentityParserConfig(), TreeParserConfig()],
        runs=2,
        base_seed=3,
    )
    report = run_experiment(plan)
    assert "timings" not in report.to_dict()
    timed = report.to_dict(include_timings=True)
    assert timed["timings"]["total"] > 0
    # One entry per (dataset, seed) stage and per (dataset, seed, parser) cell.
    assert set(timed["timings"]) == {
        f"apacheish/{seed}/{stage}"
        for seed in (3, 4)
        for stage in ("synthesis", "identity", "tree")
    } | {"total"}


# --- combined dataset ---------------------------------------------------------

def _distinct(name: str, n: int) -> Dataset:
    """`n` lines, each its own template: name0, name1, ..."""
    lines = [f"{name}{i}" for i in range(n)]
    return Dataset(name, lines, lines, [name] * n)


def test_combined_uniform_allocation_with_round_robin_remainder():
    datasets = list(source_datasets())[:4]
    combined = build_combined_dataset(datasets, size=10, seed=1)
    assert len(combined) == 10
    per_source: dict[str, int] = {}
    for source in combined.sources:
        per_source[source] = per_source.get(source, 0) + 1
    # 10 over 4 datasets: first two get 3, the others 2
    assert per_source[datasets[0].name] == 3
    assert per_source[datasets[1].name] == 3
    assert per_source[datasets[2].name] == 2
    assert per_source[datasets[3].name] == 2
    assert_well_formed(combined)


def test_combined_single_dataset_is_a_subsample():
    ds = apacheish()
    combined = build_combined_dataset([ds], size=50, seed=2)
    assert len(combined) == 50
    assert set(combined.contents()) <= set(ds.contents())


def test_combined_full_size_is_a_permutation():
    datasets = [_distinct(name, 4) for name in "ab"]
    combined = build_combined_dataset(datasets, size=8, seed=3)
    got = sorted(combined.contents())
    want = sorted([f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)])
    assert got == want


def test_combined_insufficient_records_names_dataset():
    datasets = [_distinct("big", 10), _distinct("tiny", 1)]
    with pytest.raises(AllocationError, match="tiny"):
        build_combined_dataset(datasets, size=10, seed=0)


def test_combined_of_no_datasets_raises():
    with pytest.raises(InsufficientDataError, match="no datasets"):
        build_combined_dataset([], size=10, seed=0)


def test_combined_deterministic_under_seed():
    datasets = list(source_datasets())[:3]
    a = build_combined_dataset(datasets, size=300, seed=9)
    b = build_combined_dataset(datasets, size=300, seed=9)
    c = build_combined_dataset(datasets, size=300, seed=10)
    assert a == b
    assert a != c


# --- plan parsing ---------------------------------------------------------------

def test_plan_from_dict_round_trip(workspace):
    doc = {
        "datasets": ["apacheish.csv"],
        "parsers": [
            {"kind": "tree", "depth": 4, "similarity_threshold": 0.4},
            {"kind": "tokenfreq", "threshold": 0.5},
            {"kind": "identity"},
        ],
        "synthesis": {
            "mix_strength": 0.4,
            "fuzz_mode": "labeled",
            "outlier_pool": "outlier_pool.csv",
            "variable_pool": "variable_pool.tsv",
        },
        "runs": 2,
        "base_seed": 7,
    }
    plan = plan_from_dict(doc, base_dir=workspace)
    assert plan.runs == 2 and plan.base_seed == 7
    assert len(plan.parsers) == 3
    report = run_experiment(plan)
    parsed_doc = json.loads(json.dumps(report.to_dict(), indent=2))
    assert parsed_doc["plan"]["synthesis"]["mix_strength"] == 0.4
    assert "pool_digests" in parsed_doc["plan"]["synthesis"]


def test_pool_digests_are_of_the_files_the_plan_loaded(workspace, tmp_path):
    shutil.copy(workspace / "apacheish.csv", tmp_path)
    opool_path = shutil.copy(workspace / "outlier_pool.csv", tmp_path)
    vpool_path = shutil.copy(workspace / "variable_pool.tsv", tmp_path)
    loaded = {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in (("outlier_pool", opool_path), ("variable_pool", vpool_path))
    }
    doc = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "identity"}],
        "synthesis": {
            "mix_strength": 0.4,
            "fuzz_mode": "labeled",
            "outlier_pool": "outlier_pool.csv",
            "variable_pool": "variable_pool.tsv",
        },
        "runs": 1,
    }
    plan = plan_from_dict(doc, base_dir=tmp_path)
    # Regenerated after the plan was read; the runs still use the loaded pools.
    outlier_pool([]).save(opool_path)
    VariablePool(sources={"x": ("a",)}).save(vpool_path)
    report = run_experiment(plan)
    assert report.plan_summary["synthesis"]["pool_digests"] == loaded


def test_plan_from_dict_reads_each_pool_file_once(workspace, monkeypatch):
    doc = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "identity"}],
        "synthesis": {
            "mix_strength": 0.4,
            "fuzz_mode": "labeled",
            "outlier_pool": "outlier_pool.csv",
            "variable_pool": "variable_pool.tsv",
        },
        "runs": 1,
    }
    reads: Counter[str] = Counter()
    read_bytes = Path.read_bytes

    def counted(path: Path) -> bytes:
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    plan = plan_from_dict(doc, base_dir=workspace)
    assert reads == {"outlier_pool.csv": 1, "variable_pool.tsv": 1}
    monkeypatch.undo()

    # Each digest is the file's sha256, and the report is the one that pools
    # loaded and hashed apart give.
    opool, vpool = (workspace / "outlier_pool.csv", workspace / "variable_pool.tsv")
    digests = {
        "outlier_pool": hashlib.sha256(opool.read_bytes()).hexdigest(),
        "variable_pool": hashlib.sha256(vpool.read_bytes()).hexdigest(),
    }
    report = run_experiment(plan).to_dict()
    assert report["plan"]["synthesis"]["pool_digests"] == digests
    apart = replace(
        plan.synthesis,
        outlier_pool=OutlierPool.load(opool),
        variable_pool=VariablePool.load(vpool),
    )
    assert json.dumps(report, indent=2) == json.dumps(
        run_experiment(replace(plan, synthesis=apart)).to_dict(), indent=2
    )


def test_pool_digests_follow_a_pool_swapped_into_the_plan(workspace, tmp_path):
    doc = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "identity"}],
        "synthesis": {
            "mix_strength": 0.4,
            "fuzz_mode": "labeled",
            "outlier_pool": "outlier_pool.csv",
            "variable_pool": "variable_pool.tsv",
        },
        "runs": 1,
    }
    plan = plan_from_dict(doc, base_dir=workspace)

    def digests(synthesis: SynthesisPlan) -> dict | None:
        summary = run_experiment(replace(plan, synthesis=synthesis)).plan_summary
        return summary["synthesis"].get("pool_digests")

    loaded = digests(plan.synthesis)
    assert set(loaded) == {"outlier_pool", "variable_pool"}
    # A built pool was read from no file, so its digest is gone.
    built = OutlierPool(plan.synthesis.outlier_pool.lines)
    swapped = replace(plan.synthesis, outlier_pool=built)
    assert digests(swapped) == {"variable_pool": loaded["variable_pool"]}
    # Another loaded pool brings the sha256 of its own file.
    other = tmp_path / "other_pool.csv"
    outlier_pool(pool_rows(plan.synthesis.outlier_pool)[::2]).save(other)
    swapped = replace(plan.synthesis, outlier_pool=OutlierPool.load(other))
    other_digest = hashlib.sha256(other.read_bytes()).hexdigest()
    assert other_digest != loaded["outlier_pool"]
    assert digests(swapped) == {
        "outlier_pool": other_digest, "variable_pool": loaded["variable_pool"]
    }


def test_plan_from_dict_rebuilds_each_builtin_config_from_its_summary(workspace):
    configs = [
        TreeParserConfig(
            depth=3, similarity_threshold=0.5, max_children=7, masks=(r"\d+",)
        ),
        TokenFrequencyParserConfig(threshold=0.5),
        IdentityParserConfig(),
    ]
    assert {type(cfg) for cfg in configs} == set(PARSER_CONFIGS.values())
    plan = ExperimentPlan(
        datasets=[workspace / "apacheish.csv"], parsers=configs, runs=1
    )
    report = json.dumps(run_experiment(plan).to_dict(), indent=2)
    summaries = json.loads(report)["plan"]["parsers"]
    for cfg, summary in zip(configs, summaries):
        doc = {"datasets": ["apacheish.csv"], "parsers": [summary]}
        assert plan_from_dict(doc).parsers == (cfg,)
