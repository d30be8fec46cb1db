"""Where the spans go, and the per-layer metrics read off them.

Each wrapper sits where a caller module binds a layer's public function:
the harness's imports for the experiment workloads, the benchmark's own
imports for set-up and the synthesize workload, and the metrics module's
binding of the edit-distance kernel.

A ``*.self_ms`` metric is that span's self time per job, except the pool
metrics, which come from the one traced set-up because pools are built
there. Counts are per job, except ``harness.jobs``, which is
``run_experiment`` calls per traced pass; ratios are over the whole traced
run. Times are scaled to nominal machine speed (see ``speed.py``).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import logblend.harness as harness
import logblend.metrics as metrics
import logblend.pool as pool

import workloads
from speed import Speed
from tracing import COUNT_SPAN, Tracer

JOB_SPAN = "bench.job"
SETUP_SPAN = "bench.setup"
SETUP_JOB = "setup"
#: Job id while no wrapper is installed; a span under it is a leak.
UNTRACED_JOB = "untraced"


def _count_mix(t: Tracer, out, ds, *_):
    t.count("mixing.records", len(ds.records))
    t.count("mixing.replaced", sum(a != b for a, b in zip(ds.records, out.records)))


def _count_fuzz(t: Tracer, result, ds, *_, **__):
    t.count("fuzzing.records", len(ds.records))
    t.count("fuzzing.skipped", len(result.skipped_line_ids))


def _count_groups(t: Tracer, result, *_, **__):
    t.count("parsers.results")
    t.count("parsers.groups", len(set(result)))


def _count_pairs(t: Tracer, _, predicted, truth):
    t.count("metrics.pairs", len(truth))
    t.count("metrics.distinct_pairs", len(set(zip(predicted, truth))))
    t.count("metrics.equal_pairs", sum(p == q for p, q in zip(predicted, truth)))


def _count_levenshtein(t: Tracer, _, a, b, *__, **___):
    t.count("kernels.levenshtein.calls")
    if a != b and a and b:
        t.count("kernels.levenshtein.dp_cells", len(a) * len(b))


def _count_skipped(t: Tracer, vpool, *_):
    t.count("pool.variable_pool.skipped", sum(map(len, vpool.skipped.values())))


def instrument(tracer: Tracer, evaluations: list) -> None:
    """Install every wrapper; `evaluations` receives (job, MetricReport dict)."""

    def capture(t: Tracer, report, *_):
        evaluations.append((t.job, report.as_dict()))

    def parser_name(ds, cfg, *_, **__):
        return cfg.name

    w = tracer.wrap
    # Set-up, as the benchmark binds it.
    w(workloads, "write_dataset", "corpus.write_dataset")
    w(workloads, "build_outlier_pool", "pool.build_outlier_pool")
    w(workloads, "build_variable_pool", "pool.build_variable_pool", _count_skipped)
    w(pool.OutlierPool, "load", "pool.load", kind="classmethod")
    w(pool.VariablePool, "load", "pool.load", kind="classmethod")
    # The synthesize workload, as the benchmark binds it.
    w(workloads, "load_structured", "corpus.load_structured")
    w(workloads, "mix", "mixing.mix", _count_mix)
    w(workloads, "fuzz", "fuzzing.fuzz", _count_fuzz)
    w(workloads, "proxy_stats", "heterogeneity.proxy_stats")
    w(workloads, "h_score", "heterogeneity.h_score")
    w(workloads, "run_experiment", "harness.run_experiment")
    # The experiment workloads, as the harness binds them.
    w(harness, "load_structured", "corpus.load_structured")
    w(harness, "mix", "mixing.mix", _count_mix)
    w(harness, "mix_with_parser_labels", "mixing.mix_with_parser_labels", _count_mix)
    w(harness, "fuzz", "fuzzing.fuzz", _count_fuzz)
    w(harness, "dataset_h", "heterogeneity.dataset_h")
    w(harness, "proxy_stats", "heterogeneity.proxy_stats")
    w(harness, "parse", "parsers.parse", _count_groups, suffix=parser_name)
    w(harness, "read_parse_result", "parsers.read_parse_result", _count_groups)
    w(harness, "evaluate", "metrics.evaluate", capture)
    # Inside evaluate, as the metrics module binds them.
    w(metrics, "grouping_accuracy", "metrics.grouping_accuracy")
    w(metrics, "template_accuracy", "metrics.template_accuracy")
    w(metrics, "mean_edit_distance", "metrics.mean_edit_distance", _count_pairs)
    w(metrics, "levenshtein", "kernels.levenshtein", _count_levenshtein)


#: Job-span self times reported per job, by span name.
JOB_SELF_MS = (
    "corpus.load_structured",
    "corpus.write_dataset",
    "mixing.mix",
    "mixing.mix_with_parser_labels",
    "fuzzing.fuzz",
    "heterogeneity.proxy_stats",
    "heterogeneity.dataset_h",
    "heterogeneity.h_score",
    "parsers.parse.tree",
    "parsers.parse.tokenfreq",
    "parsers.read_parse_result",
    "metrics.evaluate",
    "metrics.grouping_accuracy",
    "metrics.template_accuracy",
    "metrics.mean_edit_distance",
    "kernels.levenshtein",
    "harness.run_experiment",
    COUNT_SPAN,
    JOB_SPAN,
)
SETUP_SELF_MS = ("pool.build_outlier_pool", "pool.build_variable_pool", "pool.load")

#: Metric name -> (unit, span it is measured at).
PER_LAYER = {
    **{f"{n}.self_ms": ("ms", n) for n in SETUP_SELF_MS + JOB_SELF_MS},
    "pool.variable_pool.skipped": ("count", "pool.build_variable_pool"),
    "mixing.replaced_ratio": ("ratio", "mixing.mix"),
    "fuzzing.records_per_s": ("1/s", "fuzzing.fuzz"),
    "fuzzing.skipped_ratio": ("ratio", "fuzzing.fuzz"),
    "parsers.groups": ("count", "parsers.parse"),
    "metrics.pairs": ("count", "metrics.mean_edit_distance"),
    "metrics.distinct_pair_ratio": ("ratio", "metrics.mean_edit_distance"),
    "metrics.equal_pair_ratio": ("ratio", "metrics.mean_edit_distance"),
    "kernels.levenshtein.calls": ("count", "kernels.levenshtein"),
    "kernels.levenshtein.dp_cells": ("count", "kernels.levenshtein"),
    "kernels.microbench.pairs_per_s": ("1/s", "kernels.microbench"),
    "harness.jobs": ("count", "harness.run_experiment"),
    "trace.job_ms": ("ms", JOB_SPAN),
    "trace.overhead_ratio": ("ratio", JOB_SPAN),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(
    tracer: Tracer, overhead_ratio: float, microbench_pairs_per_s: float, speed: Speed
) -> dict[str, float]:
    """Every PER_LAYER metric by name (0.0 where nothing ran).

    Times are scaled to nominal speed by the factor of the job (or set-up)
    they ran in.
    """
    factor = {
        sp.job: speed.scaled(sp.start, sp.end) / (sp.end - sp.start)
        for sp in tracer.spans
        if sp.name in (JOB_SPAN, SETUP_SPAN)
    }
    own = tracer.self_times()
    job_self: dict[str, float] = defaultdict(float)
    setup_self: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    job_total = 0.0
    for sp, t in zip(tracer.spans, own):
        if sp.job not in factor:  # leaked while tracing was off; run.py fails it
            continue
        t *= factor[sp.job]
        if sp.job == SETUP_JOB:
            setup_self[sp.name] += t
            continue
        job_self[sp.name] += t
        calls[sp.name] += 1
        if sp.name == JOB_SPAN:
            job_total += (sp.end - sp.start) * factor[sp.job]
    jobs = calls[JOB_SPAN]
    passes = len({sp.job.split("/", 1)[0] for sp in tracer.spans if sp.name == JOB_SPAN})
    c = tracer.counters

    values = {f"{n}.self_ms": _ratio(job_self[n] * 1e3, jobs) for n in JOB_SELF_MS}
    values.update({f"{n}.self_ms": setup_self[n] * 1e3 for n in SETUP_SELF_MS})
    values.update(
        {
            "pool.variable_pool.skipped": c["pool.variable_pool.skipped"],
            "mixing.replaced_ratio": _ratio(c["mixing.replaced"], c["mixing.records"]),
            "fuzzing.records_per_s": _ratio(c["fuzzing.records"], job_self["fuzzing.fuzz"]),
            "fuzzing.skipped_ratio": _ratio(c["fuzzing.skipped"], c["fuzzing.records"]),
            "parsers.groups": _ratio(c["parsers.groups"], c["parsers.results"]),
            "metrics.pairs": _ratio(c["metrics.pairs"], jobs),
            "metrics.distinct_pair_ratio": _ratio(
                c["metrics.distinct_pairs"], c["metrics.pairs"]
            ),
            "metrics.equal_pair_ratio": _ratio(c["metrics.equal_pairs"], c["metrics.pairs"]),
            "kernels.levenshtein.calls": _ratio(c["kernels.levenshtein.calls"], jobs),
            "kernels.levenshtein.dp_cells": _ratio(c["kernels.levenshtein.dp_cells"], jobs),
            "kernels.microbench.pairs_per_s": microbench_pairs_per_s,
            "harness.jobs": _ratio(calls["harness.run_experiment"], passes),
            "trace.job_ms": _ratio(job_total * 1e3, jobs),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return values


def missing_metrics(tracer: Tracer, microbench_ok: bool) -> list[str]:
    """Metrics whose span could not be installed (the name no longer exists)."""
    gone = set(tracer.missing)
    if not microbench_ok:
        gone.add("kernels.microbench")
    return [
        name
        for name, (_, span) in PER_LAYER.items()
        if any(span == g or span.startswith(g + ".") for g in gone)
    ]
