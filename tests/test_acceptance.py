"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Criteria 7 and 8 prefer the real loghub Apache 2K fixture when it is
present (drop `Apache_2k.log_structured.csv` into tests/fixtures/loghub/ or
point LOGBLEND_LOGHUB_DIR at a directory containing it); without the fixture
criterion 7 runs on the synthetic corpus and criterion 8 is skipped.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

from logblend.corpus import Dataset, load_structured, write_dataset
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.harness import (
    ExperimentPlan,
    SynthesisPlan,
    build_combined_dataset,
    run_experiment,
)
from logblend.heterogeneity import h_score, metric_variability, proxy_stats
from logblend.metrics import (
    edit_distance,
    grouping_accuracy,
    mean_edit_distance,
    template_accuracy,
)
from logblend.mixing import MixConfig, mix
from logblend.parsers import IdentityParserConfig, TreeParserConfig, identity_parser, parse
from logblend.corpus import extract_variables

from helpers import apacheish, standard_pools
from test_heterogeneity import PUBLISHED_STATS
from test_metrics import dp_edit_distance


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _loghub_apache() -> Dataset | None:
    candidates = []
    env_dir = os.environ.get("LOGBLEND_LOGHUB_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / "Apache_2k.log_structured.csv")
        candidates.append(Path(env_dir) / "Apache" / "Apache_2k.log_structured.csv")
    candidates.append(
        Path(__file__).parent / "fixtures" / "loghub" / "Apache_2k.log_structured.csv"
    )
    for path in candidates:
        if path.exists():
            return load_structured(path, name="Apache")
    return None


def test_criterion_1_h_formula_reproduction():
    start = time.perf_counter()
    industry = h_score(PUBLISHED_STATS["Industry"]).h
    results = {name: h_score(PUBLISHED_STATS[name]).h for name in PUBLISHED_STATS}
    elapsed = time.perf_counter() - start
    checks = [
        ("Industry", industry, 1.0, 0.0),
        ("BGL", results["BGL"], 0.608, 0.02),
        ("Mac", results["Mac"], 0.868, 0.02),
        ("Combined", results["Combined"], 0.830, 0.02),
        ("Apache", results["Apache"], 0.219, 0.05),
        ("HPC", results["HPC"], 0.259, 0.05),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    ok = ok and elapsed < 0.1
    detail = ", ".join(f"{n}={got:.3f} (ref {want})" for n, got, want, _ in checks)
    _report(1, ok, f"H levels: {detail}; {elapsed * 1e3:.1f} ms")


def test_criterion_2_variance_table_reproduction():
    got = metric_variability(list(PUBLISHED_STATS.values()))
    want = (0.278, 0.159, 0.331)
    ok = all(abs(g - w) <= 0.01 for g, w in zip(got, want))
    _report(
        2,
        ok,
        f"normalized spread = ({got[0]:.3f}, {got[1]:.3f}, {got[2]:.3f}), "
        f"published (0.278, 0.159, 0.331), tol 0.01",
    )


def test_criterion_3_grouping_vs_template_scenario():
    truth = ["Template log <*>", "Session opened for user <*>", "Connection from <*> closed"]
    predicted = ["Template log <*>", "Session opened for <*> <*>", "Connection <*> closed"]
    ga = grouping_accuracy(predicted, truth)
    ta = template_accuracy(predicted, truth)
    ok = ga == 1.0 and ta == 1 / 3
    _report(3, ok, f"grouping_accuracy={ga}, template_accuracy={ta:.4f} (expect 1.0 and 1/3)")


def test_criterion_4_edit_distance_oracle_and_axioms():
    rng = random.Random(42)
    alphabet = "abcdefgh <*>0123"
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        if edit_distance(a, b) != dp_edit_distance(a, b):
            mismatches += 1
    axiom_failures = 0
    for _ in range(1000):
        x, y, z = (
            "".join(rng.choices(alphabet, k=rng.randint(0, 25))) for _ in range(3)
        )
        dxy, dyz, dxz = edit_distance(x, y), edit_distance(y, z), edit_distance(x, z)
        if edit_distance(x, x) != 0 or dxy != edit_distance(y, x) or dxz > dxy + dyz:
            axiom_failures += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and axiom_failures == 0 and elapsed < 5.0
    _report(
        4,
        ok,
        f"1000 pairs vs DP oracle ({mismatches} mismatches), "
        f"1000 triples axioms ({axiom_failures} failures), {elapsed:.2f}s < 5s",
    )


def test_criterion_5_mixing_monotonicity(tmp_path):
    ds = apacheish()
    opool, _ = standard_pools()
    strengths = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    means = []
    for s in strengths:
        hs = [
            h_score(proxy_stats(mix(ds, opool, MixConfig(strength=s, seed=seed)))).h
            for seed in range(10)
        ]
        means.append(sum(hs) / len(hs))
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    a, b = tmp_path / "in.csv", tmp_path / "zero.csv"
    write_dataset(ds, a)
    write_dataset(mix(ds, opool, MixConfig(strength=0.0, seed=1)), b)
    identity_at_zero = a.read_bytes() == b.read_bytes()

    ok = non_decreasing and identity_at_zero
    _report(
        5,
        ok,
        "mean H by strength "
        + " -> ".join(f"{m:.4f}" for m in means)
        + f"; strength-0 byte-identical={identity_at_zero}",
    )


def test_criterion_6_fuzz_structure_preservation():
    ds = apacheish()
    _, vpool = standard_pools()
    start = time.perf_counter()
    bad_alignments = 0
    bad_labels = 0
    for seed in range(10):
        result = fuzz(ds, vpool, FuzzConfig(seed=seed))
        out = result.dataset
        for content, template in zip(out.contents(), out.labels()):
            try:
                extract_variables(content, template)
            except Exception:
                bad_alignments += 1
        if template_accuracy(identity_parser(out), out.labels()) != 1.0:
            bad_labels += 1
    elapsed = time.perf_counter() - start
    ok = bad_alignments == 0 and bad_labels == 0 and elapsed < 30.0
    _report(
        6,
        ok,
        f"10 seeds x 2000 records: {bad_alignments} re-extraction failures, "
        f"{bad_labels} label-validity failures, {elapsed:.1f}s < 30s",
    )


def test_criterion_7_degradation_cascade():
    real = _loghub_apache()
    if real is not None:
        ds = real
        corpus = "loghub Apache 2K"
    else:
        ds = apacheish()
        corpus = "synthetic 6-template corpus"
    opool, vpool = standard_pools()
    cfg = TreeParserConfig(depth=4, similarity_threshold=0.4)

    ta_original = template_accuracy(parse(ds, cfg), ds.labels())
    mixed_tas, fuzzed_tas = [], []
    for seed in range(10):
        mixed = mix(ds, opool, MixConfig(strength=1.0, seed=seed))
        mixed_tas.append(template_accuracy(parse(mixed, cfg), mixed.labels()))
        fuzzed = fuzz(mixed, vpool, FuzzConfig(seed=seed)).dataset
        fuzzed_tas.append(template_accuracy(parse(fuzzed, cfg), fuzzed.labels()))
    ta_mixed = sum(mixed_tas) / len(mixed_tas)
    ta_fuzzed = sum(fuzzed_tas) / len(fuzzed_tas)

    ok = ta_original > ta_mixed > ta_fuzzed and ta_fuzzed < 0.25
    _report(
        7,
        ok,
        f"{corpus}: template accuracy {ta_original:.3f} -> {ta_mixed:.3f} -> "
        f"{ta_fuzzed:.3f} (strictly decreasing, final < 0.25)",
    )


def test_criterion_8_published_spot_check():
    ds = _loghub_apache()
    if ds is None:
        print(
            "ACCEPTANCE  8 [SKIP] loghub Apache 2K fixture not present "
            "(see module docstring); published-value spot-check needs the real data"
        )
        pytest.skip("loghub Apache fixture not available in this environment")
    cfg = TreeParserConfig(depth=4, similarity_threshold=0.4)
    predicted = parse(ds, cfg)
    ta = template_accuracy(predicted, ds.labels())
    ga = grouping_accuracy(predicted, ds.labels())
    ok = abs(ta - 0.694) <= 0.10 and ga >= 0.9
    _report(8, ok, f"loghub Apache 2K: template accuracy {ta:.3f} (0.694 +/- 0.10), "
                   f"grouping accuracy {ga:.3f} (>= 0.9)")


def test_criterion_9_determinism_suite(tmp_path):
    ds = apacheish()
    opool, vpool = standard_pools()

    pairs = {}
    for name, make in {
        "mix": lambda: mix(ds, opool, MixConfig(strength=0.8, seed=13)),
        "fuzz": lambda: fuzz(ds, vpool, FuzzConfig(seed=13)).dataset,
        "combine": lambda: build_combined_dataset([ds], size=500, seed=13),
    }.items():
        p1, p2 = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        write_dataset(make(), p1)
        write_dataset(make(), p2)
        pairs[name] = p1.read_bytes() == p2.read_bytes()

    ds_path = tmp_path / "ds.csv"
    write_dataset(ds, ds_path)
    synthesis = SynthesisPlan(
        mix_strength=0.8, fuzz_mode="labeled", outlier_pool=opool, variable_pool=vpool
    )

    def experiment() -> str:
        plan = ExperimentPlan(
            datasets=[ds_path],
            parsers=[TreeParserConfig(), IdentityParserConfig()],
            synthesis=synthesis,
            runs=2,
            base_seed=3,
        )
        return run_experiment(plan).to_json()

    pairs["run_experiment"] = experiment() == experiment()

    ok = all(pairs.values())
    _report(
        9,
        ok,
        "byte-identical outputs: "
        + ", ".join(f"{k}={v}" for k, v in pairs.items())
        + " (two executions each)",
    )


def test_criterion_10_throughput_sanity():
    ds = apacheish()
    opool, vpool = standard_pools()

    start = time.perf_counter()
    mix(ds, opool, MixConfig(strength=1.0, seed=0))
    mix_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    fuzz(ds, vpool, FuzzConfig(seed=0))
    fuzz_elapsed = time.perf_counter() - start

    ok = mix_elapsed <= 1.0 and fuzz_elapsed <= 5.0
    _report(
        10,
        ok,
        f"2K lines: mix {mix_elapsed * 1e3:.0f} ms (<= 1 s), "
        f"fuzz {fuzz_elapsed * 1e3:.0f} ms (<= 5 s)",
    )
