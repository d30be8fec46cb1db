"""Variable resampling that keeps template structure intact."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend.corpus import (
    Dataset,
    extract_variables,
    write_dataset,
)
from logblend.errors import EmptyPoolError
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.metrics import template_accuracy
from logblend.mixing import MixConfig, mix
from logblend.parsers import (
    IdentityParserConfig,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
)
from logblend.pool import VariablePool

from helpers import (
    apacheish,
    fill_template,
    numpy_loop_fuzz,
    reference_fuzz,
    source_datasets,
    standard_pools,
)


def _vpool(values: list[str]) -> VariablePool:
    return VariablePool(sources={v: ("t",) for v in values})


def _ds(rows: list[tuple[str, str]]) -> Dataset:
    contents, templates = zip(*rows)
    return Dataset("t", contents, templates, ["t"] * len(rows))


def test_single_sample_substitution():
    ds = _ds([("Template log 1", "Template log <*>")])
    out = fuzz(ds, _vpool(["42"]), FuzzConfig(seed=0)).dataset
    assert out.records[0].content == "Template log 42"
    assert out.records[0].ground_truth == "Template log <*>"


def test_wildcard_free_template_passes_through():
    ds = _ds([("static heartbeat ok", "static heartbeat ok")])
    out = fuzz(ds, _vpool(["42"]), FuzzConfig(seed=0)).dataset
    assert out.records[0].content == "static heartbeat ok"


def test_each_slot_sampled_independently():
    ds = _ds([("pair 1 and 2", "pair <*> and <*>")])
    pool = _vpool([f"v{i}" for i in range(50)])
    out = fuzz(ds, pool, FuzzConfig(seed=3)).dataset
    vs = extract_variables(out.records[0].content, "pair <*> and <*>")
    assert all(v.startswith("v") for v in vs)


def test_structure_preserved_on_synthetic_corpus():
    ds = apacheish()
    _, vpool = standard_pools()
    result = fuzz(ds, vpool, FuzzConfig(seed=5))
    assert result.skipped_line_ids == []
    out = result.dataset
    assert len(out.records) == len(ds.records)
    for rec in out.records:
        # re-extraction succeeds against the stored template
        extract_variables(rec.content, rec.ground_truth)


def test_identity_parser_scores_one_on_fuzzed_data():
    ds = apacheish()
    _, vpool = standard_pools()
    out = fuzz(ds, vpool, FuzzConfig(seed=6)).dataset
    assert template_accuracy(parse(out, IdentityParserConfig()), out.labels()) == 1.0


def test_fuzz_determinism(tmp_path):
    ds = apacheish()
    _, vpool = standard_pools()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(fuzz(ds, vpool, FuzzConfig(seed=9)).dataset, a)
    write_dataset(fuzz(ds, vpool, FuzzConfig(seed=9)).dataset, b)
    assert a.read_bytes() == b.read_bytes()
    other = fuzz(ds, vpool, FuzzConfig(seed=10)).dataset
    assert [r.content for r in other.records] != [
        r.content for r in fuzz(ds, vpool, FuzzConfig(seed=9)).dataset.records
    ]


def test_record_randomness_depends_only_on_seed_and_line_id():
    # fuzzing a prefix yields the same contents for those line ids
    ds = apacheish()
    _, vpool = standard_pools()
    prefix = Dataset(ds.name, ds.contents()[:200], ds.labels()[:200], ds.sources[:200])
    full = fuzz(ds, vpool, FuzzConfig(seed=13)).dataset
    part = fuzz(prefix, vpool, FuzzConfig(seed=13)).dataset
    assert part.contents() == full.contents()[:200]


def test_fuzz_raises_heterogeneity_in_expectation():
    # mean H over 10 seeds never drops below the input's H, for every source
    from helpers import source_datasets
    from logblend.heterogeneity import h_score, proxy_stats

    _, vpool = standard_pools()
    for ds in source_datasets():
        h0 = h_score(proxy_stats(ds)).h
        mean_h = sum(
            h_score(proxy_stats(fuzz(ds, vpool, FuzzConfig(seed=s)).dataset)).h
            for s in range(10)
        ) / 10
        assert mean_h >= h0, ds.name


def test_parsed_mode_relabels_with_parser_output():
    ds = _ds([("Template log 1", None)])
    out = fuzz(
        ds,
        _vpool(["7"]),
        FuzzConfig(seed=0),
        parsed=["Template log <*>"],
    ).dataset
    assert out.records[0].content == "Template log 7"
    assert out.records[0].ground_truth == "Template log <*>"


def test_parsed_mode_misalignment_passes_through_with_skip_report():
    ds = _ds([("Template log 1", None), ("other line entirely", None)])
    result = fuzz(
        ds,
        _vpool(["7"]),
        FuzzConfig(seed=0),
        parsed=["Template log <*>", "mismatched <*> thing"],
    )
    assert result.skipped_line_ids == [2]
    assert result.dataset.records[1].content == "other line entirely"


@pytest.mark.parametrize(
    "config", [TreeParserConfig(), TokenFrequencyParserConfig()], ids=["tree", "tokenfreq"]
)
def test_parsed_mode_refills_lines_with_non_space_whitespace(config):
    # The parsers split on U+0020 only, as templates are aligned, so an NBSP
    # stays inside its token and every line aligns with its parsed template.
    ds = _ds([(f"open\xa0f{i} done", None) for i in range(1, 6)])
    parsed = parse(ds, config)
    result = fuzz(ds, _vpool(["x9"]), FuzzConfig(seed=0), parsed)
    assert result.skipped_line_ids == []
    assert result.dataset.contents() == ("x9 done",) * 5


def test_empty_pool_rejected():
    ds = _ds([("a 1", "a <*>")])
    with pytest.raises(EmptyPoolError):
        fuzz(ds, _vpool([]), FuzzConfig(seed=0))


def _as_oracle_output(result):
    out = result.dataset
    return list(out.contents()), list(out.ground_truths), result.skipped_line_ids


def test_fuzz_equals_numpy_loop_on_mixed_corpus():
    opool, vpool = standard_pools()
    for i, ds in enumerate(source_datasets()):
        mixed = mix(ds, opool, MixConfig(strength=1.0, seed=i))
        seed = -i if i % 2 else 2**63 + i
        labels = mixed.labels()
        labeled = fuzz(mixed, vpool, FuzzConfig(seed=seed))
        assert _as_oracle_output(labeled) == numpy_loop_fuzz(
            mixed, vpool, seed, labels
        ), ds.name
        # Each line paired with the next line's template: lines that do not
        # align are skipped, the rest are refilled under the other template.
        shifted = labels[1:] + labels[:1]
        result = fuzz(mixed, vpool, FuzzConfig(seed=seed), shifted)
        assert 0 < len(result.skipped_line_ids) < len(labels)
        assert _as_oracle_output(result) == numpy_loop_fuzz(mixed, vpool, seed, shifted)


#: Zero-wildcard, empty, all-wildcard and embedded-wildcard templates.
_TEMPLATES = ["", "a", "a b", "<*>", "a <*>", "<*> b <*>", "a<*>b", "<*> <*>", "x\t<*>"]
_VALUE = st.text(alphabet="ab <*>\t\xa0", min_size=1, max_size=4)


@st.composite
def _fuzz_case(draw):
    """Records whose content fills its template or is free text, labeled or not."""
    n = draw(st.integers(1, 12))
    templates = draw(st.lists(st.sampled_from(_TEMPLATES), min_size=n, max_size=n))
    contents, truths = [], []
    for template in templates:
        if draw(st.booleans()):
            values = draw(st.lists(_VALUE, min_size=template.count("<*>"),
                                   max_size=template.count("<*>")))
            content = fill_template(template, values)
        else:
            content = draw(st.text(alphabet="ab <*>\t", max_size=8))
        truth = draw(st.sampled_from([template, *_TEMPLATES]))
        contents.append(content)
        truths.append(truth or None)
    labeled = all(truths)
    parsed = draw(st.sampled_from([None, templates] if labeled else [templates]))
    return Dataset("t", contents, truths, ["t"] * n), parsed


@settings(max_examples=300, deadline=None)
@given(
    case=_fuzz_case(),
    values=st.lists(_VALUE, min_size=1, max_size=5, unique=True),
    seed=st.integers(-(2**63), 2**64 - 1),
)
def test_fuzz_equals_per_record_reference(case, values, seed):
    ds, parsed = case
    vpool = _vpool(values)
    result = fuzz(ds, vpool, FuzzConfig(seed=seed), parsed)
    expected = reference_fuzz(ds, vpool, seed, parsed)
    assert result.dataset == expected.dataset
    assert result.skipped_line_ids == expected.skipped_line_ids


def test_fuzz_builds_no_numpy_generator(monkeypatch):
    def fail(*_, **__):
        raise AssertionError("numpy generator built")

    monkeypatch.setattr(np.random, "default_rng", fail)
    monkeypatch.setattr(np.random, "SeedSequence", fail)
    _, vpool = standard_pools()
    assert fuzz(apacheish(), vpool, FuzzConfig(seed=1)).skipped_line_ids == []
