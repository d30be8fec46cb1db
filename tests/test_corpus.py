"""Dataset ingestion, serialization, and template/variable alignment."""

from __future__ import annotations

import csv
import re
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logblend import corpus, parsers
from logblend.corpus import (
    Dataset,
    canonicalize_template,
    extract_variables,
    load_raw,
    load_structured,
    write_dataset,
)
from logblend.errors import AlignmentError, DataFormatError, LabelingError, ShapeError
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.metrics import evaluate
from logblend.mixing import MixConfig, mix
from logblend.parsers import (
    IdentityParserConfig,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
    read_parse_result,
    write_parse_result,
)
from logblend.pool import (
    OutlierPool,
    VariablePool,
    build_outlier_pool,
    build_variable_pool,
)

from helpers import (
    WHITESPACE,
    apacheish,
    backtracking_alignment,
    fill_template,
    source_datasets,
    standard_pools,
)


# --- canonicalization -------------------------------------------------------

def test_canonicalize_collapses_and_trims_spaces_only():
    assert canonicalize_template("  a   b <*>  ") == "a b <*>"
    assert canonicalize_template("a b") == "a b"
    assert canonicalize_template("") == canonicalize_template("   ") == ""
    assert canonicalize_template("\ta \xa0 b\u2028") == "\ta \xa0 b\u2028"


@given(st.text(alphabet=" \t\xa0a<*>", max_size=40))
@example(text="")
def test_canonicalize_equals_split_join(text):
    assert canonicalize_template(text) == " ".join(filter(None, text.split(" ")))


@given(st.text(alphabet=" \tabc<*>", max_size=40))
def test_canonicalize_idempotent(text):
    once = canonicalize_template(text)
    assert canonicalize_template(once) == once


@given(st.text(alphabet=" \tabc<*>", max_size=40))
@example(text="a b <*>")
@example(text="")
def test_canonicalize_returns_a_canonical_template_itself(text):
    once = canonicalize_template(text)
    assert canonicalize_template(once) is once


def test_whitespace_is_what_str_split_splits_on():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(ch for ch in every if not ch.split()) == WHITESPACE


@pytest.mark.parametrize("w", WHITESPACE, ids=lambda w: f"U+{ord(w):04X}")
def test_each_whitespace_row_loads_matches_and_is_refilled(w, tmp_path):
    # Canonicalization must not turn a template into one its content no
    # longer aligns with, whatever the whitespace inside it.
    path = tmp_path / "ds.csv"
    template = f"open{w}<*> done"
    ds = Dataset("t", [f"open{w}f1 done"], [template], ["t"])
    if w in "\n\r":
        # Content may not hold a line break: the writer refuses it, and the
        # reader rejects a file that holds one.
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line 1 content"):
            write_dataset(ds, path)
        row = f'1,"open{w}f1 done","{template}"'  # as csv.writer quotes them
        path.write_text(f"LineId,Content,EventTemplate\r\n{row}\r\n", "utf-8", newline="")
        with pytest.raises(DataFormatError, match="row 2"):
            load_structured(path)
        return
    write_dataset(ds, path)
    loaded = load_structured(path)
    (content,), (truth,) = loaded.contents(), loaded.labels()
    assert truth == canonicalize_template(template)
    extract_variables(content, truth)  # aligns, so does not raise
    result = fuzz(loaded, VariablePool({"x9": ("t",)}), FuzzConfig(seed=0))
    assert result.skipped_line_ids == []
    assert result.dataset.contents() == (f"open{w}x9 done",)


def _count_canonicalizations(monkeypatch) -> list[str]:
    """Swap a counting `canonicalize_template` into `corpus`, its one binding."""
    calls: list[str] = []

    def counting(text: str) -> str:
        calls.append(text)
        return canonicalize_template(text)

    monkeypatch.setattr(corpus, "canonicalize_template", counting)
    return calls


def test_nothing_after_the_read_boundary_canonicalizes_again(tmp_path, monkeypatch):
    paths = []
    for ds in source_datasets(200)[:4]:
        paths.append(tmp_path / f"{ds.name}.csv")
        write_dataset(ds, paths[-1])
    datasets = [load_structured(p) for p in paths]
    build_outlier_pool(datasets).save(tmp_path / "outliers.csv")
    build_variable_pool(datasets).save(tmp_path / "vars.tsv")
    opool = OutlierPool.load(tmp_path / "outliers.csv")
    vpool = VariablePool.load(tmp_path / "vars.tsv")

    calls = _count_canonicalizations(monkeypatch)
    build_outlier_pool(datasets)
    build_variable_pool(datasets)
    configs = (TreeParserConfig(), TokenFrequencyParserConfig(), IdentityParserConfig())
    for ds in datasets:
        cfg = MixConfig(strength=1.0, seed=1)
        mix(ds, opool, cfg, parse(ds, TreeParserConfig()))
        mixed = mix(ds, opool, cfg)
        labeled = fuzz(mixed, vpool, FuzzConfig(seed=1)).dataset
        surrogate = parse(labeled, TreeParserConfig())
        fuzzed = fuzz(labeled, vpool, FuzzConfig(seed=2), surrogate)
        truth = fuzzed.dataset.labels()
        for config in configs:
            evaluate(parse(fuzzed.dataset, config), truth)
    assert len(calls) == 0
    corpus.canonicalize_template("a  b")  # the counter does see a call
    assert len(calls) == 1


def test_readers_of_canonical_templates_canonicalize_nothing(tmp_path, monkeypatch):
    ds = source_datasets(200)[0]
    write_dataset(ds, tmp_path / "ds.csv")
    templates = [*ds.labels()[:-1], ""]  # "" is canonical too
    write_parse_result(templates, tmp_path / "parsed.csv")
    calls = _count_canonicalizations(monkeypatch)
    assert load_structured(tmp_path / "ds.csv").labels() == ds.labels()
    assert read_parse_result(tmp_path / "parsed.csv") == templates
    assert calls == []


def test_readers_canonicalize_each_distinct_template_once(tmp_path, monkeypatch):
    raw = ["a <*>", "a  <*>", " b <*> ", "c"]
    rows = [(f"x {i}", raw[i % len(raw)]) for i in range(2000)]
    data = tmp_path / "ds.csv"
    pool_file = tmp_path / "outliers.csv"
    parsed = tmp_path / "parsed.csv"
    with open(data, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([("Content", "EventTemplate"), *rows])
    with open(pool_file, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("LineId", "Content", "EventTemplate", "Source"))
        for i, (content, template) in enumerate(rows, start=1):
            writer.writerow((i, content, template, "s"))
    with open(parsed, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("LineId", "EventTemplate"))
        for i, (_, template) in enumerate(rows, start=1):
            writer.writerow((i, template))
    calls = _count_canonicalizations(monkeypatch)
    canonical = ["a <*>", "a <*>", "b <*>", "c"]

    ds = load_structured(data)
    assert sorted(calls) == sorted(raw)
    assert list(ds.labels()[:4]) == canonical

    calls.clear()
    templates = OutlierPool.load(pool_file).lines.ground_truths
    assert sorted(calls) == sorted(raw)
    assert list(templates[:4]) == canonical

    calls.clear()
    templates = parsers.read_parse_result(parsed)
    assert sorted(calls) == sorted(raw)
    assert templates[:4] == canonical


# --- structured load/write --------------------------------------------------

def test_load_structured_basic(tmp_path):
    p = tmp_path / "ds.csv"
    p.write_text(
        "LineId,Content,EventTemplate\n"
        '1,Template log 1,Template log <*>\n',
        encoding="utf-8",
    )
    ds = load_structured(p)
    assert len(ds) == 1
    assert ds.contents()[0] == "Template log 1"
    assert ds.ground_truths[0] == "Template log <*>"


@pytest.mark.parametrize(
    "truths, sources, match",
    [
        ("abc", "dd", "^dataset 'd' has 2 contents, 3 ground truths and 2 sources$"),
        ("ab", "d", "^dataset 'd' has 2 contents, 2 ground truths and 1 sources$"),
    ],
)
def test_dataset_columns_of_different_lengths_raise_naming_both(truths, sources, match):
    with pytest.raises(ShapeError, match=match):
        Dataset("d", ["x", "y"], truths, sources)


def test_load_structured_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("LineId,Content,EventTemplate\n", encoding="utf-8")
    assert len(load_structured(p)) == 0


def test_load_structured_empty_template_means_unlabeled(tmp_path):
    p = tmp_path / "ds.csv"
    p.write_text("Content,EventTemplate\nhello there,\n", encoding="utf-8")
    ds = load_structured(p)
    assert ds.ground_truths[0] is None
    # round-trip keeps it unlabeled
    out = tmp_path / "out.csv"
    write_dataset(ds, out)
    again = load_structured(out)
    assert again.ground_truths[0] is None


def test_load_structured_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("LineId,Message\n1,x\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="Content"):
        load_structured(p)


def test_load_structured_malformed_quoting_reports_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        'LineId,Content,EventTemplate\n'
        '1,ok,t\n'
        '2,"broken"quote",t\n',
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="row 3"):
        load_structured(p)


def test_load_structured_unreadable_path():
    with pytest.raises(OSError):
        load_structured("/no/such/file.csv")


def test_load_structured_ragged_row_reports_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text(
        "LineId,Content,EventTemplate\n1,unquoted, comma,t\n", encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="row 2"):
        load_structured(p)


def test_load_structured_canonicalizes_template(tmp_path):
    p = tmp_path / "ds.csv"
    p.write_text(
        "Content,EventTemplate\n"
        '"a  b","a   <*> "\n',
        encoding="utf-8",
    )
    ds = load_structured(p)
    assert ds.ground_truths[0] == "a <*>"


def test_round_trip_identity(tmp_path):
    ds = apacheish()
    p = tmp_path / "rt.csv"
    write_dataset(ds, p)
    again = load_structured(p, name=ds.name)
    assert again == ds


def test_round_trip_content_with_commas_and_quotes(tmp_path):
    ds = Dataset(
        "q", ['value a,b and "c"', ",,only,commas,,"], ["value <*>", None], ["q", "q"]
    )
    p = tmp_path / "q.csv"
    write_dataset(ds, p)
    again = load_structured(p, name="q")
    assert again.contents()[0] == 'value a,b and "c"'
    assert again.contents()[1] == ",,only,commas,,"
    assert again.ground_truths[1] is None


def test_write_without_ground_truth_emits_empty_field(tmp_path):
    ds = Dataset("w", ["x"], [None], ["w"])
    p = tmp_path / "w.csv"
    write_dataset(ds, p)
    assert p.read_text(encoding="utf-8").splitlines()[1] == "1,x,"


def test_source_column_round_trips_for_mixed_provenance(tmp_path):
    ds = Dataset("m", ["a", "b"], ["a", "b"], ["m", "other"])
    p = tmp_path / "m.csv"
    write_dataset(ds, p)
    assert "Source" in p.read_text(encoding="utf-8").splitlines()[0]
    again = load_structured(p, name="m")
    assert again.sources == ("m", "other")


@pytest.mark.parametrize(
    "text",
    [
        "LineId,Content,EventTemplate,Source\n2,b,b,yy\n1,a,a,xx\n3,c,c,xx\n4,d,,yy\n",
        'LineId,Content,EventTemplate,Source\n2,b,b,"yy"\n1,a,a,xx\n3,c,c,xx\n4,d,,yy\n',
    ],
    ids=["bulk-split", "csv-reader"],
)
def test_load_structured_holds_one_source_object_per_distinct_value(tmp_path, text):
    p = tmp_path / "m.csv"
    p.write_text(text, encoding="utf-8")
    sources = load_structured(p).sources
    assert sources == ("xx", "yy", "xx", "yy")
    assert sources[0] is sources[2] and sources[1] is sources[3]


# --- raw load ---------------------------------------------------------------

def test_load_raw_three_lines(tmp_path):
    p = tmp_path / "r.log"
    p.write_text("one\ntwo\nthree\n", encoding="utf-8")
    ds = load_raw(p)
    assert ds == Dataset("r", ["one", "two", "three"], [None] * 3, ["r"] * 3)


def test_load_raw_skips_blank_interior_line(tmp_path):
    p = tmp_path / "r.log"
    p.write_text("one\n\n   \ntwo\n", encoding="utf-8")
    ds = load_raw(p)
    assert ds.contents() == ("one", "two")


def test_load_raw_empty_file(tmp_path):
    p = tmp_path / "r.log"
    p.write_text("", encoding="utf-8")
    assert len(load_raw(p)) == 0


# --- variable extraction ----------------------------------------------------

def _token_assignments(content: str, template: str) -> list[list[str]]:
    """Brute-force: every way wildcards can absorb >= 1 whole token."""
    ctoks = content.split(" ")
    ttoks = template.split(" ")
    results: list[list[str]] = []

    def walk(ci: int, ti: int, acc: list[str]) -> None:
        if ti == len(ttoks):
            if ci == len(ctoks):
                results.append(list(acc))
            return
        tok = ttoks[ti]
        if tok == "<*>":
            for end in range(ci + 1, len(ctoks) + 1):
                acc.append(" ".join(ctoks[ci:end]))
                walk(end, ti + 1, acc)
                acc.pop()
        else:
            if ci < len(ctoks) and ctoks[ci] == tok:
                walk(ci + 1, ti + 1, acc)

    walk(0, 0, [])
    return results


def test_extract_single_forced_alignment():
    assert extract_variables(
        "Connection from 10.0.0.1 closed", "Connection from <*> closed"
    ) == ["10.0.0.1"]


def test_extract_paper_example():
    assert extract_variables("Template log 1", "Template log <*>") == ["1"]


def test_extract_unique_by_enumeration():
    content, template = "a b c d", "a <*> d"
    oracle = _token_assignments(content, template)
    assert oracle == [["b c"]]  # unique assignment
    assert extract_variables(content, template) == ["b c"]


def test_extract_leftmost_shortest_among_alternatives():
    content, template = "x 1 y 2 y 3 y", "x <*> y <*> y"
    oracle = _token_assignments(content, template)
    assert len(oracle) > 1
    leftmost_shortest = min(oracle, key=lambda vs: [len(v) for v in vs])
    assert extract_variables(content, template) == leftmost_shortest


_WORD = st.sampled_from(["a", "b", "ab", "x1"])


@st.composite
def token_template_and_values(draw):
    """A template of standalone tokens and, per wildcard, 1-3 words."""
    parts = draw(st.lists(st.one_of(st.just("<*>"), _WORD), min_size=1, max_size=6))
    values = [
        " ".join(draw(st.lists(_WORD, min_size=1, max_size=3)))
        for p in parts
        if p == "<*>"
    ]
    return " ".join(parts), values


@given(token_template_and_values())
@settings(max_examples=300)
def test_extract_is_the_leftmost_shortest_token_alignment(tv):
    template, values = tv
    content = fill_template(template, values)
    oracle = _token_assignments(content, template)
    assert values in oracle
    leftmost_shortest = min(oracle, key=lambda vs: [len(v) for v in vs])
    assert extract_variables(content, template) == leftmost_shortest


def test_extract_embedded_wildcard_uses_character_alignment():
    assert extract_variables("blk_8401 moved", "blk_<*> moved") == ["8401"]


def test_extract_rejects_empty_variable():
    with pytest.raises(AlignmentError):
        extract_variables("blk_ moved", "blk_<*> moved")


def test_extract_mismatch_raises_with_payload():
    with pytest.raises(AlignmentError) as exc:
        extract_variables("totally different", "a <*> b")
    assert exc.value.content == "totally different"
    assert exc.value.template == "a <*> b"


def test_extract_absorbs_irregular_whitespace_into_variable():
    # one of the two spaces goes into the variable, so the content stays exact
    vs = extract_variables("a  b c", "a <*> c")
    assert fill_template("a <*> c", vs) == "a  b c"


# A wildcard, the characters that make one up, two separators and two letters.
_CHARACTER = st.sampled_from(["<*>", "<", "*", ">", " ", "\n", "a", "b"])


@st.composite
def template_and_content(draw):
    """A template and either a fill of it or an unrelated content."""
    template = "".join(draw(st.lists(_CHARACTER, max_size=8)))
    if draw(st.booleans()):
        values = [
            "".join(draw(st.lists(_CHARACTER, min_size=1, max_size=3)))
            for _ in template.split("<*>")[1:]
        ]
        return template, fill_template(template, values)
    return template, "".join(draw(st.lists(_CHARACTER, max_size=12)))


@given(template_and_content())
@settings(max_examples=1000)
@example(("a<*><*>b", "a<*>*>b"))
@example(("<*>\n<*>", "x\ny\nz"))
@example(("no wildcard", "no wildcard"))
def test_extract_equals_the_backtracking_alignment(tc):
    template, content = tc
    try:
        captured = extract_variables(content, template)
    except AlignmentError:
        captured = None
    assert captured == backtracking_alignment(content, template)


def test_a_line_that_does_not_align_is_skipped_fast():
    # Backtracking over every split of 40 tokens among 30 wildcards would
    # not finish; the atomic-group pattern fails at once.
    template = " ".join(["<*>"] * 30) + " done"
    good = " ".join(["v"] * 30) + " done"
    bad = " ".join(["v"] * 40) + " failed"
    ds = Dataset("mislabeled", [good, bad], [template, template], ["mislabeled"] * 2)
    started = time.perf_counter()
    vpool = build_variable_pool([ds])
    result = fuzz(ds, vpool, FuzzConfig(seed=0))
    assert time.perf_counter() - started < 5.0
    assert vpool.skipped == {"mislabeled": (2,)}
    assert result.skipped_line_ids == [2]


@st.composite
def template_and_values(draw):
    n_tokens = draw(st.integers(min_value=1, max_value=6))
    literals = st.sampled_from(["alpha", "beta", "gamma", "delta", "x1"])
    parts = [draw(st.one_of(st.just("<*>"), literals)) for _ in range(n_tokens)]
    values = [
        draw(st.text(alphabet="abc0 .", min_size=1, max_size=6))
        for p in parts
        if p == "<*>"
    ]
    return " ".join(parts), values


@given(template_and_values())
@settings(max_examples=200)
def test_substitution_then_extraction_round_trips(tv):
    template, values = tv
    content = fill_template(template, values)
    captured = extract_variables(content, template)
    assert fill_template(template, captured) == content


def test_alignment_totality_on_synthetic_corpus():
    ds = apacheish()
    for content, template in zip(ds.contents(), ds.labels()):
        captured = extract_variables(content, template)
        assert fill_template(template, captured) == content


# --- frequency ranking of the outlier pool ---------------------------------

def _ranked(ds: Dataset) -> list[str]:
    """The contents `build_outlier_pool` takes from `ds` at fraction 1.0, in order."""
    return list(build_outlier_pool([ds], outlier_fraction=1.0).lines.contents())


def test_frequency_map_counts():
    ds = Dataset("f", ["x 1", "x 2", "y"], ["x <*>", "x <*>", "y"], ["f"] * 3)
    assert _ranked(ds) == ["y", "x 1", "x 2"]


def test_frequency_map_all_distinct():
    ds = Dataset("f", [f"t{i}" for i in range(5)], [f"t{i}" for i in range(5)], ["f"] * 5)
    assert _ranked(ds) == [f"t{i}" for i in range(5)]


def test_frequency_map_sums_to_size_on_2k_corpus():
    ds = apacheish()
    # independent oracle: plain dict count, then rows by (count, row position)
    counts: dict[str, int] = {}
    for template in ds.labels():
        counts[template] = counts.get(template, 0) + 1
    assert sum(counts.values()) == 2000
    assert len(counts) == 6
    rows = sorted(range(len(ds)), key=lambda i: (counts[ds.labels()[i]], i))
    oracle = list(dict.fromkeys(ds.contents()[i] for i in rows))
    assert _ranked(ds) == oracle


def test_frequency_map_reports_unlabeled_line_ids():
    ds = Dataset("f", ["x", "y"], ["x", None], ["f", "f"])
    with pytest.raises(LabelingError) as exc:
        build_outlier_pool([ds])
    assert exc.value.line_ids == [2]


def test_labeling_error_previews_the_first_ten_line_ids():
    ds = Dataset("f", [f"x{i}" for i in range(1, 13)], [None] * 12, ["f"] * 12)
    with pytest.raises(LabelingError) as exc:
        ds.labels()
    assert exc.value.line_ids == list(range(1, 13))
    assert "(line ids: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ... (12 total))" in str(exc.value)


def test_an_empty_ground_truth_is_held_as_unlabeled():
    ds = Dataset("f", ["a 1", "b", "c"], ["a <*>", "", "c"], ["f"] * 3)
    assert ds.ground_truths == ("a <*>", None, "c")
    assert ds == Dataset("f", ds.contents(), ["a <*>", None, "c"], ds.sources)
    with pytest.raises(LabelingError) as exc:
        ds.labels()
    assert exc.value.line_ids == [2]


# --- parser templates in place of labels -------------------------------------

def _mix_records(ds, parsed=None):
    opool, _ = standard_pools(200)
    return mix(ds, opool, MixConfig(strength=1.0, seed=3), parsed)


def _fuzz_records(ds, parsed=None):
    _, vpool = standard_pools(200)
    return fuzz(ds, vpool, FuzzConfig(seed=3), parsed).dataset


@pytest.mark.parametrize("synthesize", [_mix_records, _fuzz_records], ids=["mix", "fuzz"])
def test_parsed_must_cover_each_record_and_equal_labels_change_nothing(synthesize):
    ds = apacheish(200)
    with pytest.raises(ShapeError, match="parse result has 199 entries for 200 records"):
        synthesize(ds, ds.labels()[:-1])
    assert synthesize(ds, ds.labels()) == synthesize(ds)
