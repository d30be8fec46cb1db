"""Outlier pool and variable pool construction and serialization."""

from __future__ import annotations

import copy
import pickle
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logblend import corpus
from logblend.corpus import Dataset
from logblend.errors import DataFormatError, LabelingError
from logblend.pool import (
    OutlierPool,
    VariablePool,
    build_outlier_pool,
    build_variable_pool,
)

from helpers import outlier_pool, pool_rows, source_datasets, standard_pools


def _labeled(name: str, rows: list[tuple[str, str]]) -> Dataset:
    contents, templates = zip(*rows)
    return Dataset(name, contents, templates, [name] * len(rows))


# --- outlier pool -----------------------------------------------------------

def test_outlier_pool_hand_ranked():
    # 96 lines of one template plus 4 singletons; 5% of 100 -> 5 entries:
    # the 4 singletons then the earliest frequent line.
    rows = [(f"common event {i}", "common event <*>") for i in range(96)]
    rows += [
        ("rare alpha", "rare alpha"),
        ("rare beta", "rare beta"),
        ("rare gamma", "rare gamma"),
        ("rare delta", "rare delta"),
    ]
    ds = _labeled("h", rows)
    pool = build_outlier_pool([ds], outlier_fraction=0.05)
    contents = list(pool.lines.contents())
    assert len(contents) == 5
    assert set(contents[:4]) == {"rare alpha", "rare beta", "rare gamma", "rare delta"}
    assert contents[4] == "common event 0"


def test_outlier_pool_all_unique_templates_is_positional():
    rows = [(f"line {chr(97 + i)}", f"line {chr(97 + i)}") for i in range(20)]
    ds = _labeled("u", rows)
    pool = build_outlier_pool([ds], outlier_fraction=0.05)
    # ceil(0.05 * 20) = 1; no frequency signal, earliest line wins
    assert list(pool.lines.contents()) == ["line a"]


def test_outlier_pool_exact_ceiling_count():
    rows = [(f"only {i}", f"only {i}") for i in range(30)]
    pool = build_outlier_pool([_labeled("c", rows)], outlier_fraction=0.1)
    assert len(pool) == 3  # ceil(3.0), no float fuzz


def test_outlier_pool_dedups_by_content_keeping_first_source():
    a = _labeled("a", [("shared line", "shared line"), ("a only", "a only")])
    b = _labeled("b", [("shared line", "shared line"), ("b only", "b only")])
    pool = build_outlier_pool([a, b], outlier_fraction=1.0)
    by_content = {content: source for content, _, source in pool_rows(pool)}
    assert len(pool) == 3
    assert by_content["shared line"] == "a"


def test_outlier_pool_grows_with_fraction():
    datasets = list(source_datasets())
    small = build_outlier_pool(datasets, outlier_fraction=0.02)
    large = build_outlier_pool(datasets, outlier_fraction=0.1)
    assert len(large) >= len(small)


def test_outlier_pool_nine_2k_datasets_lands_in_expected_band():
    pool, _ = standard_pools()
    assert 500 <= len(pool) <= 900


def test_outlier_pool_requires_labels():
    ds = Dataset("x", ["a"], [None], ["x"])
    with pytest.raises(LabelingError):
        build_outlier_pool([ds])


def test_outlier_pool_rejects_bad_fraction():
    with pytest.raises(ValueError):
        build_outlier_pool([], outlier_fraction=0.0)


def test_outlier_pool_entries_traceable_to_sources():
    pool, _ = standard_pools()
    datasets = {ds.name: set(ds.contents()) for ds in source_datasets()}
    for content, _, source in pool_rows(pool):
        assert content in datasets[source]


def test_outlier_pool_file_round_trip(tmp_path):
    pool, _ = standard_pools()
    p = tmp_path / "outliers.csv"
    pool.save(p)
    again = OutlierPool.load(p)
    assert again.lines == pool.lines


def test_outlier_pool_load_canonicalizes_templates(tmp_path):
    p = tmp_path / "outliers.csv"
    p.write_text(
        "LineId,Content,EventTemplate,Source\n1,x 1,x   <*> ,a\n", encoding="utf-8"
    )
    assert pool_rows(OutlierPool.load(p)) == (("x 1", "x <*>", "a"),)


def test_outlier_pool_load_holds_one_source_object_per_distinct_value(tmp_path):
    pool, _ = standard_pools()
    p = tmp_path / "outliers.csv"
    pool.save(p)
    sources = OutlierPool.load(p).lines.sources
    assert len(set(map(id, sources))) == len(set(sources)) < len(sources)


@pytest.mark.parametrize(
    "rows, match",
    [
        ("1,x 1,x <*>,a\n2,x 2,x <*>\n", "row 3 has 3 fields, expected 4"),
        ('1,x 1,x <*>,a\n2,"x" 2,x <*>,a\n', "row 3"),
        ('1,x 1,x <*>,a\n2,"x\n2",x <*>,a\n', "row 3 content contains a line break"),
        ('1,"x\r1",x <*>,a\n', "row 2 content contains a line break"),
        # Mixing copies a pooled line's template into the data as its label.
        ("2,y 2,,b\n1,x 1,x <*>,a\n", "LineId 2 has an empty EventTemplate"),
        ('2,y 2,"  ",b\n1,x 1,x <*>,a\n', "LineId 2 has an empty EventTemplate"),
    ],
    ids=["short-row", "bad-quote", "newline-in-content", "carriage-return-in-content",
         "empty-template", "blank-template"],
)
def test_outlier_pool_load_names_malformed_row(tmp_path, rows, match):
    p = tmp_path / "outliers.csv"
    p.write_text("LineId,Content,EventTemplate,Source\n" + rows, encoding="utf-8")
    with pytest.raises(DataFormatError, match=match) as exc:
        OutlierPool.load(p)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize(
    "rows, scanned",
    [("1,x 1,x <*>,a\n2,x 2,x <*>,a\n", False), ('1,x 1,x <*>,a\n2,"x, 2",x <*>,a\n', True)],
    ids=["quote-free", "quoted"],
)
def test_only_a_pool_read_by_csv_reader_is_scanned_for_a_line_break(tmp_path, rows, scanned):
    # The bulk split has broken a quote-free file at every CR and LF already.
    p = tmp_path / "outliers.csv"
    p.write_text("LineId,Content,EventTemplate,Source\n" + rows, encoding="utf-8")
    with mock.patch.object(corpus, "_line_break_at", wraps=corpus._line_break_at) as scan:
        assert len(OutlierPool.load(p).lines) == 2
    assert scan.called == scanned


@pytest.mark.parametrize("template", ["", "  "], ids=["empty", "spaces"])
def test_outlier_pool_save_rejects_an_empty_template_and_writes_nothing(tmp_path, template):
    entries = [("x 1", "x <*>", "a"), ("y 2", template, "b")]
    p = tmp_path / "outliers.csv"
    message = f"{p}: outlier pool entry 2 'y 2' has an empty template"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}"):
        outlier_pool(entries).save(p)
    assert not p.exists()


def test_outlier_pool_load_needs_the_four_columns_in_any_order(tmp_path):
    p = tmp_path / "outliers.csv"
    p.write_text("Source,EventTemplate,LineId,Content\na,x <*>,1,x 1\n", encoding="utf-8")
    assert pool_rows(OutlierPool.load(p)) == (("x 1", "x <*>", "a"),)
    p.write_text("LineId,Content,EventTemplate\n1,x 1,x <*>\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="missing column 'Source'"):
        OutlierPool.load(p)


def test_outlier_pool_build_is_deterministic(tmp_path):
    datasets = list(source_datasets())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    build_outlier_pool(datasets).save(p1)
    build_outlier_pool(datasets).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- variable pool ----------------------------------------------------------

def test_variable_pool_from_paper_style_records():
    ds = _labeled(
        "t",
        [
            ("Template log 1", "Template log <*>"),
            ("Template log 2", "Template log <*>"),
        ],
    )
    pool = build_variable_pool([ds])
    assert pool.values == ("1", "2")


def test_variable_pool_empty_when_no_wildcards():
    ds = _labeled("t", [("static line", "static line")])
    assert len(build_variable_pool([ds])) == 0


def test_variable_pool_merges_sources_for_shared_value():
    a = _labeled("a", [("ip 10.0.0.1 up", "ip <*> up")])
    b = _labeled("b", [("peer 10.0.0.1 down", "peer <*> down")])
    pool = build_variable_pool([a, b])
    assert pool.values == ("10.0.0.1",)
    assert pool.sources["10.0.0.1"] == ("a", "b")


def test_variable_pool_skip_report_counts_misaligned_records(tmp_path):
    ds = _labeled(
        "t",
        [
            ("fits template 1", "fits template <*>"),
            ("does not fit at all", "something else <*>"),
        ],
    )
    pool = build_variable_pool([ds])
    assert pool.values == ("1",)
    assert pool.skipped == {"t": (2,)}
    # The report is the build's: it is not saved, and a pool equals its file.
    pool.save(tmp_path / "vars.tsv")
    loaded = VariablePool.load(tmp_path / "vars.tsv")
    assert loaded.skipped == {}
    assert loaded == pool


def test_variable_pool_requires_labels_and_names_the_unlabeled_lines():
    ds = Dataset("x", ["a 1", "b"], ["a <*>", None], ["x", "x"])
    with pytest.raises(LabelingError) as exc:
        build_variable_pool([ds])
    assert exc.value.line_ids == [2]


def test_variable_pool_has_no_empty_values():
    _, vpool = standard_pools()
    assert all(v for v in vpool.values)
    assert all("\n" not in v for v in vpool.values)


def test_variable_pool_file_round_trip(tmp_path):
    _, vpool = standard_pools()
    p = tmp_path / "vars.tsv"
    vpool.save(p)
    again = VariablePool.load(p)
    assert again.values == vpool.values
    assert again.sources == vpool.sources


def test_variable_pool_with_tab_in_a_value_round_trips(tmp_path):
    ds = _labeled("t", [("set a\tb", "set <*>"), ("set c", "set <*>")])
    vpool = build_variable_pool([ds])
    assert vpool.values == ("c",)
    p = tmp_path / "vars.tsv"
    vpool.save(p)
    again = VariablePool.load(p)
    assert again.values == vpool.values
    assert again.sources == vpool.sources


def test_variable_pool_build_is_deterministic(tmp_path):
    datasets = list(source_datasets())
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    build_variable_pool(datasets).save(p1)
    build_variable_pool(datasets).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "text, match",
    [
        ("\tsrc\n7\tsrc\n7\tother\n", "line 1 has an empty value"),
        ("7\tsrc\n7\tother\n", "line 2 repeats the value '7'"),
        ("7\tsrc\n\n8\ta\n7\tother\n", "line 4 repeats the value '7'"),
        ("7\n8\ta\n", "line 1 has no source tag"),
    ],
    ids=["empty-value", "repeated-value", "repeat-after-blank-line", "no-source-tag"],
)
def test_variable_pool_load_names_malformed_line(tmp_path, text, match):
    p = tmp_path / "vars.tsv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=match) as exc:
        VariablePool.load(p)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize(
    "text, sources",
    [
        ("v\t\n", {"v": ("",)}),
        ("v\t\t\n", {"v": ("", "")}),
        ("v\ta\t\tb\nw\ta\t\tb\n", {"v": ("a", "", "b"), "w": ("a", "", "b")}),
    ],
    ids=["one-empty-tag", "two-empty-tags", "empty-tag-between"],
)
def test_variable_pool_load_splits_tags_at_every_tab(tmp_path, text, sources):
    p = tmp_path / "vars.tsv"
    p.write_text(text, encoding="utf-8")
    assert VariablePool.load(p).sources == sources


@pytest.mark.parametrize(
    "value, tags",
    [("7", ()), ("", ("a",)), ("7\t8", ("a",)), ("7", ("a\rb",)), ("7\n", ("a",))],
    ids=["no-source", "empty-value", "tab-in-value", "cr-in-tag", "lf-in-value"],
)
def test_variable_pool_save_rejects_what_would_not_read_back(tmp_path, value, tags):
    p = tmp_path / "vars.tsv"
    vpool = VariablePool(sources={"ok": ("a",), value: tags})
    with pytest.raises(DataFormatError, match=re.escape(f"value {value!r} with sources")):
        vpool.save(p)
    assert not p.exists()


#: Any text a saved variable pool can hold: no tab, CR or LF, no surrogate.
_FIELD = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n")
)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.dictionaries(
        _FIELD.filter(bool), st.lists(_FIELD, min_size=1, max_size=3).map(tuple), max_size=6
    )
)
@example(pool={})  # an empty pool saves as an empty file and loads back
def test_variable_pool_round_trips_any_unicode(pool, tmp_path_factory):
    path = tmp_path_factory.mktemp("vpool") / "vars.tsv"
    VariablePool(sources=pool).save(path)
    again = VariablePool.load(path)
    assert again.values == tuple(pool)
    assert again.sources == pool


def test_variable_pool_values_are_the_sources_keys_in_order():
    pool = VariablePool(sources={"b": ["x"], "a": ("y", "z"), "c": ["x", "y"]})
    assert pool.values == tuple(pool.sources) == ("b", "a", "c")
    assert len(pool) == 3
    # Tags passed as lists come back as tuples; a list never equals a tuple.
    assert dict(pool.sources) == {"b": ("x",), "a": ("y", "z"), "c": ("x", "y")}


def test_variable_pool_takes_no_values_argument():
    # The values are the keys of `sources`, so there is no second list to disagree.
    with pytest.raises(TypeError):
        VariablePool(values=["a", "b"], sources={"a": ("x",)})


@pytest.mark.parametrize(
    "round_trip",
    [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_variable_pool_pickles_and_deep_copies(round_trip, tmp_path):
    path = tmp_path / "vars.tsv"
    build_variable_pool(source_datasets(200)[:2]).save(path)
    loaded = VariablePool.load(path)
    built = VariablePool(sources={"v": ["a", "b"]}, skipped={"a": [2]}, sha256="0" * 64)
    for pool in (loaded, built):
        again = round_trip(pool)
        assert again == pool
        assert (again.sha256, again.values, again.skipped) == (
            pool.sha256, pool.values, pool.skipped
        )
        # Still read-only once rebuilt.
        with pytest.raises(TypeError):
            again.sources[again.values[0]] = ("bogus",)
        with pytest.raises(TypeError):
            again.skipped["bogus"] = (1,)
    assert loaded.sha256 and built.skipped == {"a": (2,)}


def test_replacing_variable_pool_sources_updates_values():
    pool = VariablePool(sources={"a": ("x",)}, skipped={"d": [3]})
    again = replace(pool, sources={"c": ["y"], "a": ("x",)})
    assert again.values == ("c", "a")
    assert again.sources["c"] == ("y",)
    assert again.skipped == {"d": (3,)}
    assert pool.values == ("a",)


@pytest.mark.parametrize(
    "make",
    [
        lambda built, path: built,
        lambda built, path: replace(built, sources={**built.sources, "x": ["a", "b"]}),
        lambda built, path: VariablePool.load(path),
        lambda built, path: pickle.loads(pickle.dumps(VariablePool.load(path))),
        lambda built, path: copy.deepcopy(VariablePool.load(path)),
    ],
    ids=["built", "replaced", "loaded", "pickled", "deep-copied"],
)
def test_variable_pool_values_with_equal_tags_hold_one_tuple(make, tmp_path):
    built = build_variable_pool(source_datasets(200)[:2])
    path = tmp_path / "vars.tsv"
    built.save(path)
    tags = make(built, path).sources.values()
    assert len(set(map(id, tags))) == len(set(tags)) < len(tags)
