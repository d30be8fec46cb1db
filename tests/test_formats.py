"""The three CSV formats: one shared writer, each read back exactly."""

from __future__ import annotations

import csv

from hypothesis import given, settings
from hypothesis import strategies as st

from logblend.corpus import (
    Dataset,
    LogRecord,
    canonicalize_template,
    load_structured,
    read_csv_rows,
    write_csv_rows,
    write_dataset,
)
from logblend.parsers import read_parse_result, write_parse_result
from logblend.pool import OutlierPool, PoolEntry

# Commas, quotes, tabs, wildcards, non-ASCII whitespace, NUL, astral and
# combining characters, plus any other code point except surrogates.
_PIECE = st.one_of(
    st.sampled_from(
        [",", '"', '""', "\t", " ", "  ", "<*>", "\xa0", "\u2028", "\0",
         "\U0001F600", "e\u0301"]
    ),
    st.characters(blacklist_categories=("Cs",)),
)
_TEXT = st.lists(_PIECE, max_size=8).map("".join)
#: Content holds no line break; the readers reject one.
_LINE = _TEXT.map(lambda s: s.replace("\n", "").replace("\r", ""))
_TEMPLATE = _LINE.map(canonicalize_template)


def _plain_csv(path, header, rows) -> None:
    """What each writer emitted before they shared one."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(field) for field in row])


def test_writers_emit_what_a_plain_csv_writer_emits(tmp_path):
    records = [
        LogRecord(1, 'a, "b"\tc', "a, <*>", "x"),
        LogRecord(2, "d\xa0e", None, "y"),
    ]
    for ds, header, rows in [
        (
            Dataset("x", records),
            ["LineId", "Content", "EventTemplate", "Source"],
            [(1, 'a, "b"\tc', "a, <*>", "x"), (2, "d\xa0e", "", "y")],
        ),
        (
            Dataset("x", records[:1]),
            ["LineId", "Content", "EventTemplate"],
            [(1, 'a, "b"\tc', "a, <*>")],
        ),
    ]:
        write_dataset(ds, tmp_path / "got.csv")
        _plain_csv(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    entries = [PoolEntry('p,"q"', "p <*>", "s1"), PoolEntry("", "", "s2")]
    OutlierPool(entries).save(tmp_path / "got.csv")
    _plain_csv(
        tmp_path / "want.csv",
        ["LineId", "Content", "EventTemplate", "Source"],
        [(1, 'p,"q"', "p <*>", "s1"), (2, "", "", "s2")],
    )
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    write_parse_result(["a <*>", "", '"q"'], tmp_path / "got.csv")
    _plain_csv(
        tmp_path / "want.csv",
        ["LineId", "EventTemplate"],
        [(1, "a <*>"), (2, ""), (3, '"q"')],
    )
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(_TEXT, min_size=3, max_size=3), max_size=5))
def test_write_csv_rows_is_read_back(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_csv_rows(path, ["a", "b", "c"], rows)
    header, got = read_csv_rows(path)
    assert header == ["a", "b", "c"]
    # A row of three empty fields is written as ",,", which is not skipped.
    assert [row for _, row in got] == rows


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_LINE, st.one_of(st.none(), _TEMPLATE), st.one_of(st.just("ds"), _LINE)),
        max_size=6,
    )
)
def test_dataset_round_trips(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "ds.csv"
    records = [
        LogRecord(i, content, template or None, source)
        for i, (content, template, source) in enumerate(rows, start=1)
    ]
    write_dataset(Dataset("ds", records), path)
    assert load_structured(path, name="ds").records == records


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.builds(PoolEntry, _LINE, _TEMPLATE, _TEXT), max_size=6))
def test_outlier_pool_round_trips(entries, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "outliers.csv"
    OutlierPool(entries).save(path)
    assert OutlierPool.load(path).entries == entries


@settings(max_examples=100, deadline=None)
@given(templates=st.lists(_TEMPLATE, max_size=6))
def test_parse_result_round_trips(templates, tmp_path_factory):
    path = tmp_path_factory.mktemp("parsed") / "parsed.csv"
    write_parse_result(templates, path)
    assert read_parse_result(path, expected_len=len(templates)) == templates
