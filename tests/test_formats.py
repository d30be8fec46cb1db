"""The three CSV formats: one writer and one checked reader, each read back exactly."""

from __future__ import annotations

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend.corpus import (
    Dataset,
    canonicalize_template,
    load_structured,
    read_columns,
    write_csv_rows,
    write_dataset,
)
from logblend.errors import DataFormatError
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
    contents, truths, sources = ['a, "b"\tc', "d\xa0e"], ["a, <*>", None], ["x", "y"]
    for ds, header, rows in [
        (
            Dataset("x", contents, truths, sources),
            ["LineId", "Content", "EventTemplate", "Source"],
            [(1, 'a, "b"\tc', "a, <*>", "x"), (2, "d\xa0e", "", "y")],
        ),
        (
            Dataset("x", contents[:1], truths[:1], sources[:1]),
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
    columns, _ = read_columns(path, ("a", "b", "c"))
    # A row of three empty fields is written as ",,", which is not skipped.
    assert list(map(list, zip(columns["a"], columns["b"], columns["c"]))) == rows


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_LINE, st.one_of(st.none(), _TEMPLATE), st.one_of(st.just("ds"), _LINE)),
        max_size=6,
    )
)
def test_dataset_round_trips(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "ds.csv"
    # An empty template is read back as unlabeled.
    ds = Dataset(
        "ds", [c for c, _, _ in rows], [t or None for _, t, _ in rows], [s for *_, s in rows]
    )
    write_dataset(ds, path)
    assert load_structured(path, name="ds") == ds


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.builds(PoolEntry, _LINE, _TEMPLATE, _TEXT), max_size=6))
def test_outlier_pool_round_trips(entries, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "outliers.csv"
    OutlierPool(entries).save(path)
    assert OutlierPool.load(path).entries == tuple(entries)


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_writers_reject_a_line_break_in_content_and_write_nothing(brk, tmp_path):
    # The readers reject such a file, so the writers do not make one.
    ds = Dataset("ds", ["a", f"b{brk}c"], ["a", "b <*>"], ["ds", "ds"])
    with pytest.raises(ValueError, match="^line 2 content contains a line break"):
        write_dataset(ds, tmp_path / "ds.csv")
    entries = [PoolEntry("a", "a", "s"), PoolEntry(f"b{brk}c", "b <*>", "s")]
    with pytest.raises(ValueError, match="^line 2 content contains a line break"):
        OutlierPool(entries).save(tmp_path / "pool.csv")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(templates=st.lists(_TEMPLATE, max_size=6))
def test_parse_result_round_trips(templates, tmp_path_factory):
    path = tmp_path_factory.mktemp("parsed") / "parsed.csv"
    write_parse_result(templates, path)
    assert read_parse_result(path, expected_len=len(templates)) == templates


#: Per format: its header, one row for a LineId, and a reader returning a list.
_FORMATS = {
    "dataset": (
        "LineId,Content,EventTemplate",
        "{0},x {0},t{0} <*>",
        lambda path: list(load_structured(path, name="ds").records),
    ),
    "outlier-pool": (
        "LineId,Content,EventTemplate,Source",
        "{0},x {0},t{0} <*>,s{0}",
        lambda path: OutlierPool.load(path).entries,
    ),
    "parser-output": ("LineId,EventTemplate", "{0},t{0} <*>", read_parse_result),
}


def _write_format(path, fmt, line_ids) -> None:
    header, row, _ = _FORMATS[fmt]
    lines = [header] + [row.format(i) for i in line_ids]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("fmt", _FORMATS)
def test_rows_come_back_in_line_id_order(fmt, tmp_path):
    read = _FORMATS[fmt][2]
    _write_format(tmp_path / "ordered.csv", fmt, [1, 2, 3, 4])
    _write_format(tmp_path / "shuffled.csv", fmt, [3, 1, 4, 2])
    ordered = read(tmp_path / "ordered.csv")
    assert len(set(map(str, ordered))) == 4
    assert read(tmp_path / "shuffled.csv") == ordered


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize(
    "line_ids, match",
    [
        ([1, 3], "row 3 has LineId 3; LineId values must be contiguous from 1, here 1..2"),
        ([2, 1, 2], "row 4 repeats LineId 2 of row 2"),
        ([0, 1], "row 2 has LineId 0"),
        ([1, 2, 5, 3], "row 4 has LineId 5"),
    ],
    ids=["gap", "duplicate", "zero", "past-the-end"],
)
def test_line_id_gap_or_duplicate_names_the_file_and_row(fmt, line_ids, match, tmp_path):
    path = tmp_path / "bad.csv"
    _write_format(path, fmt, line_ids)
    with pytest.raises(DataFormatError, match=match) as exc:
        _FORMATS[fmt][2](path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("column", ["LineId", "EventTemplate"])
def test_repeated_column_names_the_file_and_column(fmt, column, tmp_path):
    header, row, read = _FORMATS[fmt]
    path = tmp_path / "bad.csv"
    path.write_text(f"{header},{column}\n{row.format(1)},1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"header repeats column '{column}'") as exc:
        read(path)
    assert str(path) in str(exc.value)
