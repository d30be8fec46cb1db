"""The three CSV formats: one writer and one checked reader, each read back exactly."""

from __future__ import annotations

import csv
import io
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logblend import corpus
from logblend.corpus import (
    Dataset,
    canonicalize_template,
    load_structured,
    read_columns,
    write_columns,
    write_dataset,
)
from logblend.errors import DataFormatError
from logblend.parsers import read_parse_result, write_parse_result
from logblend.pool import OutlierPool

from helpers import dataset_rows, outlier_pool, pool_rows

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


def _written(write, path) -> bytes:
    """The bytes `write(path)` leaves in `path`."""
    write(path)
    return path.read_bytes()


_FIXED_POOL = [('p,"q"', "p <*>", "s1"), ("", "<*>", "s2")]
_FIXED_PARSE = ["a <*>", "", '"q"']


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(_LINE, _TEXT, st.one_of(st.just("x"), _TEXT)), max_size=5),
    # Every pooled line is labeled: the writer refuses an empty template.
    entries=st.lists(
        st.tuples(_LINE, _TEXT.filter(lambda t: t.strip(" ")), _TEXT), max_size=5
    ),
    templates=st.lists(_TEXT, max_size=5),
)
@example(
    rows=[('a, "b"\tc', "a, <*>", "x"), ("d\xa0e", "", "y")],
    entries=_FIXED_POOL,
    templates=_FIXED_PARSE,
)
@example(rows=[('a, "b"\tc', "a, <*>", "x")], entries=_FIXED_POOL, templates=_FIXED_PARSE)
def test_writers_emit_what_a_plain_csv_writer_emits(rows, entries, templates, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("writers")

    def same(write, header, want_rows):
        want = _written(lambda path: _plain_csv(path, header, want_rows), tmp / "want.csv")
        assert _written(write, tmp / "x.csv") == want

    contents, truths, sources = map(list, zip(*rows)) if rows else ([], [], [])
    ds = Dataset("ds", contents, [t or None for t in truths], sources)
    header = ["LineId", "Content", "EventTemplate", "Source"]
    # Source only when some source is not the file's stem, whatever the name.
    width = 4 if set(sources) - {"x"} else 3
    same(
        lambda path: write_dataset(ds, path),
        header[:width],
        [(i, *row)[:width] for i, row in enumerate(rows, 1)],
    )
    same(outlier_pool(entries).save, header, [(i, *e) for i, e in enumerate(entries, 1)])
    same(
        lambda path: write_parse_result(templates, path),
        ["LineId", "EventTemplate"],
        list(enumerate(templates, 1)),
    )


@settings(max_examples=100, deadline=None)
@given(
    table=st.integers(1, 3).flatmap(
        lambda width: st.lists(st.lists(_TEXT, min_size=width, max_size=width), min_size=1)
    ).filter(lambda table: len(set(table[0]) | {"LineId"}) == len(table[0]) + 1)
)
def test_write_columns_emits_what_a_plain_csv_writer_emits(table, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("table")
    header, *rows = table  # the names of the columns after LineId, each once
    want_rows = [(i, *row) for i, row in enumerate(rows, 1)]
    want = _written(lambda path: _plain_csv(path, ["LineId", *header], want_rows), tmp / "want.csv")
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    assert _written(lambda path: write_columns(path, columns), tmp / "got.csv") == want


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(_TEXT, min_size=3, max_size=3), max_size=5))
def test_write_columns_is_read_back(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    columns = zip(*rows) if rows else ((), (), ())
    write_columns(path, dict(zip(["a", "b", "c"], columns)))
    columns, _ = read_columns(path, ("a", "b", "c"))
    # A row of three empty fields is written as "1,,,", which is not skipped.
    assert list(map(list, zip(columns["a"], columns["b"], columns["c"]))) == rows


@pytest.mark.parametrize(
    "columns, lengths",
    [
        ({"Content": ["a"], "EventTemplate": []}, "'Content': 1, 'EventTemplate': 0"),
        ({"EventTemplate": ["a"], "Content": ["b", "c\rd"]}, "'EventTemplate': 1, 'Content': 2"),
    ],
    ids=["shorter", "longer"],
)
def test_write_columns_refuses_columns_of_different_lengths_and_writes_nothing(
    columns, lengths, tmp_path
):
    with pytest.raises(ValueError, match=f"^columns of different lengths: {{{lengths}}}$"):
        write_columns(tmp_path / "x.csv", columns)
    assert list(tmp_path.iterdir()) == []


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
# Every pooled line is labeled: the writer refuses an empty template.
@given(entries=st.lists(st.tuples(_LINE, _TEMPLATE.filter(bool), _TEXT), max_size=6))
def test_outlier_pool_round_trips(entries, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "outliers.csv"
    outlier_pool(entries).save(path)
    assert pool_rows(OutlierPool.load(path)) == tuple(entries)


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_writers_reject_a_line_break_in_content_and_write_nothing(brk, tmp_path):
    # The readers reject such a file, so the writers do not make one.
    ds = Dataset("ds", ["a", f"b{brk}c"], ["a", "b <*>"], ["ds", "ds"])
    entries = [("a", "a", "s"), (f"b{brk}c", "b <*>", "s")]
    for path, write in (
        (tmp_path / "ds.csv", lambda path: write_dataset(ds, path)),
        (tmp_path / "pool.csv", outlier_pool(entries).save),
    ):
        message = f"{path}: line 2 content contains a line break"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}"):
            write(path)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(templates=st.lists(_TEMPLATE, max_size=6))
def test_parse_result_round_trips(templates, tmp_path_factory):
    path = tmp_path_factory.mktemp("parsed") / "parsed.csv"
    write_parse_result(templates, path)
    assert read_parse_result(path) == templates


#: Template fields as files hold them: leading, trailing and repeated spaces,
#: "", tab, NBSP and a (quoted) line break among other text.
_RAW_TEMPLATE = st.lists(
    st.one_of(st.sampled_from([" ", "  ", "\t", "\xa0", "\n", "a", "<*>"]), _PIECE),
    max_size=6,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(
    templates=st.lists(_RAW_TEMPLATE, min_size=1, max_size=6).flatmap(
        lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=12)
    )
)
@example(templates=["a b", "", "a b", "c <*>"])  # all canonical
@example(templates=["a  b", "a b", " a b", "", "a b "])  # four spellings of one form
@example(templates=["", " "])
def test_templates_read_as_canonicalized_fields_one_object_per_form(
    templates, tmp_path_factory
):
    path = tmp_path_factory.mktemp("templates") / "parsed.csv"
    _plain_csv(path, ("LineId", "EventTemplate"), enumerate(templates, start=1))
    want = [canonicalize_template(text) for text in templates]
    columns, _ = read_columns(path, ("EventTemplate",))
    for got in (columns["EventTemplate"], read_parse_result(path)):
        assert got == want
        assert len({id(text) for text in got}) == len(set(got))


#: Per format: its header, one row for a LineId, and a reader returning a list.
_FORMATS = {
    "dataset": (
        "LineId,Content,EventTemplate",
        "{0},x {0},t{0} <*>",
        lambda path: dataset_rows(load_structured(path, name="ds")),
    ),
    "outlier-pool": (
        "LineId,Content,EventTemplate,Source",
        "{0},x {0},t{0} <*>,s{0}",
        lambda path: pool_rows(OutlierPool.load(path)),
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


def test_a_line_id_of_more_digits_than_int_converts_reads_as_its_value(tmp_path):
    path = tmp_path / "parsed.csv"
    one = "0" * 4400 + "1"
    _write_format(path, "parser-output", [2, one])
    assert read_parse_result(path) == [f"t{one} <*>", "t2 <*>"]


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize(
    "line_ids, match",
    [
        ([1, 3], "row 3 has LineId 3; LineId values must be contiguous from 1, here 1..2"),
        ([2, 1, 2], "row 4 repeats LineId 2 of row 2"),
        ([0, 1], "row 2 has LineId 0"),
        ([1, 2, 5, 3], "row 4 has LineId 5"),
        # Each of these int() reads as 1 or 2; a LineId is ASCII digits alone.
        (["0_2", 1], "row 2 has non-integer LineId '0_2'"),
        ([" 1", 2], "row 2 has non-integer LineId ' 1'"),
        ([1, "+2"], r"row 3 has non-integer LineId '\+2'"),
        (["\u0661", 2], "row 2 has non-integer LineId '\u0661'"),
        # More digits than int() converts; the message does not convert them.
        ([1, "0" * 4400 + "1"], "row 3 repeats LineId 1 of row 2"),
        ([1, "9" * 4400], f"row 3 has LineId {'9' * 4400}; LineId values must be"),
    ],
    ids=["gap", "duplicate", "zero", "past-the-end", "underscore", "space", "sign",
         "arabic-indic-digit", "zeros-past-the-digit-limit", "past-the-digit-limit"],
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


# --- bulk split and csv.reader give the same columns and errors -------------

#: Field text with no comma or quote: tabs, spaces, wildcards, digits, NUL,
#: and the characters str.splitlines ends a line at but CSV does not.
_UNQUOTED = st.lists(
    st.sampled_from(
        ["a", " ", "\t", "<*>", "0", "1", "é", "\0", "\v", "\f", "\x1c", "\x85", " "]
    ),
    max_size=3,
).map("".join)


@st.composite
def _quote_free_csv(draw) -> str:
    """CSV text with no quote: a header of the columns read and others;
    rows that may be ragged, with permuted, zero-padded or bad LineIds; empty
    lines anywhere; any mix of CR, LF and CRLF; empty and header-only files."""
    extra = st.lists(st.sampled_from(["LineId", "Source", "x", "EventTemplate"]), max_size=3)
    names = draw(st.permutations(["Content", "EventTemplate", *draw(extra)]))
    names = names[: draw(st.sampled_from([len(names)] * 8 + [0, 1]))]
    ids = draw(st.permutations(range(1, draw(st.integers(0, 5)) + 1)))
    lines = [",".join(names)]
    for line_id in ids:
        fields = [
            draw(st.sampled_from([str(line_id)] * 4 + [f"0{line_id}", "0", "x1"]))
            if name == "LineId"
            else draw(_UNQUOTED)
            for name in names
        ]
        width = draw(st.sampled_from([len(fields)] * 16 + [len(fields) - 1, len(fields) + 1]))
        lines.append(",".join((fields + ["b"])[: max(width, 0)]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    line_break = st.sampled_from(["\n", "\r", "\r\n"])
    breaks = draw(st.lists(line_break, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.booleans()) else text[: len(text) - len(breaks[-1])]


def _read_or_error(path) -> tuple | str:
    try:
        return read_columns(path, ("Content", "EventTemplate"), ("Source",))
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_quote_free_csv())
@example(text="")
@example(text="\n")
@example(text="Content,EventTemplate")
@example(text="\r\nContent,EventTemplate\r\na,b\r\n")
@example(text="LineId,Content,EventTemplate\n\n1,a,b\r\rx1,c,d\n")
def test_a_quote_free_file_reads_as_csv_reader_reads_it(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("bulk") / "bulk.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(corpus, "_split_rows", lambda text: None):
        want = _read_or_error(path)
    assert _read_or_error(path) == want


def test_only_a_file_holding_a_quote_is_read_by_csv_reader(tmp_path):
    path = tmp_path / "ds.csv"
    calls = []
    read_rows = corpus._read_rows
    with mock.patch.object(corpus, "_read_rows", lambda *a: calls.append(a) or read_rows(*a)):
        for text, by_csv in [
            ("Content,EventTemplate\r\na b,a <*>\r\n", False),
            ('Content,EventTemplate\r\n"a,b",a <*>\r\n', True),
            ('Content,EventTemplate\r\na b",a <*>\r\n', True),
            ("Content,EventTemplate\r\na\0b,a <*>\r\n", False),
        ]:
            path.write_bytes(text.encode("utf-8"))
            calls.clear()
            load_structured(path)
            assert bool(calls) == by_csv, text


@pytest.mark.parametrize("first", ["ab,t", '"ab",t'], ids=["quote-free", "quoted"])
def test_a_field_over_the_csv_size_limit_names_its_row_on_either_path(first, tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(f"Content,EventTemplate\n{first}\n{'x' * 21},t\n", encoding="utf-8")
    limit = csv.field_size_limit(20)
    try:
        with pytest.raises(DataFormatError) as exc:
            load_structured(path)
        # A line longer than the limit whose fields are not is read.
        long_line = f"{'x' * 20},{'t' * 20}"
        path.write_text(f"Content,EventTemplate\n{first}\n{long_line}\n", encoding="utf-8")
        assert load_structured(path).contents() == ("ab", "x" * 20)
    finally:
        csv.field_size_limit(limit)
    assert str(exc.value) == f"{path}: row 3: field larger than field limit (20)"


def test_a_quote_free_file_holding_nul_reads_as_csv_reader_reads_it(tmp_path):
    path = tmp_path / "ds.csv"
    text = "Content,EventTemplate\r\na\0b,a <*>\r\n"
    path.write_text(text, encoding="utf-8", newline="")
    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    assert rows[1] == ["a\0b", "a <*>"]
    assert load_structured(path).contents() == ("a\0b",)
