"""Every input file is read and decoded by one function, `corpus.read_text`.

The loaders used to read in text mode, line by line; that loop is the
oracle here (`helpers.text_mode_lines`).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logblend
from logblend.corpus import load_raw, read_text
from logblend.errors import DataFormatError
from logblend.pool import VariablePool

from helpers import text_mode_lines

#: Characters that `str.splitlines` ends a line at but text-mode reading does
#: not (VT, FF, FS, GS, RS, NEL, U+2028, U+2029), plus tab, space and non-ASCII.
_IN_LINE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
            "\t", " ", "\xe9", "\U0001F600"]
_LINE = st.lists(
    st.one_of(
        st.sampled_from(_IN_LINE),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    ),
    max_size=6,
).map("".join)
_BREAK = st.sampled_from(["\n", "\r", "\r\n"])


@st.composite
def _text(draw, lines=st.lists(_LINE, min_size=1, max_size=8)) -> str:
    """Lines joined by random LF, CR and CRLF, with or without a final break."""
    parts = draw(lines)
    breaks = draw(st.lists(_BREAK, min_size=len(parts), max_size=len(parts)))
    text = "".join(line + brk for line, brk in zip(parts, breaks))
    return text if draw(st.booleans()) else text[: -len(breaks[-1])]


@settings(max_examples=200, deadline=None)
@given(text=_text(), where=st.floats(0, 1), bad=st.integers(0x80, 0xFF))
def test_bad_byte_is_reported_on_the_line_a_text_reader_is_on(
    text, where, bad, tmp_path_factory
):
    # Put between two characters, any byte from 0x80 up is not UTF-8.
    cut = round(where * len(text))
    path = tmp_path_factory.mktemp("bad") / "bad.txt"
    path.write_bytes(text[:cut].encode() + bytes([bad]) + text[cut:].encode())
    line = next(
        num
        for num, line in enumerate(text_mode_lines(path), start=1)
        if any("\udc80" <= c <= "\udcff" for c in line)
    )
    with pytest.raises(DataFormatError) as exc:
        read_text(path)
    assert str(exc.value) == f"{path}: line {line}: byte 0x{bad:02x} is not UTF-8"


@settings(max_examples=200, deadline=None)
@given(text=_text())
def test_load_raw_splits_lines_as_text_mode_reading_did(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("raw") / "raw.log"
    path.write_bytes(text.encode())
    want = [line for line in text_mode_lines(path) if line.strip()]
    assert list(load_raw(path).contents()) == want


_VALUE = _LINE.filter(lambda s: s and "\t" not in s)
_ENTRY = st.tuples(_VALUE, st.lists(_VALUE, min_size=1, max_size=2)).map(
    lambda entry: "\t".join((entry[0], *entry[1]))
)


@settings(max_examples=200, deadline=None)
@given(
    text=_text(
        st.lists(st.one_of(_ENTRY, st.just("")), min_size=1, max_size=8).filter(
            lambda lines: len({line.split("\t")[0] for line in lines if line})
            == sum(1 for line in lines if line)
        )
    )
)
def test_variable_pool_splits_lines_as_text_mode_reading_did(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("vpool") / "variable_pool.tsv"
    path.write_bytes(text.encode())
    entries = [line.split("\t") for line in text_mode_lines(path) if line]
    pool = VariablePool.load(path)
    assert pool.values == tuple(value for value, *_ in entries)
    assert dict(pool.sources) == {value: tuple(tags) for value, *tags in entries}


class _FileReads(ast.NodeVisitor):
    """Where a module reads a file or names UnicodeDecodeError.

    A read is a call of a `read_text` or `read_bytes` method, or of `open`
    without a mode that writes. Each is noted with its outermost function,
    and whether it is the argument of a `sha256` call.
    """

    def __init__(self) -> None:
        self.function = "<module>"
        self.hashed: set[int] = set()
        self.found: list[tuple[str, str, bool]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self.function != "<module>":
            return self.generic_visit(node)
        self.function = node.name
        self.generic_visit(node)
        self.function = "<module>"

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "UnicodeDecodeError":
            self.found.append((self.function, node.id, False))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        method = func.attr if isinstance(func, ast.Attribute) else None
        if method == "sha256" or getattr(func, "id", None) == "sha256":
            self.hashed.update(id(arg) for arg in node.args)
        if method in ("read_text", "read_bytes") or (
            (method or getattr(func, "id", None)) == "open" and not _writes(node)
        ):
            what = method or "open"
            self.found.append((self.function, what, id(node) in self.hashed))
        self.generic_visit(node)


def _writes(call: ast.Call) -> bool:
    """Whether an `open` call's mode is a constant that writes, appends or creates."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(
        isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")
        for mode in modes
    )


def test_files_are_read_and_decoded_only_in_read_text():
    allowed = {
        ("corpus.py", "read_text", "read_bytes", False),
        ("corpus.py", "read_text", "UnicodeDecodeError", False),
    }
    found = set()
    for path in sorted(Path(logblend.__file__).parent.glob("*.py")):
        visitor = _FileReads()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update((path.name, *place) for place in visitor.found)
    assert found - allowed == set()
    # The guard itself still sees what it allows.
    assert ("corpus.py", "read_text", "read_bytes", False) in found
