"""Contents are split on U+0020 in one place: `corpus`, by `Dataset.tokens`.

A dataset builds its token table once, on first use, and every built-in
parse of it reads that table. The per-line split that the parsers used to
make is the oracle here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import logblend
from logblend import corpus
from logblend.corpus import Dataset
from logblend.parsers import TokenFrequencyParserConfig, TreeParserConfig, parse

from helpers import reference_tokenfreq, reference_tree, source_datasets


def _space_splits(source: str) -> list[str]:
    """Each place `source` calls ``.split(" ")``, by position or by `sep`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "split":
            continue
        seps = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "sep")]
        if any(isinstance(s, ast.Constant) and s.value == " " for s in seps):
            found.append(f"line {node.lineno}")
    return found


def _token_names(source: str) -> list[str]:
    """Each place `source` imports or names `_tokens`, corpus's private split."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named = any(alias.name == "_tokens" for alias in node.names)
        else:
            named = (isinstance(node, ast.Name) and node.id == "_tokens") or (
                isinstance(node, ast.Attribute) and node.attr == "_tokens"
            )
        if named:
            found.append(f"line {node.lineno}")
    return found


def test_no_module_but_corpus_splits_on_spaces():
    # The guard sees what it forbids, and lets other separators pass.
    forbidden = 'a.split(" ")\nb.split(sep=" ")\nc.split()\nd.split(",")'
    assert _space_splits(forbidden) == ["line 1", "line 2"]
    named = "from .corpus import _tokens\nx = corpus._tokens\n_tokens(c)\ny = tokens"
    assert _token_names(named) == ["line 1", "line 2", "line 3"]
    package = Path(logblend.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "corpus.py":
            source = path.read_text(encoding="utf-8")
            places = _space_splits(source) + _token_names(source)
            if places:
                found[path.name] = places
    assert found == {}
    assert _space_splits((package / "corpus.py").read_text(encoding="utf-8"))


def _dataset(contents) -> Dataset:
    return Dataset("t", contents, [None] * len(contents), ["t"] * len(contents))


#: Runs of spaces and characters that stay inside a token: tab, NBSP, U+2028.
_CONTENT = st.one_of(
    st.lists(
        st.sampled_from([" ", "  ", "a", "<*>", "\t", "\xa0", " ", "\xe9", "x1"]),
        max_size=12,
    ).map("".join),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(contents=st.lists(_CONTENT, max_size=20))
@example(contents=["", " ", "   ", " a  b ", "a\tb\xa0c d  e", "  \xa0"])
def test_tokens_split_each_content_on_spaces_alone(contents):
    ds = _dataset(contents)
    expected = tuple(tuple(filter(None, c.split(" "))) for c in contents)
    assert ds.tokens == expected
    assert all(type(tokens) is tuple for tokens in ds.tokens)


def test_tokens_are_built_once_and_leave_the_dataset_equal():
    fresh = source_datasets(200)[0]
    ds = Dataset(fresh.name, fresh.contents(), fresh.ground_truths, fresh.sources)
    table = ds.tokens
    assert ds.tokens is table
    assert ds == fresh and hash(ds) == hash(fresh) and repr(ds) == repr(fresh)
    assert Dataset(ds.name, ds.contents(), ds.ground_truths, ds.sources).tokens == table


def test_every_parse_of_a_dataset_splits_each_line_once(monkeypatch):
    cached = source_datasets(200)[1]
    ds = Dataset(cached.name, cached.contents(), cached.ground_truths, cached.sources)
    split, calls = corpus._tokens, []

    def counting(content: str) -> tuple[str, ...]:
        calls.append(content)
        return split(content)

    monkeypatch.setattr(corpus, "_tokens", counting)
    masked_cfg = TreeParserConfig(masks=(r"\d+",))
    tree = parse(ds, TreeParserConfig())
    tokenfreq = parse(ds, TokenFrequencyParserConfig())
    masked = parse(ds, masked_cfg)
    # A masked parse splits each masked content once, through the same table.
    masked_contents = [re.sub(r"\d+", "<*>", content) for content in ds.contents()]
    assert calls == [*ds.contents(), *masked_contents]
    assert tree == reference_tree(ds, TreeParserConfig())
    assert tokenfreq == reference_tokenfreq(ds, TokenFrequencyParserConfig().threshold)
    assert masked == reference_tree(ds, masked_cfg)
