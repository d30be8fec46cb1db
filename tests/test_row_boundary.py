"""A dataset is three columns; only `corpus.py` knows its row format.

`LogRecord` and `Dataset.records` are the row view that library callers
read. Every other module of the package reads and writes the columns, and
no stage from load to write builds a record.
"""

from __future__ import annotations

import ast
import re
from dataclasses import astuple
from pathlib import Path

import pytest

import logblend
from logblend import corpus
from logblend.corpus import load_raw, load_structured, write_dataset
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.harness import build_combined_dataset
from logblend.heterogeneity import proxy_stats
from logblend.mixing import MixConfig, mix
from logblend.parsers import TokenFrequencyParserConfig, TreeParserConfig, parse
from logblend.pool import build_outlier_pool, build_variable_pool

from helpers import source_datasets

README = Path(__file__).resolve().parent.parent / "README.md"


def _row_format_uses(source: str) -> list[str]:
    """Each place `source` names `LogRecord` or reads a `.records` attribute."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        name = (
            getattr(node, "id", None)
            or getattr(node, "attr", None)
            or (node.name if isinstance(node, ast.alias) else None)
        )
        if name == "LogRecord" or (isinstance(node, ast.Attribute) and name == "records"):
            uses.append(f"line {node.lineno}: {name}")
    return uses


def test_only_corpus_names_the_row_format():
    found = {}
    for path in sorted(Path(logblend.__file__).parent.glob("*.py")):
        uses = _row_format_uses(path.read_text(encoding="utf-8"))
        if uses and path.name != "corpus.py":
            found[path.name] = uses
    assert found == {}
    # The guard itself sees what it forbids.
    assert _row_format_uses(Path(corpus.__file__).read_text(encoding="utf-8"))


def test_no_record_is_built_from_load_to_write(tmp_path, monkeypatch):
    paths = []
    for ds in source_datasets(200)[:2]:
        paths.append(tmp_path / f"{ds.name}.csv")
        write_dataset(ds, paths[-1])
    (tmp_path / "raw.log").write_text("one\ntwo\n", encoding="utf-8")

    def fail(*_, **__):
        raise AssertionError("a LogRecord was built")

    monkeypatch.setattr(corpus, "LogRecord", fail)
    datasets = [load_structured(path) for path in paths]
    assert len(load_raw(tmp_path / "raw.log").records) == 2
    assert len(datasets[0].records) == 200
    opool, vpool = build_outlier_pool(datasets), build_variable_pool(datasets)
    mixed = mix(datasets[0], opool, MixConfig(strength=1.0, seed=1))
    fuzzed = fuzz(mixed, vpool, FuzzConfig(seed=1)).dataset
    combined = build_combined_dataset([fuzzed, datasets[1]], size=100, seed=1)
    for cfg in (TreeParserConfig(), TokenFrequencyParserConfig()):
        parse(combined, cfg)
    proxy_stats(combined)
    write_dataset(combined, tmp_path / "out.csv")
    with pytest.raises(AssertionError, match="LogRecord was built"):
        combined.records[0]


def test_records_view_yields_rows_with_their_line_ids():
    ds = source_datasets(200)[0]
    records = ds.records
    assert len(records) == len(ds)
    rows = zip(range(1, 201), ds.contents(), ds.ground_truths, ds.sources)
    assert list(map(astuple, records)) == list(rows)
    assert records[-1] == records[199]
    assert records[1:3] == [records[1], records[2]]
    with pytest.raises(IndexError):
        records[200]


def test_readme_library_section_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    section = section[: section.index("\n## ", 1)]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    for ds, name in zip(source_datasets(), ("Apache_2k", "HDFS_2k")):
        write_dataset(ds, tmp_path / f"{name}.log_structured.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
