"""Every CSV format is written by one function, `corpus.write_columns`, and
only `corpus.py` uses the `csv` module.

`write_columns` refuses what the reader rejects, so a writer that went round
it could write a file that does not read back.
"""

from __future__ import annotations

from pathlib import Path

import logblend
from logblend import corpus, parsers, pool
from logblend.corpus import Dataset, write_dataset
from logblend.parsers import write_parse_result

from helpers import absolute_imports, outlier_pool


def _imports_csv(source: str) -> bool:
    return any(module.split(".")[0] == "csv" for _, module in absolute_imports(source))


def test_only_corpus_imports_csv():
    # The guard sees what it forbids, and lets look-alike names pass.
    assert _imports_csv("import os, csv") and _imports_csv("from csv import writer")
    assert not _imports_csv("from . import csv\nimport csvkit\nfrom os import csv")
    importers = {
        path.name
        for path in sorted(Path(logblend.__file__).parent.glob("*.py"))
        if _imports_csv(path.read_text(encoding="utf-8"))
    }
    assert importers == {"corpus.py"}


def test_each_csv_format_is_written_by_write_columns(tmp_path, monkeypatch):
    calls = []
    write_columns = corpus.write_columns

    def counted(path, columns):
        calls.append((Path(path).name, list(columns)))
        write_columns(path, columns)

    # Each writer calls the name bound in its own module.
    for module in (corpus, pool, parsers):
        monkeypatch.setattr(module, "write_columns", counted)
    write_dataset(Dataset("ds", ["a"], ["a"], ["ds"]), tmp_path / "ds.csv")
    outlier_pool([("a", "a", "s")]).save(tmp_path / "pool.csv")
    write_parse_result(["a"], tmp_path / "parsed.csv")
    assert calls == [
        ("ds.csv", ["Content", "EventTemplate"]),
        ("pool.csv", ["Content", "EventTemplate", "Source"]),
        ("parsed.csv", ["EventTemplate"]),
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "ds.csv", "parsed.csv", "pool.csv"
    ]
