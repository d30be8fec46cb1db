"""Every CSV format is written by one function, `corpus.write_columns`, and
only `corpus.py` uses the `csv` module.

`write_columns` refuses what the reader rejects, so a writer that went round
it could write a file that does not read back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import logblend
from logblend import corpus, parsers, pool
from logblend.corpus import Dataset, write_dataset
from logblend.parsers import write_parse_result

from helpers import outlier_pool


def _imported(tree: ast.Module) -> set[str]:
    """The top-level names of the modules a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_corpus_imports_csv():
    importers = {
        path.name
        for path in sorted(Path(logblend.__file__).parent.glob("*.py"))
        if "csv" in _imported(ast.parse(path.read_text(encoding="utf-8")))
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
