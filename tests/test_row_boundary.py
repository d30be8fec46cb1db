"""A dataset is three columns, and nothing reads it by rows.

There is no row type. `Dataset.records` zips the columns for perfbench alone,
so no module of the package reads it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import logblend
from logblend.corpus import write_dataset

from helpers import source_datasets

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _row_format_uses(source: str) -> tuple[list[str], list[str]]:
    """Each place `source` names `LogRecord`, and each place it reads `.records`."""
    names, reads = [], []
    for node in ast.walk(ast.parse(source)):
        name = (
            getattr(node, "id", None)
            or getattr(node, "attr", None)
            or (node.name if isinstance(node, ast.alias) else None)
        )
        if name == "LogRecord":
            names.append(f"line {node.lineno}")
        if isinstance(node, ast.Attribute) and name == "records":
            reads.append(f"line {node.lineno}")
    return names, reads


def test_no_row_type_is_named_and_no_module_reads_rows():
    # The guard sees what it forbids.
    forbidden = "from x import LogRecord\nds.records"
    assert _row_format_uses(forbidden) == (["line 1"], ["line 2"])
    package = sorted(Path(logblend.__file__).parent.glob("*.py"))
    found = {}
    for path in [*package, *sorted((ROOT / "perfbench").glob("*.py"))]:
        names, reads = _row_format_uses(path.read_text(encoding="utf-8"))
        if path in package:
            names += reads
        if names:
            found[path.name] = names
    assert found == {}


def test_records_are_the_zipped_columns():
    ds = source_datasets(200)[0]
    assert ds.records == tuple(zip(ds.contents(), ds.ground_truths, ds.sources))


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
