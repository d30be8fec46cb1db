"""The code parses as Python 3.10, the floor `requires-python` declares.

Only the grammar is checked: a call into a library newer than 3.10 still
passes here and fails only under a 3.10 interpreter.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert ROOT / "src" / "logblend" / "parsers.py" in files
    assert Path(__file__).resolve() in files
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, "\n".join(refused)
