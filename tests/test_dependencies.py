"""The package imports only what an install of it provides: the standard
library, the package itself, and the dependencies `pyproject.toml` declares.

The tests run with the dev extras (pytest, hypothesis) installed, so a module
that imported one of them would pass every test and fail on a user's install.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

import logblend


def _declared() -> set[str]:
    """The import names of the `[project] dependencies` of `pyproject.toml`."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def _foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """Each import in `source` of a top-level module not in `allowed`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        foreign = [name for name in names if name.split(".")[0] not in allowed]
        found += [f"line {node.lineno}: {name}" for name in foreign]
    return found


def test_the_package_imports_only_the_stdlib_itself_and_its_dependencies():
    allowed = {*sys.stdlib_module_names, "logblend", *_declared()}
    assert "numpy" in allowed
    # The guard sees what it forbids, and lets the allowed kinds pass.
    forbidden = (
        "import pytest\nfrom hypothesis import given\nimport os.path, numpy\n"
        "from . import corpus\nimport logblend.cli\n"
        "def f():\n    import hypothesis.strategies\n"
    )
    assert _foreign_imports(forbidden, allowed) == [
        "line 1: pytest", "line 2: hypothesis", "line 7: hypothesis.strategies"
    ]
    package = Path(logblend.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        places = _foreign_imports(path.read_text(encoding="utf-8"), allowed)
        if places:
            found[path.name] = places
    assert found == {}
