"""The package root, its declared version and the README's imports."""

from __future__ import annotations

import ast
import importlib
import re
import tomllib
from pathlib import Path

import logblend

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == logblend.__version__


def test_package_root_binds_only_the_version():
    tree = ast.parse((ROOT / "src" / "logblend" / "__init__.py").read_text(encoding="utf-8"))
    bound = [
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    others = [
        type(node).__name__
        for node in tree.body
        if not isinstance(node, ast.Assign)
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]
    assert bound == ["__version__"] and others == []


def test_readme_python_blocks_import_what_exists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    checked, unresolved = 0, []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            if node.module.split(".")[0] != "logblend":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                if not hasattr(module, alias.name):
                    unresolved.append(f"from {node.module} import {alias.name}")
    assert checked
    assert not unresolved, unresolved
