"""numpy is imported in one place: `_rng`, the random stream.

Other modules call its functions but import numpy nowhere, so moving the
package to the standard library means rewriting `_rng` and the few callers
that read the generator or pick matrix it returns.
"""

from __future__ import annotations

import ast
from pathlib import Path

import logblend


def _numpy_imports(source: str) -> list[str]:
    """Each place `source` imports numpy or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_no_module_but_rng_imports_numpy():
    # The guard sees what it forbids, and lets look-alike names pass.
    forbidden = (
        "import numpy as np\nfrom numpy import array\nimport os, numpy.random\n"
        "from numpy.random import default_rng\nimport numpyish\nfrom . import numpy\n"
    )
    assert _numpy_imports(forbidden) == ["line 1", "line 2", "line 3", "line 4"]
    package = Path(logblend.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "_rng.py":
            places = _numpy_imports(path.read_text(encoding="utf-8"))
            if places:
                found[path.name] = places
    assert found == {}
    assert _numpy_imports((package / "_rng.py").read_text(encoding="utf-8"))
