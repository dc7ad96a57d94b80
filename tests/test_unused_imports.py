"""Every name a module of the package imports is used in that module.

No linter runs on the package, so an import left behind by a deletion
would go unseen.  This test reads each module of `src/plesken` except
`__init__.py`, which imports to re-export, and fails on an imported name
the module never references.  Annotations count as references: under
`from __future__ import annotations` they are still expressions in the
syntax tree, only not evaluated.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plesken"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = """
from __future__ import annotations
import os.path
from typing import Mapping, Optional
from .linalg import dense as to_dense

def f(x: Mapping) -> int:
    return os.path.sep
"""
    assert unused_imports(source) == ["Optional (line 4)", "to_dense (line 5)"]
