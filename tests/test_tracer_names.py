"""The benchmark tracer (perfbench/tracer.py) wraps library functions and
scalar methods by name, so renaming or deleting one would break traced
benchmark runs.  These tests read the tracer's tables without importing
it and check that every name still resolves."""

import ast
from importlib import import_module
from pathlib import Path

from plesken.algebra import Algebra
from plesken.scalars import GaussianRational

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "SCALAR_OPS")
    }


def test_traced_functions_resolve():
    spans = _tables()["SPANS"]
    assert spans
    missing = [
        f"plesken.{module}.{name}"
        for module, names in spans.items()
        for name in names
        if not callable(getattr(import_module(f"plesken.{module}"), name, None))
    ]
    assert missing == []


def test_counted_methods_resolve():
    methods = [m for group in _tables()["SCALAR_OPS"].values() for m in group]
    assert [m for m in methods if m not in vars(GaussianRational)] == []
    assert callable(Algebra.multiply_vectors)
