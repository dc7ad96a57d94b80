"""The oracles do not run the code they check.

A differential test proves nothing when the oracle calls the kernel under
test: a fault there shows on both sides alike.  This test reads
`tests/oracles.py` and fails if it names a sparse kernel of the package,
or the dense wrapper over them, whether it calls, binds or imports it.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

# The code the oracles check: the sparse product, sum, reduction and span,
# sigma's image and skew part, the Lie bracket, the bracket of two basis
# vectors read off the stored half, and the dense product wrapper.
FORBIDDEN = {
    "multiply_vectors",
    "image",
    "skew_terms",
    "bracket",
    "bracket_terms",
    "bilinear_product",
    "combine",
    "reduce_by",
    "Echelon",
    "from_vectors",
}


def _named(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names)
    return sorted((line, name) for line, name in found if name in FORBIDDEN)


def test_oracles_name_no_kernel_under_test():
    assert _named(ast.parse(ORACLES.read_text())) == []


def test_the_guard_sees_calls_bindings_and_imports():
    source = """
from plesken.linalg import combine
mul = algebra.multiply_vectors
sigma.image(v)
L.bracket(x, y)
bracket_dense(L, x, y)
sigma.images
L.bracket_terms(0, 1)
"""
    assert _named(ast.parse(source)) == [
        (2, "combine"), (3, "multiply_vectors"), (4, "image"), (5, "bracket"),
        (8, "bracket_terms"),
    ]
