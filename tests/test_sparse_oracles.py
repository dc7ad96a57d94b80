"""Differential tests: the sparse products, skew part and Lie table against
the dense code they replaced.

`oracles.py` keeps the dense `bilinear_product` loop, the kernel-based skew
part with its cross-check, and the Lie table built from dense commutators
with a dense residual check.  On every builder family at n <= 4 the sparse
pipeline must give the same canonical skew basis, the same Lie table and
labels, and the same products.  TL at delta = i and 1/2 mixes int and
`GaussianRational` constants in the Lie table's sums, and M(2) in a skewed
basis has products of several terms.
"""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    bilinear_product_dense,
    plesken_lie_algebra_dense,
    skew_subspace_kernel,
)
from test_validation_oracles import FAMILIES as VALIDATION_FAMILIES

from plesken.algebra import plesken_lie_algebra, plesken_subspace
from plesken.builders import (
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from plesken.linalg import bilinear_product, dense, unit_vector
from plesken.scalars import GaussianRational
from plesken.suite import cyclic_table, symmetric_3_table

FAMILIES = {
    **{f"TL_{d}({n})": (lambda n=n, d=d: temperley_lieb(n, d))
       for d in ("3", "0", "i", "1/2") for n in (1, 2, 3, 4)},
    **{f"PR({n})": (lambda n=n: planar_rook(n)) for n in (1, 2, 3, 4)},
    **{f"M({n})": (lambda n=n: matrix_algebra(n)) for n in (1, 2, 3, 4)},
    **{f"M({n})*": (lambda n=n: matrix_algebra(n, "conj_transpose")) for n in (1, 2, 3, 4)},
    "M(2,H)": lambda: matrix_over_algebra(2, *quaternions()),
    **{f"C{k}": (lambda k=k: group_algebra(cyclic_table(k))) for k in (2, 3, 4)},
    "QS3": lambda: group_algebra(symmetric_3_table()),
    "M(2) skewed basis": VALIDATION_FAMILIES["M(2) skewed basis"],
}


def probes(n, rows):
    """Two unit vectors, a dense vector with non-real entries, and three rows."""
    full = tuple(GaussianRational(k % 3 - 1, k % 2) for k in range(n))
    return [unit_vector(n, 0), unit_vector(n, n - 1), full, *rows[:2], *rows[-1:]]


@pytest.mark.parametrize("name", FAMILIES)
def test_sparse_pipeline_matches_dense_oracles(name):
    algebra, sigma = FAMILIES[name]()
    sub = plesken_subspace(algebra, sigma)
    assert sub == skew_subspace_kernel(sigma)

    lie = plesken_lie_algebra(algebra, sigma)
    oracle = plesken_lie_algebra_dense(algebra, sigma)
    assert lie.labels == oracle.labels
    assert lie.table == oracle.table

    n = algebra.dim
    for x in probes(n, sub.basis):
        for y in probes(n, sub.basis):
            assert algebra.multiply_vectors(x, y) == bilinear_product_dense(
                n, algebra.structure.get, x, y
            )
    rows = lie.full_subspace().basis
    for x in probes(lie.dim, rows) if lie.dim else ():
        for y in probes(lie.dim, rows):
            assert lie.bracket_vectors(x, y) == bilinear_product_dense(
                lie.dim, lie._terms.get, x, y
            )


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.builds(GaussianRational, rationals, rationals)
N = 4


def sparse_vectors():
    return st.dictionaries(st.integers(0, N - 1), scalars.filter(bool), max_size=N)


tables = st.dictionaries(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    st.lists(st.tuples(st.integers(0, N - 1), scalars), max_size=3).map(tuple),
    max_size=N * N,
)


@settings(max_examples=100)
@given(tables, sparse_vectors(), sparse_vectors())
def test_bilinear_product_matches_dense_loop(table, x, y):
    product = bilinear_product(table, x, y)
    assert all(product.values())
    assert dense(N, product) == bilinear_product_dense(
        N, table.get, dense(N, x), dense(N, y)
    )

