"""Differential tests: the generator-based validators against the full scans.

`validate_associativity` and `validate_involution` check their laws only on
the proved generating set `Algebra.generators`; `oracles.py` keeps the
exhaustive scans they replaced.  On every builder family at n <= 4, on
single structure-constant corruptions and on column-swapped involutions the
two must agree on the verdict, every witness must be a genuine failure, and
the generating set must span the algebra.  The associativity witness must
be the one the scan finds over middle indices in the generating set, on
tables of one term per product (int or `GaussianRational` coefficients),
on builder tables rewritten in the basis b_i = e_i + e_{i+1}, where most
products have several terms, and on arbitrary small tables alike.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    apply_dense,
    associativity_all_triples,
    bidiagonal_basis,
    bilinear_product_dense,
    changed_basis,
    coordinates_dense,
    involution_all_pairs,
    span_gauss_jordan,
)
from test_interchange_cli import coefficients

from plesken.algebra import Algebra, AntiInvolution, validate_associativity, validate_involution
from plesken.builders import (
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from plesken.linalg import unit_vector
from plesken.scalars import I, scalar
from plesken.suite import cyclic_table, symmetric_3_table


def _skewed_m2():
    # M(2) with transposition in a basis that is not made of matrix units,
    # so that products have several terms and the echelon has work to do.
    columns = [(1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (I, 0, 0, 1)]
    return changed_basis(*matrix_algebra(2), [tuple(map(scalar, c)) for c in columns])


FAMILIES = {
    **{f"TL_{d}({n})": (lambda n=n, d=d: temperley_lieb(n, d))
       for d in ("0", "1", "3", "i", "1/2") for n in (1, 2, 3, 4)},
    **{f"PR({n})": (lambda n=n: planar_rook(n)) for n in (1, 2, 3, 4)},
    **{f"M({n})": (lambda n=n: matrix_algebra(n)) for n in (1, 2, 3, 4)},
    **{f"M({n})*": (lambda n=n: matrix_algebra(n, "conj_transpose")) for n in (1, 2, 3, 4)},
    "H": quaternions,
    "M(2,H)": lambda: matrix_over_algebra(2, *quaternions()),
    "QS3": lambda: group_algebra(symmetric_3_table()),
    "C3": lambda: group_algebra(cyclic_table(3)),
    "M(2) skewed basis": _skewed_m2,
    "TL_3(3) bidiagonal basis": lambda: bidiagonal_basis(*temperley_lieb(3, 3)),
    "PR(2) bidiagonal basis": lambda: bidiagonal_basis(*planar_rook(2)),
}

SMALL = (
    "H", "M(2)", "M(2)*", "QS3", "C3", "TL_0(3)", "TL_i(3)", "TL_1/2(3)", "PR(2)",
    "M(2) skewed basis", "TL_3(3) bidiagonal basis", "PR(2) bidiagonal basis",
)


def _mul(algebra, x, y):
    return bilinear_product_dense(algebra.dim, algebra.structure.get, x, y)


def _assert_spans(algebra):
    """Products of the generators span the algebra (dense recomputation)."""
    n, generators = algebra.dim, algebra.generators
    assert list(generators) == sorted(set(generators))
    assert all(0 <= g < n for g in generators)
    words = [unit_vector(n, g) for g in generators]
    span = span_gauss_jordan(n, words)
    for word in words:  # grows while it is read
        for g in generators:
            product = _mul(algebra, word, unit_vector(n, g))
            if coordinates_dense(span, product) is None:
                words.append(product)
                span = span_gauss_jordan(n, span.basis + (product,))
    assert span.dim == n


def _assert_associativity_agrees(algebra):
    fast = validate_associativity(algebra)
    assert fast == associativity_all_triples(algebra, algebra.generators)
    assert (fast is None) == (associativity_all_triples(algebra) is None)
    if fast is not None:
        i, g, k = fast
        assert g in algebra.generators
        x, y, z = (unit_vector(algebra.dim, t) for t in fast)
        assert _mul(algebra, _mul(algebra, x, y), z) != _mul(algebra, x, _mul(algebra, y, z))


def _assert_involution_agrees(algebra, sigma):
    fast = validate_involution(algebra, sigma)
    oracle = involution_all_pairs(algebra, sigma)
    assert (fast is None) == (oracle is None)
    if fast is None:
        return
    assert fast.kind == oracle.kind
    if fast.kind == "square":
        (i,) = fast.witness
        e = unit_vector(algebra.dim, i)
        assert sigma.image(sigma.image({i: 1})) != {i: 1}
        assert apply_dense(sigma, apply_dense(sigma, e)) != e
    else:
        assert fast.kind == "antihomomorphism"
        i, j = fast.witness
        assert i in algebra.generators
        x, y = unit_vector(algebra.dim, i), unit_vector(algebra.dim, j)
        lhs = apply_dense(sigma, _mul(algebra, x, y))
        rhs = _mul(algebra, apply_dense(sigma, y), apply_dense(sigma, x))
        assert lhs != rhs


@pytest.mark.parametrize("name", FAMILIES)
def test_fast_validators_agree_with_full_scans(name):
    algebra, sigma = FAMILIES[name]()
    _assert_spans(algebra)
    assert validate_associativity(algebra) is None
    assert associativity_all_triples(algebra) is None
    assert validate_involution(algebra, sigma) is None
    assert involution_all_pairs(algebra, sigma) is None


@pytest.mark.parametrize("name", SMALL)
def test_structure_constant_corruptions(name):
    algebra, _ = FAMILIES[name]()
    n = algebra.dim
    for i, j in itertools.product(range(n), repeat=2):
        terms = algebra.product_terms(i, j)
        variants = [((0, scalar(1)),) + terms]  # one more term, or a changed one
        if terms:
            k, c = terms[0]
            variants.append(((k, 2 * c),) + terms[1:])
            variants.append(((k, scalar(c) / 2),) + terms[1:])  # a non-integral coefficient
            variants.append(((k, I * c),) + terms[1:])  # an imaginary one
            variants.append((((k + 1) % n, c),) + terms[1:])
            variants.append(terms[1:])  # one term dropped
        for variant in variants:
            structure = dict(algebra.structure)
            structure[(i, j)] = variant
            corrupted = Algebra(algebra.labels, structure, algebra.unit)
            _assert_spans(corrupted)
            _assert_associativity_agrees(corrupted)


@st.composite
def tables(draw):
    """Small tables, associative or not, whose (i, j) pairs recur, so that
    many products are sums of several terms."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=2 * n, unique=True))
    terms = st.lists(st.tuples(index, coefficients), min_size=1, max_size=3)
    structure = draw(st.lists(st.tuples(st.sampled_from(pairs), terms), max_size=3 * n))
    return Algebra([f"e{i}" for i in range(n)], structure, [1] + [0] * (n - 1))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_associativity_agrees_on_tables_no_builder_makes(algebra):
    _assert_associativity_agrees(algebra)


@pytest.mark.parametrize("name", SMALL)
def test_column_swapped_involutions(name):
    algebra, sigma = FAMILIES[name]()
    for a, b in itertools.combinations(range(algebra.dim), 2):
        swapped = list(sigma.images)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        _assert_involution_agrees(algebra, AntiInvolution(swapped, sigma.conjugates_scalars))


@pytest.mark.parametrize(
    "factory, size",
    [
        (lambda: temperley_lieb(5, 3), 11),
        (lambda: planar_rook(4), 8),
        (lambda: group_algebra(symmetric_3_table()), 3),
    ],
)
def test_generating_set_sizes(factory, size):
    # Candidates with the most distinct product targets come first; in plain
    # index order TL_3(5) would need 20 generators instead of 11.
    algebra, _ = factory()
    assert len(algebra.generators) == size
