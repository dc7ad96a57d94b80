"""Differential tests: the diagram compositions and `Algebra`'s table against
the code they replaced.

`oracles.py` keeps the union-find TL composition, the planar rook product
built as a validated `PlanarRookDiagram`, the TL and PR tables built from
them, and a structure table summed over `GaussianRational`.  The tuple
primitives must agree with them on every pair of diagrams, each builder's
whole table, unit and involution with the oracle-built ones, and
`Algebra`'s table, with its single-term fast path, with the summed one.
"""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    planar_rook_by_dataclass,
    pr_compose_dataclass,
    summed_structure,
    temperley_lieb_by_union_find,
    tl_compose_union_find,
)

from plesken.algebra import Algebra
from plesken.builders import (
    _pr_compose,
    _tl_compose,
    planar_rook,
    planar_rook_diagrams,
    temperley_lieb,
    temperley_lieb_diagrams,
)
from plesken.linalg import unit_vector
from plesken.scalars import GaussianRational, exact


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tl_compose_matches_union_find(n):
    diagrams = temperley_lieb_diagrams(n)
    for d1 in diagrams:
        for d2 in diagrams:
            product, loops = tl_compose_union_find(d1, d2)
            assert _tl_compose(d1.mates(), d2.mates()) == (product.mates(), loops)
            assert d1.compose(d2) == (product, loops)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pr_compose_matches_dataclass_product(n):
    diagrams = planar_rook_diagrams(n)
    for d1 in diagrams:
        top_of = dict(zip(d1.bottom, d1.top))
        for d2 in diagrams:
            product = pr_compose_dataclass(d1, d2)
            assert _pr_compose(top_of, d2.top, d2.bottom) == (product.top, product.bottom)
            assert d1.compose(d2) == product


def assert_builds(built, oracle):
    (A, sigma), (structure, unit, involution) = built, oracle
    assert A.structure == structure
    assert A.unit == unit
    assert sigma.matrix == involution


@pytest.mark.parametrize(
    "n, delta",
    [(n, delta) for n in (1, 2, 3, 4, 5) for delta in (0, 1, 3, "1/2", "i")] + [(6, 3)],
)
def test_temperley_lieb_table_matches_union_find(n, delta):
    assert_builds(temperley_lieb(n, delta), temperley_lieb_by_union_find(n, delta))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_planar_rook_table_matches_dataclass_products(n):
    built = planar_rook(n)
    assert_builds(built, planar_rook_by_dataclass(n))
    # Equal single-term products are stored as one shared tuple.
    products = built[0].structure.values()
    assert len({id(terms) for terms in products}) == len(set(products))


coefficients = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["0", "1/2", "-1/2", "i", "-i", "2-i", "1/3+1/3i"]),
    st.builds(GaussianRational, st.integers(-1, 1), st.integers(-1, 1)),
)


@st.composite
def structure_items(draw):
    """(dim, items): few pairs, so pairs recur; zero coefficients; products
    of zero, one and several terms, a target possibly repeated."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    terms = st.lists(st.tuples(index, coefficients), max_size=3).map(tuple)
    return n, draw(st.lists(st.tuples(st.tuples(index, index), terms), max_size=12))


@settings(max_examples=300, deadline=None)
@given(structure_items())
def test_algebra_table_is_the_summed_items(case):
    n, items = case
    A = Algebra([f"e{b}" for b in range(n)], items, unit_vector(n, 0))
    assert A.structure == summed_structure(items)
    # Each coefficient is held in its stored form: an int when integral.
    assert all(exact(c) is c for terms in A.structure.values() for _, c in terms)
