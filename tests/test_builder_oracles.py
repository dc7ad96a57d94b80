"""Differential tests: the diagram compositions, `Algebra`'s table and each
builder's involution against the code they replaced.

`oracles.py` keeps the union-find TL composition, the planar rook product
built as a validated `PlanarRookDiagram`, the TL and PR tables built from
them, a structure table summed over `GaussianRational`, the dense signed
permutation matrix every builder passed for sigma and the dense columns
`matrix_over_algebra` built.  The tuple primitives must agree with them on
every pair of diagrams, each builder's whole table, unit and involution
with the oracle-built ones, and `Algebra`'s table, with its single-term
fast path, with the summed one.  Every builder's sigma images must be the
columns of the signed permutation matrix read off its basis labels or
group table.  The group and matrix builders, which stream their products,
must store the rows, each row's key order included, the unit, the labels
and sigma of the same algebra built from a dict keyed by (i, j).
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    column,
    group_algebra_by_pairs,
    matrix_algebra_by_pairs,
    matrix_over_algebra_by_pairs,
    matrix_over_involution_dense,
    pairs,
    planar_rook_by_dataclass,
    pr_compose_dataclass,
    sigma_matrix,
    signed_permutation_matrix,
    summed_structure,
    temperley_lieb_by_union_find,
    tl_compose_union_find,
)
from test_validation_oracles import FAMILIES

from plesken.algebra import Algebra
from plesken.builders import (
    GroupTable,
    _pr_compose,
    _tl_compose,
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    planar_rook_diagrams,
    quaternions,
    temperley_lieb,
    temperley_lieb_diagrams,
)
from plesken.linalg import sparse, unit_vector
from plesken.scalars import GaussianRational, exact
from plesken.suite import cyclic_table, symmetric_3_table


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


def assert_images(sigma, matrix):
    """sigma's stored images are the columns of the dense oracle matrix."""
    assert sigma.images == tuple(sparse(column(matrix, j), matrix.rows) for j in range(matrix.cols))
    assert sigma_matrix(sigma) == matrix


def assert_builds(built, oracle):
    (A, sigma), (structure, unit, involution) = built, oracle
    assert pairs(A) == structure
    assert A.unit == unit
    assert_images(sigma, involution)


def transposed(labels) -> list[int]:
    """The index of E{s}{r}(.x) for each label E{r}{s}(.x), n <= 9."""
    index = {label: i for i, label in enumerate(labels)}
    swap = lambda label: f"E{label[2]}{label[1]}{label[3:]}"
    return [index[swap(label)] for label in labels]


def test_quaternion_sigma_is_the_conjugation_matrix():
    _, sigma = quaternions()
    assert_images(sigma, signed_permutation_matrix(4, (0, 1, 2, 3), (1, -1, -1, -1)))
    assert not sigma.conjugates_scalars


@pytest.mark.parametrize("involution", ["transpose", "conj_transpose"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_sigma_is_the_transposition_matrix(n, involution):
    A, sigma = matrix_algebra(n, involution)
    assert_images(sigma, signed_permutation_matrix(A.dim, transposed(A.labels)))
    assert sigma.conjugates_scalars == (involution == "conj_transpose")


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_over_quaternions_sigma_is_a_signed_permutation(n):
    A, sigma = matrix_over_algebra(n, *quaternions())
    signs = [1 if label.endswith(".1") else -1 for label in A.labels]
    assert_images(sigma, signed_permutation_matrix(A.dim, transposed(A.labels), signs))


@pytest.mark.parametrize("inner", ["H", "M(2)*", "M(2) skewed basis"])
@pytest.mark.parametrize("n", [1, 2])
def test_matrix_over_sigma_matches_dense_columns(n, inner):
    inner_algebra, inner_sigma = FAMILIES[inner]()
    _, sigma = matrix_over_algebra(n, inner_algebra, inner_sigma)
    assert_images(sigma, matrix_over_involution_dense(n, inner_sigma))
    assert sigma.conjugates_scalars == inner_sigma.conjugates_scalars


@pytest.mark.parametrize(
    "table", [symmetric_3_table, *(partial(cyclic_table, k) for k in (2, 3, 5))]
)
def test_group_sigma_inverts_group_elements(table):
    table = table()
    inverse = [
        next(h for h in range(table.order) if table.product[g][h] == table.identity)
        for g in range(table.order)
    ]
    _, sigma = group_algebra(table)
    assert_images(sigma, signed_permutation_matrix(table.order, inverse))


def assert_same_algebra(built, oracle):
    """Equal rows, read in the same key order, unit, labels and sigma."""
    (A, sigma), (B, tau) = built, oracle
    assert A.rows == B.rows
    assert [list(row) for row in A.rows] == [list(row) for row in B.rows]
    assert (A.unit, A.labels) == (B.unit, B.labels)
    assert sigma == tau


def dihedral_table(m: int) -> GroupTable:
    """D_2m: r^k at index k, r^k s at m + k."""
    elements = [(k, s) for s in (0, 1) for k in range(m)]
    return GroupTable([[(a - b if s else a + b) % m + m * (s ^ t) for b, t in elements]
                       for a, s in elements])


@pytest.mark.parametrize("involution", ["transpose", "conj_transpose"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matrix_table_matches_the_pair_keyed_dict(n, involution):
    assert_same_algebra(matrix_algebra(n, involution), matrix_algebra_by_pairs(n, involution))


@pytest.mark.parametrize("inner", ["H", "M(2)*", "M(2) skewed basis", "TL_3(3) bidiagonal basis"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_over_table_matches_the_pair_keyed_dict(n, inner):
    inner = FAMILIES[inner]()
    assert_same_algebra(matrix_over_algebra(n, *inner), matrix_over_algebra_by_pairs(n, *inner))


@pytest.mark.parametrize(
    "table", [symmetric_3_table, partial(cyclic_table, 5), partial(dihedral_table, 5)]
)
def test_group_table_matches_the_pair_keyed_dict(table):
    table = table()
    assert_same_algebra(group_algebra(table), group_algebra_by_pairs(table))


@pytest.mark.parametrize(
    "n, delta",
    [(n, delta) for n in (1, 2, 3, 4, 5) for delta in (0, 1, 3, "1/2", "i")]
    + [(6, 3), (6, 0), (6, "1/2")],
)
def test_temperley_lieb_table_matches_union_find(n, delta):
    assert_builds(temperley_lieb(n, delta), temperley_lieb_by_union_find(n, delta))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_planar_rook_table_matches_dataclass_products(n):
    built = planar_rook(n)
    assert_builds(built, planar_rook_by_dataclass(n))
    # Equal single-term products are stored as one shared tuple.
    products = pairs(built[0]).values()
    assert len({id(terms) for terms in products}) == len(set(products))


coefficients = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["0", "1/2", "-1/2", "i", "-i", "2-i", "1/3+1/3i"]),
    st.builds(GaussianRational, st.integers(-1, 1), st.integers(-1, 1)),
)


@st.composite
def structure_quads(draw):
    """(dim, quads): few pairs, so pairs recur; zero coefficients; products
    of zero, one and several terms, a target possibly repeated."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(index, index, index, coefficients), max_size=24))


@settings(max_examples=300, deadline=None)
@given(structure_quads())
def test_algebra_table_is_the_summed_items(case):
    n, structure = case
    A = Algebra([f"e{b}" for b in range(n)], structure, unit_vector(n, 0))
    assert pairs(A) == summed_structure(structure)
    # Each coefficient is held in its stored form: an int when integral.
    assert all(exact(c) is c for terms in pairs(A).values() for _, c in terms)
