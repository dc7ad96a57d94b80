import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st
from oracles import apply_dense, group_axioms, group_axioms_failure

from plesken.algebra import InternalConsistencyError, validate_associativity, validate_involution
from plesken.builders import (
    GroupTable,
    PlanarRookDiagram,
    TLDiagram,
    _pr_compose,
    _right_cayley_table,
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    planar_rook_diagrams,
    quaternions,
    temperley_lieb,
    temperley_lieb_diagrams,
)
from plesken.linalg import dense, sparse, unit_vector, vector
from plesken.report import DocumentInvalid, validate_algebra
from plesken.scalars import I, ONE, ZERO, scalar
from plesken.suite import cyclic_table


# -- quaternions -----------------------------------------------------------


def test_quaternion_table():
    A, sigma = quaternions()
    i, j, k = (unit_vector(A.dim, n) for n in (1, 2, 3))
    minus_i = tuple(-c for c in i)
    assert A.multiply_vectors(j, k) == i  # jk = i
    assert A.multiply_vectors(k, j) == minus_i
    assert sigma.image({1: 1}) == {1: -1}
    assert dense(A.dim, sigma.image({1: 1})) == apply_dense(sigma, i) == minus_i
    unit = sigma.image(sparse(A.unit, A.dim))
    assert dense(A.dim, unit) == apply_dense(sigma, A.unit) == A.unit
    assert validate_associativity(A) is None


# -- matrix algebras -------------------------------------------------------


def test_matrix_algebra_rejects_zero():
    with pytest.raises(ValueError):
        matrix_algebra(0)
    with pytest.raises(ValueError):
        matrix_algebra(2, "hermitian")


def test_matrix_unit_labels_stay_distinct_past_nine():
    # E1,11 and E11,1 would both read E111 without the separator, which
    # M(n) takes from n = 10 on; M(9) keeps its labels.
    assert matrix_algebra(9)[0].labels[-1] == "E99"
    assert matrix_algebra(10)[0].labels[9:11] == ("E1,10", "E2,1")
    for A, _ in (matrix_algebra(11), matrix_over_algebra(11, *quaternions())):
        assert len(set(A.labels)) == A.dim
    assert "E1,11" in matrix_algebra(11)[0].labels


def test_transpose_is_permutation():
    A, sigma = matrix_algebra(3)
    for image in sigma.images:
        assert sum(1 for v in image.values() if v) == 1
        assert all(v in (ZERO, ONE) for v in image.values())


def test_conjugate_transposition_conjugates():
    A, sigma = matrix_algebra(2, "conj_transpose")
    x = vector(["i", 0, 0, 0])  # i * E11
    assert sigma.image({0: I}) == {0: -I}
    assert dense(A.dim, sigma.image({0: I})) == apply_dense(sigma, x) == vector(["-i", 0, 0, 0])


# -- matrix over an algebra -------------------------------------------------


def test_matrix_over_one_is_the_inner_algebra():
    inner, inner_sigma = quaternions()
    A, sigma = matrix_over_algebra(1, inner, inner_sigma)
    assert A.rows == inner.rows
    assert sigma.images == inner_sigma.images


def test_matrix_over_quaternions_involution():
    A, sigma = matrix_over_algebra(2, *quaternions())
    assert A.dim == 16
    assert validate_involution(A, sigma) is None


def test_matrix_over_trivial_inner_matches_matrix_algebra():
    A, sigma = matrix_over_algebra(2, *matrix_algebra(1))
    B, tau = matrix_algebra(2)
    assert A.rows == B.rows
    assert A.unit == B.unit
    assert sigma.images == tau.images


# -- group algebras ---------------------------------------------------------


def test_group_table_validation_messages():
    with pytest.raises(ValueError, match="identity"):
        GroupTable([[1, 0], [1, 0]])
    with pytest.raises(ValueError, match="inverses: element 1 has no inverse"):
        GroupTable([[0, 1], [1, 1]])  # a monoid: row 1 lacks the identity
    with pytest.raises(ValueError, match="closure"):
        GroupTable([[0, 5], [1, 0]])


def test_non_associative_group_table_fails_lights_test():
    # GroupTable reads the table; Light's test in validate_algebra proves it.
    table = GroupTable(
        [
            [0, 1, 2],
            [1, 1, 0],
            [2, 0, 2],
        ]
    )
    message = "associativity fails at basis triple (1, 1, 2)"
    with pytest.raises(DocumentInvalid, match=re.escape(message)):
        validate_algebra(*group_algebra(table))


def _assert_matches_group_scans(product) -> bool:
    """GroupTable and validate_algebra on its group algebra accept exactly
    the tables the brute-force scans find to be groups, with the scans'
    identity and inverses; True for a group."""
    try:
        table = GroupTable(product)
        validate_algebra(*group_algebra(table))
    except ValueError:  # DocumentInvalid included
        assert group_axioms_failure(product) is not None
        return False
    assert group_axioms_failure(product) is None
    assert (table.identity, table.inverse) == group_axioms(product)
    return True


def test_every_table_of_order_at_most_three_matches_the_group_scans():
    # 1 + 16 + 19,683 tables: the proof by validate_algebra refuses exactly
    # the tables the brute-force scans refuse.
    groups = 0
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            product = [entries[r * n : (r + 1) * n] for r in range(n)]
            groups += _assert_matches_group_scans(product)
    assert groups == 1 + 2 + 3  # the labelled groups of orders 1, 2 and 3


@st.composite
def group_tables(draw):
    """Square tables of order <= 4: random, with an identity row or column
    planted, or a group (C4, V4 or smaller) with its elements relabelled."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("random", "row", "column", "both", "group")))
    if kind == "group":
        klein = n == 4 and draw(st.booleans())
        perm = draw(st.permutations(range(n)))
        product = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                product[perm[a]][perm[b]] = perm[a ^ b if klein else (a + b) % n]
        return product
    product = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    e = draw(st.integers(0, n - 1))
    if kind in ("row", "both"):
        product[e] = list(range(n))
    if kind in ("column", "both"):
        for x in range(n):
            product[x][e] = x
    return product


@settings(max_examples=400, deadline=None)
@given(group_tables())
def test_group_tables_validate_exactly_when_the_scans_find_no_failure(product):
    _assert_matches_group_scans(product)


def test_cyclic_three_table():
    table = cyclic_table(3)
    assert table.identity == 0
    assert table.inverse == (0, 2, 1)
    A, sigma = group_algebra(table)
    assert validate_associativity(A) is None
    assert validate_involution(A, sigma) is None


# -- planar rook diagrams ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_planar_rook_dimension(n):
    A, _ = planar_rook(n)
    assert A.dim == math.comb(2 * n, n)
    assert A.dim == sum(math.comb(n, k) ** 2 for k in range(n + 1))


def test_planar_rook_concatenation_example():
    # Six-node pair: arcs survive where the first diagram's bottom endpoint
    # meets the second diagram's top endpoint.
    d1 = PlanarRookDiagram(6, (1, 3, 4, 5, 6), (2, 3, 4, 5, 6))
    d2 = PlanarRookDiagram(6, (1, 2, 3, 4), (1, 2, 3, 6))
    assert d1.compose(d2) == PlanarRookDiagram(6, (1, 3, 4), (2, 3, 6))


def test_planar_rook_n1_products():
    A, _ = planar_rook(1)
    assert A.dim == 2
    diagrams = planar_rook_diagrams(1)
    empty, arc = diagrams
    assert empty.arcs == 0 and arc.arcs == 1
    e, a = unit_vector(A.dim, 0), unit_vector(A.dim, 1)
    assert A.multiply_vectors(a, a) == a
    assert A.multiply_vectors(a, e) == e  # all arcs die
    assert A.multiply_vectors(e, e) == e
    assert A.unit == a


def test_planar_rook_cap():
    with pytest.raises(ValueError):
        planar_rook(7)
    with pytest.raises(ValueError):
        planar_rook(3, cap=2)
    assert planar_rook(2, cap=2)[0].dim == 6


def test_planar_rook_arc_count_balance():
    diagrams = planar_rook_diagrams(3)
    for d1 in diagrams:
        for d2 in diagrams:
            product = d1.compose(d2)
            absorbed = d1.arcs + d2.arcs - 2 * product.arcs
            assert absorbed >= 0
            assert d1.arcs + d2.arcs == product.arcs + (product.arcs + absorbed)


def test_right_cayley_table_refuses_generators_that_miss_diagrams():
    # The identity minus one strand: idempotents whose products keep top == bottom,
    # so the walk reaches the 8 such diagrams of PR(3) and misses the other 12.
    ends = [(d.top, d.bottom) for d in planar_rook_diagrams(3)]
    index = {e: i for i, e in enumerate(ends)}
    strands = [tuple(p for p in (1, 2, 3) if p != q) for q in (1, 2, 3)]
    right = [[index[_pr_compose(dict(zip(b, t)), s, s)] for t, b in ends] for s in strands]
    with pytest.raises(InternalConsistencyError, match="reach 8 of 20 diagrams"):
        _right_cayley_table(len(ends), index[(1, 2, 3), (1, 2, 3)], right, [], [])


# -- Temperley-Lieb diagrams -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_temperley_lieb_dimension(n):
    A, _ = temperley_lieb(n, 3)
    assert A.dim == math.comb(2 * n, n) // (n + 1)  # Catalan number


def test_tl_cup_cap_squares():
    for n in (2, 3, 4):
        A, _ = temperley_lieb(n, 3)
        diagrams = temperley_lieb_diagrams(n)
        index = {d: i for i, d in enumerate(diagrams)}
        for pos in range(1, n):
            pairs = [(pos, pos + 1), (n + pos, n + pos + 1)]
            for q in range(1, n + 1):
                if q not in (pos, pos + 1):
                    pairs.append((q, n + q))
            e = unit_vector(A.dim, index[TLDiagram.from_pairs(n, pairs)])
            assert A.multiply_vectors(e, e) == tuple(scalar(3) * c for c in e)


def test_tl_delta_zero_cup_cap():
    A, _ = temperley_lieb(2, 0)
    diagrams = temperley_lieb_diagrams(2)
    index = {d: i for i, d in enumerate(diagrams)}
    e = unit_vector(A.dim, index[TLDiagram.from_pairs(2, [(1, 2), (3, 4)])])
    assert not any(A.multiply_vectors(e, e))


def test_tl_crossing_rejected():
    with pytest.raises(ValueError):
        TLDiagram.from_pairs(2, [(1, 4), (2, 3)])  # crossing through-strands
    TLDiagram.from_pairs(2, [(1, 3), (2, 4)])  # identity is fine


def test_tl_flip_is_involution():
    for d in temperley_lieb_diagrams(4):
        assert d.flip().flip() == d


def test_tl_compose_counts_loops():
    d = TLDiagram.from_pairs(2, [(1, 2), (3, 4)])
    product, loops = d.compose(d)
    assert product == d and loops == 1
    identity = TLDiagram.identity(3)
    for other in temperley_lieb_diagrams(3):
        product, loops = identity.compose(other)
        assert product == other and loops == 0


def test_tl_cap():
    with pytest.raises(ValueError):
        temperley_lieb(7, 3)
    with pytest.raises(ValueError):
        temperley_lieb(5, 3, cap=4)


def test_planar_rook_concatenation_is_associative_on_diagrams():
    # Independent of the structure tensor: associate the raw compositions.
    diagrams = planar_rook_diagrams(3)
    for d1 in diagrams:
        for d2 in diagrams:
            left = d1.compose(d2)
            for d3 in diagrams:
                assert left.compose(d3) == d1.compose(d2.compose(d3))


def test_tl_concatenation_is_associative_with_loops():
    diagrams = temperley_lieb_diagrams(3)
    for d1 in diagrams:
        for d2 in diagrams:
            d12, l12 = d1.compose(d2)
            for d3 in diagrams:
                left, l_left = d12.compose(d3)
                d23, l23 = d2.compose(d3)
                right, l_right = d1.compose(d23)
                assert left == right
                assert l12 + l_left == l23 + l_right


def test_diagram_involutions_are_permutations():
    for A, sigma in (planar_rook(3), temperley_lieb(4, 3)):
        for image in sigma.images:
            assert sum(1 for v in image.values() if v) == 1
            assert all(v in (ZERO, ONE) for v in image.values())
