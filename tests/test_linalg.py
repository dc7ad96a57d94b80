from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plesken.algebra import plesken_subspace
from plesken.builders import matrix_algebra
from plesken.linalg import (
    Echelon,
    Matrix,
    Subspace,
    rank,
    rank_mod_p,
    reduce_by,
    rref,
    sparse,
    unit_vector,
    vector,
)
from plesken.scalars import ZERO, GaussianRational, exact, scalar
from oracles import (
    coordinates_dense,
    identity_matrix,
    kernel_gauss_jordan,
    matvec,
    rref_gauss_jordan,
    solve_gauss_jordan,
    span_gauss_jordan,
    transpose,
    zero_matrix,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
gaussians = st.builds(
    GaussianRational, rationals, st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


def small_matrices(max_size=4):
    return st.integers(1, max_size).flatmap(
        lambda r: st.integers(1, max_size).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix)
        )
    )


@st.composite
def gaussian_matrices(draw):
    """Q(i) matrices with 0 to 4 rows and 0 to 4 columns, some rows zero."""
    cols = draw(st.integers(0, 4))
    zero_row = st.just([ZERO] * cols)
    row = st.lists(gaussians | st.just(ZERO), min_size=cols, max_size=cols)
    return Matrix(draw(st.lists(row | zero_row, max_size=4)))


@settings(max_examples=150)
@given(gaussian_matrices())
def test_echelon_views_match_dense_gauss_jordan(m):
    assert rref(m) == rref_gauss_jordan(m)
    assert rank(m) == len(rref_gauss_jordan(m)[1])
    assert Echelon(m.cols, (sparse(row, m.cols) for row in m.data)).kernel() == (
        kernel_gauss_jordan(m)
    )
    span = Subspace.from_vectors(m.cols, m.data)
    assert span == span_gauss_jordan(m.cols, m.data)
    # The canonical rows: ascending pivots, each row 1 at its pivot and by
    # ascending index, every entry read once (an int when a real integer).
    assert span.pivots == tuple(sorted(span.rows)) == rref_gauss_jordan(m)[1]
    for p, row in span.rows.items():
        assert list(row) == sorted(row) and min(row) == p and row[p] == 1
        assert all(c and type(c) is type(exact(c)) for c in row.values())


def test_from_vectors_stops_reading_once_the_span_is_full():
    read = []

    def vectors():
        for v in ([1, 1, 0], [2, 2, 0], [0, "i", 0], [0, 0, 3]):
            read.append(v)
            yield v
        raise AssertionError("read past a full span")

    assert Subspace.from_vectors(3, vectors()) == Subspace.full(3)
    assert len(read) == 4
    assert Subspace.from_vectors(0, vectors()) == Subspace(0, {})
    assert len(read) == 4
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [[1, 0]])


def test_rref_identity():
    m = identity_matrix(2)
    reduced, pivots = rref(m)
    assert reduced == m and pivots == (0, 1)


def test_rref_rank_one():
    reduced, pivots = rref(Matrix([[1, 2], [2, 4]]))
    assert reduced == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_permutation():
    reduced, _ = rref(Matrix([[0, 1], [1, 0]]))
    assert reduced == identity_matrix(2)


def test_rank_examples():
    assert rank(zero_matrix(3, 3)) == 0
    # 1x1 Gram matrices of a single-cup cell: nonzero parameter vs zero.
    assert rank(Matrix([[3]])) == 1
    assert rank(Matrix([[0]])) == 0


def test_kernel_examples():
    assert kernel_gauss_jordan(identity_matrix(3)).basis == ()
    assert kernel_gauss_jordan(zero_matrix(2, 2)).basis == (unit_vector(2, 0), unit_vector(2, 1))
    assert kernel_gauss_jordan(Matrix([[1, 1]])).basis == (vector([1, -1]),)


def test_solve_examples():
    assert solve_gauss_jordan(identity_matrix(2), [1, 0]) == vector([1, 0])
    assert solve_gauss_jordan(Matrix([[2]]), [1]) == (scalar(Fraction(1, 2)),)
    assert solve_gauss_jordan(Matrix([[1, 0], [0, 0]]), [0, 1]) is None


@settings(max_examples=60)
@given(small_matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_gauss_jordan(m).dim == m.cols


@settings(max_examples=60)
@given(small_matrices())
def test_rref_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced and pivots2 == pivots


@settings(max_examples=60)
@given(small_matrices(3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_round_trip(m, x):
    x = vector(x[: m.cols]) + (ZERO,) * max(0, m.cols - 3)
    rhs = matvec(m, x)
    found = solve_gauss_jordan(m, rhs)
    assert found is not None
    assert matvec(m, found) == rhs


@settings(max_examples=60)
@given(small_matrices())
def test_kernel_vectors_annihilated(m):
    for v in kernel_gauss_jordan(m).basis:
        assert not any(matvec(m, v))


@settings(max_examples=60)
@given(small_matrices())
def test_rref_preserves_row_space(m):
    original = Subspace.from_vectors(m.cols, m.data)
    reduced, pivots = rref(m)
    assert Subspace.from_vectors(m.cols, reduced.data) == original
    assert len(pivots) == original.dim


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 2]])
    b = Subspace.from_vectors(3, [[2, 2, 2], [0, 0, -5]])
    assert a == b
    assert a != Subspace.from_vectors(3, [[1, 1, 0]])
    assert Subspace.__hash__ is None  # the rows are dicts
    assert a.dim == 2
    assert coordinates(a, [3, 3, 7]) is not None
    assert coordinates(a, [1, 0, 0]) is None


def coordinates(sub, v):
    """The coordinates of dense v in sub, read as the sparse path reads them:
    None when the rows leave a remainder, else the entries at the pivots.
    They must agree with the dense residual check."""
    v = vector(v)
    terms = sparse(v, sub.ambient)
    coords = None if reduce_by(sub.rows, terms) else tuple(terms.get(p, 0) for p in sub.rows)
    assert coords == coordinates_dense(sub, v)
    return coords


def test_subspace_coordinates():
    sub = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, -1]])
    coords = coordinates(sub, [2, 3, -1])
    assert coords == vector([2, 3])
    assert coordinates(sub, [0, 0, 1]) is None


def test_coordinates_reject_a_vector_outside_the_span():
    # E12 + E21 has entry 1 at the pivot of the skew row E12 - E21 of M(3),
    # so only the residual shows that it is not skew.
    A, sigma = matrix_algebra(3)
    skew = plesken_subspace(A, sigma)
    symmetric = [0] * 9
    symmetric[1] = symmetric[3] = 1
    assert coordinates(skew, symmetric) is None
    assert coordinates(skew, [0, 1, 0, -1, 0, 0, 0, 0, 0]) is not None
    assert coordinates(Subspace.from_vectors(2, [[1, "i"]]), [1, "-i"]) is None


def test_matrix_operations():
    a = Matrix([[1, 2], [3, 4]])
    assert transpose(transpose(a)) == a
    with pytest.raises(ValueError):
        Matrix([[1], [2, 3]])


def _integer_rows(m):
    return [{k: int(scalar(c).re) for k, c in enumerate(row) if c} for row in m.data]


integer_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
).map(Matrix)


@given(integer_matrices)
def test_rank_mod_p_bounds_the_exact_rank(m):
    # Every minor of a 4x4 matrix with entries in [-3, 3] is below 4! * 3**4
    # in absolute value, so a large prime divides none that is nonzero.
    assert rank_mod_p(_integer_rows(m), 998_244_353) == rank(m)
    assert rank_mod_p(_integer_rows(m), 5) <= rank(m)


def test_rank_mod_p_drops_where_p_divides_a_minor():
    rows = [{0: 5, 1: 1}, {1: 1}]
    assert rank(Matrix([[5, 1], [0, 1]])) == 2
    assert rank_mod_p(rows, 5) == 1
    assert rank_mod_p(rows, 7) == 2
    assert rank_mod_p([{0: 3, 1: -3}, {0: 1, 1: -1}, {}], 7) == 1
