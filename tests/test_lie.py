import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    bracket_dense,
    coordinates_dense,
    jacobi_failure,
    killing_form_scan,
    skew_part_dense,
    transpose,
    zero_matrix,
)

from plesken.algebra import plesken_lie_algebra, plesken_subspace
from plesken.builders import matrix_algebra, temperley_lieb
from plesken.builders import planar_rook
from plesken.lie import (
    Fingerprint,
    LieAlgebra,
    _killing_entries,
    _killing_rank_mod_p,
    bracket_span,
    center,
    derived_series,
    fingerprint,
    killing_form,
    lower_central_series,
    orthogonal_model,
)
from plesken.linalg import (
    I_MOD_P,
    P,
    Subspace,
    dense,
    rank_mod_p,
    reduce_by,
    residue,
    sparse,
    unit_vector,
    vector,
)
from plesken.scalars import GaussianRational, scalar


def tl0_lie():
    A, sigma = temperley_lieb(4, 0)
    return A, sigma, plesken_lie_algebra(A, sigma)


def ambient_subspace(A, sigma, lie_subspace):
    """Transport a subspace from skew-part coordinates back to the algebra."""
    rows = plesken_subspace(A, sigma).basis
    vectors = []
    for coeffs in lie_subspace.basis:
        acc = [scalar(0)] * A.dim
        for c, row in zip(coeffs, rows):
            if c:
                acc = [a + c * r for a, r in zip(acc, row)]
        vectors.append(acc)
    return Subspace.from_vectors(A.dim, vectors)


def diagram_difference(A, sigma, pairs_list):
    from plesken.builders import TLDiagram, temperley_lieb_diagrams

    diagrams = temperley_lieb_diagrams(4)
    index = {d: i for i, d in enumerate(diagrams)}
    v = [scalar(0)] * A.dim
    v[index[TLDiagram.from_pairs(4, pairs_list)]] = scalar(1)
    return skew_part_dense(sigma, v)


B1 = [(1, 2), (3, 5), (4, 8), (6, 7)]
B2 = [(1, 5), (2, 3), (4, 6), (7, 8)]
B3 = [(1, 2), (3, 5), (4, 6), (7, 8)]
B4 = [(1, 2), (3, 4), (5, 8), (6, 7)]


def test_bracket_span_abelian_is_zero():
    L = orthogonal_model([2, 2])  # two commuting one-dimensional blocks
    full = Subspace.full(L.dim)
    assert bracket_span(L, full, full).dim == 0


def test_derived_algebra_of_tl0():
    A, sigma, L = tl0_lie()
    derived = derived_series(L)[1]
    assert derived.dim == 3
    expected = Subspace.from_vectors(
        A.dim,
        [
            tuple(
                a + b
                for a, b in zip(
                    diagram_difference(A, sigma, B1),
                    diagram_difference(A, sigma, B2),
                )
            ),
            diagram_difference(A, sigma, B3),
            diagram_difference(A, sigma, B4),
        ],
    )
    assert ambient_subspace(A, sigma, derived) == expected


def test_second_derived_algebra_of_tl0():
    A, sigma, L = tl0_lie()
    second = derived_series(L)[2]
    assert ambient_subspace(A, sigma, second) == Subspace.from_vectors(
        A.dim, [diagram_difference(A, sigma, B4)]
    )


def test_orthogonal_three_is_perfect():
    L = orthogonal_model([3])
    assert bracket_span(L, Subspace.full(L.dim), Subspace.full(L.dim)).dim == 3
    assert [s.dim for s in derived_series(L)] == [3, 3]


def test_derived_series_dims():
    _, _, L = tl0_lie()
    assert [s.dim for s in derived_series(L)] == [4, 3, 1, 0]
    assert [s.dim for s in derived_series(orthogonal_model([3, 3]))] == [6, 6]
    assert [s.dim for s in derived_series(orthogonal_model([2]))] == [1, 0]


def test_lower_central_series_dims():
    assert [s.dim for s in lower_central_series(orthogonal_model([2]))] == [1, 0]
    _, _, L = tl0_lie()
    assert [s.dim for s in lower_central_series(L)] == [4, 3, 3]


def test_series_terminate_quickly():
    for L in (tl0_lie()[2], orthogonal_model([1, 3, 2]), orthogonal_model([4])):
        assert len(derived_series(L)) <= L.dim + 2
        assert len(lower_central_series(L)) <= L.dim + 2


def test_center_examples():
    assert center(orthogonal_model([2])).dim == 1
    assert center(orthogonal_model([3])).dim == 0
    A, sigma, L = tl0_lie()
    b4 = diagram_difference(A, sigma, B4)
    skew, v = plesken_subspace(A, sigma), sparse(b4, A.dim)
    assert not reduce_by(skew.rows, v)
    coords = {r: v[p] for r, p in enumerate(skew.rows) if p in v}
    assert dense(L.dim, coords) == coordinates_dense(skew, b4)
    assert not reduce_by(center(L).rows, coords)
    assert coordinates_dense(center(L), dense(L.dim, coords)) is not None


@pytest.mark.parametrize(
    "sizes, expected",
    [([2, 2, 3], 2), ([1, 2], 1), ([4], 0), ([1, 3, 3, 1], 0)],
)
def test_center_of_models(sizes, expected):
    assert center(orthogonal_model(sizes)).dim == expected


def test_killing_form_examples():
    zero = killing_form(orthogonal_model([2, 2]))
    assert zero == zero_matrix(zero.rows, zero.cols)
    k3 = killing_form(orthogonal_model([3]))
    from plesken.linalg import rank

    assert rank(k3) == 3
    A, sigma = matrix_algebra(3)
    L = plesken_lie_algebra(A, sigma)
    assert rank(killing_form(L)) == 3


def test_killing_form_ad_invariance():
    for L in (
        orthogonal_model([3]),
        orthogonal_model([1, 3, 2]),
        tl0_lie()[2],
        plesken_lie_algebra(*matrix_algebra(2, "conj_transpose")),
    ):
        K = killing_form(L)

        def k(x, y):
            acc = scalar(0)
            for i, xi in enumerate(x):
                if not xi:
                    continue
                for j, yj in enumerate(y):
                    if yj and K.data[i][j]:
                        acc = acc + xi * yj * K.data[i][j]
            return acc

        basis = [Subspace.full(L.dim).basis[i] for i in range(L.dim)]
        brackets = {}
        for (a, x), (b, y) in itertools.product(enumerate(basis), repeat=2):
            brackets[a, b] = dense(L.dim, L.bracket({a: 1}, {b: 1}))
            assert brackets[a, b] == bracket_dense(L, x, y)
        for a, b, c in itertools.product(range(L.dim), repeat=3):
            assert k(brackets[a, b], basis[c]) == k(basis[a], brackets[b, c])


def test_fingerprint_tl0():
    _, _, L = tl0_lie()
    fp = fingerprint(L)
    assert fp.solvable and fp.derived_length == 3 and not fp.nilpotent
    assert fp.derived_dims == (4, 3, 1, 0)


def test_fingerprint_model_1331():
    fp = fingerprint(orthogonal_model([1, 3, 3, 1]))
    assert fp.dim == 6
    assert fp.center_dim == 0
    assert fp.killing_rank == 6
    assert fp.derived_dims == (6, 6)
    assert not fp.solvable and fp.derived_length is None


def test_fingerprint_model_eleven():
    # o(11) is built from M(11), whose matrix-unit labels must not collide.
    fp = fingerprint(orthogonal_model([11]))
    assert (fp.dim, fp.center_dim, fp.killing_rank, fp.derived_dims) == (55, 0, 55, (55, 55))


def test_fingerprint_zero_algebra():
    fp = fingerprint(LieAlgebra((), {}))
    assert fp.dim == 0 and fp.solvable and fp.nilpotent
    assert fp.derived_dims == (0,) and fp.killing_rank == 0


def test_orthogonal_model_so3_brackets():
    L = orthogonal_model([3])
    assert L.dim == 3
    # Basis order (1,2), (1,3), (2,3); commutators of the skew matrices.
    assert L.bracket_terms(0, 1) == ((2, scalar(-1)),)
    assert L.bracket_terms(0, 2) == ((1, scalar(1)),)
    assert L.bracket_terms(1, 2) == ((0, scalar(-1)),)


def test_orthogonal_model_dims():
    assert orthogonal_model([1, 3, 3, 1]).dim == 6
    two = orthogonal_model([2])
    assert two.dim == 1 and not two.table


@pytest.mark.parametrize(
    "sizes", [[3], [4], [1, 3, 2], [2, 2, 3], [1, 3, 3, 1], [5], [6], [1, 4, 6, 4, 1]]
)
def test_orthogonal_model_satisfies_jacobi(sizes):
    L = orthogonal_model(sizes)
    assert sum(d * (d - 1) // 2 for d in sizes) == L.dim <= 50
    assert jacobi_failure(L) is None
    x, y = vector([1] * L.dim), vector(range(L.dim))
    xy = L.bracket(sparse(x, L.dim), sparse(y, L.dim))
    assert xy == {k: -c for k, c in L.bracket(sparse(y, L.dim), sparse(x, L.dim)).items()}
    assert dense(L.dim, xy) == bracket_dense(L, x, y)


def test_fingerprint_match_examples():
    A, sigma = planar_rook(3)
    L = plesken_lie_algebra(A, sigma)
    assert fingerprint(L).compare(Fingerprint.orthogonal([1, 3, 3, 1])).matches

    _, _, L0 = tl0_lie()
    comparison = fingerprint(L0).compare(Fingerprint.orthogonal([1, 3, 2]))
    assert not comparison.matches
    assert any(field == "solvable" for field, _, _ in comparison.diffs)

    assert fingerprint(LieAlgebra((), {})).compare(Fingerprint.orthogonal([1])).matches


@pytest.mark.parametrize("d", range(13))
def test_closed_form_fingerprint_of_one_block(d):
    assert Fingerprint.orthogonal([d]) == fingerprint(orthogonal_model([d]))


def test_closed_form_fingerprint_of_up_to_three_blocks():
    for k in range(4):
        for sizes in itertools.combinations_with_replacement(range(7), k):
            assert Fingerprint.orthogonal(sizes) == fingerprint(orthogonal_model(sizes)), sizes
    with pytest.raises(ValueError):
        Fingerprint.orthogonal([3, -1])


def test_killing_form_is_symmetric():
    K = killing_form(tl0_lie()[2])
    assert K == transpose(K)


def test_quaternionic_matrices_give_a_perfect_algebra():
    # Anti-self-adjoint 2x2 quaternionic matrices: dimension 10, perfect,
    # trivial center, non-degenerate Killing form.
    from plesken.builders import matrix_over_algebra, quaternions
    from plesken.linalg import rank

    L = plesken_lie_algebra(*matrix_over_algebra(2, *quaternions()))
    fp = fingerprint(L)
    assert fp.dim == 10
    assert fp.derived_dims == (10, 10)
    assert fp.center_dim == 0
    assert fp.killing_rank == 10
    assert not fp.solvable


def _oracle_lie_algebras():
    from test_validation_oracles import FAMILIES

    for name, build in FAMILIES.items():
        yield pytest.param(lambda build=build: plesken_lie_algebra(*build()), id=name)
    for sizes in ([1, 3, 2], [0, 2, 5, 1], [2, 2], [4, 1, 3]):
        yield pytest.param(lambda sizes=sizes: orthogonal_model(sizes), id=f"o{sizes}")


@pytest.mark.parametrize("make", _oracle_lie_algebras())
def test_center_and_fingerprint_match_dense_oracles(make):
    from oracles import center_scan, fingerprint_gauss_jordan, killing_form_scan

    L = make()
    assert center(L) == center_scan(L)
    assert killing_form(L) == killing_form_scan(L)
    assert fingerprint(L) == fingerprint_gauss_jordan(L)


def test_modular_prime_and_square_root_of_minus_one():
    assert P % 4 == 1
    assert all(P % d for d in range(2, int(P**0.5) + 1))
    assert I_MOD_P * I_MOD_P % P == P - 1


def _count_exact_steps(monkeypatch) -> dict:
    """Count the calls `fingerprint` makes to the exact steps."""
    import plesken.lie as lie

    calls = dict.fromkeys(("killing_form", "center", "derived_series", "lower_central_series"), 0)
    for name in calls:
        def counted(L, name=name, original=getattr(lie, name)):
            calls[name] += 1
            return original(L)

        monkeypatch.setattr(lie, name, counted)
    return calls


def _family_lie(name):
    from test_validation_oracles import FAMILIES

    families = {**FAMILIES, "TL_3(5)": lambda: temperley_lieb(5, 3)}
    return plesken_lie_algebra(*families[name]())


@pytest.mark.parametrize("name", ["TL_3(5)", "PR(3)", "H", "M(2,H)"])
def test_full_killing_rank_mod_p_skips_the_exact_steps(monkeypatch, name):
    from oracles import fingerprint_gauss_jordan

    L = _family_lie(name)
    calls = _count_exact_steps(monkeypatch)
    fp = fingerprint(L)
    assert calls == dict.fromkeys(calls, 0)
    assert (fp.killing_rank, fp.center_dim, fp.derived_dims) == (L.dim, 0, (L.dim, L.dim))
    assert fp == fingerprint_gauss_jordan(L)


@pytest.mark.parametrize("name", ["TL_3(4)", "TL_0(4)", "M(3)*", "QS3"])
def test_killing_deficit_mod_p_runs_the_exact_steps(monkeypatch, name):
    from oracles import fingerprint_gauss_jordan

    L = _family_lie(name)
    calls = _count_exact_steps(monkeypatch)
    fp = fingerprint(L)
    assert calls == dict.fromkeys(calls, 1)
    assert fp.killing_rank < L.dim
    assert fp == fingerprint_gauss_jordan(L)


@pytest.mark.parametrize(
    "factor, rank_mod_p",
    [(P, 0), (Fraction(1, P), None)],
    ids=["K = 0 mod P", "P divides a denominator"],
)
def test_modular_failures_fall_back_to_the_exact_fingerprint(monkeypatch, factor, rank_mod_p):
    # o(3) in the basis factor * e_a: [f_a, f_b] = factor * c * f_k.
    o3 = orthogonal_model([3])
    L = LieAlgebra(o3.labels, {
        key: tuple((k, c * factor) for k, c in terms) for key, terms in o3.table.items()
    })
    assert _killing_rank_mod_p(L) == rank_mod_p
    calls = _count_exact_steps(monkeypatch)
    assert fingerprint(L) == Fingerprint.orthogonal([3])
    assert calls == dict.fromkeys(calls, 1)


def test_integer_structure_constants_are_read_as_scalars():
    L = LieAlgebra("xyz", {(0, 1): ((2, -1),), (0, 2): ((1, 1),), (1, 2): ((0, -1),)})
    assert L.table == orthogonal_model([3]).table
    assert fingerprint(L) == Fingerprint.orthogonal([3])


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def antisymmetric_tables(draw, coefficients=gaussians):
    """A bracket table on at most five basis vectors, Jacobi not required."""
    n = draw(st.integers(0, 5))
    table = {
        (i, j): tuple(
            draw(st.dictionaries(st.integers(0, n - 1), coefficients, max_size=3)).items()
        )
        for i in range(n) for j in range(i + 1, n)
    }
    return LieAlgebra([f"e{i}" for i in range(n)], table)


# Integer tables, whose Killing sums mod P stay unreduced ints, and
# non-integral Q(i) tables.
int_or_gaussian_tables = st.one_of(
    antisymmetric_tables(st.integers(-3, 3)), antisymmetric_tables()
)


@settings(max_examples=150, deadline=None)
@given(int_or_gaussian_tables, st.data())
def test_half_table_brackets_match_the_dense_oracle(L, data):
    # The oracle writes [e_j, e_i] = -[e_i, e_j] from `L.table` itself.
    n = L.dim
    units = [unit_vector(n, i) for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        terms = L.bracket_terms(i, j)
        assert [k for k, _ in terms] == sorted({k for k, _ in terms})
        assert all(c for _, c in terms)
        assert dense(n, dict(terms)) == bracket_dense(L, units[i], units[j])
    vectors = st.lists(st.one_of(st.integers(-2, 2), gaussians), min_size=n, max_size=n)
    x, y = data.draw(vectors), data.draw(vectors)
    assert dense(n, L.bracket(sparse(x, n), sparse(y, n))) == bracket_dense(L, x, y)


@settings(max_examples=150, deadline=None)
@given(int_or_gaussian_tables)
def test_killing_form_by_positions_matches_the_scan(L):
    # The position sum pairs (i, k) with (k, i); the scan sums over every index.
    K = killing_form(L)
    assert K == killing_form_scan(L)
    # P divides no denominator here (all are 1, 2, 3 or their products).
    residues = ({k: residue(c) for k, c in enumerate(row)} for row in K.data)
    assert _killing_rank_mod_p(L) == rank_mod_p(residues, P)
    # The same loop on residues: congruent entry by entry, and equal ints on
    # an integer table, whose sums are left unreduced.
    modular = _killing_entries(L, residue)
    for row, exact_row in zip(modular, K.data):
        for value, c in zip(row, exact_row):
            assert type(value) is int and (value - residue(c)) % P == 0
    if all(type(c) is int for terms in L.table.values() for _, c in terms):
        assert modular == [list(row) for row in K.data]
