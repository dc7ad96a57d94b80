import random

import pytest
from oracles import (
    apply_dense,
    bilinear_product_dense,
    bracket_dense,
    commutator_dense,
    identity_matrix,
    involution_from_matrix,
    jacobi_failure,
    kernel_gauss_jordan,
    linear_combination,
    pairs,
    quads,
    sigma_matrix,
    skew_part_dense,
)

from plesken.algebra import (
    AntiInvolution,
    Algebra,
    InternalConsistencyError,
    bracket_closure_check,
    lie_labels,
    plesken_lie_algebra,
    plesken_subspace,
    validate_associativity,
    validate_involution,
    validate_unit,
)
from plesken.builders import (
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from plesken.linalg import Matrix, dense, sparse, unit_vector, vector
from plesken.scalars import I, ONE, GaussianRational, scalar
from plesken.suite import cyclic_table, symmetric_3_table
from plesken.builders import group_algebra


def test_quaternion_products():
    A, _ = quaternions()
    one, i, j, k = (unit_vector(A.dim, n) for n in range(4))
    mul = A.multiply_vectors
    assert mul(i, j) == k
    assert mul(j, i) == tuple(-c for c in k)
    assert mul(j, k) == i
    assert mul(i, i) == tuple(-c for c in one)


def test_unit_axiom_random():
    A, _ = quaternions()
    rng = random.Random(7)
    x = vector([rng.randint(-9, 9) for _ in range(4)])
    assert A.multiply_vectors(A.unit, x) == x
    assert A.multiply_vectors(x, A.unit) == x
    assert validate_unit(A) is None


def test_matrix_unit_rule():
    A, _ = matrix_algebra(2)
    e11, e12, e21, e22 = (unit_vector(A.dim, n) for n in range(4))
    assert A.multiply_vectors(e12, e21) == e11
    assert A.multiply_vectors(e21, e12) == e22


def test_multiply_dimension_mismatch():
    A, _ = quaternions()
    B, _ = matrix_algebra(3)
    with pytest.raises(ValueError):
        A.multiply_vectors(unit_vector(A.dim, 0), unit_vector(B.dim, 0))


@pytest.mark.parametrize(
    "structure, error, message",
    [
        ([(True, 0, 0, 1)], ValueError, "structure index out of range: (True, 0)"),
        ([(0, True, 0, 1)], ValueError, "structure index out of range: (0, True)"),
        ([(0, 0, True, 1)], ValueError, "structure target out of range: True"),
        ([(0, 0, 0, 1), (0, 0, True, 1)], ValueError, "structure target out of range: True"),
        ([(0, 0, 0, True)], TypeError, "cannot interpret True as a scalar"),
        ([(0, 0, 0, "x")], ValueError, "not a scalar: 'x'"),
        # The target is checked before the coefficient is read.
        ([(0, 0, 2, "x")], ValueError, "structure target out of range: 2"),
    ],
)
def test_constructor_refusals_are_pinned(structure, error, message):
    with pytest.raises(error) as info:
        Algebra(["a", "b"], structure, [1, 0])
    assert str(info.value) == message


def test_constructor_stores_no_zero_product():
    # A zero single term, a recurring pair summing to zero (as ints, as
    # strings, or over several targets) and a zero sum on one target are
    # not stored.
    structure = [
        (0, 0, 0, 0),
        (0, 1, 1, 1), (0, 1, 1, -1),
        (1, 0, 1, "1/2"), (1, 0, 1, "-1/2"),
        (1, 1, 0, 1), (1, 1, 1, 2), (1, 1, 1, -2), (1, 1, 0, -1),
        (0, 0, 0, "0"),
    ]
    assert Algebra(["a", "b"], structure, [1, 0]).rows == [{}, {}]
    structure = [(0, 0, 0, 2), (0, 0, 0, -2), (1, 1, 1, "0")]
    assert Algebra(["a", "b"], structure, [1, 0]).rows == [{}, {}]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: planar_rook(3),
        lambda: temperley_lieb(3, 0),
        lambda: temperley_lieb(4, 3),
        lambda: matrix_algebra(3),
        lambda: matrix_algebra(2, "conj_transpose"),
        lambda: matrix_over_algebra(2, *quaternions()),
        lambda: group_algebra(symmetric_3_table()),
    ],
)
def test_builders_validate(factory):
    A, sigma = factory()
    assert validate_associativity(A) is None
    assert validate_unit(A) is None
    assert validate_involution(A, sigma) is None


def test_associativity_detects_corruption():
    A, _ = quaternions()
    structure = pairs(A)
    structure[(0, 0)] = ((0, scalar(2)),)
    corrupted = Algebra(A.labels, quads(structure), A.unit)
    assert validate_associativity(corrupted) == (0, 1, 1)  # (0, 0, 1) while G was (0, 1, 2)
    x, y, z = (unit_vector(4, t) for t in (0, 1, 1))

    def mul(u, v):
        return bilinear_product_dense(4, pairs(corrupted).get, u, v)

    assert mul(mul(x, y), z) != mul(x, mul(y, z))


def test_identity_is_not_an_anti_involution():
    A, _ = matrix_algebra(2)
    sigma = involution_from_matrix(identity_matrix(4))
    failure = validate_involution(A, sigma)
    assert failure is not None
    assert failure.kind == "antihomomorphism"
    assert failure.witness == (1, 0)  # (0, 1) while G held 0
    x, y = unit_vector(4, 1), unit_vector(4, 0)

    def mul(u, v):
        return bilinear_product_dense(4, pairs(A).get, u, v)

    assert apply_dense(sigma, mul(x, y)) != mul(apply_dense(sigma, y), apply_dense(sigma, x))


def test_involution_reads_its_images_once():
    sigma = AntiInvolution(({1: "-1", 0: 0}, {0: GaussianRational(-1)}))
    assert sigma.images == ({1: -1}, {0: -1})
    assert sigma == AntiInvolution.signed_permutation((1, 0), (-1, -1))
    assert sigma_matrix(sigma) == Matrix([[0, -1], [-1, 0]])
    with pytest.raises(TypeError):
        hash(sigma)
    for images in (({True: 1}, {0: 1}), ({2: 1}, {0: 1}), ({-1: 1}, {0: 1})):
        with pytest.raises(ValueError, match="involution image index out of range"):
            AntiInvolution(images)
    with pytest.raises(ValueError):
        AntiInvolution.signed_permutation((1, 0), (1,))


def test_plesken_basis_quaternions():
    A, sigma = quaternions()
    basis = plesken_subspace(A, sigma).basis
    assert basis == tuple(unit_vector(A.dim, n) for n in (1, 2, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plesken_dim_matrix_transpose(n):
    A, sigma = matrix_algebra(n)
    assert plesken_subspace(A, sigma).dim == n * (n - 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plesken_dim_matrix_conj(n):
    A, sigma = matrix_algebra(n, "conj_transpose")
    assert plesken_subspace(A, sigma).dim == n * n


def test_plesken_lie_quaternions():
    A, sigma = quaternions()
    L = plesken_lie_algebra(A, sigma)
    assert L.dim == 3 and L.labels == ("i", "j", "k")
    assert L.bracket_terms(0, 1) == ((2, scalar(2)),)
    assert L.bracket_terms(0, 2) == ((1, scalar(-2)),)
    assert L.bracket_terms(1, 2) == ((0, scalar(2)),)


def test_plesken_subspace_refuses_a_sigma_of_another_size():
    A, _ = matrix_algebra(2)
    with pytest.raises(ValueError, match="^involution matrix shape does not match the algebra$"):
        plesken_subspace(A, AntiInvolution.signed_permutation((0, 1, 2)))


def test_lie_labels_fall_back_to_x_on_a_collision():
    # a - b written out collides with the ambient label "a-b" of the second row.
    assert lie_labels(["a", "b", "a-b"], [{0: 1, 1: -1}, {2: 1}]) == ["x0", "x1"]


def test_plesken_lie_tl0_4_table():
    A, sigma = temperley_lieb(4, 0)
    L = plesken_lie_algebra(A, sigma)
    assert L.dim == 4
    # Structural antisymmetry plus exact Jacobi on all triples.
    assert jacobi_failure(L) is None
    x = vector([1, 2, 3, 4])
    y = vector([0, -1, 5, 2])
    xy = L.bracket(sparse(x, L.dim), sparse(y, L.dim))
    assert xy == {k: -c for k, c in L.bracket(sparse(y, L.dim), sparse(x, L.dim)).items()}
    assert dense(L.dim, xy) == bracket_dense(L, x, y)


@pytest.mark.parametrize(
    "factory, samples, seed",
    [
        (quaternions, 100, 11),
        (lambda: planar_rook(3), 50, 12),
        (lambda: group_algebra(symmetric_3_table()), 50, 13),
        (lambda: temperley_lieb(4, 0), 50, 14),
    ],
)
def test_bracket_closure(factory, samples, seed):
    A, sigma = factory()
    assert bracket_closure_check(A, sigma, samples, seed=seed) is None


def test_closure_proof_fires_when_the_skew_part_is_not_closed():
    # diag(-1, -1, -1, 1) on M(2) is no anti-involution: its (-1)-eigenspace
    # span(E11, E12, E21) is not closed, since [E12, E21] = E11 - E22.  The
    # exact basis-pair proof that the reports rely on must catch this.
    A, _ = matrix_algebra(2)
    sigma = involution_from_matrix(Matrix([[-1, 0, 0, 0], [0, -1, 0, 0],
                                           [0, 0, -1, 0], [0, 0, 0, 1]]))
    assert validate_involution(A, sigma) is not None
    with pytest.raises(
        InternalConsistencyError,
        match=r"bracket of basis pair \(1, 2\) left the skew part",
    ):
        plesken_lie_algebra(A, sigma)
    assert bracket_closure_check(A, sigma, 25, seed=0) is not None


@pytest.mark.parametrize("matrix", [[[1, 1], [0, 1]], [[-1, 0], [0, 2]]])
def test_skew_part_check_fires_when_sigma_squared_is_not_the_identity(matrix):
    # On Q x Q, a linear sigma with sigma^2 != id: the span of the
    # e_j - sigma(e_j) is not the (-1)-eigenspace (span(e0) against 0 for
    # the unipotent block, everything against span(e0) for diag(-1, 2)).
    # Only the check sigma(r) = -r on the rows of the span sees it.
    A = Algebra(("a", "b"), [(0, 0, 0, 1), (1, 1, 1, 1)], (1, 1))
    with pytest.raises(
        InternalConsistencyError,
        match=r"\(-1\)-eigenspace differs from the span of the generators",
    ):
        plesken_lie_algebra(A, involution_from_matrix(Matrix(matrix)))


def test_group_bracket_identity_on_elements():
    table = symmetric_3_table()
    A, sigma = group_algebra(table)

    def hat(g):
        v = dense(A.dim, sigma.skew_terms({g: 1}))
        assert v == skew_part_dense(sigma, unit_vector(A.dim, g))
        return v

    p = table.product
    inv = table.inverse
    for g in range(table.order):
        for h in range(table.order):
            lhs = commutator_dense(A, hat(g), hat(h))
            rhs = vector(
                [0] * A.dim
            )
            for target, sign in (
                (p[g][h], 1),
                (p[g][inv[h]], -1),
                (p[inv[g]][h], -1),
                (p[inv[g]][inv[h]], 1),
            ):
                rhs = tuple(
                    c + sign * d for c, d in zip(rhs, hat(target))
                )
            assert lhs == rhs


@pytest.mark.parametrize(
    "factory",
    [
        quaternions,
        lambda: matrix_algebra(3),
        lambda: planar_rook(3),
        lambda: temperley_lieb(4, 3),
        lambda: group_algebra(cyclic_table(5)),
    ],
)
def test_eigenspace_dimensions_sum(factory):
    A, sigma = factory()
    n, identity, matrix = A.dim, identity_matrix(A.dim), sigma_matrix(sigma)

    def kernel_dim(sign):
        return kernel_gauss_jordan(
            linear_combination(n, n, [(ONE, matrix), (sign, identity)])
        ).dim

    plus, minus = kernel_dim(-ONE), kernel_dim(ONE)
    assert plus + minus == A.dim
    assert minus == plesken_subspace(A, sigma).dim


@pytest.mark.parametrize(
    "table, expected",
    [
        (cyclic_table(2), 0),
        (cyclic_table(3), 1),
        (cyclic_table(5), 2),
        (symmetric_3_table(), 1),
    ],
)
def test_group_plesken_dimension_formula(table, expected):
    A, sigma = group_algebra(table)
    basis = plesken_subspace(A, sigma).basis
    non_involutive = sum(1 for g in range(table.order) if table.inverse[g] != g)
    assert len(basis) == non_involutive // 2 == expected


def test_cyclic_group_brackets_vanish():
    A, sigma = group_algebra(cyclic_table(5))
    L = plesken_lie_algebra(A, sigma)
    assert L.dim == 2 and not L.table


def unit_quaternion_group_table():
    # {1, -1, i, -i, j, -j, k, -k} under quaternion multiplication.
    elements = [(s, a) for a in range(4) for s in (1, -1)]  # (sign, axis)
    index = {e: n for n, e in enumerate(elements)}
    mult = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 1): (-1, 3),
        (2, 3): (1, 1), (3, 2): (-1, 1),
        (3, 1): (1, 2), (1, 3): (-1, 2),
    }
    table = []
    for s1, a1 in elements:
        row = []
        for s2, a2 in elements:
            sign, axis = mult[(a1, a2)]
            row.append(index[(sign * s1 * s2, axis)])
        table.append(row)
    from plesken.builders import GroupTable

    return GroupTable(table)


def test_unit_quaternion_group_gives_a_simple_bracket():
    # The eight unit quaternions form a group whose skew part is spanned by
    # i - (-i), j - (-j), k - (-k): three dimensional, perfect, with
    # non-degenerate Killing form (so nothing like the abelian cases).
    from plesken.lie import fingerprint

    A, sigma = group_algebra(unit_quaternion_group_table())
    L = plesken_lie_algebra(A, sigma)
    fp = fingerprint(L)
    assert fp.dim == 3
    assert fp.derived_dims == (3, 3)
    assert fp.center_dim == 0
    assert fp.killing_rank == 3
    assert bracket_closure_check(A, sigma, 100, seed=3) is None


def test_semilinear_involution_in_a_basis_with_imaginary_entries():
    # M(2) under conjugate transposition, in a basis where some structure
    # constants are not real: sigma(c ek) = conj(c) sigma(ek) must be used.
    from oracles import changed_basis, involution_all_pairs

    columns = [(1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (I, 0, 0, 1)]
    A, sigma = changed_basis(
        *matrix_algebra(2, "conj_transpose"), [tuple(map(scalar, c)) for c in columns]
    )
    assert any(scalar(c).im for terms in pairs(A).values() for _, c in terms)
    assert validate_involution(A, sigma) is None
    assert involution_all_pairs(A, sigma) is None
