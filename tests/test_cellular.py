import math
from fractions import Fraction
from functools import partial

import pytest
from oracles import (
    act,
    action_matrices,
    commutator_dense,
    entries_matrix,
    form_skewness_dense,
    gram_every_witness,
    gram_properties_dense,
    identity_matrix,
    injective_dense,
    linear_combination,
    matmul,
    module_axiom_failure,
)

from plesken.algebra import (
    Algebra,
    AntiInvolution,
    InternalConsistencyError,
    plesken_lie_algebra,
    plesken_subspace,
)
from plesken.builders import (
    matrix_algebra,
    planar_rook,
    temperley_lieb,
)
from plesken.cellular import (
    CellDatum,
    CellForms,
    CellModule,
    GramForm,
    cell_datum_matrix,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
    cell_module,
    check_gram_properties,
    gram_matrix,
    is_semisimple,
    validate_cell_datum,
    verify_theorem,
)
from plesken.lie import Fingerprint, fingerprint
from plesken.linalg import Matrix, sparse
from plesken.report import analysis_report, cellular_report, validate_algebra
from plesken.scalars import I, ONE, scalar


# -- data construction -------------------------------------------------------


def test_planar_rook_datum_counts():
    A, sigma = planar_rook(3)
    cd = cell_datum_planar_rook(3, sigma)
    assert [len(cd.members(lam)) for lam in cd.lambdas] == [1, 3, 3, 1]
    assert sorted(cd.basis_map.values()) == list(range(20))
    assert validate_cell_datum(A, sigma, cd) is None


def test_planar_rook_datum_n1():
    A, sigma = planar_rook(1)
    cd = cell_datum_planar_rook(1, sigma)
    assert [len(cd.members(lam)) for lam in cd.lambdas] == [1, 1]
    assert validate_cell_datum(A, sigma, cd) is None


@pytest.mark.parametrize("delta", ["0", "3"])
def test_temperley_lieb_datum(delta):
    A, sigma = temperley_lieb(4, scalar(delta))
    cd = cell_datum_temperley_lieb(4, sigma)
    sizes = {lam: len(cd.members(lam)) for lam in cd.lambdas}
    assert sizes == {4: 1, 2: 3, 0: 2}
    assert sum(d * d for d in sizes.values()) == 14 == A.dim
    assert validate_cell_datum(A, sigma, cd) is None


def test_half_diagram_counts_match_hook_formula():
    for n in range(1, 7):
        cd = cell_datum_temperley_lieb(n, None)
        for p in range(n // 2 + 1):
            expected = math.comb(n, p) - (math.comb(n, p - 1) if p else 0)
            assert len(cd.members(n - 2 * p)) == expected


def test_reversed_poset_breaks_triangularity():
    A, sigma = planar_rook(2)
    cd = cell_datum_planar_rook(2, sigma)
    reversed_cd = CellDatum(
        cd.lambdas,
        [(b, a) for a, b in cd.less],
        cd.index_sets,
        cd.basis_map,
        sigma,
    )
    failure = validate_cell_datum(A, sigma, reversed_cd)
    assert failure is not None and failure.clause == "C3"
    assert failure.message == "product has support outside column t and the lower cells"
    assert failure.witness == (0, 1, (1,), (1,), "-/-")
    with pytest.raises(InternalConsistencyError, match="unexpected support"):
        gram_every_witness(A, reversed_cd, 1)


def _two_by_two(coefficient, unit, conjugates_scalars=False):
    """An algebra on C[s, t], s, t in (1, 2), with C[s, t] * C[u, v] =
    coefficient(s, t, u, v) * C[s, v], sigma sending C[s, t] to C[t, s],
    and its one-cell datum."""
    members = (1, 2)
    index = {(s, t): 2 * (s - 1) + (t - 1) for s in members for t in members}
    structure = {}
    for (s, t), left in index.items():
        for (u, v), right in index.items():
            if c := scalar(coefficient(s, t, u, v)):
                structure[(left, right)] = ((index[(s, v)], c),)
    algebra = Algebra([f"C{s}{t}" for s, t in index], structure, [scalar(c) for c in unit])
    perm = [index[(t, s)] for s, t in index]
    sigma = AntiInvolution.signed_permutation(perm, None, conjugates_scalars)
    basis_map = {(1, s, t): k for (s, t), k in index.items()}
    return algebra, sigma, CellDatum((1,), (), {1: members}, basis_map, sigma)


def test_t_dependent_coefficients_break_c3():
    # M(2) in the basis C[s, t] = c_st E_st with c = [[1, 1], [1, 2]]: c is
    # symmetric, so C2 holds, but C[1, 2] * C[2, 1] = C[1, 1] while
    # C[1, 2] * C[2, 2] = 2 C[1, 2], so the action depends on t.
    c = [[1, 1], [1, 2]]

    def coefficient(s, t, u, v):
        return Fraction(c[s - 1][t - 1] * c[u - 1][v - 1], c[s - 1][v - 1]) if t == u else 0

    A, sigma, cd = _two_by_two(coefficient, [1, 0, 0, Fraction(1, 2)])
    assert validate_algebra(A, sigma)
    failure = validate_cell_datum(A, sigma, cd)
    assert str(failure) == "C3 fails: action coefficients depend on t (witness (1, 1, 1, 2))"
    with pytest.raises(InternalConsistencyError, match="witness pair"):
        gram_every_witness(A, cd, 1)


def test_c2_failure_detected():
    A, sigma = planar_rook(2)
    cd = cell_datum_planar_rook(2, sigma)
    # Swap two triples of the one-arc cell so sigma no longer transposes them.
    swapped = dict(cd.basis_map)
    a = (1, (1,), (2,))
    b = (1, (2,), (2,))
    swapped[a], swapped[b] = swapped[b], swapped[a]
    broken = CellDatum(cd.lambdas, cd.less, cd.index_sets, swapped, sigma)
    failure = validate_cell_datum(A, sigma, broken)
    assert failure is not None and failure.clause == "C2"


def test_c1_failure_detected():
    A, sigma = planar_rook(2)
    cd = cell_datum_planar_rook(2, sigma)
    broken_map = dict(cd.basis_map)
    del broken_map[(0, (), ())]
    broken = CellDatum(cd.lambdas, cd.less, cd.index_sets, broken_map, sigma)
    failure = validate_cell_datum(A, sigma, broken)
    assert failure is not None and failure.clause == "C1"


# -- cell modules -------------------------------------------------------------


def test_matrix_algebra_natural_module():
    n = 3
    A, sigma = matrix_algebra(n)
    cd = cell_datum_matrix(n, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    module = cell_module(A, cd, 1)
    assert module.dim == n
    for r in range(n):
        for s in range(n):
            expected = [[0] * n for _ in range(n)]
            expected[r][s] = 1
            assert module.action[r * n + s] == {(r, s): ONE}
            assert entries_matrix(n, module.action[r * n + s]) == Matrix(expected)


def test_planar_rook_module_unit_action():
    A, sigma = planar_rook(3)
    cd = cell_datum_planar_rook(3, sigma)
    module = cell_module(A, cd, 1)
    assert module.dim == 3
    unit = module.act(sparse(A.unit, A.dim))
    assert unit == {(i, i): ONE for i in range(3)}
    assert entries_matrix(3, unit) == identity_matrix(3)


def test_tl_module_axioms():
    A, sigma = temperley_lieb(4, 3)
    cd = cell_datum_temperley_lieb(4, sigma)
    module = cell_module(A, cd, 2)
    assert module.dim == 3
    assert module_axiom_failure(A, module) is None


# -- Gram forms ---------------------------------------------------------------


def test_gram_single_cup_cell():
    for delta, expected_rank in (("3", 1), ("0", 0)):
        A, sigma = temperley_lieb(2, scalar(delta))
        cd = cell_datum_temperley_lieb(2, sigma)
        form = gram_matrix(A, cd, 0)
        assert form.gram == Matrix([[scalar(delta)]])
        assert form.rank == expected_rank


def test_gram_planar_rook_identity():
    for n in (2, 3):
        A, sigma = planar_rook(n)
        cd = cell_datum_planar_rook(n, sigma)
        for lam in cd.lambdas:
            form = gram_matrix(A, cd, lam)
            assert form.gram == identity_matrix(len(cd.members(lam)))


def test_gram_matrix_algebra_identity():
    A, sigma = matrix_algebra(3)
    cd = cell_datum_matrix(3, sigma)
    assert gram_matrix(A, cd, 1).gram == identity_matrix(3)


@pytest.mark.parametrize(
    "factory, datum_factory",
    [
        (lambda: planar_rook(3), cell_datum_planar_rook),
        (lambda: temperley_lieb(4, 3), cell_datum_temperley_lieb),
        (lambda: temperley_lieb(4, 0), cell_datum_temperley_lieb),
    ],
)
def test_gram_symmetry_and_adjointness(factory, datum_factory):
    A, sigma = factory()
    n = 3 if datum_factory is cell_datum_planar_rook else 4
    cd = datum_factory(n, sigma)
    for lam in cd.lambdas:
        assert check_gram_properties(A, sigma, cd, lam) is None


# -- semisimplicity and the decomposition -------------------------------------


def test_semisimplicity_verdicts():
    A, sigma = planar_rook(3)
    assert is_semisimple(A, cell_datum_planar_rook(3, sigma)).semisimple

    A3, s3 = temperley_lieb(4, 3)
    assert is_semisimple(A3, cell_datum_temperley_lieb(4, s3)).semisimple

    A0, s0 = temperley_lieb(4, 0)
    verdict = is_semisimple(A0, cell_datum_temperley_lieb(4, s0))
    assert not verdict.semisimple
    assert any(rank < size for _, size, rank in verdict.ranks)


def test_predicted_decomposition():
    # The certificate reads the predicted block sizes off the cells.
    A, sigma = planar_rook(3)
    outcome = verify_theorem(A, sigma, cell_datum_planar_rook(3, sigma))
    assert [d for _, d in outcome.block_sizes] == [1, 3, 3, 1]
    assert outcome.predicted_lie_dim == 6

    A3, s3 = temperley_lieb(4, 3)
    outcome3 = verify_theorem(A3, s3, cell_datum_temperley_lieb(4, s3))
    assert sorted(d for _, d in outcome3.block_sizes) == [1, 2, 3]
    assert outcome3.predicted_lie_dim == 4

    AM, sM = matrix_algebra(3)
    outcomeM = verify_theorem(AM, sM, cell_datum_matrix(3, sM))
    assert [d for _, d in outcomeM.block_sizes] == [3] and outcomeM.predicted_lie_dim == 3


def test_predicted_decomposition_refuses_degenerate():
    # A degenerate Gram form refutes the prediction at check (a).
    A, sigma = temperley_lieb(4, 0)
    outcome = verify_theorem(A, sigma, cell_datum_temperley_lieb(4, sigma))
    assert any(rank < size for _, size, rank in outcome.gram_ranks)
    assert not outcome.certified and outcome.failed_check == "representation_injective"


# -- the certificate -----------------------------------------------------------


def test_certificate_planar_rook():
    A, sigma = planar_rook(3)
    cd = cell_datum_planar_rook(3, sigma)
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.certified
    assert outcome.lie_dim == 6 == outcome.predicted_lie_dim
    assert [d for _, d in outcome.block_sizes] == [1, 3, 3, 1]


def test_certificate_tl_delta_three():
    A, sigma = temperley_lieb(4, 3)
    cd = cell_datum_temperley_lieb(4, sigma)
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.certified
    assert outcome.lie_dim == 4 == outcome.predicted_lie_dim


def test_refutation_tl_delta_zero():
    A, sigma = temperley_lieb(4, 0)
    cd = cell_datum_temperley_lieb(4, sigma)
    outcome = verify_theorem(A, sigma, cd)
    assert not outcome.certified
    assert outcome.failed_check == "representation_injective"
    assert outcome.skew_ok  # adjointness holds without semisimplicity
    assert outcome.lie_dim == 4 == outcome.predicted_lie_dim


def test_cellular_report_builds_each_cell_form_once(monkeypatch):
    # The report checks the Gram properties and the certificate on one
    # shared CellForms; both give what they give on their own.
    import plesken.cellular as cellular

    A, sigma = temperley_lieb(4, 0)
    cd = cell_datum_temperley_lieb(4, sigma)
    forms = CellForms.build(A, cd)
    assert verify_theorem(A, sigma, cd, forms=forms) == verify_theorem(A, sigma, cd)
    for lam in cd.lambdas:
        assert check_gram_properties(A, sigma, cd, lam, forms=forms) is None

    calls = {"cell_module": 0, "gram_matrix": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(cellular, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cellular, name, counted)
    report = cellular_report("tl04", A, sigma, cd)
    assert report["theorem"]["failed_check"] == "representation_injective"
    assert calls == {"cell_module": len(cd.lambdas), "gram_matrix": len(cd.lambdas)}


@pytest.mark.parametrize(
    "factory, n, datum_factory",
    [
        (lambda: planar_rook(3), 3, cell_datum_planar_rook),
        (lambda: temperley_lieb(4, 3), 4, cell_datum_temperley_lieb),
        (lambda: matrix_algebra(3), 3, cell_datum_matrix),
    ],
)
def test_bracket_transport_through_cell_representations(factory, n, datum_factory):
    # The combined cell representation must carry the skew-part brackets to
    # matrix commutators block by block, exactly.
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    modules = {lam: cell_module(A, cd, lam) for lam in cd.lambdas}
    basis = plesken_subspace(A, sigma).basis
    for x in basis:
        for y in basis:
            z = commutator_dense(A, x, y)
            for lam, module in modules.items():
                d = module.dim
                rx, ry, rz = (entries_matrix(d, module.act(sparse(v, A.dim))) for v in (x, y, z))
                assert rz == linear_combination(d, d, [(ONE, matmul(rx, ry)), (-ONE, matmul(ry, rx))])


@pytest.mark.parametrize("delta", ["1/2", "1+1i", "-2/3+1/5i"])
def test_exotic_parameter_consistency(delta):
    # Certificates must track semisimplicity for any exact parameter value,
    # complex ones included.
    A, sigma = temperley_lieb(3, scalar(delta))
    cd = cell_datum_temperley_lieb(3, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    verdict = is_semisimple(A, cd)
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.certified == verdict.semisimple
    for lam in cd.lambdas:
        assert check_gram_properties(A, sigma, cd, lam) is None


def test_certificate_tl6():
    # One size beyond the acceptance tower: blocks {1, 5, 9, 5}.
    A, sigma = temperley_lieb(6, 3)
    assert A.dim == 132
    cd = cell_datum_temperley_lieb(6, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.certified
    assert sorted(d for _, d in outcome.block_sizes) == [1, 5, 5, 9]
    assert outcome.lie_dim == 56


def test_cell_count_identity():
    for n in (1, 2, 3):
        A, sigma = planar_rook(n)
        cd = cell_datum_planar_rook(n, sigma)
        assert sum(len(cd.members(lam)) ** 2 for lam in cd.lambdas) == A.dim
    for n in (2, 3, 4):
        A, sigma = temperley_lieb(n, 3)
        cd = cell_datum_temperley_lieb(n, sigma)
        assert sum(len(cd.members(lam)) ** 2 for lam in cd.lambdas) == A.dim


# -- failure paths of the certificate, against the dense oracles -------------


@pytest.mark.parametrize("n", [2, 3])
def test_semilinear_involution_refutes_form_skewness(n):
    # Conjugate transposition is a valid cell datum for M(n), and adjointness
    # holds, but the skew part holds i E_11, which is not skew for G = I.
    A, sigma = matrix_algebra(n, "conj_transpose")
    cd = cell_datum_matrix(n, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    forms = CellForms.build(A, cd)
    outcome = verify_theorem(A, sigma, cd, forms=forms)
    assert outcome.injective is True
    assert outcome.skew_ok is False
    assert outcome.skew_witness == (0, 1) == form_skewness_dense(A, sigma, cd, forms)
    assert outcome.failed_check == "form_skewness" and not outcome.certified
    assert check_gram_properties(A, sigma, cd, 1, forms=forms) is None


def test_hermitian_cell_form_under_semilinear_sigma():
    # C[s, t] * C[u, v] = phi(t, u) C[s, v] with phi Hermitian, and sigma the
    # conjugate transposition C[s, t] -> C[t, s]: one valid cell whose form
    # is Hermitian, not symmetric, and adjoint up to conjugation.
    phi = [[2, I], [-I, 1]]
    psi = [1, -I, I, 2]  # phi^-1, row by row: the unit is sum psi(s, t) C[s, t]
    A, sigma, cd = _two_by_two(lambda s, t, u, v: phi[t - 1][u - 1], psi, True)
    assert validate_algebra(A, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    forms = CellForms.build(A, cd)
    assert forms.grams[1].gram == Matrix(phi) == gram_every_witness(A, cd, 1)
    assert check_gram_properties(A, sigma, cd, 1, forms=forms) is None
    assert gram_properties_dense(A, sigma, 1, forms) is None
    report = cellular_report("hermitian", A, sigma, cd)
    assert report["gram_properties"] == {"pass": True, "failures": []}
    assert report["theorem"]["failed_check"] == "form_skewness"


CORRUPTIBLE = [
    (lambda: temperley_lieb(4, 3), 4, cell_datum_temperley_lieb),
    (lambda: planar_rook(3), 3, cell_datum_planar_rook),
    (lambda: matrix_algebra(3), 3, cell_datum_matrix),
]


def _largest_cell(cd):
    return max(cd.lambdas, key=lambda lam: len(cd.members(lam)))


@pytest.mark.parametrize("factory, n, datum_factory", CORRUPTIBLE)
def test_changed_gram_entry_fails_symmetry(factory, n, datum_factory):
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    forms = CellForms.build(A, cd)
    lam = _largest_cell(cd)
    rows = [list(row) for row in forms.grams[lam].gram.data]
    rows[0][1] = rows[0][1] + 1
    corrupted = CellForms(forms.modules, {**forms.grams, lam: GramForm(lam, Matrix(rows))})
    failure = check_gram_properties(A, sigma, cd, lam, forms=corrupted)
    assert (failure.kind, failure.witness) == ("symmetry", ())
    assert failure == gram_properties_dense(A, sigma, lam, corrupted)


@pytest.mark.parametrize("factory, n, datum_factory", CORRUPTIBLE)
def test_changed_action_entry_fails_adjointness(factory, n, datum_factory):
    # sigma(e_a) = e_b with b != a, and G is nondegenerate: the change moves
    # G rho(e_a) but not rho(e_b)^T G, so the first of a, b fails.
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    forms = CellForms.build(A, cd)
    assert all(form.nondegenerate for form in forms.grams.values())
    lam = _largest_cell(cd)
    a = next(a for a, image in enumerate(sigma.images) if image != {a: ONE})
    (b,) = sigma.images[a]
    module = forms.modules[lam]
    entries = dict(module.action[a])
    entries[(0, 0)] = entries.get((0, 0), 0) + ONE
    changed = CellModule(lam, module.basis, {**module.action, a: entries})
    corrupted = CellForms({**forms.modules, lam: changed}, forms.grams)
    failure = check_gram_properties(A, sigma, cd, lam, forms=corrupted)
    assert (failure.kind, failure.witness) == ("adjointness", (min(a, b),))
    assert failure == gram_properties_dense(A, sigma, lam, corrupted)
    outcome = verify_theorem(A, sigma, cd, forms=corrupted)
    assert outcome.skew_witness == form_skewness_dense(A, sigma, cd, corrupted)


@pytest.mark.parametrize("factory, n, datum_factory", CORRUPTIBLE)
def test_degenerate_gram_form_refutes_injectivity(factory, n, datum_factory):
    # Injectivity is read off the Gram ranks: a zeroed row makes one form
    # degenerate, one short of full rank, and check (a) fails although the
    # cell actions are untouched.
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    forms = CellForms.build(A, cd)
    assert verify_theorem(A, sigma, cd, forms=forms).injective is True
    assert injective_dense(A, cd, forms) is True
    lam = _largest_cell(cd)
    rows = [list(row) for row in forms.grams[lam].gram.data]
    rows[0] = [scalar(0)] * len(rows[0])
    corrupted = CellForms(forms.modules, {**forms.grams, lam: GramForm(lam, Matrix(rows))})
    outcome = verify_theorem(A, sigma, cd, forms=corrupted)
    assert outcome.injective is False
    assert injective_dense(A, cd, corrupted) is True
    assert outcome.failed_check == "representation_injective" and not outcome.certified
    d = len(cd.members(lam))
    assert outcome.gram_ranks == tuple(
        (mu, d, d - 1) if mu == lam else (mu, form.size, form.rank)
        for mu, form in forms.grams.items()
    )
    assert outcome.skew_witness == form_skewness_dense(A, sigma, cd, corrupted)


def _gram_sweep():
    for n in range(1, 6):
        for delta in ("0", "1", "-1", "2", "1/2", "i", "1+i", "3"):
            yield f"tl-{delta}-{n}", partial(temperley_lieb, n, delta), n, cell_datum_temperley_lieb
    for n in range(1, 5):
        yield f"pr-{n}", partial(planar_rook, n), n, cell_datum_planar_rook
    for n in range(1, 4):
        for involution in ("transpose", "conj_transpose"):
            factory = partial(matrix_algebra, n, involution)
            yield f"m-{involution}-{n}", factory, n, cell_datum_matrix


GRAM_SWEEP = list(_gram_sweep())  # 40 TL, 4 PR and 6 M(n) inputs
DEGENERATE = {"tl-0-2", "tl-0-4", "tl-1-3", "tl-1-4", "tl-1-5", "tl--1-3", "tl--1-4", "tl--1-5"}


@pytest.mark.parametrize(
    "name, factory, n, datum_factory", GRAM_SWEEP, ids=[case[0] for case in GRAM_SWEEP]
)
def test_injectivity_is_gram_nondegeneracy(name, factory, n, datum_factory):
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    forms = CellForms.build(A, cd)
    nondegenerate = all(form.nondegenerate for form in forms.grams.values())
    assert nondegenerate == (name not in DEGENERATE)
    injective = verify_theorem(A, sigma, cd, forms=forms).injective
    assert injective == injective_dense(A, cd, forms) == nondegenerate


@pytest.mark.parametrize(
    "name, factory, n, datum_factory", GRAM_SWEEP, ids=[case[0] for case in GRAM_SWEEP]
)
def test_gram_matrix_matches_every_witness_pair(name, factory, n, datum_factory):
    # gram_matrix reads each entry at one witness pair; the oracle reads it
    # at every pair (s, v) and checks that no product leaves C[s, v] and
    # the lower cells.
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    for lam in cd.lambdas:
        assert gram_matrix(A, cd, lam).gram == gram_every_witness(A, cd, lam)


# -- the fingerprint a certificate decides ----------------------------------

CLOSED_FORM_SWEEP = [
    *GRAM_SWEEP,
    *(
        (f"m-{involution}-{n}", partial(matrix_algebra, n, involution), n, cell_datum_matrix)
        for n in (4, 5)
        for involution in ("transpose", "conj_transpose")
    ),
    ("tl-3-6", partial(temperley_lieb, 6, "3"), 6, cell_datum_temperley_lieb),
    ("pr-5", partial(planar_rook, 5), 5, cell_datum_planar_rook),
]


@pytest.mark.parametrize(
    "name, factory, n, datum_factory",
    CLOSED_FORM_SWEEP,
    ids=[case[0] for case in CLOSED_FORM_SWEEP],
)
def test_certified_fingerprint_is_the_closed_form(name, factory, n, datum_factory):
    # A certified report with passing Gram checks takes its fingerprint from
    # the block sizes; every other report computes it from the Lie table.
    # Both must equal the fingerprint computed from the table.
    A, sigma = factory()
    report = cellular_report(name, A, sigma, datum_factory(n, sigma))
    certified = report["theorem"]["certified"] and report["gram_properties"]["pass"]
    assert certified == (name not in DEGENERATE and "conj" not in name)
    computed = fingerprint(plesken_lie_algebra(A, sigma))
    if certified:
        sizes = report["fingerprint_comparison"]["model_sizes"]
        assert computed == Fingerprint.orthogonal(sizes)
    assert report["fingerprint"] == computed.as_dict()


def test_certified_report_builds_no_table_and_no_fingerprint(monkeypatch):
    import plesken.lie as lie
    import plesken.report as report

    calls = {}
    for module, name in (
        (report, "fingerprint"),
        (report, "plesken_lie_algebra"),
        (lie, "orthogonal_model"),
    ):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    assert not hasattr(report, "orthogonal_model")

    A, sigma = temperley_lieb(5, 3)
    cd = cell_datum_temperley_lieb(5, sigma)
    out = cellular_report("tl35", A, sigma, cd)
    assert out["theorem"]["certified"] and out["plesken"]["dim"] == 16
    assert out["plesken"]["bracket_table"] is None
    assert calls == {}
    out = cellular_report("tl35", A, sigma, cd, bracket_cap=16)
    assert len(out["plesken"]["bracket_table"]) == 16 * 15 // 2
    assert calls == {"plesken_lie_algebra": 1}

    A, sigma = temperley_lieb(4, 0)
    for make in (
        lambda: cellular_report("tl04", A, sigma, cell_datum_temperley_lieb(4, sigma)),
        lambda: analysis_report("tl04", A, sigma),
    ):
        calls.clear()
        assert make()["fingerprint"]["derived_dims"] == [4, 3, 1, 0]
        assert calls == {"plesken_lie_algebra": 1, "fingerprint": 1}


# -- sparse cell actions against the dense oracles ---------------------------


CELLULAR_FAMILIES = {
    "tl-delta-3": (lambda n: temperley_lieb(n, 3), cell_datum_temperley_lieb),
    "tl-delta-0": (lambda n: temperley_lieb(n, 0), cell_datum_temperley_lieb),
    "tl-delta-half": (lambda n: temperley_lieb(n, "1/2"), cell_datum_temperley_lieb),
    "planar-rook": (planar_rook, cell_datum_planar_rook),
    "matrix": (matrix_algebra, cell_datum_matrix),
    "matrix-conj": (lambda n: matrix_algebra(n, "conj_transpose"), cell_datum_matrix),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", sorted(CELLULAR_FAMILIES))
def test_sparse_cell_actions_match_dense_oracles(family, n):
    factory, datum_factory = CELLULAR_FAMILIES[family]
    A, sigma = factory(n)
    cd = datum_factory(n, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    forms = CellForms.build(A, cd)
    generic = [scalar(k + 1) + I * (k % 3) for k in range(A.dim)]
    elements = [A.unit, generic, *plesken_subspace(A, sigma).basis]
    for lam in cd.lambdas:
        module, d = forms.modules[lam], forms.modules[lam].dim
        matrices = action_matrices(A, cd, lam)
        assert {a: entries_matrix(d, e) for a, e in module.action.items()} == matrices
        for x in elements:
            assert entries_matrix(d, module.act(sparse(x, A.dim))) == act(matrices, d, x)
        expected = gram_properties_dense(A, sigma, lam, forms)
        assert check_gram_properties(A, sigma, cd, lam, forms=forms) == expected
    outcome = verify_theorem(A, sigma, cd, forms=forms)
    assert outcome.injective == injective_dense(A, cd, forms)
    assert outcome.skew_witness == form_skewness_dense(A, sigma, cd, forms)
