import itertools
import math
from fractions import Fraction
from functools import cached_property, partial

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    act,
    action_matrices,
    c3_every_element,
    cell_order_failure,
    commutator_dense,
    dense_cells,
    direct_sum,
    entries_matrix,
    form_skewness_dense,
    gram_every_witness,
    gram_properties_dense,
    idempotents,
    identity_matrix,
    injective_dense,
    linear_combination,
    matmul,
    module_axiom_failure,
)

import plesken.cellular as cellular
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
from plesken.linalg import Matrix, rank, sparse
from plesken.report import analysis_report, cellular_report, validate_algebra
from plesken.scalars import I, ONE, GaussianRational, scalar


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
    assert failure.witness == (2, 1, (1,), (1,), "-/-")  # the first for G = (2, 3, 4)
    assert c3_every_element(A, reversed_cd) == failure._replace(witness=(0, 1, (1,), (1,), "-/-"))
    with pytest.raises(InternalConsistencyError, match="unexpected support"):
        gram_every_witness(A, reversed_cd, 1)


@st.composite
def cell_orders(draw):
    """Labels 0..k-1, k <= 6, with a relation: the transitive closure of
    pairs a < b, that closure with a pair dropped, irreflexive pairs drawn
    freely, or pairs that may hold a == b, the unknown label k or True,
    which equals the label 1."""
    k = draw(st.integers(1, 6))
    labels = list(range(k))
    kind = draw(st.sampled_from(("closed", "dropped", "free", "hostile")))
    label = st.sampled_from([*labels, k, True] if kind == "hostile" else labels)
    pairs = draw(st.lists(st.tuples(label, label), max_size=12))
    if kind == "hostile":
        return labels, pairs
    if kind == "free":
        return labels, [(a, b) for a, b in pairs if a != b]
    less = {(a, b) for a, b in pairs if a < b}
    for b in labels:  # Warshall: close under (a, b), (b, c) -> (a, c)
        less |= {(a, c) for a in labels for c in labels if (a, b) in less and (b, c) in less}
    pairs = sorted(less)
    if kind == "dropped" and pairs:
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    return labels, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(cell_orders())
def test_order_check_refuses_what_the_pairwise_loop_refuses(order):
    labels, pairs = order
    expected = cell_order_failure(labels, pairs)
    try:
        CellDatum(labels, pairs, {}, {}, None)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_a_non_transitive_order_on_70_cells_is_refused():
    # 70 cells cross a 64-bit word: each cell's set of cells above is an int.
    cells = range(70)
    total = [(a, b) for a in cells for b in cells if a < b]
    assert (0, 69) in CellDatum(cells, total, {}, {}, None).less
    for dropped in ((0, 69), (1, 65), (62, 64), (63, 69)):
        with pytest.raises(ValueError, match="^order pairs are not transitively closed$"):
            CellDatum(cells, [p for p in total if p != dropped], {}, {}, None)


def _lower_indices_by_scan(cd, lam):
    return frozenset(idx for (mu, _, _), idx in cd.basis_map.items() if (mu, lam) in cd.less)


def _seventy_cells(order):
    cells = range(1, 71)
    pairs = [(a, b) for a in cells for b in cells if a != b and order(a, b)]
    basis_map = {(lam, s, t): 4 * (lam - 1) + 2 * s + t for lam in cells for s in (0, 1) for t in (0, 1)}
    return CellDatum(cells, pairs, {lam: (0, 1) for lam in cells}, basis_map, None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("make", [cell_datum_matrix, cell_datum_planar_rook, cell_datum_temperley_lieb])
def test_lower_indices_match_the_scan_on_builder_data(make, n):
    cd = make(n, None)
    for lam in cd.lambdas:
        assert cd.lower_indices(lam) == _lower_indices_by_scan(cd, lam)


@pytest.mark.parametrize(
    "order, below_70",
    [(lambda a, b: a < b, 69), (lambda a, b: b % a == 0, 7)],
    ids=["total", "divides"],
)
def test_lower_indices_match_the_scan_on_70_cells(order, below_70):
    cd = _seventy_cells(order)
    for lam in cd.lambdas:
        assert cd.lower_indices(lam) == _lower_indices_by_scan(cd, lam)
    assert len(cd.lower_indices(70)) == 4 * below_70


def _two_by_two(coefficient, unit, conjugates_scalars=False):
    """An algebra on C[s, t], s, t in (1, 2), with C[s, t] * C[u, v] =
    coefficient(s, t, u, v) * C[s, v], sigma sending C[s, t] to C[t, s],
    and its one-cell datum."""
    members = (1, 2)
    index = {(s, t): 2 * (s - 1) + (t - 1) for s in members for t in members}
    structure = []
    for (s, t), left in index.items():
        for (u, v), right in index.items():
            if c := scalar(coefficient(s, t, u, v)):
                structure.append((left, right, index[(s, v)], c))
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


def _builder_data() -> dict:
    """name -> (algebra, sigma, datum) for TL_delta(n), n <= 5, delta in
    {3, 0, 1/2, i}, PR(n), n <= 4, and M(n), n <= 4."""
    data = {}
    for delta in ("3", "0", "1/2", "i"):
        for n in range(1, 6):
            A, sigma = temperley_lieb(n, scalar(delta))
            data[f"TL_{delta}({n})"] = A, sigma, cell_datum_temperley_lieb(n, sigma)
    for n in range(1, 5):
        A, sigma = planar_rook(n)
        data[f"PR({n})"] = A, sigma, cell_datum_planar_rook(n, sigma)
        A, sigma = matrix_algebra(n, "transpose")
        data[f"M({n})"] = A, sigma, cell_datum_matrix(n, sigma)
    return data


BUILT = _builder_data()


def _corrupted_orders(cd):
    """The data with cd's order reversed, with each single pair dropped, and
    empty, where `CellDatum` accepts the order; C1 and C2 still hold."""
    for order in ([(b, a) for a, b in cd.less], *(cd.less - {p} for p in sorted(cd.less)), []):
        try:
            yield CellDatum(cd.lambdas, order, cd.index_sets, cd.basis_map, cd.involution)
        except ValueError:  # a dropped pair can leave the order not transitive
            pass


def _assert_c3_agrees(A, sigma, cd):
    """validate_cell_datum fails exactly when the scan over every element does,
    in the same clause, with the scan's first failure for G, one that the
    scan also finds at the witness's own left factor."""
    failure, expected = validate_cell_datum(A, sigma, cd), c3_every_element(A, cd)
    assert (failure is None) == (expected is None)
    if failure is not None:
        assert failure.clause == expected.clause == "C3" and failure.message == expected.message
        assert failure == c3_every_element(A, cd, A.generators)
        assert c3_every_element(A, cd, [failure.witness[0]]) == failure
    return failure


@pytest.mark.parametrize("name", BUILT)
def test_c3_over_the_generators_matches_the_scan_over_every_element(name):
    A, sigma, cd = BUILT[name]
    assert validate_algebra(A, sigma)
    assert _assert_c3_agrees(A, sigma, cd) is None
    failures = [_assert_c3_agrees(A, sigma, broken) for broken in _corrupted_orders(cd)]
    if len(cd.lambdas) > 1:  # the order is total: reversed, n - 1 dropped pairs, empty
        assert len(failures) == len(cd.lambdas) + 1 and all(failures)
    else:  # reversed and empty are the same, and C3 holds
        assert failures == [None, None]


def _block_sum(*data):
    """The datum of the direct sum of (algebra, sigma, datum) triples: cell
    (block, lam) for each block's lam, ordered within its block only."""
    A, sigma = direct_sum(*((algebra, s) for algebra, s, _ in data))
    lambdas, less, index_sets, basis_map, offset = [], [], {}, {}, 0
    for block, (algebra, _, cd) in enumerate(data):
        lambdas += [(block, lam) for lam in cd.lambdas]
        less += [((block, a), (block, b)) for a, b in cd.less]
        index_sets.update({(block, lam): m for lam, m in cd.index_sets.items()})
        basis_map.update({((block, lam), s, t): k + offset for (lam, s, t), k in cd.basis_map.items()})
        offset += algebra.dim
    return A, sigma, CellDatum(lambdas, less, index_sets, basis_map, sigma)


@pytest.mark.parametrize("first", ["M(2)", "TL_3(3)", "PR(2)"])
@pytest.mark.parametrize("second", ["PR(2)", "TL_0(4)", "PR(3)"])
def test_c3_over_the_generators_sees_a_failure_in_a_later_block(first, second):
    # In the block sum with the second block's order reversed, the first
    # generators lie in the first block and pass C3; the failure is found later.
    algebra, second_sigma, second_cd = BUILT[second]
    reversed_cd = next(_corrupted_orders(second_cd))
    A, sigma, cd = _block_sum(BUILT[first], (algebra, second_sigma, reversed_cd))
    assert validate_algebra(A, sigma)
    generators = A.generators
    failure = _assert_c3_agrees(A, sigma, cd)
    assert failure is not None and failure.witness[0] >= BUILT[first][0].dim > generators[0]
    assert c3_every_element(A, cd, generators[:1]) is None


def test_c3_over_the_generators_matches_the_scan_on_idempotents():
    # C^4 with one cell per idempotent: the row of e_a reaches cell a only,
    # and C3 holds for the total order, its reverse, each pair whose drop
    # leaves it transitive and the empty order.
    A, sigma = idempotents(4)
    cells = range(4)
    less = [(a, b) for a in cells for b in cells if a < b]
    cd = CellDatum(cells, less, {lam: (1,) for lam in cells}, {(lam, 1, 1): lam for lam in cells}, sigma)
    assert validate_algebra(A, sigma)
    data = [cd, *_corrupted_orders(cd)]
    assert data[1].less == {(b, a) for a, b in less} and len(data) == 6
    assert [_assert_c3_agrees(A, sigma, d) for d in data] == [None] * 6


@pytest.mark.parametrize("q", [1, 2, Fraction(1, 2), I])
@pytest.mark.parametrize("r", [1, 2, 4, -1])
def test_c3_over_the_generators_matches_the_scan_when_coefficients_depend_on_t(q, r):
    # C[s, t] = c_st E_st in M(2) with c = [[1, q], [q, r]]: C2 holds since c
    # is symmetric, and C3 exactly when det c = 0, the action then independent of t.
    c = [[1, q], [q, r]]

    def coefficient(s, t, u, v):
        return scalar(c[s - 1][t - 1]) * c[u - 1][v - 1] / c[s - 1][v - 1] if t == u else 0

    A, sigma, cd = _two_by_two(coefficient, [1, 0, 0, 1 / scalar(r)])
    assert validate_algebra(A, sigma)
    failure = _assert_c3_agrees(A, sigma, cd)
    assert (failure is None) == (scalar(q) * q == r)


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
    # Each check builds what it reads, once: check_gram_properties the module
    # and the form of its cell, verify_theorem every Gram form and, for a
    # semilinear sigma only, every module.  The report, on a linear sigma,
    # builds each Gram form once and no module.
    calls = {"cell_module": 0, "gram_matrix": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(cellular, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cellular, name, counted)
    A, sigma = temperley_lieb(4, 0)
    cd = cell_datum_temperley_lieb(4, sigma)
    for lam in cd.lambdas:
        assert check_gram_properties(A, sigma, cd, lam) is None
    assert calls == {"cell_module": len(cd.lambdas), "gram_matrix": len(cd.lambdas)}
    M, conj = matrix_algebra(2, "conj_transpose")
    calls.update(cell_module=0, gram_matrix=0)
    assert verify_theorem(M, conj, cell_datum_matrix(2, conj)).failed_check == "form_skewness"
    assert calls == {"cell_module": 1, "gram_matrix": 1}

    calls.update(cell_module=0, gram_matrix=0)
    report = cellular_report("tl04", A, sigma, cd)
    assert report["theorem"]["failed_check"] == "representation_injective"
    assert calls == {"cell_module": 0, "gram_matrix": len(cd.lambdas)}


def test_cellular_report_computes_the_columns_and_generators_once(monkeypatch):
    # validate_algebra and validate_cell_datum share the `cols` and
    # `generators` kept on the algebra, and the kept values leave it equal
    # to a fresh one.
    calls = {"cols": 0, "generators": 0}
    for name in calls:
        def counted(self, name=name, original=vars(Algebra)[name].func):
            calls[name] += 1
            return original(self)

        prop = cached_property(counted)
        prop.__set_name__(Algebra, name)
        monkeypatch.setattr(Algebra, name, prop)
    A, sigma = planar_rook(3)
    report = cellular_report("pr3", A, sigma, cell_datum_planar_rook(3, sigma))
    assert report["cellularity"] == {"valid": True}
    assert calls == {"cols": 1, "generators": 1} and {"cols", "generators"} <= set(vars(A))
    assert A == planar_rook(3)[0]


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
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.injective is True
    assert outcome.skew_ok is False
    assert outcome.skew_witness == (0, 1) == form_skewness_dense(sigma, cd, *dense_cells(A, cd))
    assert outcome.failed_check == "form_skewness" and not outcome.certified
    assert check_gram_properties(A, sigma, cd, 1) is None


def test_hermitian_cell_form_under_semilinear_sigma():
    # C[s, t] * C[u, v] = phi(t, u) C[s, v] with phi Hermitian, and sigma the
    # conjugate transposition C[s, t] -> C[t, s]: one valid cell whose form
    # is Hermitian, not symmetric, and adjoint up to conjugation.
    phi = [[2, I], [-I, 1]]
    psi = [1, -I, I, 2]  # phi^-1, row by row: the unit is sum psi(s, t) C[s, t]
    A, sigma, cd = _two_by_two(lambda s, t, u, v: phi[t - 1][u - 1], psi, True)
    assert validate_algebra(A, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    assert gram_matrix(A, cd, 1).gram == Matrix(phi) == gram_every_witness(A, cd, 1)
    assert check_gram_properties(A, sigma, cd, 1) is None
    assert gram_properties_dense(A, sigma, 1, action_matrices(A, cd, 1), Matrix(phi)) is None
    _skewness_against_oracles(A, sigma, cd)
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


def _corrupt_cell(monkeypatch, name, lam, change):
    """Make `plesken.cellular.<name>`, `gram_matrix` or `cell_module`, pass
    its value for cell lam through `change`, as a corrupted kernel would."""
    def corrupted(algebra, cd, mu, original=getattr(cellular, name)):
        value = original(algebra, cd, mu)
        return change(value) if mu == lam else value

    monkeypatch.setattr(cellular, name, corrupted)


def _changed(m, edit):
    """The dense matrix m with `edit` applied to a copy of its rows."""
    rows = [list(row) for row in m.data]
    edit(rows)
    return Matrix(rows)


@pytest.mark.parametrize("factory, n, datum_factory", CORRUPTIBLE)
def test_changed_gram_entry_fails_symmetry(factory, n, datum_factory, monkeypatch):
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    lam = _largest_cell(cd)

    def edit(rows):
        rows[0][1] = rows[0][1] + 1

    _corrupt_cell(monkeypatch, "gram_matrix", lam,
                  lambda form: form._replace(gram=_changed(form.gram, edit)))
    failure = check_gram_properties(A, sigma, cd, lam)
    assert (failure.kind, failure.witness) == ("symmetry", ())
    g = _changed(gram_every_witness(A, cd, lam), edit)
    assert failure == gram_properties_dense(A, sigma, lam, action_matrices(A, cd, lam), g)


@pytest.mark.parametrize("factory, n, datum_factory", CORRUPTIBLE)
def test_changed_action_entry_fails_adjointness(factory, n, datum_factory, monkeypatch):
    # sigma(e_a) = e_b with b != a, and G is nondegenerate: the change moves
    # G rho(e_a) but not rho(e_b)^T G, so the first of a, b fails.
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    assert all(form.rank == form.size for form in (gram_matrix(A, cd, mu) for mu in cd.lambdas))
    true_outcome = verify_theorem(A, sigma, cd)
    lam = _largest_cell(cd)
    a = next(a for a, image in enumerate(sigma.images) if image != {a: ONE})
    (b,) = sigma.images[a]

    def change(module):
        entries = dict(module.action[a])
        entries[(0, 0)] = entries.get((0, 0), 0) + ONE
        return module._replace(action={**module.action, a: entries})

    def edit(rows):
        rows[0][0] = rows[0][0] + ONE

    _corrupt_cell(monkeypatch, "cell_module", lam, change)
    failure = check_gram_properties(A, sigma, cd, lam)
    assert (failure.kind, failure.witness) == ("adjointness", (min(a, b),))
    actions, grams = dense_cells(A, cd)
    actions[lam][a] = _changed(actions[lam][a], edit)
    assert failure == gram_properties_dense(A, sigma, lam, actions[lam], grams[lam])
    # The corrupted module breaks the dense check (b); a linear sigma reads
    # no module, so the certificate is the one of the true modules.
    assert form_skewness_dense(sigma, cd, actions, grams) is not None
    assert verify_theorem(A, sigma, cd) == true_outcome


@pytest.mark.parametrize("factory, n, datum_factory", CORRUPTIBLE)
def test_degenerate_gram_form_refutes_injectivity(factory, n, datum_factory, monkeypatch):
    # Injectivity is read off the Gram ranks: a zeroed row makes one form
    # degenerate, one short of full rank, and check (a) fails although the
    # cell actions are untouched.
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    actions = dense_cells(A, cd)[0]
    grams = {mu: gram_matrix(A, cd, mu) for mu in cd.lambdas}
    assert verify_theorem(A, sigma, cd).injective is True
    assert injective_dense(A, cd, actions) is True
    lam = _largest_cell(cd)

    def edit(rows):
        rows[0] = [scalar(0)] * len(rows[0])

    _corrupt_cell(monkeypatch, "gram_matrix", lam,
                  lambda form: form._replace(gram=_changed(form.gram, edit)))
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.injective is False
    assert injective_dense(A, cd, actions) is True
    assert outcome.failed_check == "representation_injective" and not outcome.certified
    d = len(cd.members(lam))
    assert outcome.gram_ranks == tuple(
        (mu, d, d - 1) if mu == lam else (mu, form.size, form.rank)
        for mu, form in grams.items()
    )
    assert outcome.skew_ok is True


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
    forms = [gram_matrix(A, cd, lam) for lam in cd.lambdas]
    nondegenerate = all(form.rank == form.size for form in forms)
    assert nondegenerate == (name not in DEGENERATE)
    injective = verify_theorem(A, sigma, cd).injective
    assert injective == injective_dense(A, cd, dense_cells(A, cd)[0]) == nondegenerate


def _skewness_against_oracles(A, sigma, cd):
    """The Gram properties hold on every cell, by the dense oracles, and
    check (b) fails exactly for a semilinear sigma, where it runs."""
    actions, grams = dense_cells(A, cd)
    assert all(gram_properties_dense(A, sigma, lam, actions[lam], grams[lam]) is None
               for lam in cd.lambdas)
    witness = form_skewness_dense(sigma, cd, actions, grams)
    assert (witness is None) == (not sigma.conjugates_scalars)
    assert verify_theorem(A, sigma, cd).skew_witness == witness
    assert {lam: gram_matrix(A, cd, lam).gram for lam in cd.lambdas} == grams


SKEWNESS_SWEEP = [
    *GRAM_SWEEP,
    ("tl-3-6", partial(temperley_lieb, 6, "3"), 6, cell_datum_temperley_lieb),
    ("pr-5", partial(planar_rook, 5), 5, cell_datum_planar_rook),
]


@pytest.mark.parametrize(
    "name, factory, n, datum_factory", SKEWNESS_SWEEP, ids=[case[0] for case in SKEWNESS_SWEEP]
)
def test_skewness_is_proved_for_a_linear_sigma(name, factory, n, datum_factory):
    A, sigma = factory()
    cd = datum_factory(n, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    _skewness_against_oracles(A, sigma, cd)


def test_the_zero_algebra_is_certified():
    # A map from the zero space is injective, and 0 is the empty sum of o(d).
    A, sigma = Algebra([], [], []), AntiInvolution(())
    cd = CellDatum((), (), {}, {}, sigma)
    assert validate_cell_datum(A, sigma, cd) is None
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.injective is True and injective_dense(A, cd, dense_cells(A, cd)[0]) is True
    assert outcome.certified and outcome.failed_check is None
    assert (outcome.lie_dim, outcome.predicted_lie_dim, outcome.gram_ranks) == (0, 0, ())


P = 998_244_353
gram_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([P, -P, 2 * P, P + 1]),
    st.builds(GaussianRational, st.fractions(-2, 2, max_denominator=3),
              st.fractions(-2, 2, max_denominator=3)),
    st.just(GaussianRational(Fraction(1, P))),
)


@st.composite
def gram_matrices(draw):
    """Square matrices up to 4 by 4; some repeat a row scaled, so are singular."""
    d = draw(st.integers(1, 4))
    rows = [draw(st.lists(gram_entries, min_size=d, max_size=d)) for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        rows[-1] = [c * v for v in rows[0]]
    return Matrix(rows)


def _determinant(rows):
    """The Leibniz sum over all permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(rows[i][j] for i, j in enumerate(perm))
    return total


def _rank_and_exact_calls(gram):
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cellular, "rank", lambda m: calls.append(m) or rank(m))
        return GramForm(0, gram).rank, len(calls)


@settings(max_examples=300, deadline=None)
@given(gram_matrices())
def test_gram_rank_matches_dense_elimination(gram):
    from oracles import rref_gauss_jordan

    rk, exact_calls = _rank_and_exact_calls(gram)
    assert rk == len(rref_gauss_jordan(gram)[1])
    # The exact elimination is skipped exactly when P divides no denominator
    # and the determinant is nonzero mod P, i -> 3^((P-1)/4).
    entries = [scalar(c) for row in gram.data for c in row]
    if all(c.re.denominator % P and c.im.denominator % P for c in entries):
        root = pow(3, (P - 1) // 4, P)
        residues = [[(c.re.numerator * pow(c.re.denominator, -1, P)
                      + root * c.im.numerator * pow(c.im.denominator, -1, P)) % P
                     for c in map(scalar, row)] for row in gram.data]
        assert exact_calls == (0 if _determinant(residues) % P else 1)
    else:
        assert exact_calls == 1


@pytest.mark.parametrize("rows, rank_, exact_calls", [
    ([[2, 1], [1, 3]], 2, 0),
    ([[2, "i"], ["i", "1/2"]], 2, 0),
    ([[1, 2], [2, 4]], 1, 1),
    ([[P, 0], [0, 1]], 2, 1),            # full rank, but one short mod P
    ([[P, 2 * P], [1, 2]], 1, 1),
    ([[Fraction(1, P), 0], [0, 1]], 2, 1),  # P divides a denominator
    ([[Fraction(1, P)]], 1, 1),
    ([[0]], 0, 1),
])
def test_gram_rank_takes_the_exact_path_unless_full_mod_p(rows, rank_, exact_calls):
    assert _rank_and_exact_calls(Matrix(rows)) == (rank_, exact_calls)


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
    A, sigma = planar_rook(3)
    out = cellular_report("pr3", A, sigma, cell_datum_planar_rook(3, sigma))
    assert out["theorem"]["certified"] and out["plesken"]["dim"] == 6
    assert len(out["plesken"]["bracket_table"]) == 6 * 5 // 2
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
    actions, grams = dense_cells(A, cd)
    generic = [scalar(k + 1) + I * (k % 3) for k in range(A.dim)]
    elements = [A.unit, generic, *plesken_subspace(A, sigma).basis]
    for lam in cd.lambdas:
        module = cell_module(A, cd, lam)
        matrices, d = actions[lam], module.dim
        assert {a: entries_matrix(d, e) for a, e in module.action.items()} == matrices
        for x in elements:
            assert entries_matrix(d, module.act(sparse(x, A.dim))) == act(matrices, d, x)
        expected = gram_properties_dense(A, sigma, lam, matrices, grams[lam])
        assert check_gram_properties(A, sigma, cd, lam) == expected
    outcome = verify_theorem(A, sigma, cd)
    assert outcome.injective == injective_dense(A, cd, actions)
    assert outcome.skew_witness == form_skewness_dense(sigma, cd, actions, grams)
