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

The validators visit only the pairs where a stored product can make a side
nonzero.  On every family above, on C^n (n <= 8), on the block sum
M(2) + H + C, whose blocks multiply to zero, on TL_0(4), whose loops make
products zero, and on their corruptions, the three results must equal the
dense scans restricted to the generating set: `associativity_all_triples`,
`involution_all_pairs` and `unit_every_index`.  The generating set, taken
least decomposable first, is never larger than the one taken most targets
first, `generators_most_targets_first`.

Dense single-term tables are proved on the `Algebra.monomial` view, the
others on the rows.  On every family above, on the tables drawn by
hypothesis and on every corruption, `generators` and the associativity
witness must be the same on a copy forced onto the rows.

The same families, written by `emit` row by row, must be byte for byte the
text `json.dumps` gives for the whole document (`oracles.emit_dumps`).

No builder makes a dense one-term table with absent products and a sigma
other than the identity.  Monoids of boolean 3 x 3 matrices closed under
transposition, and their contracted quotients, give such tables: on each
draw and on four corruptions of it the validators must agree with the
scans, the two paths must agree and the generating set must span.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from oracles import (
    apply_dense,
    associativity_all_triples,
    bidiagonal_basis,
    bilinear_product_dense,
    changed_basis,
    coordinates_dense,
    direct_sum,
    emit_dumps,
    generators_most_targets_first,
    idempotents,
    involution_all_pairs,
    pairs,
    quads,
    span_gauss_jordan,
    unit_every_index,
)
from test_interchange_cli import coefficients

from plesken.algebra import (
    Algebra,
    AntiInvolution,
    validate_associativity,
    validate_involution,
    validate_unit,
)
from plesken.builders import (
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from plesken.interchange import document_from_algebra, emit
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

# Tables whose stored products leave many pairs with both sides zero.
SPARSE = {
    **{f"C^{n}": (lambda n=n: idempotents(n)) for n in range(1, 9)},
    "M(2)+H+C": lambda: direct_sum(matrix_algebra(2), quaternions(), matrix_algebra(1)),
    "TL_0(4)": lambda: temperley_lieb(4, 0),
}

SMALL = (
    "H", "M(2)", "M(2)*", "QS3", "C3", "TL_0(3)", "TL_i(3)", "TL_1/2(3)", "PR(2)",
    "M(2) skewed basis", "TL_3(3) bidiagonal basis", "PR(2) bidiagonal basis",
)


def _mul(algebra, x, y):
    return bilinear_product_dense(algebra.dim, pairs(algebra).get, x, y)


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
    assert fast == involution_all_pairs(algebra, sigma, algebra.generators)
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


def _corruptions(algebra):
    """The table with one product changed: one more term, a doubled, halved,
    imaginary or moved coefficient, or one term dropped."""
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
            structure = pairs(algebra)
            structure[(i, j)] = variant
            yield Algebra(algebra.labels, quads(structure), algebra.unit)


def _assert_paths_agree(algebra):
    """`generators` and the Light witness are the same with and without the
    `monomial` view; the copy is forced onto the rows before first use."""
    on_rows = Algebra(algebra.labels, quads(pairs(algebra)), algebra.unit)
    on_rows.__dict__["monomial"] = None
    assert algebra.generators == on_rows.generators
    assert validate_associativity(algebra) == validate_associativity(on_rows)


@pytest.mark.parametrize("name", SMALL)
def test_structure_constant_corruptions(name):
    algebra, _ = FAMILIES[name]()
    for corrupted in _corruptions(algebra):
        _assert_spans(corrupted)
        _assert_associativity_agrees(corrupted)
        _assert_paths_agree(corrupted)


def _two_term_tl():
    algebra, sigma = temperley_lieb(4, 3)
    structure = pairs(algebra)
    structure[(1, 2)] += ((0, 1),) if structure[(1, 2)][0][0] else ((1, 1),)
    return Algebra(algebra.labels, quads(structure), algebra.unit), sigma


@pytest.mark.parametrize(
    "make, monomial",
    [
        (lambda: planar_rook(3), True),
        (lambda: temperley_lieb(4, 0), True),
        (lambda: temperley_lieb(5, 3), True),
        (lambda: group_algebra(symmetric_3_table()), True),
        (lambda: matrix_algebra(4), True),
        (lambda: matrix_algebra(5), False),  # 125 products stored, fewer than 25^2 / 4
        (lambda: idempotents(8), False),
        (_skewed_m2, False),
        (_two_term_tl, False),
        # 30 products stored of 100: the view, but most rows reach nothing
        (lambda: direct_sum(group_algebra(cyclic_table(5)), idempotents(5)), True),
    ],
    ids=["PR(3)", "TL_0(4)", "TL_3(5)", "QS3", "M(4)", "M(5)", "C^8", "M(2) skewed", "TL two-term",
         "C5+C^5"],
)
def test_which_tables_get_the_monomial_view(make, monomial):
    algebra, _ = make()
    _assert_paths_agree(algebra)
    view = algebra.monomial
    assert (view is not None) == monomial
    if view is None:
        return
    targets, coefficients = view
    n = algebra.dim
    assert len(targets) == n + 1 and all(len(t) == n + 1 for t in targets)
    assert targets[n] == [n] * (n + 1) and all(t[n] == n for t in targets)
    for i, j in itertools.product(range(n), repeat=2):
        c = 1 if coefficients is None else coefficients[i][j]
        expected = ((targets[i][j], c),) if targets[i][j] < n else ()
        assert algebra.product_terms(i, j) == expected
    assert (coefficients is None) == all(c == 1 for ((_, c),) in pairs(algebra).values())


@pytest.mark.parametrize("name", FAMILIES)
def test_the_monomial_view_and_the_rows_agree(name):
    algebra, _ = FAMILIES[name]()
    _assert_paths_agree(algebra)


def _assert_validators_match_restricted_scans(algebra, sigma):
    generators = algebra.generators
    assert validate_associativity(algebra) == associativity_all_triples(algebra, generators)
    assert validate_unit(algebra) == unit_every_index(algebra)
    assert validate_involution(algebra, sigma) == involution_all_pairs(algebra, sigma, generators)


@pytest.mark.parametrize("name", [*FAMILIES, *SPARSE])
def test_emit_matches_json_dumps(name):
    doc = document_from_algebra(name, *{**FAMILIES, **SPARSE}[name](), metadata={"of": name})
    assert emit(doc) == emit_dumps(doc)


@pytest.mark.parametrize("name", [*FAMILIES, *SPARSE])
def test_validators_match_the_scans_restricted_to_the_generators(name):
    algebra, sigma = {**FAMILIES, **SPARSE}[name]()
    _assert_spans(algebra)
    _assert_validators_match_restricted_scans(algebra, sigma)
    assert len(algebra.generators) <= len(generators_most_targets_first(algebra))


@pytest.mark.parametrize("name", SPARSE)
def test_corruptions_of_sparse_tables(name):
    algebra, sigma = SPARSE[name]()
    for corrupted in _corruptions(algebra):
        _assert_spans(corrupted)
        _assert_validators_match_restricted_scans(corrupted, sigma)
        _assert_paths_agree(corrupted)
        if validate_associativity(corrupted) is None:
            _assert_involution_agrees(corrupted, sigma)


def test_unit_witnesses_are_the_first_failing_index():
    for name in ("M(2)", "TL_3(3)", "PR(2)", "M(2) skewed basis", "C^4", "M(2)+H+C"):
        algebra, _ = {**FAMILIES, **SPARSE}[name]()
        n = algebra.dim
        for i in range(n):
            for unit in (algebra.unit[:i] + (0,) + algebra.unit[i + 1:], (1,) * n):
                moved = Algebra(algebra.labels, quads(pairs(algebra)), unit)
                assert validate_unit(moved) == unit_every_index(moved)


@st.composite
def tables(draw):
    """Small tables, associative or not, whose (i, j) pairs recur, so that
    many products are sums of several terms."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=2 * n, unique=True))
    terms = st.lists(st.tuples(index, coefficients), min_size=1, max_size=3)
    items = draw(st.lists(st.tuples(st.sampled_from(pairs), terms), max_size=3 * n))
    structure = [(i, j, k, c) for (i, j), row in items for k, c in row]
    return Algebra([f"e{i}" for i in range(n)], structure, [1] + [0] * (n - 1))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_associativity_agrees_on_tables_no_builder_makes(algebra):
    _assert_associativity_agrees(algebra)
    _assert_paths_agree(algebra)


@pytest.mark.parametrize("name", SMALL)
def test_column_swapped_involutions(name):
    algebra, sigma = FAMILIES[name]()
    for a, b in itertools.combinations(range(algebra.dim), 2):
        swapped = list(sigma.images)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        _assert_involution_agrees(algebra, AntiInvolution(swapped, sigma.conjugates_scalars))


@pytest.mark.parametrize(
    "factory, size, most_targets_first",
    [
        (lambda: temperley_lieb(5, 3), 8, 11),
        (lambda: temperley_lieb(5, 0), 7, 11),
        (lambda: temperley_lieb(6, 3), 9, 16),
        (lambda: planar_rook(4), 7, 8),
        (lambda: planar_rook(5), 9, 10),
        (lambda: matrix_algebra(5), 8, 9),
        (quaternions, 2, 3),
        (lambda: group_algebra(symmetric_3_table()), 2, 3),
        (lambda: group_algebra(cyclic_table(5)), 1, 2),
        (_skewed_m2, 2, 2),
        (lambda: bidiagonal_basis(*planar_rook(2)), 4, 4),
    ],
)
def test_generating_set_sizes(factory, size, most_targets_first):
    # Candidates with the fewest single-term products e_i e_j = c e_b
    # (i != b != j) come first, then those with the most distinct product
    # targets; in plain index order TL_3(5) would need 20 generators.
    algebra, _ = factory()
    assert len(algebra.generators) == size
    assert len(generators_most_targets_first(algebra)) == most_targets_first


def _boolean_product(a, b):
    return tuple(tuple(int(any(x and y for x, y in zip(row, col))) for col in zip(*b)) for row in a)


def _transpose(a):
    return tuple(zip(*a))


def _closure(generators, start):
    """The matrices reached from `start` by right multiplication by the
    generators, breadth first (Froidure and Pin's enumeration)."""
    elements = list(dict.fromkeys(start))
    seen = set(elements)
    for x in elements:  # grows while it is read
        for g in generators:
            if (y := _boolean_product(x, g)) not in seen:
                seen.add(y)
                elements.append(y)
    return elements


@st.composite
def monoid_tables(draw):
    """The algebra of the monoid M generated by one or two random boolean
    3 x 3 matrices and their transposes, sigma the transposition; or, when
    an element a is drawn, its contracted quotient by the ideal M{a, a^T}M,
    where the products in the ideal are absent.  The ideal is closed under
    transposition, so sigma stays an anti-involution."""
    bits = st.tuples(*[st.tuples(*[st.integers(0, 1)] * 3)] * 3)
    drawn = draw(st.lists(bits, min_size=1, max_size=2))
    generators = drawn + [_transpose(a) for a in drawn]
    identity = tuple(tuple(int(r == c) for c in range(3)) for r in range(3))
    monoid = _closure(generators, [identity])
    assume(len(monoid) <= 24)
    ideal = set()
    if draw(st.booleans()):
        a = draw(st.sampled_from(monoid))
        start = [_boolean_product(x, b) for x in monoid for b in (a, _transpose(a))]
        ideal = set(_closure(generators, start))
    basis = [x for x in monoid if x not in ideal] if identity not in ideal else monoid
    index = {x: t for t, x in enumerate(basis)}
    structure = [(index[x], index[y], index[xy], 1) for x in basis for y in basis
                 if (xy := _boolean_product(x, y)) in index]
    unit = [int(x == identity) for x in basis]
    algebra = Algebra([f"m{t}" for t in range(len(basis))], structure, unit)
    return algebra, AntiInvolution([{index[_transpose(x)]: 1} for x in basis])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(monoid_tables(), st.data())
def test_random_monoid_tables_through_the_fast_paths(table, data):
    algebra, sigma = table
    n, structure = algebra.dim, pairs(algebra)
    pair = data.draw(st.sampled_from(sorted(structure)))
    ((k, _),) = structure[pair]
    swapped = list(sigma.images)
    a, b = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2)) or [(0, 0)]))
    swapped[a], swapped[b] = swapped[b], swapped[a]
    # The draw, then a changed target, a dropped product, a coefficient 2
    # and a column-swapped sigma.
    cases = [(structure, sigma)]
    changed = ((((k + 1) % n, 1),), (), ((k, 2),))
    cases += [({**structure, pair: terms}, sigma) for terms in changed]
    cases.append((structure, AntiInvolution(swapped)))
    for table, involution in cases:
        corrupted = Algebra(algebra.labels, quads(table), algebra.unit)
        # Every product is one term: the view is taken when n^2 / 4 are stored.
        assert (corrupted.monomial is not None) == (4 * sum(map(bool, table.values())) >= n * n)
        _assert_spans(corrupted)
        _assert_validators_match_restricted_scans(corrupted, involution)
        _assert_associativity_agrees(corrupted)
        _assert_paths_agree(corrupted)
        if validate_associativity(corrupted) is None:
            _assert_involution_agrees(corrupted, involution)
    assert validate_associativity(algebra) is None
    assert validate_unit(algebra) is None
    assert validate_involution(algebra, sigma) is None
