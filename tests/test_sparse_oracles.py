"""Differential tests: the sparse products, skew part and Lie table against
the dense code they replaced.

`oracles.py` keeps the dense `bilinear_product` loop, the kernel-based skew
part with its cross-check, the Lie table built from dense commutators
with a dense residual check, and the dense image and skew part of sigma.
On every builder family at n <= 4 the sparse pipeline must give the same
canonical skew basis, the same Lie table and labels, and the same
products.  TL at delta = i and 1/2 mixes int and `GaussianRational`
constants in the Lie table's sums, and M(2) in a skewed basis has
products of several terms.  The one summing loop, `linalg.combine`, is
checked against a naive sum, and `reduce_by` against the dense span test.
`bracket_closure_check` must give the same witness, exception or None as
`bracket_closure_dense`, the dense body it had before.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    apply_dense,
    bidiagonal_basis,
    bilinear_product_dense,
    bracket_closure_dense,
    bracket_dense,
    coordinates_dense,
    pairs,
    plesken_lie_algebra_dense,
    skew_part_dense,
    skew_subspace_kernel,
    span_gauss_jordan,
)
from test_validation_oracles import FAMILIES as VALIDATION_FAMILIES

from plesken.algebra import (
    AntiInvolution,
    ClosureCounterexample,
    InternalConsistencyError,
    bracket_closure_check,
    plesken_lie_algebra,
    plesken_subspace,
)
from plesken.builders import (
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from plesken.linalg import (
    Subspace,
    bilinear_product,
    combine,
    dense,
    reduce_by,
    sparse,
    unit_vector,
)
from plesken.scalars import GaussianRational
from plesken.suite import cyclic_table, symmetric_3_table

FAMILIES = {
    **{f"TL_{d}({n})": (lambda n=n, d=d: temperley_lieb(n, d))
       for d in ("3", "0", "i", "1/2") for n in (1, 2, 3, 4)},
    **{f"PR({n})": (lambda n=n: planar_rook(n)) for n in (1, 2, 3, 4)},
    **{f"M({n})": (lambda n=n: matrix_algebra(n)) for n in (1, 2, 3, 4)},
    **{f"M({n})*": (lambda n=n: matrix_algebra(n, "conj_transpose")) for n in (1, 2, 3, 4)},
    "M(2,H)": lambda: matrix_over_algebra(2, *quaternions()),
    **{f"C{k}": (lambda k=k: group_algebra(cyclic_table(k))) for k in (2, 3, 4)},
    "QS3": lambda: group_algebra(symmetric_3_table()),
    "M(2) skewed basis": VALIDATION_FAMILIES["M(2) skewed basis"],
}


def probes(n, rows):
    """Two unit vectors, a dense vector with non-real entries, and three rows."""
    full = tuple(GaussianRational(k % 3 - 1, k % 2) for k in range(n))
    return [unit_vector(n, 0), unit_vector(n, n - 1), full, *rows[:2], *rows[-1:]]


@pytest.mark.parametrize("name", FAMILIES)
def test_sparse_pipeline_matches_dense_oracles(name):
    algebra, sigma = FAMILIES[name]()
    sub = plesken_subspace(algebra, sigma)
    assert sub == skew_subspace_kernel(sigma)

    lie = plesken_lie_algebra(algebra, sigma)
    oracle = plesken_lie_algebra_dense(algebra, sigma)
    assert lie.labels == oracle.labels
    assert lie.table == oracle.table

    n, get = algebra.dim, pairs(algebra).get
    for x in probes(n, sub.basis):
        for y in probes(n, sub.basis):
            assert algebra.multiply_vectors(x, y) == bilinear_product_dense(n, get, x, y)
    m = lie.dim
    for x in probes(m, Subspace.full(m).basis) if m else ():
        for y in probes(m, Subspace.full(m).basis):
            assert dense(m, lie.bracket(sparse(x, m), sparse(y, m))) == bracket_dense(lie, x, y)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.builds(GaussianRational, rationals, rationals)
N = 4


def sparse_vectors():
    return st.dictionaries(st.integers(0, N - 1), scalars.filter(bool), max_size=N)


tables = st.dictionaries(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    st.lists(st.tuples(st.integers(0, N - 1), scalars), max_size=3).map(tuple),
    max_size=N * N,
)


@settings(max_examples=100)
@given(tables, sparse_vectors(), sparse_vectors())
def test_bilinear_product_matches_dense_loop(table, x, y):
    rows = [{j: t for (i, j), t in table.items() if i == r} for r in range(N)]
    product = bilinear_product(rows, x, y)
    assert all(product.values())
    assert dense(N, product) == bilinear_product_dense(
        N, table.get, dense(N, x), dense(N, y)
    )


scales = st.sampled_from([1, GaussianRational(1), 0, -1]) | scalars


@st.composite
def scaled_terms(draw):
    """(c, terms) pairs, some repeated with -c so that their totals cancel."""
    coefficients = scalars | st.integers(-3, 3)
    terms = st.lists(st.tuples(st.integers(0, N - 1), coefficients), max_size=4)
    pairs = draw(st.lists(st.tuples(scales, terms), max_size=4))
    echoes = draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    return pairs + [(-c, t) for c, t in echoes]


@settings(max_examples=200)
@given(scaled_terms())
def test_combine_matches_naive_sum(scaled):
    flat = [(k, c * d) for c, terms in scaled for k, d in terms]
    naive: dict = {}
    for k, d in flat:
        naive[k] = naive.get(k, GaussianRational(0)) + d
    total = combine(scaled)
    assert all(total.values())
    assert total == {k: d for k, d in naive.items() if d}
    assert list(total) == [k for k in naive if naive[k]]


@settings(max_examples=100)
@given(
    st.lists(sparse_vectors(), max_size=3),
    st.lists(scalars, min_size=3, max_size=3),
    sparse_vectors(),
)
def test_reduce_by_is_empty_exactly_on_the_span(vectors, coefficients, noise):
    """v is a combination of the spanning vectors plus noise, often empty."""
    sub = span_gauss_jordan(N, [dense(N, u) for u in vectors])
    v = {
        k: x
        for k in range(N)
        if (x := sum(c * u.get(k, 0) for c, u in zip(coefficients, vectors)) + noise.get(k, 0))
    }
    in_span = coordinates_dense(sub, dense(N, v)) is not None
    assert (not reduce_by(sub.rows, v)) == in_span


SIGMAS = {
    "TL_3(3)": lambda: temperley_lieb(3, 3),
    "M(2)*": lambda: matrix_algebra(2, "conj_transpose"),
    "TL_3(3) bidiagonal": lambda: bidiagonal_basis(*temperley_lieb(3, 3)),
}


@functools.cache
def sigma_named(name):
    return SIGMAS[name]()[1]


non_real = st.builds(GaussianRational, rationals, rationals.filter(bool))


@pytest.mark.parametrize("name", SIGMAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sigma_image_and_skew_part_match_dense_oracles(name, data):
    """A linear, a semilinear and a non-permutation sigma."""
    sigma = sigma_named(name)
    n = len(sigma.images)
    v = data.draw(st.dictionaries(st.integers(0, n - 1), non_real, max_size=n))
    image, skew = sigma.image(v), sigma.skew_terms(v)
    assert all(image.values()) and all(skew.values())
    assert dense(n, image) == apply_dense(sigma, dense(n, v))
    assert dense(n, skew) == skew_part_dense(sigma, dense(n, v))


# `bracket_closure_check` against the dense body it had before it worked on
# sparse terms.  Besides builder families and two in the bidiagonal basis,
# where products and images have several terms, M(2) and M(3) carry maps
# sigma(E_rs) = sign(r, s) E_{pi(r) pi(s)} for each involutive permutation
# pi, optionally followed by transposition, with every sign +1, every sign
# -1, or -1 exactly above the diagonal.  Most are no anti-homomorphism, so
# the identity fails, and with the mixed signs some have sigma^2 != id,
# which the skew part refuses.
def _involutive_permutations(n):
    return [p for p in itertools.permutations(range(n)) if all(p[p[r]] == r for r in range(n))]


SIGNS = {"+": lambda r, s: 1, "-": lambda r, s: -1, "upper-": lambda r, s: -1 if r < s else 1}


def _matrix_map(n, pi, sign, transposed):
    algebra, _ = matrix_algebra(n)
    images = []
    for r, s in itertools.product(range(n), repeat=2):
        a, b = (pi[s], pi[r]) if transposed else (pi[r], pi[s])
        images.append({a * n + b: SIGNS[sign](r, s)})
    return algebra, AntiInvolution(images)


CLOSURE_CASES = {
    "H": quaternions,
    "M(2)": lambda: matrix_algebra(2),
    "M(2)*": lambda: matrix_algebra(2, "conj_transpose"),
    "TL_3(4)": lambda: temperley_lieb(4, 3),
    "PR(3)": lambda: planar_rook(3),
    "TL_1/2(3)": lambda: temperley_lieb(3, "1/2"),
    "TL_3(3) bidiagonal": lambda: bidiagonal_basis(*temperley_lieb(3, 3)),
    "M(2)* bidiagonal": lambda: bidiagonal_basis(*matrix_algebra(2, "conj_transpose")),
    **{
        f"M({n}) pi={pi} sign {sign}{' transposed' if t else ''}":
            functools.partial(_matrix_map, n, pi, sign, t)
        for n in (2, 3) for pi in _involutive_permutations(n) for sign in SIGNS for t in (0, 1)
    },
}


def _closure_outcome(check, algebra, sigma, seed):
    try:
        return check(algebra, sigma, 20, seed=seed)
    except InternalConsistencyError as error:
        return InternalConsistencyError, str(error)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_bracket_closure_check_matches_dense_oracle(name, seed):
    algebra, sigma = CLOSURE_CASES[name]()
    assert _closure_outcome(bracket_closure_check, algebra, sigma, seed) == _closure_outcome(
        bracket_closure_dense, algebra, sigma, seed
    )


def test_closure_cases_reach_every_outcome():
    kinds = set()
    for make in CLOSURE_CASES.values():
        outcome = _closure_outcome(bracket_closure_check, *make(), 0)
        if isinstance(outcome, ClosureCounterexample):
            kinds.add(outcome.reason)
        else:
            kinds.add(outcome if outcome is None else outcome[0])
    assert kinds == {None, "four-term identity failed", InternalConsistencyError}
