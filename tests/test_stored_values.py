"""The reading rule: every stored exact value is an `int` when it is a real
integer and a `GaussianRational` otherwise.

The value is read once, where it enters (`Algebra`, `AntiInvolution`,
`LieAlgebra`, `Matrix`, `linalg.vector` and the `Subspace` rows), and
every later stage holds what those give it.  So no stage may store a
float, which an `int` quotient would give, nor a `GaussianRational` equal
to an integer, which a stage that skipped the reading would leave.  Walked on every builder family, on
TL at non-integral delta, on M(n) under conjugate transposition and on
M(2) in a basis with several-term and imaginary products, and on the
documents `emit` writes for them, read back by `parse`.
"""

from fractions import Fraction

import pytest
from oracles import pairs
from test_validation_oracles import FAMILIES

from plesken.algebra import (
    Algebra,
    AntiInvolution,
    plesken_lie_algebra,
    plesken_subspace,
    validate_associativity,
)
from plesken.cellular import (
    cell_datum_matrix,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
    cell_module,
    gram_matrix,
    validate_cell_datum,
)
from plesken.interchange import AlgebraDocument, emit, parse
from plesken.lie import LieAlgebra, killing_form
from plesken.scalars import GaussianRational, scalar

CASES = {
    "H": None,
    "M(2,H)": None,
    "QS3": None,
    "C3": None,
    "M(2) skewed basis": None,
    "M(3)": lambda sigma: cell_datum_matrix(3, sigma),
    "M(3)*": lambda sigma: cell_datum_matrix(3, sigma),
    "PR(3)": lambda sigma: cell_datum_planar_rook(3, sigma),
    **{f"TL_{d}(4)": (lambda sigma: cell_datum_temperley_lieb(4, sigma))
       for d in ("0", "1", "3", "i", "1/2")},
}


def _read_once(value) -> bool:
    if type(value) is int:
        return True
    return type(value) is GaussianRational and bool(value.im or value.re.denominator != 1)


def _assert_read_once(values, where):
    bad = [value for value in values if not _read_once(value)]
    assert not bad, (where, bad[:3])


def _terms(table):
    return [c for terms in table.values() for _, c in terms]


def _both_orders(L):
    """The stored half of the Lie table and its negation, as `bracket_terms`
    reads them in both orders."""
    return {key: L.bracket_terms(*key) for i, j in L.table for key in ((i, j), (j, i))}


def _assert_algebra(algebra, sigma):
    _assert_read_once(_terms(pairs(algebra)), "structure")
    _assert_read_once(algebra.unit, "unit")
    _assert_read_once([c for image in sigma.images for c in image.values()], "sigma")


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_stage_stores_ints_and_non_integral_gaussian_rationals(name):
    algebra, sigma = FAMILIES[name]()
    assert validate_associativity(algebra) is None
    _assert_algebra(algebra, sigma)
    doc = parse(emit(AlgebraDocument(name, algebra, sigma)))
    _assert_algebra(doc.algebra, doc.sigma)

    sub = plesken_subspace(algebra, sigma)
    _assert_read_once([c for v in sub.basis for c in v], "skew basis")
    _assert_read_once([c for row in sub.rows.values() for c in row.values()], "skew rows")
    L = plesken_lie_algebra(algebra, sigma)
    _assert_read_once(_terms(_both_orders(L)), "Lie table")
    _assert_read_once([c for row in killing_form(L).data for c in row], "Killing form")

    datum_of = CASES[name]
    if datum_of is None:
        return
    cd = datum_of(sigma)
    assert validate_cell_datum(algebra, sigma, cd) is None
    for lam in cd.lambdas:
        gram = gram_matrix(algebra, cd, lam).gram
        _assert_read_once([c for row in gram.data for c in row], ("Gram", lam))
        action = cell_module(algebra, cd, lam).action
        _assert_read_once([c for entries in action.values() for c in entries.values()],
                          ("action", lam))


def test_constructors_read_integral_values_as_ints():
    # A real integer given as a GaussianRational, a Fraction or a string,
    # or summed from non-integral terms, is stored as an int.
    L = LieAlgebra(["a", "b", "c"], {(0, 1): ((2, GaussianRational(2)),), (1, 2): ((0, "1/2"),)})
    assert L.table == {(0, 1): ((2, 2),), (1, 2): ((0, scalar("1/2")),)}
    assert _both_orders(L) == {(0, 1): ((2, 2),), (1, 0): ((2, -2),),
                               (1, 2): ((0, scalar("1/2")),), (2, 1): ((0, scalar("-1/2")),)}
    _assert_read_once(_terms(_both_orders(L)), "Lie table")
    A = Algebra(["a", "b"], [(0, 0, 0, "1/2"), (0, 0, 0, "1/2"), (0, 1, 1, Fraction(4, 2))],
                [GaussianRational(1), "0"])
    assert A.rows == [{0: ((0, 1),), 1: ((1, 2),)}, {}] and A.unit == (1, 0)
    sigma = AntiInvolution(({0: "1+0i", 1: 0}, {1: Fraction(1)}))
    assert sigma.images == ({0: 1}, {1: 1})
    _assert_algebra(A, sigma)
