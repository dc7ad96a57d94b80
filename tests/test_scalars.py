from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plesken.scalars import GaussianRational, I, ONE, ZERO, scalar

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
scalars = st.builds(GaussianRational, rationals, rationals)


@pytest.mark.parametrize(
    "text, re_, im",
    [
        ("0", 0, 0),
        ("3", 3, 0),
        ("-1/2", Fraction(-1, 2), 0),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("3i", 0, 3),
        ("1/2i", 0, Fraction(1, 2)),
        ("0+1i", 0, 1),
        ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
        ("2+i", 2, 1),
    ],
)
def test_parse(text, re_, im):
    value = GaussianRational.from_string(text)
    assert value.re == Fraction(re_) and value.im == Fraction(im)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1+2", "--3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        GaussianRational.from_string(bad)


@given(scalars)
def test_string_round_trip(x):
    assert GaussianRational.from_string(str(x)) == x


def test_lowest_terms():
    x = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert x.re.denominator == 2 and x.re.numerator == 1
    assert x.im == Fraction(1, 2)


@given(scalars, scalars)
def test_exactness(a, b):
    assert (a + b) - b == a


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverses(a):
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE


def test_complex_arithmetic():
    assert I * I == -ONE
    assert (ONE + I) * (ONE - I) == scalar(2)
    assert I.conjugate() == -I
    assert scalar("1/2+1/2i") * scalar(2) == ONE + I


def test_powers():
    assert scalar(0) ** 0 == ONE
    assert scalar(3) ** 2 == scalar(9)
    assert I**4 == ONE
    with pytest.raises(ValueError):
        scalar(2) ** -1


def test_real_scalars_hash_as_their_value():
    # GaussianRational(1) == 1, so the two must meet in sets and dict lookups.
    assert len({1, GaussianRational(1)}) == 1
    assert {1: "a"}.get(GaussianRational(1)) == "a"
    assert {Fraction(1, 2): "h"}.get(scalar("1/2")) == "h"


@given(scalars)
def test_equal_values_hash_equal(a):
    assert hash(a) == hash(GaussianRational(a.re, a.im))
    if not a.im:
        assert a == a.re and hash(a) == hash(a.re)


# `Algebra` stores a real integer coefficient as a Python int and any other
# as a GaussianRational, and Light's test multiplies the two freely and
# compares rows of the products whole.  Mixed values must compare exactly as
# their scalar values.
coefficients = st.one_of(st.integers(min_value=-3, max_value=3), scalars)
factored = st.tuples(st.integers(min_value=0, max_value=2), coefficients, coefficients)


def _exact(c):
    return c if isinstance(c, GaussianRational) else GaussianRational(c)


@given(*[coefficients] * 4, st.integers(0, 1), st.integers(0, 1))
def test_mixed_products_compare_as_their_values(a, b, c, d, k, m):
    x, y = a * b, c * d
    exact_x, exact_y = _exact(a) * _exact(b), _exact(c) * _exact(d)
    assert _exact(x) == exact_x and _exact(y) == exact_y
    assert (x == y) == (exact_x == exact_y)
    assert (x != y) == (exact_x != exact_y)
    if x == y:
        assert hash(x) == hash(y)
    assert ((k, x) == (m, y)) == (k == m and exact_x == exact_y)
    assert ((k, x) != (m, y)) == (k != m or exact_x != exact_y)


@given(
    st.dictionaries(st.integers(0, 2), factored, max_size=3),
    st.dictionaries(st.integers(0, 2), factored, max_size=3),
)
def test_mixed_sparse_dicts_compare_as_their_values(x, y):
    def mixed(terms):
        return {k: (m, a * b) for k, (m, a, b) in terms.items()}

    def exact(terms):
        return {k: (m, _exact(a) * _exact(b)) for k, (m, a, b) in terms.items()}

    assert mixed(x) == exact(x)
    assert (mixed(x) == mixed(y)) == (exact(x) == exact(y))
    assert (mixed(x) != mixed(y)) == (exact(x) != exact(y))
