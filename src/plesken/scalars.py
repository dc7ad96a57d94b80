"""Exact scalars: Gaussian rationals a + b*i with arbitrary-precision parts.

Everything in this package computes over the field Q(i).  A scalar holds its
real and imaginary parts as `fractions.Fraction` values, which are kept in
lowest terms with positive denominator automatically, so arithmetic is exact:
no rounding ever happens and (x + y) - y == x for all values.

Text form (used in the JSON interchange documents): "a", "a/b" or
"a/b+c/di", e.g. "3", "-1/2", "0+1i", "1/2-3/4i".  `from_string` also
accepts the obvious shorthands ("i", "-i", "2+i", "3i"); `str()` always
emits the canonical form, so parse/emit round trips are stable.

The reading rule: a value the package stores (structure constants, the
unit, `Matrix` entries, vectors and the Lie table) is read once, where it
enters, by `exact`: a Python `int` when it is a real integer, a
`GaussianRational` otherwise.  Integer tables, the common case, then add,
multiply and compare as ints, and mix with `GaussianRational`s, which
coerce ints.  An int has no `.re` or `.im`, and `int / int` is a float,
so code that divides stored values divides by `scalar(c)`.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)

_TERM = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^\s*(?:(?P<real>{_TERM})(?!i))?(?:(?P<imag>[+-]?(?:\d+(?:/\d+)?)?)i)?\s*$"
)


class GaussianRational:
    """An immutable element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_string(cls, text: str) -> GaussianRational:
        m = _SCALAR_RE.match(text)
        if m is None or (m.group("real") is None and m.group("imag") is None):
            raise ValueError(f"not a scalar: {text!r}")
        re_part = m.group("real")
        im_part = m.group("imag")
        try:
            re_val = Fraction(re_part) if re_part is not None else _FRACTION_ZERO
            if im_part is None:
                im_val = _FRACTION_ZERO
            elif im_part in ("", "+"):
                im_val = _FRACTION_ONE
            elif im_part == "-":
                im_val = -_FRACTION_ONE
            else:
                im_val = Fraction(im_part)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar: {text!r}") from None
        return cls(re_val, im_val)

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self.re == parts[0] and self.im == parts[1]

    def __hash__(self):
        # A real scalar hashes as its Fraction, hence as an equal int.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return GaussianRational(self.re + parts[0], self.im + parts[1])

    __radd__ = __add__

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return GaussianRational(self.re - parts[0], self.im - parts[1])

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return GaussianRational(parts[0] - self.re, parts[1] - self.im)

    def __mul__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b, (c, d) = self.re, self.im, parts
        if not b and not d:  # the common all-rational fast path
            return GaussianRational(a * c, _FRACTION_ZERO)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b, (c, d) = self.re, self.im, parts
        if not c and not d:
            raise ZeroDivisionError("division by zero scalar")
        if not b and not d:
            return GaussianRational(a / c, _FRACTION_ZERO)
        norm = c * c + d * d
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return GaussianRational(*parts) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __str__(self):
        if not self.im:
            return _fmt_fraction(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_fmt_fraction(self.re)}{sign}{_fmt_fraction(abs(self.im))}i"

    def __repr__(self):
        return f"GaussianRational({str(self)!r})"


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parts(value):
    """(re, im) of a GaussianRational, int or Fraction operand, else None;
    no scalar is built for an int or a Fraction."""
    if type(value) is GaussianRational:
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return value, 0
    return None


def scalar(value) -> GaussianRational:
    """Coerce an int (not a bool), Fraction, string or GaussianRational to a scalar."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational.from_string(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def exact(value):
    """The stored form of a value `scalar` accepts: an int when it is a real
    integer, else its `GaussianRational`."""
    if type(value) is int:
        return value
    c = scalar(value)
    re = c.re
    return re.numerator if not c.im and re.denominator == 1 else c


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
