"""Structure theory for Lie algebras given by structure constants.

A `LieAlgebra` stores one half of its bracket, sparsely: `table` holds the
index pairs i < j, and every reader takes [e_j, e_i] = -[e_i, e_j] from
it.  `bracket` brackets sparse {index: scalar} vectors in one `combine`
over that half.  Subspaces are the canonical sparse-row `Subspace` values
from `linalg`, so series stabilization is detected by exact subspace
equality; each series term is the span of brackets of rows inserted one at
a time into a `linalg.Echelon`, read only until the span is the whole
algebra.

`fingerprint` collects exact invariants (derived and lower central series,
center, Killing rank, solvability), compared field by field by
`Fingerprint.compare`; a matching fingerprint is a necessary condition for
isomorphism, not a proof.  It first reads the Killing matrix off the table
reduced mod a fixed prime P = 1 (mod 4), with i -> a square root of -1 mod
P.  Reduction is a ring homomorphism, so a full rank mod P proves K
nondegenerate over Q(i); then the center lies in Rad K = 0, and by
invariance [L, L]^perp = Z(L) = 0, so L is perfect and the fingerprint is
the semisimple closed form (Humphreys, Introduction to Lie Algebras, 5).
Any deficit mod P, or a denominator that P divides, falls back to the exact
series, center and Killing rank over Q(i).  One Killing loop serves both:
it sums trace(ad a ad b) over the table positions i <= k, each product of
two nonzero constants formed once, as K = S + S^T + D; mod P it sums an
int constant unreduced, and `rank_mod_p` reduces once.

`Fingerprint.orthogonal` gives the fingerprint of a direct sum of the
orthogonal Lie algebras o(d) in closed form, and `orthogonal_model` builds
that sum, each o(d) the skew part of M(d) under transposition, as a
reference for it.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .algebra import plesken_lie_algebra
from .builders import matrix_algebra
from .linalg import (P, Echelon, Matrix, Subspace, Terms, combine, rank, rank_mod_p,
                     reducible, residue)
from .scalars import GaussianRational, exact


class LieAlgebra:
    """Labeled basis plus sparse bracket constants, stored once, for i < j."""

    def __init__(self, labels: Sequence[str], table):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table: dict[tuple[int, int], Terms] = {}
        for (i, j), terms in table.items():
            if not 0 <= i < j < self.dim:
                raise ValueError("bracket table keys must satisfy i < j")
            if terms := tuple(sorted((k, c) for k, d in terms if (c := exact(d)))):
                self.table[(i, j)] = terms

    def bracket_terms(self, i: int, j: int) -> Terms:
        if i < j:
            return self.table.get((i, j), ())
        return tuple((k, -c) for k, c in self.table.get((j, i), ()))

    def bracket(self, x: Mapping, y: Mapping) -> dict[int, GaussianRational]:
        """[x, y] = B(x, y) - B(y, x) for sparse x and y, B bilinear on the half."""
        get = self.table.get
        return combine((a * b if i < j else -(a * b), t) for i, a in x.items()
                       for j, b in y.items() if (t := get((i, j) if i < j else (j, i))))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


def bracket_span(L: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """rref span of all [x, y] with x over a basis of u and y over a basis of v."""
    xs, ys = u.rows.values(), v.rows.values()
    return Echelon(L.dim, (L.bracket(x, y) for x in xs for y in ys)).subspace()


def _series(L: LieAlgebra, step) -> list[Subspace]:
    chain = [Subspace.full(L.dim)]
    while chain[-1].dim:
        nxt = step(chain[-1])
        chain.append(nxt)
        if nxt == chain[-2]:
            break
    return chain


def derived_series(L: LieAlgebra) -> list[Subspace]:
    """L, [L,L], [[L,L],[L,L]], ... until zero or stable (repeat included)."""
    return _series(L, lambda s: bracket_span(L, s, s))


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """L, [L,L], [L,[L,L]], ... until zero or stable (repeat included)."""
    full = Subspace.full(L.dim)
    return _series(L, lambda s: bracket_span(L, full, s))


def _ad_entries(L: LieAlgebra, value) -> dict[tuple[int, int], dict]:
    """at[(i, k)] = {a: (ad a)_ki}, the coefficient of e_k in [e_a, e_i] mapped
    by `value`, read in one pass over the stored half in both orientations."""
    at: dict[tuple[int, int], dict] = {}
    for (a, i), terms in L.table.items():
        for k, c in terms:
            v = value(c)
            at.setdefault((i, k), {})[a] = v
            at.setdefault((a, k), {})[i] = -v
    return at


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}: the kernel of the rows at[(j, k)], whose
    entry at i is the coefficient of e_k in [e_i, e_j]."""
    return Echelon(L.dim, _ad_entries(L, lambda c: c).values()).kernel()


def killing_form(L: LieAlgebra) -> Matrix:
    """K(x, y) = trace(ad x . ad y), as a symmetric matrix on the basis."""
    return Matrix(_killing_entries(L, lambda c: c))


def _killing_entries(L: LieAlgebra, value) -> list[list]:
    """The Killing matrix of L, each structure constant mapped by `value`
    (the identity, or `linalg.residue`, which leaves an int unreduced).

    K(a, b) = sum over positions (i, k) of (ad a)_ki (ad b)_ik.  Position
    (k, i) adds the transpose of what (i, k) adds, so K = S + S^T + D, S
    summed over the positions i < k and D over i = k.
    """
    at = _ad_entries(L, value)
    s, d = ([[0] * L.dim for _ in range(L.dim)] for _ in range(2))
    for (i, k), u in at.items():
        if i <= k and (v := u if i == k else at.get((k, i))):
            rows = d if i == k else s
            for a, c in u.items():
                row = rows[a]
                for b, e in v.items():
                    row[b] += c * e
    return [[x + y + z for x, y, z in zip(row, column, diagonal)]
            for row, column, diagonal in zip(s, zip(*s), d)]


def _killing_rank_mod_p(L: LieAlgebra) -> Optional[int]:
    """The rank over F_P of the Killing matrix of the table read mod P, or
    None when P divides a denominator of the table."""
    if not reducible(c for terms in L.table.values() for _, c in terms):
        return None
    return rank_mod_p((dict(enumerate(row)) for row in _killing_entries(L, residue)), P)


class Fingerprint(NamedTuple):
    """Exact structural invariants used as a necessary isomorphism filter."""

    dim: int
    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int
    killing_rank: int
    solvable: bool
    derived_length: Optional[int]
    nilpotent: bool

    def as_dict(self) -> dict:
        return {field: _plain(value) for field, value in zip(self._fields, self)}

    def compare(self, expected: Fingerprint) -> FingerprintComparison:
        """Field-by-field comparison with the fingerprint of a model."""
        diffs = tuple(
            (field, actual, wanted)
            for field, actual, wanted in zip(Fingerprint._fields, self, expected)
            if actual != wanted
        )
        return FingerprintComparison(not diffs, diffs)

    @classmethod
    def orthogonal(cls, sizes: Sequence[int]) -> Fingerprint:
        """The fingerprint of the direct sum of o(d), d in `sizes`, in closed form.

        With D = sum d(d-1)/2 and a = #{d = 2}: the a blocks o(2) are the
        center and the blocks o(d), d >= 3, are semisimple (Humphreys,
        Introduction to Lie Algebras, 1.2 and 19), so the Killing rank is
        D - a and both series go from D to the perfect D - a.
        """
        if any(d < 0 for d in sizes):
            raise ValueError("sizes must be non-negative")
        dim = sum(d * (d - 1) // 2 for d in sizes)
        return cls._reductive(dim, sum(1 for d in sizes if d == 2))

    @classmethod
    def _reductive(cls, dim: int, a: int) -> Fingerprint:
        """The fingerprint of an a-dimensional center plus a semisimple
        ideal of dimension dim - a."""
        # [0], [D, D], [D, D - a, D - a] or [D, 0], as `_series` stops.
        series = (dim, dim - a, dim - a)[: 1 + (dim > 0) + (0 < a < dim)]
        solvable = dim == a
        return cls(dim, series, series, a, dim - a, solvable,
                   len(series) - 1 if solvable else None, solvable)


def fingerprint(L: LieAlgebra) -> Fingerprint:
    """The exact fingerprint of L, read off the Killing rank mod P when that
    rank is L.dim, and computed step by step otherwise.

    Why a full rank mod P decides the rest:
    - Reading the table mod P, with i -> I_MOD_P, is a ring homomorphism
      Z_(P)[i] -> F_P, and the Killing entries are integer polynomials in
      the table.  So the matrix summed from `linalg.residue` of each
      constant, an int left unreduced, is congruent to K mod P, a nonzero
      minor mod P is a nonzero minor over Q(i), and
      rank_P(K mod P) <= rank K.  Full rank mod P makes K nondegenerate.
    - ad z = 0 for z in the center Z(L), so Z(L) lies in Rad K = 0.
    - By invariance K(x, [y, z]) = K([x, y], z), so x is orthogonal to
      [L, L] exactly when [x, L] lies in Rad K = 0, that is, when x is
      central.  Hence [L, L]^perp = Z(L) = 0, and as K is nondegenerate,
      [L, L] = L and [L, [L, L]] = L (Humphreys, Introduction to Lie
      Algebras, 5.1-5.2).
    Both series are then (n, n), or (0,) when n = 0, and the fingerprint
    is the semisimple case a = 0 of `Fingerprint.orthogonal`.  A rank
    below L.dim mod P, or a denominator that P divides, proves nothing,
    and the derived and lower central series, the center and the exact
    Killing rank are computed over Q(i).
    """
    if _killing_rank_mod_p(L) == L.dim:
        return Fingerprint._reductive(L.dim, 0)
    derived = [s.dim for s in derived_series(L)]
    lower = [s.dim for s in lower_central_series(L)]
    solvable = derived[-1] == 0
    nilpotent = lower[-1] == 0
    return Fingerprint(
        dim=L.dim,
        derived_dims=tuple(derived),
        lower_central_dims=tuple(lower),
        center_dim=center(L).dim,
        killing_rank=rank(killing_form(L)),
        solvable=solvable,
        derived_length=len(derived) - 1 if solvable else None,
        nilpotent=nilpotent,
    )


def orthogonal_model(sizes: Sequence[int]) -> LieAlgebra:
    """Block-diagonal direct sum of the skew-matrix Lie algebras o(d).

    Block o(d) has the basis E_rs - E_sr for 1 <= r < s <= d, labeled
    B{block}.r,s, in the order of the skew part of M(d).
    """
    labels: list[str] = []
    table: dict[tuple[int, int], Terms] = {}
    for block, d in enumerate(sizes):
        if d < 0:
            raise ValueError("sizes must be non-negative")
        if d < 2:
            continue  # o(0) and o(1) are zero
        offset = len(labels)
        labels.extend(
            f"B{block}.{r},{s}" for r in range(1, d + 1) for s in range(r + 1, d + 1)
        )
        for (a, b), terms in plesken_lie_algebra(*matrix_algebra(d)).table.items():
            table[(a + offset, b + offset)] = tuple(
                (k + offset, c) for k, c in terms
            )
    return LieAlgebra(labels, table)


class FingerprintComparison(NamedTuple):
    matches: bool
    diffs: tuple[tuple[str, object, object], ...]  # (field, actual, expected)

    def as_dict(self) -> dict:
        return {
            "matches": self.matches,
            "diffs": [
                {"field": f, "actual": _plain(a), "expected": _plain(e)}
                for f, a, e in self.diffs
            ],
        }


def _plain(value):
    return list(value) if isinstance(value, tuple) else value
