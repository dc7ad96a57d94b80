"""Constructors for the algebra families, each with its anti-involution.

Conventions fixed here (they pin down basis order, hence all structure
constants and golden values):

* Quaternions: basis labels "1", "i", "j", "k" in that order.  The labels
  i, j, k name basis elements of the algebra and are unrelated to the
  imaginary unit of the scalar field.
* Matrix units E_rs (1-based) in row-major order; label "E{r}{s}", or
  "E{r},{s}" from n = 10 on, where E1,11 and E11,1 would both read E111.
* Group algebras: one basis element per group element, in table order.
* Planar rook diagrams on n+n nodes: an arc joins a top node to a bottom
  node, arcs are non-crossing, so a diagram is determined by the pair
  (top endpoints, bottom endpoints) with equal sizes; the matching is the
  order-preserving one.  Encoded as the two sorted tuples; basis order is
  lexicographic on that encoding.
* Temperley-Lieb diagrams: a perfect non-crossing matching of 2n points,
  top row numbered 1..n left to right, bottom row n+1..2n left to right.
  Encoded as the sorted tuple of sorted pairs; basis order is
  lexicographic.  Products compose mate tuples (mate[p] is the point
  joined to p, 0-based): with the left factor on top, each outer point is
  traced through the middle row to an outer point, and each cycle of
  middle points never passed is a closed loop, one factor of delta.

Diagram families are capped (default n <= 6) because dimensions grow like
C(2n, n) and the Catalan numbers; the cap is a keyword argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .algebra import Algebra, AntiInvolution
from .linalg import Matrix, unit_vector
from .scalars import exact

DEFAULT_DIAGRAM_CAP = 6


def signed_permutation_matrix(n: int, perm: Sequence[int], signs=None) -> Matrix:
    """Matrix sending basis vector j to signs[j] * basis vector perm[j]."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = 1 if signs is None else signs[j]
    return Matrix(rows)


# ---------------------------------------------------------------------------
# Quaternions


def quaternions() -> tuple[Algebra, AntiInvolution]:
    """The quaternion algebra with the conjugation involution.

    Products follow i*i = j*j = k*k = -1, i*j = k = -(j*i), j*k = i = -(k*j),
    k*i = j = -(i*k); conjugation negates i, j, k and fixes 1.
    """
    labels = ("1", "i", "j", "k")
    one, i, j, k = range(4)
    neg = -1
    structure = {
        (one, one): ((one, 1),),
        (one, i): ((i, 1),),
        (one, j): ((j, 1),),
        (one, k): ((k, 1),),
        (i, one): ((i, 1),),
        (j, one): ((j, 1),),
        (k, one): ((k, 1),),
        (i, i): ((one, neg),),
        (j, j): ((one, neg),),
        (k, k): ((one, neg),),
        (i, j): ((k, 1),),
        (j, i): ((k, neg),),
        (j, k): ((i, 1),),
        (k, j): ((i, neg),),
        (k, i): ((j, 1),),
        (i, k): ((j, neg),),
    }
    algebra = Algebra(labels, structure, (1, 0, 0, 0))
    sigma = AntiInvolution(
        signed_permutation_matrix(4, (0, 1, 2, 3), (1, -1, -1, -1))
    )
    return algebra, sigma


# ---------------------------------------------------------------------------
# Matrix algebras


def matrix_algebra(n: int, involution: str = "transpose") -> tuple[Algebra, AntiInvolution]:
    """M(n) on matrix units, with transposition or conjugate transposition."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if involution not in ("transpose", "conj_transpose"):
        raise ValueError(f"unknown involution {involution!r}")
    sep = "," if n >= 10 else ""
    labels = tuple(f"E{r}{sep}{s}" for r in range(1, n + 1) for s in range(1, n + 1))
    idx = lambda r, s: (r - 1) * n + (s - 1)
    structure = {}
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    if s == u:
                        structure[(idx(r, s), idx(u, v))] = ((idx(r, v), 1),)
    unit = [0] * (n * n)
    for r in range(1, n + 1):
        unit[idx(r, r)] = 1
    perm = [idx(s, r) for r in range(1, n + 1) for s in range(1, n + 1)]
    sigma = AntiInvolution(
        signed_permutation_matrix(n * n, perm),
        conjugates_scalars=(involution == "conj_transpose"),
    )
    return Algebra(labels, structure, unit), sigma


def matrix_over_algebra(
    n: int, inner: Algebra, inner_sigma: AntiInvolution
) -> tuple[Algebra, AntiInvolution]:
    """M(n, A) for an algebra A with anti-involution.

    Basis is E_rs tensor e_i (outer index row-major, inner index fastest);
    the involution sends E_rs tensor e_i to E_sr tensor sigma(e_i).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = inner.dim
    dim = n * n * d
    sep = "," if n >= 10 else ""

    def idx(r, s, i):
        return ((r - 1) * n + (s - 1)) * d + i

    labels = tuple(
        f"E{r}{sep}{s}.{inner.labels[i]}"
        for r in range(1, n + 1)
        for s in range(1, n + 1)
        for i in range(d)
    )
    structure = {}
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for v in range(1, n + 1):
                for i in range(d):
                    for j in range(d):
                        terms = inner.product_terms(i, j)
                        if terms:
                            structure[(idx(r, s, i), idx(s, v, j))] = tuple(
                                (idx(r, v, k), c) for k, c in terms
                            )
    unit = [0] * dim
    for r in range(1, n + 1):
        for i, c in enumerate(inner.unit):
            unit[idx(r, r, i)] = c
    columns = []
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for i in range(d):
                image = inner_sigma.matrix.column(i)
                col = [0] * dim
                for k, c in enumerate(image):
                    col[idx(s, r, k)] = c
                columns.append(col)
    sigma = AntiInvolution(
        Matrix.from_columns(columns),
        conjugates_scalars=inner_sigma.conjugates_scalars,
    )
    return Algebra(labels, structure, unit), sigma


# ---------------------------------------------------------------------------
# Group algebras


class GroupTable:
    """A finite group given by its multiplication table of element indices."""

    def __init__(self, product: Sequence[Sequence[int]], labels=None):
        self.product = tuple(tuple(row) for row in product)
        self.order = len(self.product)
        if any(len(row) != self.order for row in self.product):
            raise ValueError("product table must be square")
        for row in self.product:
            for v in row:
                if type(v) is not int or not 0 <= v < self.order:
                    raise ValueError("closure: product table entry out of range")
        if labels is None:
            labels = tuple(f"g{i}" for i in range(self.order))
        self.labels = tuple(labels)
        if len(self.labels) != self.order:
            raise ValueError("wrong number of labels")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(
                self.product[e][x] == x and self.product[x][e] == x
                for x in range(self.order)
            ):
                return e
        raise ValueError("identity: table has no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = []
        for g in range(self.order):
            candidates = [
                h
                for h in range(self.order)
                if self.product[g][h] == self.identity
                and self.product[h][g] == self.identity
            ]
            if not candidates:
                raise ValueError(f"inverses: element {g} has no inverse")
            inv.append(candidates[0])
        return tuple(inv)

    def _check_associativity(self):
        p = self.product
        n = self.order
        for a in range(n):
            for b in range(n):
                ab = p[a][b]
                for c in range(n):
                    if p[ab][c] != p[a][p[b][c]]:
                        raise ValueError(
                            f"associativity: fails at triple ({a}, {b}, {c})"
                        )


def group_algebra(table: GroupTable) -> tuple[Algebra, AntiInvolution]:
    """Group algebra with the involution that inverts group elements."""
    n = table.order
    structure = {
        (i, j): ((table.product[i][j], 1),) for i in range(n) for j in range(n)
    }
    unit = [0] * n
    unit[table.identity] = 1
    sigma = AntiInvolution(signed_permutation_matrix(n, table.inverse))
    return Algebra(table.labels, structure, unit), sigma


# ---------------------------------------------------------------------------
# Planar rook diagrams


@dataclass(frozen=True, order=True)
class PlanarRookDiagram:
    """Non-crossing partial matching of n top nodes to n bottom nodes.

    Planarity forces the matching between the chosen endpoint sets to be
    order-preserving, so the two sorted endpoint tuples determine the
    diagram completely.
    """

    n: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("top and bottom must have equal sizes")
        for side in (self.top, self.bottom):
            if list(side) != sorted(set(side)):
                raise ValueError("endpoints must be sorted and distinct")
            if side and (side[0] < 1 or side[-1] > self.n):
                raise ValueError("endpoint out of range")

    @property
    def arcs(self) -> int:
        return len(self.top)

    def compose(self, other: PlanarRookDiagram) -> PlanarRookDiagram:
        """Concatenation with self on top, by `_pr_compose`."""
        if self.n != other.n:
            raise ValueError("sizes differ")
        top_of = dict(zip(self.bottom, self.top))
        return PlanarRookDiagram(self.n, *_pr_compose(top_of, other.top, other.bottom))

    def flip(self) -> PlanarRookDiagram:
        return PlanarRookDiagram(self.n, self.bottom, self.top)

    def label(self) -> str:
        fmt = lambda side: "".join(map(str, side)) if side else "-"
        return f"{fmt(self.top)}/{fmt(self.bottom)}"


def _pr_compose(top_of: dict[int, int], top, bottom) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(top, bottom) of the product of a left factor with bottom -> top map
    `top_of` and the right factor (top, bottom): the right factor's arcs
    whose top endpoint is in `top_of` survive, in order, as planarity keeps it."""
    new_top, new_bottom = [], []
    for t, b in zip(top, bottom):
        if t in top_of:
            new_top.append(top_of[t])
            new_bottom.append(b)
    return tuple(new_top), tuple(new_bottom)


@lru_cache(maxsize=None)
def planar_rook_diagrams(n: int) -> tuple[PlanarRookDiagram, ...]:
    """All planar rook diagrams on n+n nodes, in basis (lexicographic) order."""
    nodes = range(1, n + 1)
    diagrams = [
        PlanarRookDiagram(n, top, bottom)
        for k in range(n + 1)
        for top in itertools.combinations(nodes, k)
        for bottom in itertools.combinations(nodes, k)
    ]
    return tuple(sorted(diagrams, key=lambda d: (d.top, d.bottom)))


def planar_rook(
    n: int, cap: int = DEFAULT_DIAGRAM_CAP
) -> tuple[Algebra, AntiInvolution]:
    """The planar rook algebra PR(n); multiplication is diagram concatenation."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the size cap {cap}")
    diagrams = planar_rook_diagrams(n)
    ends = [(d.top, d.bottom) for d in diagrams]
    index = {e: i for i, e in enumerate(ends)}
    structure = (
        ((i, j), ((index[_pr_compose(top_of, top, bottom)], 1),))
        for i, top_of in enumerate(dict(zip(bottom, top)) for top, bottom in ends)
        for j, (top, bottom) in enumerate(ends)
    )
    full = tuple(range(1, n + 1))
    unit = unit_vector(len(diagrams), index[full, full])
    perm = [index[bottom, top] for top, bottom in ends]
    sigma = AntiInvolution(signed_permutation_matrix(len(diagrams), perm))
    labels = tuple(d.label() for d in diagrams)
    return Algebra(labels, structure, unit), sigma


# ---------------------------------------------------------------------------
# Temperley-Lieb diagrams


def _boundary_position(n: int, point: int) -> int:
    # Walk the rectangle boundary: top row left to right, then bottom row
    # right to left; non-crossing in the rectangle == non-interleaving here.
    return point if point <= n else 3 * n + 1 - point


def _is_noncrossing(n: int, pairs) -> bool:
    spans = sorted(
        tuple(sorted((_boundary_position(n, a), _boundary_position(n, b))))
        for a, b in pairs
    )
    for (a, b), (c, d) in itertools.combinations(spans, 2):
        if a < c < b < d:
            return False
    return True


@dataclass(frozen=True, order=True)
class TLDiagram:
    """Perfect non-crossing matching of n top points (1..n) and n bottom
    points (n+1..2n, numbered left to right)."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if not (1 <= a < b <= 2 * self.n):
                raise ValueError("pair endpoints out of range or unordered")
            seen.update((a, b))
        if len(seen) != 2 * self.n or len(self.pairs) != self.n:
            raise ValueError("pairs must form a perfect matching")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("pairs must be sorted")
        if not _is_noncrossing(self.n, self.pairs):
            raise ValueError("matching has crossing arcs")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> TLDiagram:
        return cls(n, tuple(sorted(tuple(sorted(p)) for p in pairs)))

    @classmethod
    def identity(cls, n: int) -> TLDiagram:
        return cls.from_pairs(n, [(i, n + i) for i in range(1, n + 1)])

    def through_count(self) -> int:
        return sum(1 for a, b in self.pairs if a <= self.n < b)

    def flip(self) -> TLDiagram:
        swap = lambda p: p + self.n if p <= self.n else p - self.n
        return TLDiagram.from_pairs(self.n, [(swap(a), swap(b)) for a, b in self.pairs])

    def compose(self, other: TLDiagram) -> tuple[TLDiagram, int]:
        """Concatenate with self on top, by `_tl_compose`: (diagram, loops)."""
        if self.n != other.n:
            raise ValueError("sizes differ")
        mates, loops = _tl_compose(self.mates(), other.mates())
        pairs = [(p + 1, q + 1) for p, q in enumerate(mates) if p < q]
        return TLDiagram.from_pairs(self.n, pairs), loops

    def mates(self) -> tuple[int, ...]:
        """Points 1..2n read as 0..2n-1: mates[p] is the point joined to p."""
        ends = sorted([*self.pairs, *((b, a) for a, b in self.pairs)])
        return tuple(b - 1 for _, b in ends)

    def label(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.pairs)


def _tl_compose(up: Sequence[int], low: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(mates, loops) of `up` stacked on `low`.  Middle point m is up's
    n + m and low's m; a strand crosses factors at each one it reaches and
    ends in up's top row (< n) or low's bottom row (>= n).  The middle
    points never passed lie on closed loops, alternating between factors."""
    n = len(up) // 2
    mates = [-1] * (2 * n)
    passed = [False] * n
    for start in range(2 * n):
        if mates[start] >= 0:
            continue
        in_up = start < n
        q = up[start] if in_up else low[start]
        while (q >= n) if in_up else (q < n):
            m = q - n if in_up else q
            passed[m] = True
            in_up = not in_up
            q = up[n + m] if in_up else low[m]
        mates[start], mates[q] = q, start
    loops = 0
    for m in range(n):
        if not passed[m]:
            loops += 1
            while not passed[m]:
                passed[m] = passed[low[m]] = True
                m = up[n + low[m]] - n
    return tuple(mates), loops


def _noncrossing_matchings(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    first = points[0]
    for pos in range(1, len(points), 2):
        partner = points[pos]
        inside = points[1:pos]
        outside = points[pos + 1 :]
        for left in _noncrossing_matchings(inside):
            for right in _noncrossing_matchings(outside):
                yield ((first, partner),) + left + right


@lru_cache(maxsize=None)
def temperley_lieb_diagrams(n: int) -> tuple[TLDiagram, ...]:
    """All TL diagrams on 2n points, in basis (lexicographic) order."""
    positions = tuple(range(1, 2 * n + 1))
    inverse = {_boundary_position(n, p): p for p in range(1, 2 * n + 1)}
    diagrams = []
    for matching in _noncrossing_matchings(positions):
        pairs = [(inverse[a], inverse[b]) for a, b in matching]
        diagrams.append(TLDiagram.from_pairs(n, pairs))
    return tuple(sorted(diagrams, key=lambda d: d.pairs))


def temperley_lieb(
    n: int, delta, cap: int = DEFAULT_DIAGRAM_CAP
) -> tuple[Algebra, AntiInvolution]:
    """The Temperley-Lieb algebra TL_delta(n).

    Concatenating two diagrams multiplies the resulting diagram by
    delta^(number of closed loops removed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the size cap {cap}")
    delta = exact(delta)
    powers = [delta**loops for loops in range(n // 2 + 1)]
    diagrams = temperley_lieb_diagrams(n)
    mates = [d.mates() for d in diagrams]
    index = {m: i for i, m in enumerate(mates)}
    structure = (
        ((i, j), ((index[m], powers[loops]),))
        for i, up in enumerate(mates)
        for j, low in enumerate(mates)
        for m, loops in [_tl_compose(up, low)]
    )
    unit = unit_vector(len(diagrams), index[TLDiagram.identity(n).mates()])
    perm = [index[d.flip().mates()] for d in diagrams]
    sigma = AntiInvolution(signed_permutation_matrix(len(diagrams), perm))
    labels = tuple(d.label() for d in diagrams)
    return Algebra(labels, structure, unit), sigma
