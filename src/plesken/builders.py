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
  lexicographic.  `_tl_compose` stacks mate tuples (mate[p] is the point
  joined to p, 0-based) and counts closed loops, one factor of delta each.
  It composes each diagram with each generator e_a only; the rest of the
  table is walked from those columns by `_right_cayley_table`.

Each table reaches `Algebra` as a stream of (i, j, k, c) quads, the
document's own form, and is shaped once, by `Algebra.__init__` storing it
by row.

Diagram families are capped (default n <= 6) because dimensions grow like
C(2n, n) and the Catalan numbers; the cap is a keyword argument.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .algebra import Algebra, AntiInvolution, InternalConsistencyError
from .linalg import unit_vector
from .scalars import exact

DEFAULT_DIAGRAM_CAP = 6


# ---------------------------------------------------------------------------
# Quaternions


def quaternions() -> tuple[Algebra, AntiInvolution]:
    """The quaternion algebra with the conjugation involution.

    Products follow i*i = j*j = k*k = -1, i*j = k = -(j*i), j*k = i = -(k*j),
    k*i = j = -(i*k); conjugation negates i, j, k and fixes 1.
    """
    labels = ("1", "i", "j", "k")
    one, i, j, k = range(4)
    structure = (
        (one, one, one, 1), (one, i, i, 1), (one, j, j, 1), (one, k, k, 1),
        (i, one, i, 1), (j, one, j, 1), (k, one, k, 1),
        (i, i, one, -1), (j, j, one, -1), (k, k, one, -1),
        (i, j, k, 1), (j, i, k, -1), (j, k, i, 1), (k, j, i, -1), (k, i, j, 1), (i, k, j, -1),
    )
    algebra = Algebra(labels, structure, (1, 0, 0, 0))
    return algebra, AntiInvolution.signed_permutation((0, 1, 2, 3), (1, -1, -1, -1))


# ---------------------------------------------------------------------------
# Matrix algebras


def matrix_algebra(n: int, involution: str = "transpose") -> tuple[Algebra, AntiInvolution]:
    """M(n) on matrix units, with transposition or conjugate transposition."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if involution not in ("transpose", "conj_transpose"):
        raise ValueError(f"unknown involution {involution!r}")
    sep, span = "," if n >= 10 else "", range(1, n + 1)
    labels = tuple(f"E{r}{sep}{s}" for r in span for s in span)
    idx = lambda r, s: (r - 1) * n + (s - 1)
    structure = ((idx(r, s), idx(s, v), idx(r, v), 1) for r in span for s in span for v in span)
    unit = [0] * (n * n)
    for r in span:
        unit[idx(r, r)] = 1
    sigma = AntiInvolution.signed_permutation(
        [idx(s, r) for r in span for s in span], conjugates_scalars=(involution == "conj_transpose")
    )
    return Algebra(labels, structure, unit), sigma


def matrix_over_algebra(
    n: int, inner: Algebra, inner_sigma: AntiInvolution
) -> tuple[Algebra, AntiInvolution]:
    """M(n, A) for an algebra A with anti-involution.

    Basis is E_rs tensor e_i (outer index row-major, inner index fastest);
    the involution sends E_rs tensor e_i to E_sr tensor sigma(e_i).  The
    products are read off the stored rows of A, each by ascending j.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = inner.dim
    sep, span = "," if n >= 10 else "", range(1, n + 1)

    def idx(r, s, i):
        return ((r - 1) * n + (s - 1)) * d + i

    labels = tuple(f"E{r}{sep}{s}.{inner.labels[i]}" for r in span for s in span for i in range(d))
    inner_rows = [sorted(row.items()) for row in inner.rows]
    structure = (
        (idx(r, s, i), idx(s, v, j), idx(r, v, k), c)
        for r in span for s in span for v in span
        for i, row in enumerate(inner_rows) for j, terms in row for k, c in terms
    )
    unit = [0] * (n * n * d)
    for r in span:
        for i, c in enumerate(inner.unit):
            unit[idx(r, r, i)] = c
    images = tuple(
        {idx(s, r, k): c for k, c in inner_sigma.images[i].items()}
        for r in span for s in span for i in range(d)
    )
    sigma = AntiInvolution(images, inner_sigma.conjugates_scalars)
    return Algebra(labels, structure, unit), sigma


# ---------------------------------------------------------------------------
# Group algebras


class GroupTable:
    """A finite group given by its multiplication table of element indices.

    The table is read, not proved: `identity` is the first element whose
    row is the identity map, a left identity, and `inverse[g]` is where that
    identity sits in row g, a right inverse.  `validate_algebra` on the
    group algebra proves the rest.  Light's test gives associativity, and
    `validate_unit` gives that the left identity is two-sided (a left
    identity that is not a right identity is refused there).  A monoid in
    which every element has a right inverse is a group, so `inverse` is the
    two-sided inverse, and `validate_involution` re-proves that g -> g^-1
    is an anti-involution.  Until then the table may not be a group.
    """

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
        if (identity_row := tuple(range(self.order))) not in self.product:
            raise ValueError("identity: table has no identity element")
        self.identity = e = self.product.index(identity_row)
        for g, row in enumerate(self.product):
            if e not in row:
                raise ValueError(f"inverses: element {g} has no inverse")
        self.inverse = tuple(row.index(e) for row in self.product)


def group_algebra(table: GroupTable) -> tuple[Algebra, AntiInvolution]:
    """Group algebra with the involution that inverts group elements."""
    structure = ((i, j, k, 1) for i, row in enumerate(table.product) for j, k in enumerate(row))
    sigma = AntiInvolution.signed_permutation(table.inverse)
    return Algebra(table.labels, structure, unit_vector(table.order, table.identity)), sigma


# ---------------------------------------------------------------------------
# Planar rook diagrams


class _Diagram:
    """An immutable value: equal, hashed and shown by its `_fields`, which
    `__init__` sets once, after validating them."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class PlanarRookDiagram(_Diagram):
    """Non-crossing partial matching of n top nodes to n bottom nodes.

    Planarity forces the matching between the chosen endpoint sets to be
    order-preserving, so the two sorted endpoint tuples determine the
    diagram completely.
    """

    _fields = ("n", "top", "bottom")

    def __init__(self, n: int, top: tuple[int, ...], bottom: tuple[int, ...]):
        if len(top) != len(bottom):
            raise ValueError("top and bottom must have equal sizes")
        for side in (top, bottom):
            if list(side) != sorted(set(side)):
                raise ValueError("endpoints must be sorted and distinct")
            if side and (side[0] < 1 or side[-1] > n):
                raise ValueError("endpoint out of range")
        vars(self).update(n=n, top=top, bottom=bottom)

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
    dim, unit = len(ends), index[(tuple(range(1, n + 1)),) * 2]
    top_of = [dict(zip(bottom, top)) for top, bottom in ends]
    # The diagrams with n - 1 arcs generate PR(n) with the identity.
    right = [[index[_pr_compose(t, *g)] for t in top_of] for g in ends if len(g[0]) == n - 1]
    structure = _right_cayley_table(dim, unit, right, [*range(dim)], [1] * dim)
    sigma = AntiInvolution.signed_permutation([index[bottom, top] for top, bottom in ends])
    labels = tuple(d.label() for d in diagrams)
    return Algebra(labels, structure, unit_vector(dim, unit)), sigma


def _right_cayley_table(dim: int, unit: int, right, targets, coefficients):
    """The product table of a diagram monoid, walked along its right Cayley
    graph (Froidure and Pin, "Algorithms for computing finite semigroups",
    1997), as `Algebra` quads by row: e_i e_j is c e_k with k, c =
    `targets[s]`, `coefficients[s]`, s the state of d_i d_j.  State k < dim
    is d_k, and l * dim + k is delta^l d_k (l closed loops).  `right[g][s]`
    is the state of (state s) g for generator g.
    Proof: column `unit` is d_i 1 = d_i.  Column j is filled once, from a
    filled column j' along an edge d_j' g = d_j closing no loop (right[g][j']
    = j < dim); concatenation is associative and adds loops, so
    d_i d_j = (d_i d_j') g and column j is right[g] read at column j'.  That
    the generators reach every diagram so is checked here: a column left
    unfilled raises InternalConsistencyError.  |G| dim compositions and one
    lookup per product, not dim^2 compositions: in-process (2-vCPU Xeon,
    CPython 3.11.7), TL_3(6) 39 -> 9 ms, PR(6) 0.97 -> 0.41 s (README).
    """
    columns: list = [None] * dim
    columns[unit] = list(range(dim))
    reached = [unit]
    for source in reached:  # grows as the walk reaches new columns
        for edges in right:
            j = edges[source]
            if j < dim and columns[j] is None:
                columns[j] = list(map(edges.__getitem__, columns[source]))
                reached.append(j)
    if len(reached) < dim:
        raise InternalConsistencyError(f"the generators reach {len(reached)} of {dim} diagrams")
    return itertools.chain.from_iterable(
        zip(itertools.repeat(i), range(dim), map(targets.__getitem__, row),
            map(coefficients.__getitem__, row))
        for i, row in enumerate(zip(*columns)))


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


class TLDiagram(_Diagram):
    """Perfect non-crossing matching of n top points (1..n) and n bottom
    points (n+1..2n, numbered left to right)."""

    _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: tuple[tuple[int, int], ...]):
        seen = set()
        for a, b in pairs:
            if not (1 <= a < b <= 2 * n):
                raise ValueError("pair endpoints out of range or unordered")
            seen.update((a, b))
        if len(seen) != 2 * n or len(pairs) != n:
            raise ValueError("pairs must form a perfect matching")
        if list(pairs) != sorted(pairs):
            raise ValueError("pairs must be sorted")
        if not _is_noncrossing(n, pairs):
            raise ValueError("matching has crossing arcs")
        vars(self).update(n=n, pairs=pairs)

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
    identity, dim, right = TLDiagram.identity(n).mates(), len(mates), []
    for a in range(1, n):  # e_a: cups at a, a + 1 on both rows, other strands straight
        straight = [(p, n + p) for p in range(1, n + 1) if p not in (a, a + 1)]
        e_a = TLDiagram.from_pairs(n, [(a, a + 1), (n + a, n + a + 1), *straight]).mates()
        column = [loops * dim + index[p] for p, loops in (_tl_compose(d, e_a) for d in mates)]
        right.append([loops * dim + s for loops in range(len(powers)) for s in column])
    targets, coefficients = [*range(dim)] * len(powers), [p for p in powers for _ in range(dim)]
    structure = _right_cayley_table(dim, index[identity], right, targets, coefficients)
    unit = unit_vector(dim, index[identity])
    flipped = lambda m: tuple((q + n) % (2 * n) for q in m[n:] + m[:n])  # p <-> p + n mod 2n
    sigma = AntiInvolution.signed_permutation([index[flipped(m)] for m in mates])
    labels = tuple(d.label() for d in diagrams)
    return Algebra(labels, structure, unit), sigma
