"""Finite-dimensional associative algebras with anti-involution.

An `Algebra` is a labeled basis together with a sparse structure-constant
tensor: the product of basis elements e_i * e_j is stored as a short list of
(k, coefficient) terms.  An `AntiInvolution` is held as the sparse images
sigma(e_j), optionally composed with entrywise scalar conjugation (needed
for conjugate-transposition, which is semilinear rather than linear over
Q(i)); on a cellular basis sigma permutes the basis up to sign, and
`AntiInvolution.signed_permutation` builds it so.  Vectors are sparse
{index: scalar} terms, summed by `linalg.combine`: products go through
`linalg.bilinear_product`, `sigma.image` sums the images and the skew part
v - sigma(v), `sigma.skew_terms`, is one more `combine`.  The one dense
wrapper, `multiply_vectors`, is kept for callers outside the package; no
code here calls it.

The central construction here is the skew part of the involution: the span
of all a - sigma(a), which is closed under the commutator bracket and hence
a Lie algebra.  It is spanned by the skew parts of the basis vectors, and of
their imaginary multiples when sigma conjugates scalars.  For linear sigma,
(1 + sigma)(1 - sigma) = 1 - sigma^2, so sigma(r) = -r on that span exactly
when sigma^2 = id; then (Q(i) having characteristic zero) the span is the
whole (-1)-eigenspace.  It is held as its sparse echelon rows, `Subspace.rows`.

The validators prove associativity and the anti-homomorphism law exactly,
but only for factors in `Algebra.generators`, a generating set whose
spanning is itself proved; the exhaustive scans live on as test oracles.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .linalg import (
    Echelon,
    Subspace,
    Terms,
    Vector,
    bilinear_product,
    combine,
    dense,
    reduce_by,
    sparse,
    vector,
)
from .scalars import I, GaussianRational, exact


class InternalConsistencyError(RuntimeError):
    """A condition that the mathematics guarantees was violated anyway."""


class Algebra:
    """Associative algebra given by labeled basis, structure tensor and unit."""

    def __init__(self, labels: Sequence[str], structure, unit: Sequence):
        """`structure` maps basis index pairs (i, j) to the (k, c) terms of
        e_i e_j, or is an iterable of ((i, j), terms) items in which a pair
        may recur, its terms then summed.  Every index must be an int (not a
        bool) in range; coefficients are read by `exact`.  A single term on
        a new pair is stored as read, one tuple per distinct term, or not at
        all if zero; only a recurring pair or several terms are summed."""
        self.labels = tuple(labels)
        n = self.dim = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("basis labels must be distinct")
        self.unit = vector(unit)
        if len(self.unit) != n:
            raise ValueError("unit vector has wrong length")

        def index(v) -> bool:
            return type(v) is int and 0 <= v < n

        strings: dict[str, int | GaussianRational] = {}

        def read(c):  # `exact`, each distinct string read once
            if type(c) is not str:
                return exact(c)
            return strings[c] if c in strings else strings.setdefault(c, exact(c))

        items = structure.items() if isinstance(structure, Mapping) else structure
        table: dict[tuple[int, int], Terms] = {}
        shared: dict[tuple, Terms] = {}
        for (i, j), terms in items:
            if not (index(i) and index(j)):
                raise ValueError(f"structure index out of range: {(i, j)}")
            terms = tuple(terms)
            for k, _ in terms:
                if not index(k):
                    raise ValueError(f"structure target out of range: {k}")
            if len(terms) == 1 and (i, j) not in table:
                ((k, c),) = terms
                if c := read(c):
                    table[(i, j)] = shared.setdefault((k, c), ((k, c),))
                continue
            merged = combine(((1, table.pop((i, j), ())), (1, [(k, read(c)) for k, c in terms])))
            if merged:  # a sum of non-integral values can be an integer
                table[(i, j)] = tuple(sorted((k, exact(c)) for k, c in merged.items()))
        self.structure = table

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.labels == other.labels
            and self.unit == other.unit
            and self.structure == other.structure
        )

    __hash__ = None

    def __repr__(self):
        return f"Algebra(dim={self.dim})"

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Sorted basis indices G whose products span the algebra, proved.

        Indices are taken greedily, those with the most distinct targets of
        ei ej and ej ei over all j first, ties by index; one already in the
        span found so far is skipped.  After each is taken, the span is
        closed under right multiplication by every index taken, in an exact
        `Echelon` over Q(i).  Every vector of the span is then a
        combination of products of generators, so a subspace that contains
        G and is closed under products contains the whole algebra once the
        span has dimension n.  No unit and no associativity are assumed.
        """
        n = self.dim
        targets: list[set[int]] = [set() for _ in range(n)]
        for (i, j), terms in self.structure.items():
            for k, _ in terms:
                targets[i].add(k)
                targets[j].add(k)
        span = Echelon(n)

        def times(v: dict[int, GaussianRational], g: int) -> dict[int, GaussianRational]:
            return bilinear_product(self.structure, v, {g: 1})

        generators: list[int] = []
        for b in sorted(range(n), key=lambda b: (-len(targets[b]), b)):
            if len(span.rows) == n:
                break
            if not reduce_by(span.rows, {b: 1}):
                continue
            generators.append(b)
            pending = [{b: 1}] + [times(v, b) for v in span.rows.values()]
            while pending:
                row = span.insert(pending.pop())
                if row:
                    pending.extend(times(row, g) for g in generators)
        if len(span.rows) != n:
            raise InternalConsistencyError("products of the generators do not span the algebra")
        return tuple(sorted(generators))

    def product_terms(self, i: int, j: int) -> Terms:
        return self.structure.get((i, j), ())

    def multiply_vectors(self, x: Sequence, y: Sequence) -> Vector:
        n = self.dim
        return dense(n, bilinear_product(self.structure, sparse(x, n), sparse(y, n)))

def describe_vector(labels: Sequence[str], terms: Iterable[tuple[int, GaussianRational]]) -> str:
    """Human-readable linear combination of (index, coefficient) terms, e.g.
    '2*k' or 'E12-E21', in the order given; a dense v is `enumerate(v)`."""
    parts = []
    for k, c in terms:
        if not c:
            continue
        label = labels[k]
        if c == 1:
            term = label
        elif c == -1:
            term = f"-{label}"
        else:
            text = str(c)
            if "+" in text[1:] or "-" in text[1:]:
                text = f"({text})"
            term = f"{text}*{label}"
        if parts and not term.startswith("-"):
            parts.append(f"+{term}")
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


class AntiInvolution:
    """Action of sigma on coefficient vectors.

    `images[j]` is sigma(e_j) as sparse terms {index: scalar}, by ascending
    index, entries read by `exact` and zeros dropped; every index must be
    an int (not a bool) in range(len(images)).  Sigma is applied after
    entrywise scalar conjugation of the input when `conjugates_scalars` is
    set (conjugate-transposition on matrix algebras over Q(i) is of this
    semilinear kind).  In both cases sigma squares to the identity and
    reverses products.  The images are dicts, so an `AntiInvolution` is
    not hashable.
    """

    def __init__(self, images: Sequence[Mapping[int, GaussianRational]], conjugates_scalars=False):
        n = len(images)
        stored = []
        for image in images:
            for k in image:
                if not (type(k) is int and 0 <= k < n):
                    raise ValueError(f"involution image index out of range: {k!r}")
            stored.append({k: e for k, c in sorted(image.items()) if (e := exact(c))})
        self.images = tuple(stored)
        self.conjugates_scalars = conjugates_scalars

    def __eq__(self, other):
        return isinstance(other, AntiInvolution) and (
            (self.images, self.conjugates_scalars) == (other.images, other.conjugates_scalars)
        )

    __hash__ = None

    def __repr__(self):
        conj = self.conjugates_scalars
        return f"AntiInvolution(dim={len(self.images)}, conjugates_scalars={conj})"

    @classmethod
    def signed_permutation(cls, perm: Sequence[int], signs=None, conjugates_scalars=False):
        """sigma(e_j) = signs[j] e_perm[j], every sign 1 when `signs` is None."""
        signs = (1,) * len(perm) if signs is None else signs
        return cls(tuple({p: c} for p, c in zip(perm, signs, strict=True)), conjugates_scalars)

    @cached_property
    def _signed_permutation(self):
        # (perm, signs) with image j supported at perm[j]; None if sigma is
        # not a signed permutation.  The document shorthand.
        entries = [tuple(image.items()) for image in self.images]
        perm = tuple(e[0][0] for e in entries if len(e) == 1 and e[0][1] in (1, -1))
        if sorted(perm) != list(range(len(entries))):
            return None
        return perm, tuple(e[0][1] for e in entries)

    @cached_property
    def skew_subspace(self) -> Subspace:
        """Canonical basis of the span of all a - sigma(a) in Q(i)^n.

        The span of the skew parts of the e_j, and of the i e_j when sigma
        conjugates scalars, since the skew-part map is then only Q-linear.
        For linear sigma each row r must satisfy sigma(r) = -r, which holds
        exactly when sigma^2 = id and makes the span the (-1)-eigenspace.
        """
        n = len(self.images)
        scalars = (1, I) if self.conjugates_scalars else (1,)
        span = Echelon(n, (self.skew_terms({j: c}) for j in range(n) for c in scalars))
        if not self.conjugates_scalars:
            for row in span.rows.values():
                if self.image(row) != {k: -c for k, c in row.items()}:
                    raise InternalConsistencyError(
                        "(-1)-eigenspace differs from the span of the generators"
                    )
        return span.subspace()

    def image(self, v: Mapping[int, GaussianRational]) -> dict[int, GaussianRational]:
        """sigma(v) for sparse v: the images of the basis vectors, summed."""
        if self.conjugates_scalars:
            v = {k: c.conjugate() for k, c in v.items()}
        return combine((c, self.images[j].items()) for j, c in v.items())

    def skew_terms(self, v: Mapping[int, GaussianRational]) -> dict[int, GaussianRational]:
        """v - sigma(v) for sparse v."""
        return combine(((1, v.items()), (-1, self.image(v).items())))


def validate_associativity(algebra: Algebra) -> Optional[tuple[int, int, int]]:
    """A basis triple (i, g, k) with (ei eg) ek != ei (eg ek), else None.

    Light's associativity test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, section 1.2): only middle indices g in the proved
    generating set `algebra.generators` are checked, n^2 |G| triples instead
    of n^3.  The elements a with (x a) y = x (a y) for all x, y form a
    subspace S, closed under products: for a, b in S,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  So S contains
    every product of generators and hence the whole algebra.  The triple
    returned is the lexicographically first failing one whose middle index
    is in G.

    The table is read once into rows {j: terms of e_i e_j}.  For each pair
    (i, g) both sides are rows over k of sorted nonzero terms: the left
    side k -> (ei eg) ek is the stored row of the target of ei eg when that
    product is one term c e_l (scaled by c), else a sum of stored rows; the
    right side k -> ei (eg ek) reads row i at the targets of row g.  The
    two rows are compared whole, and scanned for the first differing k only
    when they differ.
    """
    n = algebra.dim
    rows: list[dict[int, Terms]] = [{} for _ in range(n)]
    for (i, j), terms in algebra.structure.items():
        rows[i][j] = terms
    for i in range(n):
        row_i = rows[i]
        for g in algebra.generators:
            ig = row_i.get(g, ())
            if len(ig) == 1:  # single terms are scaled inline: a call per entry costs more
                ((l, c),) = ig
                left = rows[l] if c == 1 else {
                    k: ((t[0][0], c * t[0][1]),) if len(t) == 1 else _sum(((c, t),))
                    for k, t in rows[l].items()
                }
            else:
                targets = {k for l, _ in ig for k in rows[l]}
                left = {k: s for k in targets if (s := _sum((c, rows[l].get(k, ())) for l, c in ig))}
            right = {}
            for k, gk in rows[g].items():
                if len(gk) != 1:
                    if s := _sum((c, row_i.get(l, ())) for l, c in gk):
                        right[k] = s
                elif (t := row_i.get(gk[0][0])) is not None:
                    c = gk[0][1]
                    if c == 1:
                        right[k] = t
                    else:
                        right[k] = ((t[0][0], c * t[0][1]),) if len(t) == 1 else _sum(((c, t),))
            if left != right:
                for k in range(n):
                    if left.get(k) != right.get(k):
                        return (i, g, k)
    return None


def _sum(scaled: Iterable[tuple[GaussianRational, Terms]]) -> Terms:
    """Sorted nonzero terms of the sum of c * terms over (c, terms) pairs."""
    return tuple(sorted(combine(scaled).items()))


def validate_unit(algebra: Algebra) -> Optional[int]:
    """First basis index where unit * e_i != e_i or e_i * unit != e_i, else None."""
    unit = sparse(algebra.unit, algebra.dim)
    for i in range(algebra.dim):
        e = {i: 1}
        if bilinear_product(algebra.structure, unit, e) != e:
            return i
        if bilinear_product(algebra.structure, e, unit) != e:
            return i
    return None


class InvolutionFailure(NamedTuple):
    kind: str  # "shape", "square" or "antihomomorphism"
    witness: tuple

    def __str__(self):
        if self.kind == "shape":
            return "involution matrix shape does not match the algebra"
        if self.kind == "square":
            return f"sigma^2 != id at basis index {self.witness[0]}"
        return f"sigma(ei ej) != sigma(ej) sigma(ei) at basis pair {self.witness}"


def validate_involution(
    algebra: Algebra, sigma: AntiInvolution
) -> Optional[InvolutionFailure]:
    """Check sigma^2 = id on the basis and sigma(eg ej) = sigma(ej) sigma(eg)
    for g in the proved generating set `algebra.generators` and every j.

    Precondition: the algebra is associative, as `validate_associativity`
    proves; `validate_algebra` runs it first.  Then the elements a with
    sigma(a y) = sigma(y) sigma(a) for all y form a Q(i)-subspace T (also
    for semilinear sigma), closed under products: for a, b in T,
    sigma((ab)y) = sigma(a(by)) = sigma(by) sigma(a) = sigma(y) sigma(b) sigma(a),
    and sigma(b) sigma(a) = sigma(ab) because a is in T.  So T contains
    every product of generators and hence the whole algebra.  On a
    non-associative algebra a failing pair outside G can go unseen.
    """
    if len(sigma.images) != algebra.dim:
        return InvolutionFailure("shape", (len(sigma.images),) * 2)
    images = sigma.images
    for i in range(algebra.dim):
        if sigma.image(images[i]) != {i: 1}:
            return InvolutionFailure("square", (i,))
    get = algebra.structure.get
    for i in algebra.generators:
        for j in range(algebra.dim):
            lhs = sigma.image(dict(get((i, j), ())))
            rhs = bilinear_product(algebra.structure, images[j], images[i])
            if lhs != rhs:
                return InvolutionFailure("antihomomorphism", (i, j))
    return None


def plesken_subspace(algebra: Algebra, sigma: AntiInvolution) -> Subspace:
    """Canonical basis of the span of all a - sigma(a), computed once per sigma.

    The skew part depends on the algebra only through its dimension.
    """
    if len(sigma.images) != algebra.dim:
        raise ValueError("involution matrix shape does not match the algebra")
    return sigma.skew_subspace


def plesken_lie_algebra(algebra: Algebra, sigma: AntiInvolution) -> "LieAlgebra":
    """The Lie algebra on the skew part, with brackets expressed in its basis.

    Each bracket xy - yx of skew basis rows sums the product terms read in
    place from `algebra.structure`.  A row is 1 at its pivot and 0 at the
    others, so the coordinates are the entries at the pivots; a remainder
    after taking off those rows would mean the bracket left the subspace,
    which the closure identity rules out.  Both loops are written out here:
    as `linalg.combine` and `reduce_by` they took the TL_3(6) table from 18
    to 27 ms and PR(5) from 68 to 99 ms, and with `reduce_by` alone to 24
    and 90 ms (best of 7, 2-vCPU, CPython 3.11.7).
    """
    from .lie import LieAlgebra

    get = algebra.structure.get
    sub = plesken_subspace(algebra, sigma)
    rows = list(sub.rows.values())
    position = {p: r for r, p in enumerate(sub.rows)}
    table: dict[tuple[int, int], list] = {}
    for a, x in enumerate(rows):
        for b in range(a + 1, len(rows)):
            y = rows[b]
            z: dict = {}
            for i, c in x.items():
                for j, d in y.items():
                    cd = c * d
                    for k, e in get((i, j), ()):
                        z[k] = z.get(k, 0) + cd * e
                    for k, e in get((j, i), ()):
                        z[k] = z.get(k, 0) - cd * e
            terms = sorted((position[p], c) for p, c in z.items() if c and p in position)
            for r, c in terms:
                for k, d in rows[r].items():
                    z[k] = z.get(k, 0) - c * d
            if any(z.values()):
                raise InternalConsistencyError(
                    f"bracket of basis pair ({a}, {b}) left the skew part"
                )
            if terms:
                table[(a, b)] = terms
    return LieAlgebra(lie_labels(algebra.labels, rows), table)


def lie_labels(ambient_labels: Sequence[str], rows: Iterable[Mapping]) -> list[str]:
    """Labels of the skew basis, given as sparse rows in index order: a row of
    at most two terms +-1 written out in at most 24 characters, else x{r};
    x{r} for all on a collision."""
    labels = []
    for r, row in enumerate(rows):
        short = len(row) <= 2 and all(c in (1, -1) for c in row.values())
        text = describe_vector(ambient_labels, row.items()) if short else ""
        labels.append(text if short and len(text) <= 24 else f"x{r}")
    if len(set(labels)) != len(labels):
        labels = [f"x{r}" for r in range(len(labels))]
    return labels


class ClosureCounterexample(NamedTuple):
    sample: int
    a: Vector
    b: Vector
    reason: str


def bracket_closure_check(
    algebra: Algebra,
    sigma: AntiInvolution,
    samples: int,
    *,
    seed: int,
) -> Optional[ClosureCounterexample]:
    """Randomized check of the four-term closure identity.

    For random a, b the bracket of the skew parts must equal
    hat(ab) - hat(a sigma(b)) - hat(sigma(a) b) + hat(sigma(a) sigma(b)),
    and must lie in the span of the skew part.  Coefficients are drawn
    uniformly from the integers -9..9, so reruns with the same seed are
    reproducible; a counterexample carries a and b as dense tuples.
    """
    rng = random.Random(seed)
    n = algebra.dim
    rows = plesken_subspace(algebra, sigma).rows
    hat = sigma.skew_terms

    def mul(x, y):
        return bilinear_product(algebra.structure, x, y)

    for trial in range(samples):
        a = vector(rng.randint(-9, 9) for _ in range(n))
        b = vector(rng.randint(-9, 9) for _ in range(n))
        x, y = sparse(a, n), sparse(b, n)
        sx, sy = sigma.image(x), sigma.image(y)
        hx, hy = hat(x), hat(y)
        lhs = combine(((1, mul(hx, hy).items()), (-1, mul(hy, hx).items())))
        rhs = combine((c, hat(mul(u, v)).items())
                      for c, u, v in ((1, x, y), (-1, x, sy), (-1, sx, y), (1, sx, sy)))
        if lhs != rhs:
            return ClosureCounterexample(trial, a, b, "four-term identity failed")
        if reduce_by(rows, lhs):
            return ClosureCounterexample(trial, a, b, "bracket left the skew part")
    return None
