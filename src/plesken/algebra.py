"""Finite-dimensional associative algebras with anti-involution.

An `Algebra` is a labeled basis together with a sparse structure-constant
tensor: the product of basis elements e_i * e_j is stored as a short list of
(k, coefficient) terms.  An `AntiInvolution` acts on coefficient vectors by
a matrix, optionally composed with entrywise scalar conjugation (needed for
conjugate-transposition, which is semilinear rather than linear over Q(i)).
Vectors are sparse {index: scalar} terms inside: products go through
`linalg.bilinear_product`, and sigma sums the sparse images of the basis
vectors.  `multiply_vectors` and `apply_vector` are dense wrappers over
them.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    Terms,
    Vector,
    bilinear_product,
    combine,
    dense,
    difference,
    reduce_by,
    sparse,
    unit_vector,
    vec_sub,
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
                if c := exact(c):
                    table[(i, j)] = shared.setdefault((k, c), ((k, c),))
                continue
            merged = combine((k, exact(c)) for k, c in [*table.pop((i, j), ()), *terms])
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

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

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


@dataclass(frozen=True)
class AntiInvolution:
    """Action of sigma on coefficient vectors.

    `matrix` is applied after entrywise scalar conjugation of the input when
    `conjugates_scalars` is set (conjugate-transposition on matrix algebras
    over Q(i) is of this semilinear kind).  In both cases sigma squares to
    the identity and reverses products.
    """

    matrix: Matrix
    conjugates_scalars: bool = False

    @cached_property
    def images(self) -> tuple[dict[int, GaussianRational], ...]:
        """sigma(e_j) for each j as sparse terms: the columns of `matrix`."""
        m = self.matrix
        return tuple(sparse(column, m.rows) for column in zip(*m.data))

    @cached_property
    def _signed_permutation(self):
        # (perm, signs) with column j supported at row perm[j]; None if the
        # matrix is not a signed permutation.  The document shorthand.
        entries = [tuple(image.items()) for image in self.images]
        perm = tuple(e[0][0] for e in entries if len(e) == 1 and e[0][1] in (1, -1))
        if self.matrix.rows != self.matrix.cols or sorted(perm) != list(range(len(entries))):
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
        n = self.matrix.rows
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
        images = self.images
        return combine((i, c * d) for j, c in v.items() for i, d in images[j].items())

    def skew_terms(self, v: Mapping[int, GaussianRational]) -> dict[int, GaussianRational]:
        """v - sigma(v) for sparse v."""
        return difference(v, self.image(v))

    def apply_vector(self, v: Sequence) -> Vector:
        return dense(self.matrix.rows, self.image(sparse(v, self.matrix.cols)))


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

    Every builder family has a monomial table: each stored product e_i e_j
    is a single term c e_k.  Such a table is read once into rows
    {j: (k, c)} of its stored terms.  The same loop then compares one
    (target, coefficient) pair per side, None for a zero product, so the
    witness is the same.  A table with a product of two or more terms runs
    the loop over `combine`d sums instead.
    """
    rows = _monomial_rows(algebra)
    if rows is None:
        return _associativity_by_sums(algebra)
    n = algebra.dim
    for i in range(n):
        row_i = rows[i]
        for j in algebra.generators:
            ij = row_i.get(j)
            row_j = rows[j]
            row_l = rows[ij[0]] if ij is not None else {}
            for k in range(n):
                left = right = None
                lk = row_l.get(k)
                if lk is not None:
                    left = (lk[0], ij[1] * lk[1])
                jk = row_j.get(k)
                if jk is not None:
                    il = row_i.get(jk[0])
                    if il is not None:
                        right = (il[0], jk[1] * il[1])
                if left != right:
                    return (i, j, k)
    return None


def _monomial_rows(algebra: Algebra) -> Optional[list[dict[int, tuple]]]:
    """rows[i][j] = (k, c) with e_i e_j = c e_k; None if some product has
    two or more terms."""
    rows: list[dict[int, tuple]] = [{} for _ in range(algebra.dim)]
    for (i, j), terms in algebra.structure.items():
        if len(terms) != 1:
            return None
        rows[i][j] = terms[0]
    return rows


def _associativity_by_sums(algebra: Algebra) -> Optional[tuple[int, int, int]]:
    get = algebra.structure.get
    n = algebra.dim
    generators = algebra.generators
    for i in range(n):
        for j in generators:
            t_ij = get((i, j), ())
            for k in range(n):
                left = combine((m, c * d) for l, c in t_ij for m, d in get((l, k), ()))
                right = combine(
                    (m, c * d) for l, c in get((j, k), ()) for m, d in get((i, l), ())
                )
                if left != right:
                    return (i, j, k)
    return None


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


@dataclass(frozen=True)
class InvolutionFailure:
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
    if sigma.matrix.rows != algebra.dim or sigma.matrix.cols != algebra.dim:
        return InvolutionFailure("shape", (sigma.matrix.rows, sigma.matrix.cols))
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


def skew_part(sigma: AntiInvolution, v: Sequence) -> Vector:
    """v - sigma(v)."""
    return dense(sigma.matrix.rows, sigma.skew_terms(sparse(v, sigma.matrix.cols)))


def plesken_subspace(algebra: Algebra, sigma: AntiInvolution) -> Subspace:
    """Canonical basis of the span of all a - sigma(a), computed once per sigma.

    The skew part depends on the algebra only through its dimension.
    """
    if sigma.matrix.rows != algebra.dim or sigma.matrix.cols != algebra.dim:
        raise ValueError("involution matrix shape does not match the algebra")
    return sigma.skew_subspace


def plesken_lie_algebra(algebra: Algebra, sigma: AntiInvolution) -> "LieAlgebra":
    """The Lie algebra on the skew part, with brackets expressed in its basis.

    Each bracket xy - yx of skew basis rows sums the product terms read in
    place from `algebra.structure`.  A row is 1 at its pivot and 0 at the
    others, so the coordinates are the entries at the pivots.  A remainder after taking
    off those rows would mean the bracket left the subspace, which the
    closure identity rules out.
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


@dataclass(frozen=True)
class ClosureCounterexample:
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
    reproducible.
    """
    rng = random.Random(seed)
    sub = plesken_subspace(algebra, sigma)
    mul = algebra.multiply_vectors

    def hat(v):
        return skew_part(sigma, v)
    for trial in range(samples):
        a = vector(rng.randint(-9, 9) for _ in range(algebra.dim))
        b = vector(rng.randint(-9, 9) for _ in range(algebra.dim))
        sa = sigma.apply_vector(a)
        sb = sigma.apply_vector(b)
        ha, hb = hat(a), hat(b)
        lhs = vec_sub(mul(ha, hb), mul(hb, ha))
        rhs = vec_sub(
            vec_sub(hat(mul(a, b)), hat(mul(a, sb))),
            vec_sub(hat(mul(sa, b)), hat(mul(sa, sb))),
        )
        if lhs != rhs:
            return ClosureCounterexample(trial, a, b, "four-term identity failed")
        if not sub.contains(lhs):
            return ClosureCounterexample(trial, a, b, "bracket left the skew part")
    return None
