"""Finite-dimensional associative algebras with anti-involution.

An `Algebra` is a labeled basis together with a sparse structure-constant
tensor, stored once and by row: the product e_i * e_j is `rows[i][j]`, a
short tuple of (k, coefficient) terms, and a j missing from `rows[i]` has
product zero.  An `AntiInvolution` is held as the sparse images sigma(e_j),
optionally composed with entrywise scalar conjugation (needed for
conjugate-transposition, which is semilinear rather than linear over Q(i));
on a cellular basis sigma permutes the basis up to sign, and
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
They, axiom C3 and the Lie table read the table by row; on a dense table of
one-term products, `generators` and Light's test read the lists of the view
`monomial`.  The view, `generators` and `cols` are computed once, on first use.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import itemgetter
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

    def __init__(self, labels: Sequence[str], structure: Iterable[Sequence], unit: Sequence):
        """`structure` is an iterable of (i, j, k, c) quads, the document's
        own form: e_i e_j has the term c e_k, and a pair (i, j) may recur,
        its terms then summed.  Every index must be an int (not a bool) in
        range, the target checked before `exact` reads c, each distinct
        string once.  A term on a new pair is stored as read, one tuple per
        distinct term, or not at all if zero; only a recurring pair is
        summed, and the terms of e_i e_j go to `rows[i][j]`."""
        self.labels = tuple(labels)
        n = self.dim = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("basis labels must be distinct")
        self.unit = vector(unit)
        if len(self.unit) != n:
            raise ValueError("unit vector has wrong length")

        strings: dict[str, int | GaussianRational] = {}
        rows: list[dict[int, Terms]] = [{} for _ in range(n)]
        shared: dict[tuple, Terms] = {}
        for i, j, k, c in structure:
            if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
                raise ValueError(f"structure index out of range: {(i, j)}")
            if not (type(k) is int and 0 <= k < n):
                raise ValueError(f"structure target out of range: {k}")
            if type(c) is str:
                c = strings[c] if c in strings else strings.setdefault(c, exact(c))
            elif type(c) is not int:
                c = exact(c)
            row = rows[i]
            if j not in row:
                if c:
                    row[j] = shared.get((k, c)) or shared.setdefault((k, c), ((k, c),))
                continue
            merged = combine(((1, row.pop(j)), (1, ((k, c),))))
            if merged:  # a sum of non-integral values can be an integer
                row[j] = tuple(sorted((k, exact(c)) for k, c in merged.items()))
        self.rows = rows

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.labels == other.labels
            and self.unit == other.unit
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self):
        return f"Algebra(dim={self.dim})"

    def product_terms(self, i: int, j: int) -> Terms:
        return self.rows[i].get(j, ())

    def multiply_vectors(self, x: Sequence, y: Sequence) -> Vector:
        n = self.dim
        return dense(n, bilinear_product(self.rows, sparse(x, n), sparse(y, n)))

    @cached_property
    def cols(self) -> list[list[int]]:
        """`cols[j]`: the i with e_i e_j stored, ascending."""
        cols: list[list[int]] = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.rows):
            for j in row:
                cols[j].append(i)
        return cols

    @cached_property
    def monomial(self) -> Optional[tuple[list[list[int]], Optional[list[list]]]]:
        """(targets, coefficients), e_i e_j = coefficients[i][j] e_targets[i][j].

        One list of length n + 1 per row and a zero row n, index n standing
        for the zero product (coefficient 0); `coefficients` is None when
        every stored one is 1.  None unless every stored product is one term
        and at least n^2 / 4 are stored: a sparse table (C^n) stays on rows."""
        rows, n = self.rows, self.dim
        stored = sum(map(len, rows))
        if 4 * stored < n * n:
            return None
        targets, ones = [[n] * (n + 1) for _ in range(n + 1)], True
        try:
            for row, t in zip(rows, targets):
                for j, ((k, x),) in row.items():
                    t[j], ones = k, ones and x == 1
        except ValueError:  # a product of several terms
            return None
        return targets, None if ones else [
            [row[j][0][1] if j in row else 0 for j in range(n + 1)] for row in (*rows, {})]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Sorted basis indices G whose products span the algebra, proved.

        Candidates b come least `single[b]` first, the number of e_i e_j =
        c e_b with i != b != j, then with the most distinct targets of e_b e_j
        and e_j e_b, then by index; one in the span so far is skipped.  Each
        one taken closes the span under right multiplication by all taken, in
        an exact `Echelon` or, on the `monomial` view, as the indices reached,
        through stored products only; a span of dimension n proves G
        generating, with no unit or associativity assumed.  The order only
        picks which G: each proof holds for any spanning G."""
        if self.monomial:
            return self._reachable_generators(self.monomial[0])
        rows, cols, n = self.rows, self.cols, self.dim
        single = Counter(t[0][0] for i, row in enumerate(rows) for j, t in row.items()
                         if len(t) == 1 and i != t[0][0] != j)

        def key(b: int) -> tuple[int, int, int]:
            targets = {k for t in rows[b].values() for k, _ in t}
            if len(targets) < n:  # else column b adds none
                targets.update(k for i in cols[b] for k, _ in rows[i][b])
            return single[b], -len(targets), b
        span, generators = Echelon(n), []
        rows_at, gens_at = [[] for _ in range(n)], [[] for _ in range(n)]
        for b in sorted(range(n), key=key):
            if len(span.rows) == n or not reduce_by(span.rows, {b: 1}):
                continue
            generators.append(b)
            for i in cols[b]:
                gens_at[i].append(b)  # gens_at[k]: the g taken with e_k e_g stored
            old = {id(r): r for i in cols[b] for r in rows_at[i]}  # the r with r e_b != 0
            pending = [{b: 1}, *(self.times(r, b) for r in old.values())]
            while pending:
                v = pending.pop()
                if len(v) == 1 and len(span.rows.get(next(iter(v)), ())) == 1:
                    continue  # c e_k with e_k a row already
                if r := span.insert(v):
                    for k in r:
                        rows_at[k].append(r)  # rows_at[k]: the rows found with k, unchanged
                    pending.extend(self.times(r, g) for g in {g for k in r for g in gens_at[k]})
        if len(span.rows) != n:
            raise InternalConsistencyError("products of the generators do not span the algebra")
        return tuple(sorted(generators))

    def _reachable_generators(self, targets: list[list[int]]) -> tuple[int, ...]:
        """`generators` on the `monomial` view: e_k e_g is c e_l with c != 0, or
        zero, so the span of the products is that of the indices reached."""
        n, span = self.dim, range(self.dim)
        count, columns = Counter(chain.from_iterable(targets)), list(zip(*targets))

        def key(b: int) -> tuple[int, int, int]:
            row, col = targets[b], columns[b]
            found = set(row)  # n, the zero product, among them
            if len(found) <= n:  # else column b adds none
                found.update(col)
            single = count[b] - row.count(b) - col.count(b) + (row[b] == b)  # less i = b or j = b
            return single, 1 - len(found), b
        reached, generators = {n}, []
        for b in sorted(span, key=key):
            if len(reached) > n or b in reached:
                continue
            generators.append(b)
            pending = [b, *(targets[k][b] for k in reached)]
            while pending:
                if (k := pending.pop()) not in reached:
                    reached.add(k)
                    pending.extend(map(targets[k].__getitem__, generators))
        if len(reached) <= n:
            raise InternalConsistencyError("products of the generators do not span the algebra")
        return tuple(sorted(generators))

    def times(self, v: Mapping[int, GaussianRational], g: int) -> dict[int, GaussianRational]:
        """v e_g, read at v or at the stored e_i e_g, whichever are fewer."""
        rows, col = self.rows, self.cols[g]
        if len(v) == 1:  # a single term is read inline
            ((i, c),) = v.items()
            t = rows[i].get(g, ())
            return {t[0][0]: c * t[0][1]} if len(t) == 1 else combine(((c, t),))
        if len(col) < len(v):
            return combine((v[i], rows[i][g]) for i in col if i in v)
        return combine((c, t) for i, c in v.items() if (t := rows[i].get(g)))


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
    Semigroups I, section 1.2), on middle indices g in the proved generating
    set `algebra.generators` only.  The a with (x a) y = x (a y) for all x, y
    form a subspace S, closed under products: for a, b in S, (x(ab))y =
    ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so S is the whole algebra.
    The triple returned is the least of the first failures for each g in G.

    For each g only the i with ei eg, or ei el for a target l of row g,
    stored are visited; each side is a row over k, the rows compared whole,
    on the `monomial` view as lists (`_view_failure`).
    """
    n, rows, cols, view = algebra.dim, algebra.rows, algebra.cols, algebra.monomial
    live, failures = sum(1 for row in rows if row), []
    for g in algebra.generators:
        reach = set(cols[g])
        for l in {l for t in rows[g].values() for l, _ in t}:
            if len(reach) == live:
                break
            reach.update(cols[l])
        if view:
            if failure := _view_failure(*view, g, sorted(reach)):
                failures.append(failure)
            continue
        singles = [(k, *t[0]) for k, t in rows[g].items() if len(t) == 1]  # eg ek = c el
        several = [(k, t) for k, t in rows[g].items() if len(t) != 1]
        for i in sorted(reach):
            row_i = rows[i]
            ig = row_i.get(g, ())
            if len(ig) == 1:
                ((l, c),) = ig
                left = rows[l] if c == 1 else {k: ((t[0][0], c * t[0][1]),) if len(t) == 1
                                               else _sum(((c, t),)) for k, t in rows[l].items()}
            else:
                targets = {k for l, _ in ig for k in rows[l]}
                left = {k: s for k in targets if (s := _sum((c, rows[l].get(k, ())) for l, c in ig))}
            right = {k: t if c == 1 else ((t[0][0], c * t[0][1]),) if len(t) == 1
                     else _sum(((c, t),)) for k, l, c in singles if (t := row_i.get(l))}
            for k, gk in several:
                if s := _sum((c, row_i.get(l, ())) for l, c in gk):
                    right[k] = s
            if left != right:
                failures.append((i, g, next(k for k in range(n) if left.get(k) != right.get(k))))
                break
    return min(failures, default=None)


def _view_failure(T: list[list[int]], C: Optional[list[list]], g: int, visited) -> Optional[tuple]:
    """The first (i, g, k), i in `visited`, failing Light's test on the view:
    T[T[i][g]] against T[i] read at T[g], then C likewise, scaled where needed."""
    scaled = [(k, x) for k, x in enumerate(C[g]) if x not in (0, 1)] if C else ()
    at_g = itemgetter(*T[g])  # a row read at T[g]
    for i in visited:
        l = T[i][g]
        left, right = T[l], list(at_g(T[i]))
        if C:
            left_c = C[l] if C[i][g] == 1 else [C[i][g] * x for x in C[l]]
            right_c = list(at_g(C[i]))
            for k, x in scaled:  # C[g][k] is neither 0 nor 1
                right_c[k] *= x
        if left != right or C and left_c != right_c:
            return i, g, next(k for k in range(len(left)) if left[k] != right[k]
                              or C and left_c[k] != right_c[k])


def _sum(scaled: Iterable[tuple[GaussianRational, Terms]]) -> Terms:
    """Sorted nonzero terms of the sum of c * terms over (c, terms) pairs."""
    return tuple(sorted(combine(scaled).items()))


def validate_unit(algebra: Algebra) -> Optional[int]:
    """First basis index i where unit * e_i != e_i or e_i * unit != e_i, else
    None, each read at the unit or at column or row i, whichever is shorter."""
    unit = sparse(algebra.unit, algebra.dim)
    for i, row in enumerate(algebra.rows):
        if len(row) < len(unit):
            right = combine((unit[j], t) for j, t in row.items() if j in unit)
        else:
            right = combine((c, t) for j, c in unit.items() if (t := row.get(j)))
        if algebra.times(unit, i) != {i: 1} or right != {i: 1}:
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


def validate_involution(algebra: Algebra, sigma: AntiInvolution) -> Optional[InvolutionFailure]:
    """Check sigma^2 = id on the basis and sigma(eg ej) = sigma(ej) sigma(eg)
    for g in the proved generating set `algebra.generators` and every j.

    Precondition: the algebra is associative, as `validate_associativity`
    proves; `validate_algebra` runs it first.  Then the elements a with
    sigma(a y) = sigma(y) sigma(a) for all y form a Q(i)-subspace T (also
    for semilinear sigma), closed under products: for a, b in T,
    sigma((ab)y) = sigma(a(by)) = sigma(by) sigma(a) = sigma(y) sigma(b) sigma(a),
    and sigma(b) sigma(a) = sigma(ab) because a is in T.  So T contains
    every product of generators and hence the whole algebra; on a
    non-associative one a failing pair outside G can go unseen.  Only the j
    with eg ej, or some ea eb with a in sigma(ej), b in sigma(eg), stored are
    visited."""
    n, images = algebra.dim, sigma.images
    if len(images) != n:
        return InvolutionFailure("shape", (len(images),) * 2)
    for i in range(n):
        if sigma.image(images[i]) != {i: 1}:
            return InvolutionFailure("square", (i,))
    rows, cols = algebra.rows, algebra.cols
    preimages: list[list[int]] = [[] for _ in range(n)]  # a -> the j with a in sigma(ej)
    for j, image in enumerate(images):
        for a in image:
            preimages[a].append(j)
    for g in algebra.generators:
        row_g, image_g = rows[g], images[g]
        for j in sorted({*row_g, *(j for b in image_g for a in cols[b] for j in preimages[a])}):
            if len(t := row_g.get(j, ())) == 1:
                c = t[0][1].conjugate() if sigma.conjugates_scalars else t[0][1]
                lhs = {a: c * d for a, d in images[t[0][0]].items()}
            else:
                lhs = sigma.image(dict(t))
            if len(image_g) == 1:
                ((b, d),) = image_g.items()
                rhs = algebra.times({a: c * d for a, c in images[j].items()}, b)
            else:
                rhs = bilinear_product(rows, images[j], image_g)
            if lhs != rhs:
                return InvolutionFailure("antihomomorphism", (g, j))
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
    place from `algebra.rows`, the row of each index of x looked up once.  A
    row is 1 at its pivot and 0 at the others, so the coordinates are the
    entries at the pivots; a remainder after taking off those rows would
    mean the bracket left the subspace, which the closure identity rules
    out.  Both loops are written out here, not as `linalg.combine` and
    `reduce_by`, which took about 1.5x as long (README, the Lie table);
    `LieAlgebra` stores the half i < j it returns, each bracket's terms sorted.
    """
    from .lie import LieAlgebra

    table = algebra.rows
    sub = plesken_subspace(algebra, sigma)
    rows = list(sub.rows.values())
    position = {p: r for r, p in enumerate(sub.rows)}
    brackets: dict[tuple[int, int], list] = {}
    for a, x in enumerate(rows):
        for b in range(a + 1, len(rows)):
            y = rows[b]
            z: dict = {}
            for i, c in x.items():
                row = table[i]
                for j, d in y.items():
                    cd = c * d
                    for k, e in row.get(j, ()):
                        z[k] = z.get(k, 0) + cd * e
                    for k, e in table[j].get(i, ()):
                        z[k] = z.get(k, 0) - cd * e
            terms = [(position[p], c) for p, c in z.items() if c and p in position]
            for r, c in terms:
                for k, d in rows[r].items():
                    z[k] = z.get(k, 0) - c * d
            if any(z.values()):
                raise InternalConsistencyError(
                    f"bracket of basis pair ({a}, {b}) left the skew part"
                )
            if terms:
                brackets[(a, b)] = terms
    return LieAlgebra(lie_labels(algebra.labels, rows), brackets)


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
        return bilinear_product(algebra.rows, x, y)

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
