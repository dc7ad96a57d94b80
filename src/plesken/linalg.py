"""Exact linear algebra over Q(i): sparse vectors, echelon forms, kernels.

Sparse {index: scalar} terms are the one vector form, and `combine` is the
one loop that sums them: c * terms over (c, terms) pairs.  An index is any
hashable key; the form check in `cellular` sums (row, col) matrix entries.
`bilinear_product` multiplies terms through the rows of a table of basis
products, and `Echelon` keeps a span in reduced row echelon form as sparse
rows, inserted one vector at a time; a product, a reduction by `reduce_by`
and a back-substitution are each one `combine`.  A `Subspace` is the span those
rows end in, held as the rows themselves; the reduced row echelon form is
unique, so two subspaces are equal exactly when their rows coincide, and
v lies in it exactly when `reduce_by(sub.rows, v)` is empty, its
coordinates then being the entries of v at the pivots.
Dense tuples are the edges, converted by `sparse` and `dense`: `Matrix`,
and `rref`, which reads a `Matrix` through `Subspace.from_vectors` and
gives it back through the `Subspace.basis` view.  `Matrix` is a container
without arithmetic, holding the Gram and Killing matrices: indexing and
equality.  `vector` reads entries by `scalars.exact`,
and `sparse` and `Matrix` read through it, as `Echelon.subspace` reads the
rows it hands on; `Echelon.insert`, the one division, divides by a
`GaussianRational`.
`rank_mod_p` is the one routine over a finite field: the rank of sparse
integer rows mod a prime, which bounds the rank over Q(i) from below (see
`lie.fingerprint`), and `residue` reads a scalar mod the fixed prime P.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .scalars import GaussianRational, exact, scalar

Vector = tuple[GaussianRational, ...]
Terms = tuple[tuple[int, GaussianRational], ...]  # sparse (index, coefficient)


def zero_vector(n: int) -> Vector:
    return (0,) * n


def unit_vector(n: int, i: int) -> Vector:
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def vector(values: Iterable) -> Vector:
    return tuple(map(exact, values))


def combine(scaled: Iterable[tuple[GaussianRational, Iterable]]) -> dict[int, GaussianRational]:
    """The nonzero totals of c * terms over the (c, terms) pairs, terms sparse
    (index, coefficient) items, in the order their indices first occur."""
    acc: dict = {}
    for c, terms in scaled:
        if c == 1:
            for k, d in terms:
                acc[k] = acc[k] + d if k in acc else d
        else:
            for k, d in terms:
                acc[k] = acc[k] + c * d if k in acc else c * d
    return {k: d for k, d in acc.items() if d}


def sparse(v: Sequence, n: int) -> dict[int, GaussianRational]:
    """The nonzero entries of the dense vector v of length n."""
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return {k: c for k, c in enumerate(vector(v)) if c}


def dense(n: int, v: Mapping[int, GaussianRational]) -> Vector:
    """The dense vector of length n with the sparse entries v."""
    return tuple(v.get(k, 0) for k in range(n))


def bilinear_product(
    rows: Sequence[Mapping[int, Terms]],
    x: Mapping[int, GaussianRational],
    y: Mapping[int, GaussianRational],
) -> dict[int, GaussianRational]:
    """Bilinear extension of basis products: sum of x_i y_j * rows[i][j].

    `rows[i]` maps j to the sparse expansion of e_i e_j; a j it lacks has
    product zero.
    """
    return combine((a * b, t) for i, a in x.items() if (row := rows[i])
                   for j, b in y.items() if (t := row.get(j)))


class Matrix:
    """Immutable dense matrix of exact entries, read by `vector`: a container
    with indexing and equality, and no arithmetic."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(vector(row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class Echelon:
    """A span kept in reduced row echelon form, grown one vector at a time.

    `rows` maps each pivot to a sparse {index: scalar} row that is 1 at its
    pivot, zero before it and zero at every other pivot.
    """

    def __init__(self, ambient: int, vectors: Iterable[Mapping[int, GaussianRational]] = ()):
        """The span of the sparse `vectors`, read one at a time until the span
        is the whole space."""
        self.ambient = ambient
        self.rows: dict[int, dict[int, GaussianRational]] = {}
        vectors = iter(vectors)
        while len(self.rows) < ambient and (v := next(vectors, None)) is not None:
            self.insert(v)

    def insert(self, v: Mapping[int, GaussianRational]) -> dict[int, GaussianRational]:
        """Add v to the span: the new row, or an empty one if v was in it."""
        row = reduce_by(self.rows, v)
        if row:
            pivot = min(row)
            lead = row[pivot]
            if lead != 1:
                inverse = 1 / scalar(lead)  # one division per row, not per entry
                row = {k: c * inverse for k, c in row.items()}
            for p in [p for p, other in self.rows.items() if pivot in other]:
                other = self.rows[p]
                self.rows[p] = combine(((1, other.items()), (-other[pivot], row.items())))
            self.rows[pivot] = row
        return row

    def subspace(self) -> Subspace:
        """The span in canonical form: the rows by ascending pivot, each by
        ascending index, with entries read by `exact`."""
        rows = {p: {k: exact(c) for k, c in sorted(r.items())} for p, r in self.rows.items()}
        return Subspace(self.ambient, dict(sorted(rows.items())))

    def kernel(self) -> Subspace:
        """The x with r . x = 0 for every row r: one vector per free index f,
        1 at f and -r_f at the pivot of each row r."""
        rows = self.rows
        vectors = (
            {f: 1, **{p: -row[f] for p, row in rows.items() if f in row}}
            for f in range(self.ambient)
            if f not in rows
        )
        return Echelon(self.ambient, vectors).subspace()


def reduce_by(
    rows: Mapping[int, Mapping[int, GaussianRational]], v: Mapping[int, GaussianRational]
) -> dict[int, GaussianRational]:
    """v minus the combination of the echelon `rows` (of an `Echelon` or a
    `Subspace`) that clears it at every pivot: empty exactly when v is in
    their span.  A row is zero at every other pivot, so one pass suffices."""
    return combine([(1, v.items()), *((-c, rows[p].items()) for p, c in v.items() if p in rows)])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with its pivot columns.

    The result is the unique rref of `m`, zero rows last; the row space is
    preserved.
    """
    span = Subspace.from_vectors(m.cols, m.data)
    zero_rows = (zero_vector(m.cols),) * (m.rows - span.dim)
    return Matrix(span.basis + zero_rows), span.pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


# A prime P = 1 (mod 4), so that -1 has the square root I_MOD_P in F_P and
# Z_(P)[i] -> F_P, i -> I_MOD_P, is a ring homomorphism.
P = 998_244_353  # 119 * 2**23 + 1
I_MOD_P = 911_660_635  # 3 ** ((P - 1) // 4) mod P, 3 a primitive root


def reducible(values: Iterable) -> bool:
    """Whether P divides no denominator of the values."""
    return all(type(c) is int or c.re.denominator % P and c.im.denominator % P for c in values)


def residue(c) -> int:
    """An int congruent to c mod P, with i -> I_MOD_P, for a `reducible` c;
    an int is left unreduced, so sums of its products stay small."""
    if type(c) is int:
        return c
    return (c.re.numerator * pow(c.re.denominator, -1, P)
            + I_MOD_P * c.im.numerator * pow(c.im.denominator, -1, P)) % P


def rank_mod_p(rows: Iterable[Mapping[int, int]], p: int) -> int:
    """The rank over F_p of sparse {index: int} rows, read mod the prime p.

    Each row is cleared at its leading index by the row already kept there
    until it vanishes or takes a new leading index.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        v = {k: c % p for k, c in row.items() if c % p}
        while v:
            lead = min(v)
            if lead not in kept:
                inverse = pow(v[lead], -1, p)
                kept[lead] = {k: c * inverse % p for k, c in v.items()}
                break
            c = v[lead]
            for k, d in kept[lead].items():
                x = (v.get(k, 0) - c * d) % p
                if x:
                    v[k] = x
                else:
                    del v[k]
    return len(kept)


class Subspace:
    """A subspace of Q(i)^ambient in canonical form: its reduced row echelon rows.

    `rows` maps each pivot, ascending, to its sparse {index: scalar} row, 1
    at the pivot, zero before it and zero at every other pivot, with its
    entries by ascending index and read by `exact`.  These rows are unique,
    so `==` is a genuine subspace-equality test.  They are dicts, so a
    `Subspace` is not hashable.
    """

    def __init__(self, ambient: int, rows: Mapping[int, Mapping[int, GaussianRational]]):
        self.ambient = ambient
        self.rows = rows

    def __eq__(self, other):
        return isinstance(other, Subspace) and (
            (self.ambient, self.rows) == (other.ambient, other.rows)
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence]) -> Subspace:
        """The span of the dense `vectors`, read only until it is the whole space."""
        return Echelon(ambient, (sparse(v, ambient) for v in vectors)).subspace()

    @classmethod
    def full(cls, ambient: int) -> Subspace:
        return cls(ambient, {i: {i: 1} for i in range(ambient)})

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The rows as dense vectors, in pivot order."""
        return tuple(dense(self.ambient, row) for row in self.rows.values())
