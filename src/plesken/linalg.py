"""Exact linear algebra over Q(i): sparse vectors, echelon forms, kernels.

Sparse {index: scalar} terms are the working format: `bilinear_product`
multiplies them through a table of basis products, and `Echelon` keeps a
span in reduced row echelon form as sparse rows, inserted one vector at a
time.  A `Subspace` is the span those rows end in, held as the rows
themselves; the reduced row echelon form is unique, so two subspaces are
equal exactly when their rows coincide.  Dense tuples are the edges
(`Matrix`, the `Subspace.basis` view), converted by `sparse` and `dense`.
`Matrix` is a container without arithmetic: constructors, row, column and
transpose views, indexing and equality.  It holds the Gram and Killing
matrices, the `AntiInvolution.matrix` view and the input of `rref`; `rref`
and `rank` are views of a `Subspace` on immutable dense `Matrix` values.
`vector` reads entries by `scalars.exact`, and `sparse` and `Matrix` read
through it, as `Echelon.subspace` reads the rows it hands on;
`Echelon.insert`, the one division, divides by a `GaussianRational`.
`rank_mod_p` is the one routine over a finite field: the rank of sparse
integer rows mod a prime, which bounds the rank over Q(i) from below (see
`lie.fingerprint`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .scalars import GaussianRational, exact, scalar

Vector = tuple[GaussianRational, ...]
Terms = tuple[tuple[int, GaussianRational], ...]  # sparse (index, coefficient)


def zero_vector(n: int) -> Vector:
    return (0,) * n


def unit_vector(n: int, i: int) -> Vector:
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def vector(values: Iterable) -> Vector:
    return tuple(map(exact, values))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def combine(terms: Iterable[tuple[int, GaussianRational]]) -> dict[int, GaussianRational]:
    """Sum sparse (index, coefficient) terms, dropping the zero totals."""
    acc: dict[int, GaussianRational] = {}
    for k, c in terms:
        acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


def sparse(v: Sequence, n: int) -> dict[int, GaussianRational]:
    """The nonzero entries of the dense vector v of length n."""
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return {k: c for k, c in enumerate(vector(v)) if c}


def dense(n: int, v: Mapping[int, GaussianRational]) -> Vector:
    """The dense vector of length n with the sparse entries v."""
    return tuple(v.get(k, 0) for k in range(n))


def difference(
    x: Mapping[int, GaussianRational], y: Mapping[int, GaussianRational]
) -> dict[int, GaussianRational]:
    """x - y for sparse x and y."""
    return combine([*x.items(), *((k, -c) for k, c in y.items())])


def bilinear_product(
    terms: Mapping[tuple[int, int], Terms],
    x: Mapping[int, GaussianRational],
    y: Mapping[int, GaussianRational],
) -> dict[int, GaussianRational]:
    """Bilinear extension of basis products: sum of x_i y_j * terms[(i, j)].

    `terms` maps a basis index pair to the sparse expansion of its product;
    a pair it lacks has product zero.
    """
    get = terms.get
    acc: list[tuple[int, GaussianRational]] = []
    for i, a in x.items():
        for j, b in y.items():
            expansion = get((i, j))
            if expansion:
                c = a * b
                acc.extend((k, c * s) for k, s in expansion)
    return combine(acc)


class Matrix:
    """Immutable dense matrix of exact entries, read by `vector`: a container
    with views and equality, and no arithmetic."""

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

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([unit_vector(n, i) for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> Matrix:
        return cls(columns).transpose()

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> Matrix:
        return Matrix(list(zip(*self.data))) if self.data else Matrix([])

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
                lead = scalar(lead)
                row = {k: c / lead for k, c in row.items()}
            for p, other in list(self.rows.items()):
                if pivot in other:
                    c = other[pivot]
                    self.rows[p] = combine([*other.items(), *((k, -c * d) for k, d in row.items())])
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
    cleared = [(k, -c * d) for p, c in v.items() if p in rows for k, d in rows[p].items()]
    return combine([*v.items(), *cleared])


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
    def zero(cls, ambient: int) -> Subspace:
        return cls(ambient, {})

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

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coefficients of v in the canonical basis, or None if v is outside.

        Because the rows are in rref, the coefficient of row r is just the
        entry of v at the r-th pivot; v is in the span when the rows reduce
        it to zero.
        """
        v = sparse(v, self.ambient)
        if reduce_by(self.rows, v):
            return None
        return tuple(v.get(p, 0) for p in self.rows)

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None
