"""Slow exact reference code, kept as oracles for the fast paths.

An oracle never runs the code it checks.  Products, sigma, brackets and
spans are summed here by dense loops of their own: `bilinear_product_dense`,
`apply_dense` on the matrix `sigma_matrix` writes from `sigma.images`, and
`rref_gauss_jordan`, whose rows `span_gauss_jordan` hands to `Subspace`
directly.  `tests/test_oracle_independence.py` fails if this file names
the sparse kernels (`combine`, `bilinear_product`, `reduce_by`,
`Echelon`, `Subspace.from_vectors`, `sigma.image`, `sigma.skew_terms`,
`L.bracket`, `L.bracket_terms`) or the dense wrapper `multiply_vectors`.  `changed_basis`,
which builds the multi-term test tables, computes the same way.  The
oracles read products through `pairs(algebra)`, the pair-keyed view of the
stored rows `Algebra.rows`.

`validate_associativity` and `validate_involution` in `plesken.algebra`
check their laws only for middle (resp. left) factors in a proved
generating set.  The scans here are the exhaustive versions they replaced:
every basis triple for associativity, every basis pair for the
anti-homomorphism law.  Restricted to the middle indices in the generating
set, the associativity scan gives the witness the fast path must return; it
sums every product over `GaussianRational`, whatever the table's shape.
`changed_basis` rewrites a table in another basis, so that products have
several terms.  `involution_all_pairs` takes the left indices to scan, so
that it gives the witness the fast path must return for the same set, and
`unit_every_index` multiplies the unit by every basis vector densely.
`generators_most_targets_first` finds the generating set in the candidate
order used before least-decomposable-first, with a dense elimination of
its own.  `direct_sum` and `idempotents` build tables whose products are
mostly zero: a block sum, and C^n.

`plesken.linalg.Echelon` reduces sparse rows one at a time.  The dense
Gauss-Jordan loop it replaced is here, with the subspace, kernel, solve,
center and fingerprint computations built on it: the center from an
O(n^3 t) scan of the bracket table, each series term from all brackets
stacked into one matrix.  Differential tests compare the results, which
are canonical.

Products, sigma, the skew part and the Lie table work on sparse terms, and
sigma is held as its sparse images.  The dense versions they replaced are
here: the dense `bilinear_product` loop, the signed permutation matrix the
builders passed for sigma, sigma read from a dense matrix's columns and
applied as a dense matrix-vector product, the skew part as the kernel of
(sigma + id) cross-checked against the span of the e_i - sigma(e_i), the
Lie table from dense commutators of `GaussianRational` vectors with a dense
residual check, and its labels read off the dense basis vectors.  So are
the Jacobi scan over all basis triples, the Killing form from an O(n^3 t)
scan of the bracket table, and `bracket_closure_dense`, the randomized
four-term closure check on dense vectors that `bracket_closure_check`
ran before it worked on sparse terms.

A `LieAlgebra` stores one half of its bracket table, and `bracket_terms`
negates it for the other.  The oracles that read brackets (`bracket_dense`,
`center_scan`, `jacobi_failure`, `killing_form_scan`) go through
`both_halves`, which writes both orientations from `L.table` itself.

`plesken.linalg.Matrix` is a container without arithmetic, and the cell
modules act by sparse entries.  The dense matrix arithmetic the
certificate used is here, with the constructors `identity_matrix` and
`zero_matrix` and the `column` and `transpose` views: `matmul`, `matvec`,
`linear_combination`, the action matrices read off the C3 coefficients as
dense matrices, `act` as a sum of scaled dense matrices, the module
axioms, and the dense form checks (b) and adjointness, with the witnesses
of `plesken.cellular`.  The certificate reads injectivity off the Gram
ranks; `injective_dense` ranks the action rows instead, as the definition
of check (a) says.  The form checks take dense action matrices and Gram
matrices as arguments, and `dense_cells` reads them for every cell with
`action_matrices` and `gram_every_witness`, not with the kernel's readers.

The diagram builders compose on plain tuples, `_tl_compose` on mate
tuples and `_pr_compose` on endpoint tuples, and `Algebra` stores a
single-term product on a new pair as read.  The code they replaced is here:
the union-find over the 3n stacked points of two TL diagrams, the planar
rook product built as a validated `PlanarRookDiagram`, the whole TL and PR
tables built from them, and a structure table summed over
`GaussianRational` for every item.  The group and matrix builders stream
their products into `Algebra`; `group_algebra_by_pairs`,
`matrix_algebra_by_pairs` and `matrix_over_algebra_by_pairs` build the
dict of the whole table keyed by (i, j) that they passed before, the last
probing every inner pair with `product_terms`.

`GroupTable` reads a table's identity and right inverses and leaves the
proof to `validate_algebra`; `group_axioms` is the brute-force group check
it ran before: two-sided identity and inverse searches and all n^3
triples.  `CellDatum` checks its order by one bitmask inclusion per pair;
`cell_order_failure` is the loop over all pairs of pairs it replaced.
`validate_cell_datum` checks C3 for the left factors in the proved
generating set; `c3_every_element` is the scan over every basis element it
replaced, with the order read from its pairs, and takes the left indices
to scan, so that it gives the witness the fast path must return.

`plesken.cellular.gram_matrix` reads each Gram entry at one witness pair,
which C2 and C3 make sufficient.  `gram_every_witness` reads it at every
pair (s, v) and raises when a product leaves C[s, v] and the lower cells
or two pairs disagree.

`plesken.interchange.emit` writes a document's `structure` quads row by row
in the fixed layout of `json.dumps(..., indent=2)`.  `document_to_jsonable`
is the whole document as JSON objects, which `emit` once passed to
`json.dumps`; `emit_dumps` is that text, the byte reference for `emit`.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Callable, Iterable, Mapping, Optional, Sequence

from plesken.algebra import (
    Algebra,
    AntiInvolution,
    ClosureCounterexample,
    InternalConsistencyError,
    InvolutionFailure,
    describe_vector,
)
from plesken.builders import (
    PlanarRookDiagram,
    TLDiagram,
    planar_rook_diagrams,
    temperley_lieb_diagrams,
)
from plesken.cellular import (
    CellDatum,
    CellModule,
    CellValidationFailure,
    GramPropertyFailure,
    Label,
)
from plesken.interchange import FORMAT_VERSION, AlgebraDocument
from plesken.lie import Fingerprint, LieAlgebra
from plesken.linalg import Matrix, Subspace, Terms, Vector, unit_vector, vector, zero_vector
from plesken.scalars import I, ONE, ZERO, GaussianRational, exact, scalar


def pairs(algebra: Algebra) -> dict[tuple[int, int], Terms]:
    """The stored products keyed by pair, {(i, j): terms of e_i e_j}: the
    table `algebra.rows` holds by row."""
    return {(i, j): terms for i, row in enumerate(algebra.rows) for j, terms in row.items()}


def quads(table: dict[tuple[int, int], Terms]) -> list[tuple]:
    """The (i, j, k, c) quads `Algebra` reads, one per term of a table keyed
    by pair, {(i, j): terms of e_i e_j}: the inverse of `pairs`."""
    return [(i, j, k, c) for (i, j), terms in table.items() for k, c in terms]


def identity_matrix(n: int) -> Matrix:
    return Matrix([unit_vector(n, i) for i in range(n)])


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def column(m: Matrix, j: int) -> Vector:
    return tuple(row[j] for row in m.data)


def transpose(m: Matrix) -> Matrix:
    return Matrix(list(zip(*m.data)))


def sigma_matrix(sigma: AntiInvolution) -> Matrix:
    """The dense matrix whose column j is sigma(e_j), written entry by entry
    from `sigma.images`."""
    n = len(sigma.images)
    rows = [[0] * n for _ in range(n)]
    for j, terms in enumerate(sigma.images):
        for i, c in terms.items():
            rows[i][j] = c
    return Matrix(rows)


def vec_sub(x: Sequence, y: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def signed_permutation_matrix(n: int, perm: Sequence[int], signs=None) -> Matrix:
    """Matrix sending basis vector j to signs[j] * basis vector perm[j]."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = 1 if signs is None else signs[j]
    return Matrix(rows)


def involution_from_matrix(m: Matrix, conjugates_scalars: bool = False) -> AntiInvolution:
    """The involution whose images sigma(e_j) are the columns of m."""
    return AntiInvolution(tuple(dict(enumerate(c)) for c in zip(*m.data)), conjugates_scalars)


def changed_basis(
    algebra: Algebra, sigma: AntiInvolution, columns: Sequence[Sequence]
) -> tuple[Algebra, AntiInvolution]:
    """The same algebra and involution in the basis given by `columns`, every
    product and image computed densely."""
    n = algebra.dim
    p = transpose(Matrix(columns))

    def coordinates(v):
        x = solve_gauss_jordan(p, v)
        assert x is not None
        return x

    structure, get = {}, pairs(algebra).get
    for i, j in itertools.product(range(n), repeat=2):
        product = bilinear_product_dense(n, get, columns[i], columns[j])
        structure[(i, j)] = tuple((k, c) for k, c in enumerate(coordinates(product)) if c)
    images = tuple(dict(enumerate(coordinates(apply_dense(sigma, v)))) for v in columns)
    labels = tuple(f"b{i}" for i in range(n))
    unit = coordinates(algebra.unit)
    return Algebra(labels, quads(structure), unit), AntiInvolution(images, sigma.conjugates_scalars)


def bidiagonal_basis(algebra: Algebra, sigma: AntiInvolution) -> tuple[Algebra, AntiInvolution]:
    """The same algebra and involution in the unitriangular basis
    b_i = e_i + e_{i+1}, b_{n-1} = e_{n-1}.  On a builder's table, where
    every product is one term, most products then have several terms."""
    n = algebra.dim
    columns = [tuple(int(k in (i, i + 1)) for k in range(n)) for i in range(n)]
    return changed_basis(algebra, sigma, columns)


def matrix_over_involution_dense(n: int, inner_sigma: AntiInvolution) -> Matrix:
    """The matrix of E_rs (x) e_i -> E_sr (x) sigma(e_i) on M(n, A), built
    column by column from the dense columns of the inner matrix."""
    inner = sigma_matrix(inner_sigma)
    d = inner.cols
    columns = []
    for r in range(n):
        for s in range(n):
            for i in range(d):
                entries = [0] * (n * n * d)
                for k, c in enumerate(column(inner, i)):
                    entries[(s * n + r) * d + k] = c
                columns.append(entries)
    return transpose(Matrix(columns))


def associativity_all_triples(
    algebra: Algebra, middles: Optional[Iterable[int]] = None
) -> Optional[tuple[int, int, int]]:
    """First basis triple (lexicographic) where (ei ej) ek != ei (ej ek), else
    None; with `middles`, only triples whose middle index j is in it."""
    get = pairs(algebra).get
    n = algebra.dim
    middles = range(n) if middles is None else sorted(set(middles))
    for i in range(n):
        for j in middles:
            t_ij = get((i, j), ())
            for k in range(n):
                left: dict[int, GaussianRational] = {}
                for l, c in t_ij:
                    for m, d in get((l, k), ()):
                        left[m] = left.get(m, ZERO) + c * d
                right: dict[int, GaussianRational] = {}
                for l, c in get((j, k), ()):
                    for m, d in get((i, l), ()):
                        right[m] = right.get(m, ZERO) + c * d
                if {m: v for m, v in left.items() if v} != {
                    m: v for m, v in right.items() if v
                }:
                    return (i, j, k)
    return None


def unit_every_index(algebra: Algebra) -> Optional[int]:
    """First basis index i where unit * e_i != e_i or e_i * unit != e_i, else
    None, both products summed densely by `bilinear_product_dense`."""
    n, get = algebra.dim, pairs(algebra).get
    for i in range(n):
        e = unit_vector(n, i)
        if bilinear_product_dense(n, get, algebra.unit, e) != e:
            return i
        if bilinear_product_dense(n, get, e, algebra.unit) != e:
            return i
    return None


def generators_most_targets_first(algebra: Algebra) -> tuple[int, ...]:
    """The generating set `Algebra.generators` found while its candidates
    came most distinct targets first: by the most distinct targets of
    e_b e_j and e_j e_b over all j, ties by index; one in the span found so
    far is skipped.  Each taken index closes the span under right
    multiplication by every index taken, by dense products, each reduced
    against the dense rows found so far in the order they were found (each
    row is 1 at its pivot and 0 at the pivots of the rows before it)."""
    table = pairs(algebra)
    n, get = algebra.dim, table.get
    targets: list[set[int]] = [set() for _ in range(n)]
    for (i, j), terms in table.items():
        for k, _ in terms:
            targets[i].add(k)
            targets[j].add(k)
    rows: list[tuple[int, list]] = []

    def residual(v: Sequence) -> list:
        v = list(v)
        for p, row in rows:
            if v[p]:
                c = v[p]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    generators: list[int] = []
    for b in sorted(range(n), key=lambda b: (-len(targets[b]), b)):
        if len(rows) == n:
            break
        if not any(residual(unit_vector(n, b))):
            continue
        generators.append(b)
        pending = [unit_vector(n, b)] + [
            bilinear_product_dense(n, get, row, unit_vector(n, b)) for _, row in rows
        ]
        while pending:
            v = residual(pending.pop())
            if any(v):
                pivot = next(k for k, c in enumerate(v) if c)
                lead = scalar(v[pivot])
                rows.append((pivot, [c / lead for c in v]))
                pending.extend(bilinear_product_dense(n, get, v, unit_vector(n, g)) for g in generators)
    assert len(rows) == n, "products of the generators do not span the algebra"
    return tuple(sorted(generators))


def direct_sum(*parts: tuple[Algebra, AntiInvolution]) -> tuple[Algebra, AntiInvolution]:
    """The block-diagonal sum of the algebras, labels suffixed by block, with
    sigma acting on each block and every product across blocks zero."""
    assert len({sigma.conjugates_scalars for _, sigma in parts}) == 1
    labels, structure, unit, images = [], {}, [], []
    for block, (algebra, sigma) in enumerate(parts):
        offset = len(labels)
        labels += [f"{label}_{block}" for label in algebra.labels]
        for (i, j), terms in pairs(algebra).items():
            structure[(i + offset, j + offset)] = tuple((k + offset, c) for k, c in terms)
        unit += algebra.unit
        images += [{k + offset: c for k, c in values.items()} for values in sigma.images]
    return Algebra(labels, quads(structure), unit), AntiInvolution(images, parts[0][1].conjugates_scalars)


def idempotents(n: int) -> tuple[Algebra, AntiInvolution]:
    """C^n: e_i e_i = e_i and every other product zero, unit the sum of the
    e_i, sigma the identity."""
    structure = [(i, i, i, 1) for i in range(n)]
    return Algebra([f"e_{i}" for i in range(n)], structure, [1] * n), AntiInvolution(
        tuple({i: 1} for i in range(n))
    )


def group_axioms(product: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """(identity, inverse) of a square table with entries in range, by the
    scans `GroupTable` ran before `validate_algebra` proved its tables: a
    two-sided identity, two-sided inverses and all n^3 triples.  Raises
    ValueError, with those scans' messages, when the table is no group."""
    n = len(product)
    identity = next(
        (e for e in range(n) if all(product[e][x] == x and product[x][e] == x for x in range(n))),
        None,
    )
    if identity is None:
        raise ValueError("identity: table has no identity element")
    inverse = []
    for g in range(n):
        candidates = [
            h for h in range(n) if product[g][h] == identity and product[h][g] == identity
        ]
        if not candidates:
            raise ValueError(f"inverses: element {g} has no inverse")
        inverse.append(candidates[0])
    for a, b, c in itertools.product(range(n), repeat=3):
        if product[product[a][b]][c] != product[a][product[b][c]]:
            raise ValueError(f"associativity: fails at triple ({a}, {b}, {c})")
    return identity, tuple(inverse)


def group_axioms_failure(product: Sequence[Sequence[int]]) -> Optional[str]:
    """The message of the first group axiom `group_axioms` finds failing, else None."""
    try:
        group_axioms(product)
    except ValueError as exc:
        return str(exc)
    return None


def cell_order_failure(lambdas: Sequence[Label], less_pairs) -> Optional[str]:
    """The message `CellDatum` refuses the strict order with, else None, by
    the check it ran before `above` sets: every pair of pairs for
    transitivity, label membership in a tuple."""
    lambdas = tuple(lambdas)
    less = frozenset((a, b) for a, b in less_pairs)
    for a, b in less:
        if a not in lambdas or b not in lambdas:
            return "order pair mentions unknown cell label"
        if a == b:
            return "strict order cannot be reflexive"
    for a, b in less:
        for c, d in less:
            if b == c and (a, d) not in less:
                return "order pairs are not transitively closed"
    return None


def c3_every_element(
    algebra: Algebra, cd: CellDatum, lefts: Optional[Iterable[int]] = None
) -> Optional[CellValidationFailure]:
    """The first C3 failure of e_a C[lam, s, t] over a (in `lefts`, if given),
    lam, t and s in that order, as `validate_cell_datum` reports it, else None;
    a term counts as lower when its cell is below lam in `cd.less`."""
    triple_at = {idx: triple for triple, idx in cd.basis_map.items()}
    get = pairs(algebra).get
    for a in range(algebra.dim) if lefts is None else sorted(set(lefts)):
        for lam in cd.lambdas:
            members = cd.index_sets[lam]
            first = None
            for t in members:
                block = {}
                for s in members:
                    for k, c in get((a, cd.basis_map[(lam, s, t)]), ()):
                        mu, row, column = triple_at[k]
                        if (mu, lam) in cd.less:
                            continue
                        if mu != lam or column != t:
                            witness = (a, lam, s, t, algebra.labels[k])
                            message = "product has support outside column t and the lower cells"
                            return CellValidationFailure("C3", witness, message)
                        block[(row, s)] = c
                if first is None:
                    first = block
                elif block != first:
                    message = "action coefficients depend on t"
                    return CellValidationFailure("C3", (a, lam, members[0], t), message)
    return None


def involution_all_pairs(
    algebra: Algebra, sigma: AntiInvolution, lefts: Optional[Iterable[int]] = None
) -> Optional[InvolutionFailure]:
    """Check sigma^2 = id on the basis and the anti-homomorphism law on all
    pairs, sigma applied as a dense matrix and products summed densely; with
    `lefts`, the law only on pairs whose left index is in it."""
    m, n = sigma_matrix(sigma), algebra.dim
    if m.rows != n or m.cols != n:
        return InvolutionFailure("shape", (m.rows, m.cols))
    images = [apply_dense(sigma, unit_vector(n, i), m) for i in range(n)]
    for i in range(n):
        if apply_dense(sigma, images[i], m) != unit_vector(n, i):
            return InvolutionFailure("square", (i,))
    get = pairs(algebra).get
    for i in range(n) if lefts is None else sorted(set(lefts)):
        for j in range(n):
            product = zero_vector(n)
            terms = algebra.product_terms(i, j)
            if terms:
                acc = [ZERO] * n
                for k, c in terms:
                    acc[k] = c
                product = tuple(acc)
            lhs = apply_dense(sigma, product, m)
            rhs = bilinear_product_dense(n, get, images[j], images[i])
            if lhs != rhs:
                return InvolutionFailure("antihomomorphism", (i, j))
    return None


def rref_gauss_jordan(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with its pivot columns, by dense elimination."""
    work = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        if lead != ONE:
            inv = ONE / lead
            row = work[r]
            for j in range(c, ncols):
                if row[j]:
                    row[j] = inv * row[j]
        pivot = work[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = work[i][c]
            if not factor:
                continue
            row = work[i]
            for j in range(c, ncols):
                if pivot[j]:
                    row[j] = row[j] - factor * pivot[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(work), tuple(pivots)


def span_gauss_jordan(ambient: int, vectors) -> Subspace:
    """The span of the dense `vectors`, its canonical rows read off their
    dense rref."""
    rows = list(vectors)
    if not rows:
        return Subspace(ambient, {})
    reduced, pivots = rref_gauss_jordan(Matrix(rows))
    return Subspace(ambient, {
        p: {k: exact(c) for k, c in enumerate(row) if c} for p, row in zip(pivots, reduced.data)
    })


def kernel_gauss_jordan(m: Matrix) -> Subspace:
    reduced, pivots = rref_gauss_jordan(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.data[r][f]
        vectors.append(tuple(v))
    return span_gauss_jordan(m.cols, vectors)


def solve_gauss_jordan(m: Matrix, rhs: Sequence) -> Optional[Vector]:
    """Some exact solution of m @ x = rhs, or None if the system is
    inconsistent, read off the rref of the augmented matrix."""
    rhs = vector(rhs)
    if len(rhs) != m.rows:
        raise ValueError("shape mismatch")
    reduced, pivots = rref_gauss_jordan(Matrix([row + (b,) for row, b in zip(m.data, rhs)]))
    if pivots and pivots[-1] == m.cols:
        return None
    x = [0] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.data[r][m.cols]
    return vector(x)


def both_halves(L: LieAlgebra) -> Callable[[int, int], Terms]:
    """The terms of [e_i, e_j] for every ordered pair, each pair i > j
    written here from the stored [e_j, e_i] with its signs flipped."""
    table = dict(L.table)
    for (i, j), terms in L.table.items():
        table[j, i] = tuple((k, -c) for k, c in terms)
    return lambda i, j: table.get((i, j), ())


def center_scan(L: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, via the kernel of the stacked adjoints."""
    bt = both_halves(L)
    rows = []
    for j in range(L.dim):
        columns = [bt(i, j) for i in range(L.dim)]
        for k in range(L.dim):
            row = [ZERO] * L.dim
            nonzero = False
            for i, terms in enumerate(columns):
                for kk, c in terms:
                    if kk == k:
                        row[i] = c
                        nonzero = True
            if nonzero:
                rows.append(row)
    if not rows:
        return Subspace.full(L.dim)
    return kernel_gauss_jordan(Matrix(rows))


def jacobi_failure(L: LieAlgebra) -> Optional[tuple[int, int, int]]:
    """First basis triple violating the Jacobi identity, else None."""
    bt = both_halves(L)
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                acc: dict[int, GaussianRational] = {}
                for outer, inner_pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                    for l, c in bt(*inner_pair):
                        for m, d in bt(outer, l):
                            acc[m] = acc.get(m, ZERO) + c * d
                if any(acc.values()):
                    return (i, j, k)
    return None


def killing_form_scan(L: LieAlgebra) -> Matrix:
    """K(x, y) = trace(ad x . ad y), summed over every basis index i."""
    n = L.dim
    bt = both_halves(L)
    rows = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            s = ZERO
            for i in range(n):
                for k, c1 in bt(b, i):
                    for m, c2 in bt(a, k):
                        if m == i:
                            s = s + c1 * c2
            rows[a][b] = s
            rows[b][a] = s
    return Matrix(rows)


def fingerprint_gauss_jordan(L: LieAlgebra) -> Fingerprint:
    """`fingerprint` with every bracket of a series term stacked and reduced."""

    def span(u: Subspace, v: Subspace) -> Subspace:
        return span_gauss_jordan(L.dim, [bracket_dense(L, x, y) for x in u.basis for y in v.basis])

    def series(step) -> list[int]:
        chain = [Subspace.full(L.dim)]
        while chain[-1].dim:
            chain.append(step(chain[-1]))
            if chain[-1] == chain[-2]:
                break
        return [s.dim for s in chain]

    derived = series(lambda s: span(s, s))
    lower = series(lambda s: span(Subspace.full(L.dim), s))
    solvable = derived[-1] == 0
    return Fingerprint(
        dim=L.dim,
        derived_dims=tuple(derived),
        lower_central_dims=tuple(lower),
        center_dim=center_scan(L).dim,
        killing_rank=len(rref_gauss_jordan(killing_form_scan(L))[1]),
        solvable=solvable,
        derived_length=len(derived) - 1 if solvable else None,
        nilpotent=lower[-1] == 0,
    )


def bilinear_product_dense(
    n: int, terms: Callable[[tuple[int, int]], Optional[Terms]], x: Vector, y: Vector
) -> Vector:
    """Bilinear extension of basis products: sum of x_i y_j * terms((i, j)).

    `terms` maps a basis index pair to the sparse expansion of its product,
    or to an empty or None value when the product is zero.
    """
    if len(x) != n or len(y) != n:
        raise ValueError("dimension mismatch")
    acc = [ZERO] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            expansion = terms((i, j))
            if not expansion:
                continue
            c = xi * yj
            for k, s in expansion:
                acc[k] = acc[k] + c * s
    return tuple(acc)


def bracket_dense(L: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """[x, y] for dense x and y, summed over the bracket table's terms."""
    bt = both_halves(L)
    return bilinear_product_dense(L.dim, lambda pair: bt(*pair), x, y)


def commutator_dense(algebra: Algebra, x: Vector, y: Vector) -> Vector:
    get = pairs(algebra).get
    return vec_sub(
        bilinear_product_dense(algebra.dim, get, x, y),
        bilinear_product_dense(algebra.dim, get, y, x),
    )


def apply_dense(sigma: AntiInvolution, v: Sequence, matrix: Optional[Matrix] = None) -> Vector:
    """sigma(v) as a dense matrix-vector product, after conjugation if any;
    `matrix` is `sigma_matrix(sigma)` when the caller has built it."""
    v = vector(v)
    if sigma.conjugates_scalars:
        v = tuple(c.conjugate() for c in v)
    return matvec(sigma_matrix(sigma) if matrix is None else matrix, v)


def skew_part_dense(sigma: AntiInvolution, v: Sequence) -> Vector:
    return vec_sub(vector(v), apply_dense(sigma, v))


def skew_subspace_kernel(sigma: AntiInvolution) -> Subspace:
    """Canonical basis of the span of all a - sigma(a) in Q(i)^n.

    Linear sigma: the kernel of (sigma + id), cross-checked against the
    span of the generators e_i - sigma(e_i).  Conjugating sigma: since the
    hat map is only Q-linear, basis vectors and their multiples by the
    imaginary unit are both needed to generate the Q(i)-span.
    """
    n = len(sigma.images)
    basis = [unit_vector(n, i) for i in range(n)]
    if sigma.conjugates_scalars:
        generators = []
        for e in basis:
            generators.append(skew_part_dense(sigma, e))
            generators.append(skew_part_dense(sigma, tuple(I * c for c in e)))
        return span_gauss_jordan(n, generators)
    eigen = kernel_gauss_jordan(
        linear_combination(n, n, [(ONE, sigma_matrix(sigma)), (ONE, identity_matrix(n))])
    )
    generated = span_gauss_jordan(n, [skew_part_dense(sigma, e) for e in basis])
    if eigen != generated:
        raise InternalConsistencyError(
            "(-1)-eigenspace differs from the span of the generators"
        )
    return eigen


def coordinates_dense(sub: Subspace, v: Vector) -> Optional[Vector]:
    """Coefficients of v in the canonical basis of sub, or None if v is outside:
    the entries at the pivots, then a dense residual check."""
    coeffs = tuple(v[p] for p in sub.pivots)
    residual = list(v)
    for c, row in zip(coeffs, sub.basis):
        if not c:
            continue
        for j, entry in enumerate(row):
            if entry:
                residual[j] = residual[j] - c * entry
    if any(residual):
        return None
    return coeffs


def plesken_lie_algebra_dense(algebra: Algebra, sigma: AntiInvolution) -> LieAlgebra:
    """The Lie table from dense commutators of the kernel-based skew basis."""
    sub = skew_subspace_kernel(sigma)
    vecs = sub.basis
    labels = lie_labels_dense(algebra.labels, vecs)
    table: dict[tuple[int, int], Terms] = {}
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            z = commutator_dense(algebra, vecs[a], vecs[b])
            coeffs = coordinates_dense(sub, z)
            if coeffs is None:
                raise InternalConsistencyError(
                    f"bracket of basis pair ({a}, {b}) left the skew part"
                )
            terms = tuple((k, c) for k, c in enumerate(coeffs) if c)
            if terms:
                table[(a, b)] = terms
    return LieAlgebra(labels, table)


def bracket_closure_dense(
    algebra: Algebra, sigma: AntiInvolution, samples: int, *, seed: int
) -> Optional[ClosureCounterexample]:
    """`bracket_closure_check` on dense vectors: the same samples, each
    product, image and skew part summed densely, and the bracket tested
    against the kernel-based skew basis by `coordinates_dense`."""
    rng = random.Random(seed)
    n = algebra.dim
    sub = skew_subspace_kernel(sigma)
    get = pairs(algebra).get

    def mul(x, y):
        return bilinear_product_dense(n, get, x, y)

    def hat(v):
        return skew_part_dense(sigma, v)

    for trial in range(samples):
        a = vector(rng.randint(-9, 9) for _ in range(n))
        b = vector(rng.randint(-9, 9) for _ in range(n))
        sa, sb = apply_dense(sigma, a), apply_dense(sigma, b)
        ha, hb = hat(a), hat(b)
        lhs = vec_sub(mul(ha, hb), mul(hb, ha))
        rhs = vec_sub(
            vec_sub(hat(mul(a, b)), hat(mul(a, sb))),
            vec_sub(hat(mul(sa, b)), hat(mul(sa, sb))),
        )
        if lhs != rhs:
            return ClosureCounterexample(trial, a, b, "four-term identity failed")
        if coordinates_dense(sub, lhs) is None:
            return ClosureCounterexample(trial, a, b, "bracket left the skew part")
    return None


def lie_labels_dense(ambient_labels: Sequence[str], vecs: Sequence[Vector]) -> list[str]:
    """`lie_labels` on dense basis vectors: each written out in full, then
    kept when it has at most two entries, all +-1, and 24 characters."""
    labels = []
    for r, v in enumerate(vecs):
        text = describe_vector(ambient_labels, enumerate(v))
        nonzero = sum(1 for c in v if c)
        if nonzero <= 2 and len(text) <= 24 and all(c in (ONE, -ONE) for c in v if c):
            labels.append(text)
        else:
            labels.append(f"x{r}")
    if len(set(labels)) != len(labels):
        labels = [f"x{r}" for r in range(len(vecs))]
    return labels


def _dot(x: Sequence, y: Sequence) -> GaussianRational:
    acc = ZERO
    for a, b in zip(x, y):
        if a and b:
            acc = acc + a * b
    return acc


def matmul(x: Matrix, y: Matrix) -> Matrix:
    """The dense product x y."""
    if x.cols != y.rows:
        raise ValueError("shape mismatch")
    columns = [column(y, j) for j in range(y.cols)]
    return Matrix([[_dot(row, col) for col in columns] for row in x.data])


def matvec(m: Matrix, v: Sequence) -> Vector:
    """The dense matrix-vector product m v."""
    if len(v) != m.cols:
        raise ValueError("shape mismatch")
    return tuple(_dot(row, v) for row in m.data)


def linear_combination(
    rows: int, cols: int, terms: Iterable[tuple[GaussianRational, Matrix]]
) -> Matrix:
    """The sum of c * m over the (c, m) in terms, all of shape rows x cols."""
    acc = [[ZERO] * cols for _ in range(rows)]
    for c, m in terms:
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        for i, row in enumerate(m.data):
            for j, v in enumerate(row):
                if v:
                    acc[i][j] = acc[i][j] + c * v
    return Matrix(acc)


def entries_matrix(d: int, entries: Mapping[tuple[int, int], GaussianRational]) -> Matrix:
    """The dense d x d matrix with the sparse entries {(row, col): c}."""
    rows = [[ZERO] * d for _ in range(d)]
    for (r, c), value in entries.items():
        rows[r][c] = value
    return Matrix(rows)


def dense_action(module: CellModule) -> dict[int, Matrix]:
    """The action matrices of a cell module, as dense matrices."""
    return {a: entries_matrix(module.dim, e) for a, e in module.action.items()}


def action_matrices(algebra: Algebra, cd: CellDatum, lam: Label) -> dict[int, Matrix]:
    """The dense action matrices of cell lam, read off the C3 coefficients
    against the first column index t, for a validated datum."""
    members = cd.members(lam)
    pos = {s: i for i, s in enumerate(members)}
    lower = cd.lower_indices(lam)
    action = {}
    t0 = members[0] if members else None
    for a in range(algebra.dim):
        rows = [[ZERO] * len(members) for _ in members]
        if t0 is not None:
            for s in members:
                for k, c in algebra.product_terms(a, cd.basis_map[(lam, s, t0)]):
                    if k in lower:
                        continue
                    triple = cd.triples_of[k][0]
                    rows[pos[triple[1]]][pos[s]] = c
        action[a] = Matrix(rows)
    return action


def act(matrices: Mapping[int, Matrix], d: int, x: Sequence) -> Matrix:
    """The matrix of the algebra element with dense coefficients x, as the
    sum of its coefficients times the dense action matrices."""
    return linear_combination(d, d, ((c, matrices[a]) for a, c in enumerate(x) if c))


def module_axiom_failure(algebra: Algebra, module: CellModule) -> Optional[tuple]:
    """First failure of rho(unit) = id or rho(ei ej) = rho(ei) rho(ej)."""
    d = module.dim
    matrices = dense_action(module)
    if act(matrices, d, algebra.unit) != identity_matrix(d):
        return ("unit",)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            expected = linear_combination(
                d, d, ((c, matrices[k]) for k, c in algebra.product_terms(i, j))
            )
            if matmul(matrices[i], matrices[j]) != expected:
                return (i, j)
    return None


def dense_cells(
    algebra: Algebra, cd: CellDatum
) -> tuple[dict[Label, dict[int, Matrix]], dict[Label, Matrix]]:
    """The dense action matrices and the Gram matrix of every cell, for a
    validated datum: `action_matrices` and `gram_every_witness` by cell."""
    actions = {lam: action_matrices(algebra, cd, lam) for lam in cd.lambdas}
    return actions, {lam: gram_every_witness(algebra, cd, lam) for lam in cd.lambdas}


def form_skewness_dense(
    sigma: AntiInvolution,
    cd: CellDatum,
    actions: Mapping[Label, Mapping[int, Matrix]],
    grams: Mapping[Label, Matrix],
) -> Optional[tuple]:
    """Check (b) of `verify_theorem` by dense products, on the action
    matrices and Gram matrix of each cell: the first (r, lam) where
    X^T G + G X != 0 for the r-th skew-part basis vector, else None."""
    for r, x in enumerate(skew_subspace_kernel(sigma).basis):
        for lam in cd.lambdas:
            d = len(cd.members(lam))
            if d == 0:
                continue
            g = grams[lam]
            action = act(actions[lam], d, x)
            both = [(ONE, matmul(transpose(action), g)), (ONE, matmul(g, action))]
            if linear_combination(d, d, both) != zero_matrix(d, d):
                return (r, lam)
    return None


def injective_dense(
    algebra: Algebra, cd: CellDatum, actions: Mapping[Label, Mapping[int, Matrix]]
) -> bool:
    """Injectivity of the direct sum of the cell actions, check (a) of
    `verify_theorem` by its definition: the rank of the dense matrix with one
    row per (cell, row, col) and one column per basis index."""
    rows = []
    for lam in cd.lambdas:
        matrices, d = actions[lam], len(cd.members(lam))
        for r in range(d):
            for c in range(d):
                rows.append([matrices[a][r, c] for a in range(algebra.dim)])
    return len(rref_gauss_jordan(Matrix(rows))[1]) == algebra.dim


def gram_every_witness(algebra: Algebra, cd: CellDatum, lam: Label) -> Matrix:
    """The Gram matrix of cell lam read at every witness pair (s, v): entry
    (t, u) is the coefficient of C[s, v] in C[s, t] * C[u, v] modulo the
    lower cells.  Raises InternalConsistencyError if a product has support
    outside C[s, v] and the lower cells, or if two witness pairs disagree."""
    members = cd.members(lam)
    lower = cd.lower_indices(lam)
    grams = set()
    for s in members:
        for v in members:
            target = cd.basis_map[(lam, s, v)]
            rows = [[ZERO] * len(members) for _ in members]
            for i, t in enumerate(members):
                for j, u in enumerate(members):
                    left, right = cd.basis_map[(lam, s, t)], cd.basis_map[(lam, u, v)]
                    for k, c in algebra.product_terms(left, right):
                        if k == target:
                            rows[i][j] = c
                        elif k not in lower:
                            raise InternalConsistencyError(
                                f"cell product has unexpected support at {cd.triples_of[k][0]}"
                            )
            grams.add(Matrix(rows))
    if len(grams) > 1:
        raise InternalConsistencyError("Gram entries depend on the witness pair")
    return grams.pop() if grams else Matrix([])


def gram_properties_dense(
    algebra: Algebra, sigma: AntiInvolution, lam: Label,
    matrices: Mapping[int, Matrix], g: Matrix,
) -> Optional[GramPropertyFailure]:
    """`check_gram_properties` by dense products, on the action matrices
    and the Gram matrix g of cell lam."""

    def bar(m: Matrix) -> Matrix:
        if not sigma.conjugates_scalars:
            return m
        return Matrix([[v.conjugate() for v in row] for row in m.data])

    if g != transpose(bar(g)):
        return GramPropertyFailure(lam, "symmetry", ())
    images = sigma_matrix(sigma)
    for a in range(algebra.dim):
        lhs = matmul(transpose(bar(act(matrices, g.rows, column(images, a)))), g)
        if lhs != matmul(g, matrices[a]):
            return GramPropertyFailure(lam, "adjointness", (a,))
    return None


def summed_structure(structure) -> dict[tuple[int, int], Terms]:
    """The table of (i, j, k, c) quads: every pair's terms summed over
    `GaussianRational`, zero totals dropped, terms sorted by target."""
    sums: dict[tuple[int, int], dict[int, GaussianRational]] = {}
    for i, j, k, c in structure:
        row = sums.setdefault((i, j), {})
        row[k] = row.get(k, ZERO) + scalar(c)
    table = {}
    for pair, row in sums.items():
        terms = tuple(sorted((k, c) for k, c in row.items() if c))
        if terms:
            table[pair] = terms
    return table


def group_algebra_by_pairs(table) -> tuple[Algebra, AntiInvolution]:
    """The group algebra of a `GroupTable` from a dict of all n^2 products."""
    n = table.order
    structure = {(i, j): ((table.product[i][j], 1),) for i in range(n) for j in range(n)}
    unit = [0] * n
    unit[table.identity] = 1
    return Algebra(table.labels, quads(structure), unit), AntiInvolution.signed_permutation(table.inverse)


def matrix_algebra_by_pairs(n: int, involution: str) -> tuple[Algebra, AntiInvolution]:
    """M(n) from a dict of its n^3 nonzero products E_rs E_sv = E_rv."""
    sep = "," if n >= 10 else ""
    labels = tuple(f"E{r}{sep}{s}" for r in range(1, n + 1) for s in range(1, n + 1))
    idx = lambda r, s: (r - 1) * n + (s - 1)
    structure = {}
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for v in range(1, n + 1):
                structure[(idx(r, s), idx(s, v))] = ((idx(r, v), 1),)
    unit = [0] * (n * n)
    for r in range(1, n + 1):
        unit[idx(r, r)] = 1
    perm = [idx(s, r) for r in range(1, n + 1) for s in range(1, n + 1)]
    sigma = AntiInvolution.signed_permutation(
        perm, conjugates_scalars=(involution == "conj_transpose")
    )
    return Algebra(labels, quads(structure), unit), sigma


def matrix_over_algebra_by_pairs(
    n: int, inner: Algebra, inner_sigma: AntiInvolution
) -> tuple[Algebra, AntiInvolution]:
    """M(n, A) from a dict of its products, every inner pair (i, j) probed
    with `product_terms` for each (r, s, v)."""
    d = inner.dim
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
    unit = [0] * (n * n * d)
    for r in range(1, n + 1):
        for i, c in enumerate(inner.unit):
            unit[idx(r, r, i)] = c
    images = tuple(
        {idx(s, r, k): c for k, c in inner_sigma.images[i].items()}
        for r in range(1, n + 1)
        for s in range(1, n + 1)
        for i in range(d)
    )
    sigma = AntiInvolution(images, inner_sigma.conjugates_scalars)
    return Algebra(labels, quads(structure), unit), sigma


def tl_compose_union_find(up: TLDiagram, low: TLDiagram) -> tuple[TLDiagram, int]:
    """(product, closed loop count) of `up` stacked on `low`.

    The stacked picture has 3n points: up's top keeps ids 1..n, the
    identified middle row gets n+1..2n (up's bottom == low's top), and
    low's bottom moves to 2n+1..3n.  Union-find over these points joins the
    arcs; components with two outer points give the arcs of the product,
    components containing only middle points are loops.
    """
    n = up.n
    parent = list(range(3 * n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a, b in up.pairs:
        union(a, b)
    for a, b in low.pairs:
        union(a + n, b + n)
    outer_of: dict[int, list[int]] = {}
    for p in [*range(1, n + 1), *range(2 * n + 1, 3 * n + 1)]:
        outer_of.setdefault(find(p), []).append(p)
    pairs = []
    for members in outer_of.values():
        assert len(members) == 2, "outer points must pair up"
        a, b = members
        pairs.append((a if a <= n else a - n, b if b <= n else b - n))
    loops = len({find(p) for p in range(n + 1, 2 * n + 1)} - set(outer_of))
    return TLDiagram.from_pairs(n, pairs), loops


def pr_compose_dataclass(d1: PlanarRookDiagram, d2: PlanarRookDiagram) -> PlanarRookDiagram:
    """d1 on top of d2: arcs survive where d1's bottom endpoint meets d2's
    top endpoint, sorted as planarity keeps order."""
    top_of = dict(zip(d1.bottom, d1.top))
    bottom_of = dict(zip(d2.top, d2.bottom))
    middle = sorted(set(d1.bottom) & set(d2.top))
    return PlanarRookDiagram(
        d1.n, tuple(top_of[m] for m in middle), tuple(bottom_of[m] for m in middle)
    )


def temperley_lieb_by_union_find(n: int, delta) -> tuple[dict, Vector, Matrix]:
    """(structure, unit, involution matrix) of TL_delta(n), every product
    composed by `tl_compose_union_find` and weighted by repeated products."""
    delta = scalar(delta)
    diagrams = temperley_lieb_diagrams(n)
    index = {d: i for i, d in enumerate(diagrams)}
    structure = {}
    for i, d1 in enumerate(diagrams):
        for j, d2 in enumerate(diagrams):
            product, loops = tl_compose_union_find(d1, d2)
            coeff = ONE
            for _ in range(loops):
                coeff = coeff * delta
            if coeff:
                structure[(i, j)] = ((index[product], coeff),)
    unit = unit_vector(len(diagrams), index[TLDiagram.identity(n)])
    perm = [index[d.flip()] for d in diagrams]
    return structure, unit, signed_permutation_matrix(len(diagrams), perm)


def planar_rook_by_dataclass(n: int) -> tuple[dict, Vector, Matrix]:
    """(structure, unit, involution matrix) of PR(n), every product composed
    by `pr_compose_dataclass`."""
    diagrams = planar_rook_diagrams(n)
    index = {d: i for i, d in enumerate(diagrams)}
    structure = {
        (i, j): ((index[pr_compose_dataclass(d1, d2)], ONE),)
        for i, d1 in enumerate(diagrams)
        for j, d2 in enumerate(diagrams)
    }
    full = tuple(range(1, n + 1))
    unit = unit_vector(len(diagrams), index[PlanarRookDiagram(n, full, full)])
    perm = [index[d.flip()] for d in diagrams]
    return structure, unit, signed_permutation_matrix(len(diagrams), perm)


def _thaw_label(value):
    return [_thaw_label(v) for v in value] if isinstance(value, tuple) else value


def _label_key(value):
    if isinstance(value, tuple):
        return 2, tuple(map(_label_key, value))
    return int(isinstance(value, str)), value


def document_to_jsonable(doc: AlgebraDocument) -> dict:
    """The document as JSON objects: one list per structure constant."""
    algebra, sigma, cell = doc.algebra, doc.sigma, doc.cell
    involution: dict = {"conjugates_scalars": sigma.conjugates_scalars}
    if sigma._signed_permutation is None:
        images = sigma.images
        involution["matrix"] = [[str(im.get(i, 0)) for im in images] for i in range(len(images))]
    else:
        perm, signs = sigma._signed_permutation
        involution["permutation"], involution["signs"] = list(perm), list(signs)
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "name": doc.name,
        "basis": list(algebra.labels),
        "structure": [
            [i, j, k, str(c)]
            for i, row in enumerate(algebra.rows)
            for j in sorted(row)
            for k, c in row[j]
        ],
        "unit": [str(c) for c in algebra.unit],
        "involution": involution,
        "metadata": doc.metadata,
    }
    if cell is not None:
        payload["cell"] = {
            "lambdas": [_thaw_label(lam) for lam in cell.lambdas],
            "order": [_thaw_label(pair) for pair in sorted(cell.less, key=_label_key)],
            "index_sets": [_thaw_label((lam, cell.index_sets[lam])) for lam in cell.lambdas],
            "triples": [
                [*_thaw_label(triple), idx]
                for triple, idx in sorted(cell.basis_map.items(), key=lambda item: item[1])
            ],
        }
    return payload


def emit_dumps(doc: AlgebraDocument) -> str:
    """The document's text from `json.dumps` of the whole document."""
    return json.dumps(document_to_jsonable(doc), indent=2, sort_keys=True) + "\n"
