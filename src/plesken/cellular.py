"""Cell data, cell modules, Gram forms and the orthogonal-sum certificate.

A cell datum carries a finite poset of cell labels, an index set M(lam) per
label, and a bijection between index-set pairs (s, t) and algebra basis
elements; the ambient anti-involution must swap the two index positions.
The axioms checked by `validate_cell_datum` are:

* C1: the triple map (lam, s, t) -> basis index is a bijection onto the
  basis.
* C2: the involution sends the (lam, s, t) basis element to (lam, t, s).
* C3: left multiplication is triangular, so a * C[lam, s, t] is a
  combination of C[lam, s', t] (same t!) plus terms in strictly lower
  cells, with coefficients r_a(s', s) independent of t.

Because the cellular basis *is* the algebra basis here, C3 is a support
check on structure constants plus a coefficient comparison across t; no
linear algebra is needed.  It reads the stored rows `algebra.rows[a]` of
the proved generators a only, on the cells each row reaches.  One reader
gives the C3 blocks: C3 compares them across t, those of the first column
are the cell module actions as sparse {(row, col): scalar} entries, and
those of the C[s0, t] hold the rows of each cell's dense Gram matrix.
`verify_theorem` builds what it reads: when every Gram form is
non-degenerate, the direct sum of cell representations is injective, and
the skew part of the involution maps isomorphically onto the block-skew
matrices (X^T G + G X = 0 per cell), the direct sum of the orthogonal Lie
algebras of the Gram forms.  Injectivity is read off the Gram ranks, full
ones certified mod a prime.  Skewness follows from the axioms for a linear
sigma, as `verify_theorem` proves, so it builds the cell modules only for a
semilinear one, whose form check is one `linalg.combine` of Gram rows and
columns, d terms per sparse entry.  The poset is used only through its
comparability pairs, so non-total orders work unchanged.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Optional, Sequence

from .algebra import Algebra, AntiInvolution, plesken_subspace
from .builders import planar_rook_diagrams, temperley_lieb_diagrams
from .linalg import P, Matrix, combine, rank, rank_mod_p, reducible, residue
from .scalars import GaussianRational

Label = object  # cell labels are small hashable values (ints here)
Entries = Mapping[tuple[int, int], GaussianRational]  # sparse matrix: (row, col) -> scalar


class CellDatum:
    """Poset of cells, index sets, and the triple-to-basis bijection.

    The strict order `less`, pairs (a, b) with a below b, must be irreflexive
    and transitive: for each pair, the set of cells above b lies in a's.
    """

    def __init__(
        self,
        lambdas: Sequence[Label],
        less_pairs,
        index_sets: Mapping,
        basis_map: Mapping,
        involution: AntiInvolution,
    ):
        self.lambdas = tuple(lambdas)
        labels = set(self.lambdas)
        if len(labels) != len(self.lambdas):
            raise ValueError("duplicate cell labels")
        self.less = frozenset((a, b) for a, b in less_pairs)
        bit = {lam: 1 << r for r, lam in enumerate(self.lambdas)}
        above = dict.fromkeys(self.lambdas, 0)  # above[a]: the bit of each b with (a, b) in less
        self._below: dict[Label, list[Label]] = {lam: [] for lam in self.lambdas}
        for a, b in self.less:
            if a not in labels or b not in labels:
                raise ValueError("order pair mentions unknown cell label")
            if a == b:
                raise ValueError("strict order cannot be reflexive")
            above[a] |= bit[b]
            self._below[b].append(a)
        if any(above[b] & ~above[a] for a, b in self.less):
            raise ValueError("order pairs are not transitively closed")
        if not set(index_sets) <= labels:
            raise ValueError("index set given for an unknown cell label")
        self.index_sets = {lam: tuple(index_sets.get(lam, ())) for lam in self.lambdas}
        if any(len(set(m)) != len(m) for m in self.index_sets.values()):
            raise ValueError("an index set lists a member twice")
        self.basis_map = dict(basis_map)
        self.involution = involution
        self.triples_of: dict[int, list[tuple]] = {}
        self._in_cell: dict[Label, list[int]] = {}  # the basis indices of each cell
        for triple, idx in self.basis_map.items():
            self.triples_of.setdefault(idx, []).append(triple)
            self._in_cell.setdefault(triple[0], []).append(idx)
        self._lower_cache: dict[Label, frozenset[int]] = {}

    def __eq__(self, other):
        return isinstance(other, CellDatum) and all(
            getattr(self, key) == getattr(other, key)
            for key in ("lambdas", "less", "index_sets", "basis_map", "involution")
        )

    __hash__ = None

    def members(self, lam: Label) -> tuple:
        return self.index_sets[lam]

    def lower_indices(self, lam: Label) -> frozenset[int]:
        """Basis indices of all cells strictly below lam, cell by cell."""
        if lam not in self._lower_cache:
            self._lower_cache[lam] = frozenset(itertools.chain.from_iterable(
                self._in_cell.get(mu, ()) for mu in self._below.get(lam, ())))
        return self._lower_cache[lam]


# ---------------------------------------------------------------------------
# Cell data for the built-in families


def cell_datum_matrix(n: int, involution: AntiInvolution) -> CellDatum:
    """Single-cell datum for M(n): C(s, t) = E_st."""
    members = tuple(range(1, n + 1))
    basis_map = {
        (1, s, t): (s - 1) * n + (t - 1) for s in members for t in members
    }
    return CellDatum((1,), (), {1: members}, basis_map, involution)


def cell_datum_planar_rook(n: int, involution: AntiInvolution) -> CellDatum:
    """Cells of PR(n): label = arc count, index set = endpoint subsets."""
    lambdas = tuple(range(n + 1))
    less = [(a, b) for a in lambdas for b in lambdas if a < b]
    index_sets = {
        lam: tuple(itertools.combinations(range(1, n + 1), lam)) for lam in lambdas
    }
    basis_map = {(len(d.top), d.top, d.bottom): i for i, d in enumerate(planar_rook_diagrams(n))}
    return CellDatum(lambdas, less, index_sets, basis_map, involution)


def cell_datum_temperley_lieb(n: int, involution: AntiInvolution) -> CellDatum:
    """Cells of TL(n): label = through-strand count, index set = half diagrams.

    A diagram is its through count, its cups among the top points and its
    cups among the bottom points shifted to 1..n (sorted cup tuples): the
    through strands join the free points of the two rows in order.
    """
    lambdas = tuple(range(n % 2, n + 1, 2))
    less = [(a, b) for a in lambdas for b in lambdas if a < b]
    halves: dict[int, set] = {lam: set() for lam in lambdas}
    basis_map = {}
    for i, d in enumerate(temperley_lieb_diagrams(n)):
        lam = d.through_count()
        top = tuple((a, b) for a, b in d.pairs if b <= n)
        bottom = tuple((a - n, b - n) for a, b in d.pairs if a > n)
        halves[lam].add(top)
        basis_map[(lam, top, bottom)] = i
    index_sets = {lam: tuple(sorted(halves[lam])) for lam in lambdas}
    return CellDatum(lambdas, less, index_sets, basis_map, involution)


# ---------------------------------------------------------------------------
# Validation


class CellValidationFailure(NamedTuple):
    clause: str  # "C1", "C2" or "C3"
    witness: tuple
    message: str

    def __str__(self):
        return f"{self.clause} fails: {self.message} (witness {self.witness})"


def validate_cell_datum(
    algebra: Algebra, sigma: AntiInvolution, cd: CellDatum
) -> Optional[CellValidationFailure]:
    """Check C1-C3; returns the first failure report, or None.

    C1 and C2 read every triple; C3 reads e_a C only for a in the proved
    generating set G, `algebra.generators`, and only on the cells that the
    stored row of e_a reaches: on any other cell every block is empty.  With
    the algebra associative, as `validate_algebra` proves first, and the
    order transitive, as `CellDatum` checks, the a that satisfy C3 form a
    subspace, closed under products: (ab)C = a(bC), and a J(<lam) lies in
    J(<lam) by C3 at each lower cell mu, whose J(<mu) lies in J(<lam) by
    transitivity.  It holds G, whose products span the algebra, so it is
    the whole algebra: a C3 failure anywhere fails at some generator, and
    the witness is the first one for G."""
    # C1: the triple map covers M(lam) x M(lam) for every lam and hits each
    # basis index exactly once.
    expected = {(lam, s, t) for lam, members in cd.index_sets.items()
                for s in members for t in members}
    actual = set(cd.basis_map)
    if actual != expected:
        missing = sorted(map(repr, expected - actual))
        extra = sorted(map(repr, actual - expected))
        message = "triple map domain is not the union of M(lam) x M(lam)"
        return CellValidationFailure("C1", (tuple(missing[:1]), tuple(extra[:1])), message)
    if sorted(cd.basis_map.values()) != list(range(algebra.dim)):
        dupes = [idx for idx, reps in cd.triples_of.items() if len(reps) > 1]
        message = "triple map is not a bijection onto the basis"
        return CellValidationFailure("C1", (tuple(dupes[:1]),), message)
    # C2: sigma swaps the two index positions.
    for (lam, s, t), idx in cd.basis_map.items():
        if sigma.images[idx] != {cd.basis_map[(lam, t, s)]: 1}:
            message = "involution does not send C[s,t] to C[t,s]"
            return CellValidationFailure("C2", (lam, s, t), message)
    # C3: triangular action with t-independent coefficients.
    for a in algebra.generators:
        reached = {cd.triples_of[b][0][0] for b in algebra.rows[a]}
        for lam in (lam for lam in cd.lambdas if lam in reached):
            members = cd.members(lam)
            for t in members:
                block = _column_action(algebra, cd, lam, a, t)
                if isinstance(block, tuple):
                    message = "product has support outside column t and the lower cells"
                    return CellValidationFailure("C3", block, message)
                if t == members[0]:
                    reference = block
                elif block != reference:
                    message = "action coefficients depend on t"
                    return CellValidationFailure("C3", (a, lam, members[0], t), message)
    return None


def _column_action(algebra: Algebra, cd: CellDatum, lam: Label, a: int, t) -> dict | tuple:
    """The C3 block {(s', s): c} of e_a on column t of cell lam, c the coefficient
    of C[lam, s', t] in e_a * C[lam, s, t] modulo the lower cells; a term outside
    column t and the lower cells gives the witness (a, lam, s, t, label) instead."""
    lower = cd.lower_indices(lam)
    block = {}
    for s in cd.members(lam):
        for k, c in algebra.product_terms(a, cd.basis_map[(lam, s, t)]):
            if k in lower:
                continue
            mu, row, column = cd.triples_of[k][0]
            if mu != lam or column != t:
                return (a, lam, s, t, algebra.labels[k])
            block[(row, s)] = c
    return block


# ---------------------------------------------------------------------------
# Cell modules and Gram forms


class CellModule(NamedTuple):
    lam: Label
    basis: tuple
    action: Mapping[int, Entries]  # algebra basis index -> nonzero entries of its matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def act(self, x: Mapping[int, GaussianRational]) -> dict[tuple[int, int], GaussianRational]:
        """Nonzero entries of the matrix of the algebra element with sparse terms x."""
        return combine((c, self.action[a].items()) for a, c in x.items())


def cell_module(algebra: Algebra, cd: CellDatum, lam: Label) -> CellModule:
    """The action entries: the first column's C3 blocks, for a validated datum."""
    members = cd.members(lam)
    pos = {s: i for i, s in enumerate(members)}
    action = {}
    for a in range(algebra.dim):
        block = _column_action(algebra, cd, lam, a, members[0]) if members else {}
        action[a] = {(pos[row], pos[s]): c for (row, s), c in block.items()}
    return CellModule(lam, members, action)


class GramForm(NamedTuple):
    lam: Label
    gram: Matrix

    @property
    def size(self) -> int:
        return self.gram.rows

    @property
    def rank(self) -> int:
        """The rank over Q(i): `size` if the rank mod P is, else by `Echelon`.
        When P divides no denominator, reading mod P is a ring homomorphism,
        so a nonzero minor mod P is one over Q(i) (see `lie.fingerprint`)."""
        rows = self.gram.data
        full = reducible(c for row in rows for c in row) and rank_mod_p(
            (dict(enumerate(map(residue, row))) for row in rows), P) == self.size
        return self.size if full else rank(self.gram)


def gram_matrix(algebra: Algebra, cd: CellDatum, lam: Label) -> GramForm:
    """Gram matrix of the cell bilinear form, for a datum that passed
    `validate_cell_datum`: with J the span of the cells below lam,
    C[s,t] C[u,v] = phi(t,u) C[s,v] mod J, and row t is read off the C3 block
    of C[s0,t] at column s0, s0 the first index.  Proof, also for a
    semilinear sigma and without associativity:

    * C3 gives C[s,t] C[u,v] = sum r(s',u) C[s',v] mod J, r free of v.
    * C2 gives sigma(J) = J and sigma(C[s,t] C[u,v]) = C[v,u] C[t,s], so C3
      and then sigma give C[s,t] C[u,v] = sum bar(r'(v',t)) C[s,v'] mod J,
      bar conjugating scalars when sigma does.
    * Modulo J the product lies in both spans, which meet in the span of
      C[s,v]; its coefficient phi is free of v by the first, of s by the
      second.
    """
    members = cd.members(lam)
    rows = []
    for t in members:
        s0 = members[0]
        block = _column_action(algebra, cd, lam, cd.basis_map[(lam, s0, t)], s0)
        rows.append([block.get((s0, u), 0) for u in members])
    return GramForm(lam, Matrix(rows))


class SemisimplicityReport(NamedTuple):
    semisimple: bool
    ranks: tuple[tuple[Label, int, int], ...]  # (lam, size, rank)

    @classmethod
    def from_ranks(cls, ranks) -> SemisimplicityReport:
        """Semisimple iff every cell Gram matrix has full rank."""
        ranks = tuple(ranks)
        return cls(all(size == rk for _, size, rk in ranks), ranks)

    def as_dict(self) -> dict:
        return {
            "semisimple": self.semisimple,
            "cells": [
                {"cell": lam, "size": size, "rank": rk, "deficit": size - rk}
                for lam, size, rk in self.ranks
            ],
        }


def is_semisimple(algebra: Algebra, cd: CellDatum) -> SemisimplicityReport:
    """Semisimple iff every cell Gram matrix has full rank, for a datum that
    passed `validate_cell_datum`."""
    forms = [gram_matrix(algebra, cd, lam) for lam in cd.lambdas]
    return SemisimplicityReport.from_ranks((f.lam, f.size, f.rank) for f in forms)


def _blocks(cd: CellDatum) -> tuple[tuple[tuple[Label, int], ...], int]:
    sizes = tuple((lam, len(cd.members(lam))) for lam in cd.lambdas if cd.members(lam))
    return sizes, sum(d * (d - 1) // 2 for _, d in sizes)


# ---------------------------------------------------------------------------
# The certificate


class TheoremReport(NamedTuple):
    """Outcome of the orthogonal-decomposition verification.

    certified means all three checks passed: (a) the direct sum of cell
    representations is injective, read off `gram_ranks` as every Gram form
    being nondegenerate, (b) every skew-part basis element acts G-skewly on
    every cell (X^T G + G X = 0), and (c) the skew part has dimension
    sum(d(d-1)/2).  A refutation records the first failed check; with a
    linear sigma (b) is proved for every valid datum (`verify_theorem`), so
    refutations come from (a) on non-semisimple input.  A semilinear sigma
    can fail (b): under conjugate transposition M(n) has i E_11 in its skew
    part, not G-skew.
    """

    certified: bool
    injective: bool
    skew_ok: bool
    skew_witness: Optional[tuple]
    lie_dim: int
    predicted_lie_dim: int
    block_sizes: tuple[tuple[Label, int], ...]
    gram_ranks: tuple[tuple[Label, int, int], ...]
    failed_check: Optional[str]

    def as_dict(self) -> dict:
        return {
            "certified": self.certified,
            "checks": {
                "representation_injective": self.injective,
                "form_skewness": self.skew_ok,
                "dimension_match": self.lie_dim == self.predicted_lie_dim,
            },
            "skew_witness": list(self.skew_witness) if self.skew_witness else None,
            "lie_dim": self.lie_dim,
            "predicted_lie_dim": self.predicted_lie_dim,
            "blocks": [{"cell": lam, "size": d} for lam, d in self.block_sizes],
            "gram_ranks": [
                {"cell": lam, "size": size, "rank": rk}
                for lam, size, rk in self.gram_ranks
            ],
            "failed_check": self.failed_check,
        }


def _form_defect(x: Entries, g: Matrix, y: Entries, sign: int) -> bool:
    """Whether X^T G + sign * G Y is nonzero, X and Y given by their sparse
    entries x and y: one `combine` of row k of G per entry (k, i) of x and
    of column k per entry (k, j) of y, d terms each."""
    rows = g.data
    left = ((c, [((i, j), v) for j, v in enumerate(rows[k]) if v]) for (k, i), c in x.items())
    right = ((sign * c, [((i, j), row[k]) for i, row in enumerate(rows) if row[k]])
             for (k, j), c in y.items())
    return bool(combine(itertools.chain(left, right)))


def verify_theorem(algebra: Algebra, sigma: AntiInvolution, cd: CellDatum) -> TheoremReport:
    """Certify (or refute) that the skew part is the direct sum of the
    orthogonal Lie algebras of the cell Gram forms.

    Requires a datum that passed `validate_cell_datum`.  It builds the Gram
    form of every cell, and the cell modules only for a semilinear sigma.
    Check (a), injectivity of Phi = (+) rho_lam, holds iff every Gram form
    G_lam is nondegenerate:

    * C3 makes J(<=lam) = span{C[mu,s,t] : mu <= lam} a left ideal, and C2
      with sigma(xy) = sigma(y) sigma(x) a right one, also for semilinear
      sigma.  So rho_mu is zero on cell lam unless mu <= lam, and
      rho_lam(sum x_st C[lam,s,t]) = X G_lam.  If Phi(x) = 0, a maximal lam
      with x_lam != 0 gives X_lam G_lam = 0, so G_lam is degenerate.
    * C1 gives dim A = sum d_lam^2, so an injective Phi is onto and each
      W_lam is simple.  By adjointness ker G_lam is a submodule, 0 or W_lam,
      and G_lam = 0 would make Phi map J(<=lam) into the smaller sum of
      End(W_mu) over mu < lam.
    * On the zero algebra a map from the zero space is injective, and 0 is
      the empty sum of o(d), so the zero algebra is certified.

    Check (b) runs only for a semilinear sigma; for a linear one it is
    proved.  Let J = J(<lam), the sum of the ideals J(<=mu), mu < lam, and
    compute C[s,t] a C[u,v] mod J both ways, by associativity (proved by
    `validate_algebra`).  By C2 and C3, C[s,t] a = sigma(sigma(a) C[t,s]) =
    sum_t' r(t',t) C[s,t'] mod J, r the entries of rho(sigma(a)), so the
    product is (rho(sigma(a))^T G)[t,u] C[s,v]; by C3 it is (G rho(a))[t,u]
    C[s,v].  This adjointness and sigma(x) = -x on every skew row x, which
    `skew_subspace` checks, give X^T G + G X = 0.  A semilinear sigma
    conjugates r: i*1 is skew, and X^T G + G X = 2iG.
    """
    grams = {lam: gram_matrix(algebra, cd, lam) for lam in cd.lambdas}
    gram_ranks = tuple((lam, form.size, form.rank) for lam, form in grams.items())

    # (a) injectivity of the combined cell representation, read off the ranks.
    injective = all(size == rk for _, size, rk in gram_ranks)

    # (b) G-skewness of every skew-part basis element, proved above for a linear sigma.
    sub = plesken_subspace(algebra, sigma)
    modules = {lam: cell_module(algebra, cd, lam)
               for lam in (cd.lambdas if sigma.conjugates_scalars else ())}
    actions = ((r, lam, modules[lam].act(x))
               for r, x in enumerate(sub.rows.values()) for lam in modules)
    skew_witness = next(((r, lam) for r, lam, action in actions
                         if action and _form_defect(action, grams[lam].gram, action, 1)), None)
    skew_ok = skew_witness is None

    # (c) dimension count.
    sizes, predicted = _blocks(cd)
    dims_match = sub.dim == predicted

    checks = (("representation_injective", injective), ("form_skewness", skew_ok),
              ("dimension_match", dims_match))
    failed = next((name for name, ok in checks if not ok), None)
    return TheoremReport(
        certified=failed is None,
        injective=injective,
        skew_ok=skew_ok,
        skew_witness=skew_witness,
        lie_dim=sub.dim,
        predicted_lie_dim=predicted,
        block_sizes=sizes,
        gram_ranks=gram_ranks,
        failed_check=failed,
    )


class GramPropertyFailure(NamedTuple):
    lam: Label
    kind: str  # "symmetry" or "adjointness"
    witness: tuple

    def __str__(self):
        return f"cell {self.lam!r}: {self.kind} fails at {self.witness}"


def check_gram_properties(
    algebra: Algebra, sigma: AntiInvolution, cd: CellDatum, lam: Label
) -> Optional[GramPropertyFailure]:
    """Check G = bar(G)^T and bar(rho(sigma(a)))^T G = G rho(a) for all basis
    a, bar conjugating scalars when sigma does: G is symmetric for a linear
    sigma and Hermitian for a semilinear one.

    These hold for every datum that passed `validate_cell_datum`, semisimple
    or not, as the `report` module and `verify_theorem` prove, so no command
    runs this check.  It builds the module and the form of cell lam.
    """
    module, g = cell_module(algebra, cd, lam), gram_matrix(algebra, cd, lam).gram
    bar = (lambda c: c.conjugate()) if sigma.conjugates_scalars else (lambda c: c)
    if g != Matrix([[bar(v) for v in column] for column in zip(*g.data)]):
        return GramPropertyFailure(lam, "symmetry", ())
    for a in range(algebra.dim):
        image = {key: bar(c) for key, c in module.act(sigma.images[a]).items()}
        if _form_defect(image, g, module.action[a], -1):
            return GramPropertyFailure(lam, "adjointness", (a,))
    return None
