"""Cellular structure and the orthogonal-decomposition certificate.

Both diagram families are cellular: planar rook cells are indexed by arc
count with index sets the endpoint subsets, Temperley-Lieb cells by the
number of through-strands with index sets the half diagrams.  For a
semisimple cellular algebra the skew part of the involution decomposes as
a direct sum of orthogonal Lie algebras, one block of size dim W(lam) per
cell.  `verify_theorem` certifies this on the nose: it checks that the
combined cell representation is injective, that every skew basis element
x satisfies rho(x)^T G + G rho(x) = 0 against each Gram matrix G, and
that the dimensions add up.
"""

from plesken import (
    Fingerprint,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
    fingerprint,
    gram_matrix,
    is_semisimple,
    planar_rook,
    plesken_lie_algebra,
    temperley_lieb,
    validate_cell_datum,
    verify_theorem,
)

for title, (algebra, sigma), datum_of in (
    ("PR(3)", planar_rook(3), cell_datum_planar_rook),
    ("TL(4) at delta=3", temperley_lieb(4, 3), cell_datum_temperley_lieb),
):
    n = 3 if title.startswith("PR") else 4
    cd = datum_of(n, sigma)
    print(f"== {title}, dim {algebra.dim}")
    print("  cell axioms:", "pass" if validate_cell_datum(algebra, sigma, cd) is None else "FAIL")
    for lam in cd.lambdas:
        form = gram_matrix(algebra, cd, lam)
        print(f"  cell {lam}: |M| = {form.size}, Gram rank {form.rank}")
    verdict = is_semisimple(algebra, cd)
    print("  semisimple:", verdict.semisimple)
    outcome = verify_theorem(algebra, sigma, cd)
    sizes = [d for _, d in outcome.block_sizes]
    print("  predicted orthogonal blocks:", sizes, "-> Lie dim", outcome.predicted_lie_dim)
    print("  certificate:", outcome.certified,
          f"(skew dim {outcome.lie_dim} == {outcome.predicted_lie_dim})")
    L = plesken_lie_algebra(algebra, sigma)
    print("  fingerprint matches block model:",
          fingerprint(L).compare(Fingerprint.orthogonal(sizes)).matches)
    print()
