"""TL_0(4): why semisimplicity is needed for the orthogonal decomposition.

At delta = 0 the Temperley-Lieb algebra on four strands is not semisimple
(two of its three Gram forms are degenerate).  Its 4-dimensional skew part
is a solvable Lie algebra of derived length 3, which no direct sum of
orthogonal Lie algebras can be: o(r) is perfect for r >= 3 and abelian for
r <= 2, so a solvable orthogonal sum would have derived length at most 1.
The certificate machinery refutes the decomposition at the injectivity of
the combined cell representation, and the fingerprint comparison against
the would-be blocks {1, 3, 2} fails.
"""

from plesken import (
    Fingerprint,
    cell_datum_temperley_lieb,
    derived_series,
    fingerprint,
    is_semisimple,
    plesken_lie_algebra,
    temperley_lieb,
    verify_theorem,
)
from plesken.algebra import describe_vector

A, sigma = temperley_lieb(4, 0)
cd = cell_datum_temperley_lieb(4, sigma)

verdict = is_semisimple(A, cd)
print("semisimple:", verdict.semisimple)
for lam, size, rank in verdict.ranks:
    print(f"  cell {lam}: Gram rank {rank} of {size}")

outcome = verify_theorem(A, sigma, cd)
print("\ncertificate:", outcome.certified, "| failed check:", outcome.failed_check)
print("dimension count alone would not notice:",
      f"skew dim {outcome.lie_dim} == sum d(d-1)/2 = {outcome.predicted_lie_dim}")

L = plesken_lie_algebra(A, sigma)
print("\nbracket table in the canonical skew basis:")
for a in range(L.dim):
    for b in range(a + 1, L.dim):
        print(f"  [{L.labels[a]}, {L.labels[b]}] =",
              describe_vector(L.labels, L.bracket_terms(a, b)))

print("\nderived series dimensions:", [s.dim for s in derived_series(L)])
fp = fingerprint(L)
print("solvable:", fp.solvable, "| derived length:", fp.derived_length)
print("fingerprint matches blocks {1,3,2}:",
      fp.compare(Fingerprint.orthogonal([1, 3, 2])).matches)
