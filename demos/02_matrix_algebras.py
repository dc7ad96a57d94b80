"""Matrix algebras under transposition and conjugate transposition.

Transposition is linear over Q(i): the skew part consists of the
skew-symmetric matrices, dimension n(n-1)/2, the orthogonal Lie algebra.
Conjugate transposition conjugates scalars as well; the Q(i)-span of the
differences a - sigma(a) is then the whole matrix algebra, the general
linear Lie algebra of dimension n^2.
"""

from plesken import (
    Fingerprint,
    fingerprint,
    matrix_algebra,
    matrix_over_algebra,
    plesken_lie_algebra,
    quaternions,
    validate_involution,
)
from plesken.algebra import plesken_subspace

for n in range(1, 5):
    A, sigma = matrix_algebra(n, "transpose")
    L = plesken_lie_algebra(A, sigma)
    match = fingerprint(L).compare(Fingerprint.orthogonal([n]))
    print(f"M({n}) transpose: skew dim {L.dim} "
          f"(= {n}({n}-1)/2), model match: {match.matches}")

print()
for n in range(1, 4):
    A, sigma = matrix_algebra(n, "conj_transpose")
    skew = plesken_subspace(A, sigma)
    print(f"M({n}) conjugate transpose: skew dim {skew.dim} (= {n}^2)")

# gl(2) is not semisimple: the identity matrix is central, and the Killing
# form picks that up exactly.
A, sigma = matrix_algebra(2, "conj_transpose")
fp = fingerprint(plesken_lie_algebra(A, sigma))
print("\ngl(2) fingerprint:", fp.as_dict())

# The same construction applies verbatim to matrices over any algebra with
# an anti-involution, entrywise-conjugated transposition included.
inner, inner_sigma = quaternions()
M2H, sigma2 = matrix_over_algebra(2, inner, inner_sigma)
print("\nM(2, quaternions): dim", M2H.dim,
      "; involution valid:", validate_involution(M2H, sigma2) is None)
