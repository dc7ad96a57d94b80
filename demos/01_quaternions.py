"""Quaternions: the smallest interesting skew part.

The quaternion algebra carries the conjugation anti-involution, which fixes
1 and negates i, j, k.  The span of all a - sigma(a) is therefore spanned
by i, j, k, and its commutator brackets are twice the cross-product
relations of 3-space.  Everything below is computed exactly.
"""

from fractions import Fraction

from plesken import plesken_lie_algebra, quaternions
from plesken.algebra import describe_vector, plesken_subspace
from plesken.scalars import scalar

A, sigma = quaternions()
print("basis:", A.labels)
print("sigma(i) =", describe_vector(A.labels, sigma.image({1: 1}).items()))

rows = plesken_subspace(A, sigma).rows
print("\nskew part dimension:", len(rows))
for row in rows.values():
    print("  ", describe_vector(A.labels, row.items()))

L = plesken_lie_algebra(A, sigma)
print("\nbrackets:")
for a in range(L.dim):
    for b in range(a + 1, L.dim):
        print(f"  [{L.labels[a]}, {L.labels[b]}] =",
              describe_vector(L.labels, L.bracket_terms(a, b)))

# Scaling the basis by 1/2 turns the brackets into the cross product rules.
# Vectors here are sparse coordinates {index: scalar} in the skew basis (i, j, k).
half = scalar(Fraction(1, 2))
e1, e2, e3 = {0: half}, {1: half}, {2: half}
bracket = L.bracket
print("\nwith e_n = basis/2:")
print("  [e1, e2] == e3:", bracket(e1, e2) == e3)
print("  [e1, e3] == -e2:", bracket(e1, e3) == {1: -half})
print("  [e2, e3] == e1:", bracket(e2, e3) == e1)
