"""Group algebras from multiplication tables.

A group algebra carries the anti-involution extending g -> g^{-1}; the
skew part is spanned by the differences g - g^{-1}, so its dimension is
half the number of non-involutive elements.  Groups enter only as
explicit multiplication tables (the same JSON shape the CLI accepts).
"""

from plesken import group_algebra, plesken_lie_algebra
from plesken.algebra import describe_vector, plesken_subspace
from plesken.suite import cyclic_table, symmetric_3_table

for name, table in (
    ("C2", cyclic_table(2)),
    ("C3", cyclic_table(3)),
    ("C5", cyclic_table(5)),
    ("S3", symmetric_3_table()),
):
    A, sigma = group_algebra(table)
    skew = plesken_subspace(A, sigma)
    non_involutive = sum(1 for g in range(table.order) if table.inverse[g] != g)
    L = plesken_lie_algebra(A, sigma)
    print(f"{name}: order {table.order}, "
          f"skew dim {skew.dim} (= {non_involutive}/2), "
          f"abelian bracket: {not L.table}")

# For S3 the skew part is 1-dimensional: the two 3-cycles are the only
# non-involutive elements and they are inverse to each other.
A, sigma = group_algebra(symmetric_3_table())
for v in plesken_subspace(A, sigma).basis:
    print("S3 skew generator:", describe_vector(A.labels, v))
