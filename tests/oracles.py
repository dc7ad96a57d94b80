"""Slow exact reference scans, kept as oracles for the fast validators.

`validate_associativity` and `validate_involution` in `plesken.algebra`
check their laws only for middle (resp. left) factors in a proved
generating set.  The scans here are the exhaustive versions they replaced:
every basis triple for associativity, every basis pair for the
anti-homomorphism law.  Differential tests compare the two verdicts.
"""

from __future__ import annotations

from typing import Optional

from plesken.algebra import Algebra, AntiInvolution, InvolutionFailure
from plesken.linalg import zero_vector
from plesken.scalars import ZERO, GaussianRational


def associativity_all_triples(algebra: Algebra) -> Optional[tuple[int, int, int]]:
    """First basis triple (lexicographic) where (ei ej) ek != ei (ej ek), else None."""
    get = algebra.structure.get
    n = algebra.dim
    for i in range(n):
        for j in range(n):
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


def involution_all_pairs(
    algebra: Algebra, sigma: AntiInvolution
) -> Optional[InvolutionFailure]:
    """Check sigma^2 = id on the basis and the anti-homomorphism law on all pairs."""
    if sigma.matrix.rows != algebra.dim or sigma.matrix.cols != algebra.dim:
        return InvolutionFailure("shape", (sigma.matrix.rows, sigma.matrix.cols))
    images = [sigma.apply_vector(algebra.basis_vector(i)) for i in range(algebra.dim)]
    for i in range(algebra.dim):
        if sigma.apply_vector(images[i]) != algebra.basis_vector(i):
            return InvolutionFailure("square", (i,))
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            product = zero_vector(algebra.dim)
            terms = algebra.product_terms(i, j)
            if terms:
                acc = [ZERO] * algebra.dim
                for k, c in terms:
                    acc[k] = c
                product = tuple(acc)
            lhs = sigma.apply_vector(product)
            rhs = algebra.multiply_vectors(images[j], images[i])
            if lhs != rhs:
                return InvolutionFailure("antihomomorphism", (i, j))
    return None
