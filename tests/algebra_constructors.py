"""Algebras built from others, for metamorphic tests that need no reference values.

`product(A, B)` is the direct product: block structure constants and
unit (1_A, 1_B).  Hochschild and cyclic homology are additive on it
(Loday, Cyclic Homology, 1.2 and 4.2), so every catalog pair gives a
check.  Not collected by pytest; the tests import it.
"""

from __future__ import annotations

from cychom.algebra import Algebra


def product(A: Algebra, B: Algebra) -> Algebra:
    """A x B, with A's basis first and then B's."""
    if A.base != B.base:
        raise ValueError("the factors of a product share their base")
    n = A.dim + B.dim
    dense = [[[A.base.zero] * n for _ in range(n)] for _ in range(n)]
    for factor, at in ((A, 0), (B, A.dim)):
        for i in range(factor.dim):
            for j in range(factor.dim):
                for k, c in factor.structure[i][j]:
                    dense[at + i][at + j][at + k] = c
    return Algebra.from_structure_constants(A.base, n, dense, [*A.unit, *B.unit])
