"""Algebras built from others, for metamorphic tests that need no reference values.

`product(A, B)` is the direct product: block structure constants and
unit (1_A, 1_B).  Hochschild and cyclic homology are additive on it
(Loday, Cyclic Homology, 1.2 and 4.2), so every catalog pair gives a
check.  `reduced_mod(A, p)` is an algebra over Z with its structure
constants and unit read mod p, for the universal coefficient theorem.
`group_algebra(base, elements, mul)` is the group ring of a finite group
given by its elements and its multiplication, for Burghelea's
decomposition of its Hochschild homology by conjugacy classes.
Not collected by pytest; the tests import it.
"""

from __future__ import annotations

from cychom.algebra import Algebra, algebra_from_json, algebra_to_json
from cychom.rings import BaseRing


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


def reduced_mod(A: Algebra, p: int) -> Algebra:
    """A over Z, read over F_p, through the CLI's JSON schema."""
    return algebra_from_json({**algebra_to_json(A), "base": "Fp", "p": p})


def group_algebra(base: BaseRing, elements: list, mul) -> Algebra:
    """base[G] in the basis of G's elements, the identity elements[0] first."""
    index = {g: i for i, g in enumerate(elements)}
    if any(mul(elements[0], g) != g for g in elements):
        raise ValueError("the first element must be the identity")
    n = len(elements)
    dense = [[[base.zero] * n for _ in range(n)] for _ in range(n)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            dense[i][j][index[mul(g, h)]] = base.one
    return Algebra.from_structure_constants(base, n, dense, [base.one] + [base.zero] * (n - 1))
