"""The complete resolution of C_n and the direct route to (Tot(M tensor P))^G.

`cychom.tate.tate_complex` never builds the resolution: it writes the
invariants of Tot(M tensor P) through the untwisting isomorphism
(M tensor k[C_n])^G = M, under which the resolution's differentials
become sigma^{-1} - 1 and N on M.  This module keeps the resolution
itself, `CompleteResolution`, and a route that takes it literally:
`direct_tate_complex` computes the invariants of each M_i tensor P_j as
the kernel of sigma_M tensor sigma_P - 1, with no untwisting map, and
writes the total differential d_M tensor 1 + (-1)^i 1 tensor d_P in those
kernel bases.  The Tate tests compare `tate_complex` against it, so the
resolution's orientation and the untwisting are both checked.  Not
collected by pytest; the tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass

from cychom.complexes import ChainComplex
from cychom.linalg import integer_kernel_basis, integer_solve, solve_field
from cychom.matrix import ExactMatrix
from cychom.rings import BaseRing
from cychom.tate import GModuleComplex, TateError, _shift_matrix
from presentation_homology import rank_kernel


def _ones_matrix(ring: BaseRing, n: int) -> ExactMatrix:
    return ExactMatrix(
        ring, n, n, {(i, j): ring.one for i in range(n) for j in range(n)}
    )


# ---------------------------------------------------------------------------
# the resolution


@dataclass(frozen=True)
class CompleteResolution:
    """The 2-periodic complete resolution of k over k[C_n].

    P_i is free of rank n for every integer i; the differential out of
    even degrees is sigma - 1 and out of odd degrees the norm.  With this
    orientation ker(d: P_0 -> P_{-1}) is the invariant line, which the
    augmentation hits by 1 |-> N.
    """

    base: BaseRing
    order: int

    def rank(self, i: int) -> int:
        return self.order

    def differential(self, i: int) -> ExactMatrix:
        sigma = _shift_matrix(self.base, self.order)
        if i % 2 == 0:
            return sigma - ExactMatrix.identity(self.base, self.order)
        return _ones_matrix(self.base, self.order)

    def augmentation(self) -> ExactMatrix:
        """k -> P_0, the column N . 1."""
        return ExactMatrix(
            self.base, self.order, 1, {(i, 0): self.base.one for i in range(self.order)}
        )

    def window(self, lo: int, hi: int) -> ChainComplex:
        ranks = {d: self.order for d in range(lo, hi + 1)}
        diffs = {d: self.differential(d) for d in range(lo + 1, hi + 1)}
        return ChainComplex(self.base, ranks, diffs)

    def validate(self, width: int = 6) -> list[str]:
        problems = []
        C = self.window(-width // 2 - 1, width // 2 + 1)
        rep = C.validate()
        problems.extend(rep.problems)
        for d in range(-width // 2, width // 2 + 1):
            if not C.homology(d).is_zero():
                problems.append(f"window homology nonzero in degree {d}")
        sm1 = self.differential(0)
        N = self.differential(1)
        if not (sm1 * N).is_zero() or not (N * sm1).is_zero():
            problems.append("(sigma - 1) and N do not annihilate each other")
        eps = self.augmentation()
        ker = integer_kernel_basis(sm1) if not self.base.is_field else None
        if ker is not None:
            try:
                integer_solve(ker, eps)
                integer_solve(eps, ker)
            except ValueError:
                problems.append("augmentation is not an isomorphism onto ker d_0")
        return problems


def complete_resolution_cyclic(base: BaseRing, n: int) -> CompleteResolution:
    if n < 1:
        raise TateError("group order must be >= 1")
    P = CompleteResolution(base, n)
    problems = P.validate()
    if problems:
        raise TateError("; ".join(problems))
    return P


# ---------------------------------------------------------------------------
# the direct route


def _kron(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A tensor B, basis e_a tensor f_b at index a * rank(f) + b."""
    ring = A.ring
    entries = {
        (a * B.nrows + b, c * B.ncols + d): ring.mul(x, y)
        for (a, c), x in A.entries.items()
        for (b, d), y in B.entries.items()
    }
    return ExactMatrix(ring, A.nrows * B.nrows, A.ncols * B.ncols, entries)


def _block_diag(ring: BaseRing, blocks: list[ExactMatrix]) -> ExactMatrix:
    entries, r0, c0 = {}, 0, 0
    for K in blocks:
        for (r, c), v in K.entries.items():
            entries[(r0 + r, c0 + c)] = v
        r0, c0 = r0 + K.nrows, c0 + K.ncols
    return ExactMatrix(ring, r0, c0, entries)


def direct_tate_complex(
    M: GModuleComplex, P: CompleteResolution, window: tuple[int, int]
) -> ChainComplex:
    """(Tot(M tensor P))^G in total degrees lo..hi, read off invariant kernels.

    Degree d is the sum over i in M.degrees of (M_i tensor P_{d-i})^G, each
    the kernel of sigma_M tensor sigma_P - 1 (an integer kernel basis over
    Z, a field kernel otherwise).  The differential is that of Tot(M tensor P)
    restricted to the invariants and solved in those bases; like
    `tate_complex`'s, it is exact only away from the window's two edges.
    """
    base, n = M.base, P.order
    lo, hi = window
    eye_n = ExactMatrix.identity(base, n)
    sigma_P = _shift_matrix(base, n)
    invariants = {}
    for i in M.degrees:
        fixed = _kron(M.sigma(i), sigma_P) - ExactMatrix.identity(base, M.rank(i) * n)
        invariants[i] = rank_kernel(fixed)[1] if base.is_field else integer_kernel_basis(fixed)
    offsets, size = {}, 0
    for i in M.degrees:
        offsets[i] = size
        size += M.rank(i) * n

    def total_differential(d: int) -> ExactMatrix:
        """Tot(M tensor P)_d -> Tot(M tensor P)_{d-1} on the summands of M.degrees."""
        entries = {}

        def place(block: ExactMatrix, row0: int, col0: int) -> None:
            for (r, c), v in block.entries.items():
                key = (row0 + r, col0 + c)
                entries[key] = base.add(entries.get(key, base.zero), v)

        for i in M.degrees:
            if M.rank(i - 1):
                place(_kron(M.diff(i), eye_n), offsets[i - 1], offsets[i])
            horizontal = _kron(ExactMatrix.identity(base, M.rank(i)), P.differential(d - i))
            place(-horizontal if i % 2 else horizontal, offsets[i], offsets[i])
        return ExactMatrix(base, size, size, entries)

    K = _block_diag(base, [invariants[i] for i in M.degrees])
    solve = solve_field if base.is_field else integer_solve
    ranks = {d: K.ncols for d in range(lo, hi + 1)}
    diffs = {d: solve(K, total_differential(d) * K) for d in range(lo + 1, hi + 1)}
    return ChainComplex(base, ranks, diffs)
