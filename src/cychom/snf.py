"""Smith normal form over the integers, with transform tracking.

smith_normal_form(A) returns (U, D, V) with U*A*V = D, U and V
unimodular, D diagonal with nonnegative entries satisfying the
divisibility chain d_1 | d_2 | ... .  The elimination is gcd-driven
with partial pivoting on the smallest nonzero entry (ties broken by
position), which makes the result deterministic.  A caller that reads
no U, or no V, asks for it not to be tracked and gets None in its place:
the transforms are dense, m x m and n x n.

invariant_factors(A) runs the same elimination modulo a nonzero maximal
minor, which the fraction-free elimination of det_bareiss finds with the
rank, so its entries stay below that minor.
"""

from __future__ import annotations

from math import gcd

from .matrix import ExactMatrix
from .rings import ZZ


def _swap_rows(M: list[list[int]], i: int, j: int) -> None:
    M[i], M[j] = M[j], M[i]


def _swap_cols(M: list[list[int]], i: int, j: int) -> None:
    for row in M:
        row[i], row[j] = row[j], row[i]


def _addmul_row(M: list[list[int]], dst: int, src: int, c: int, D: int = 0) -> None:
    """Row dst += c * row src, reduced mod D unless D is 0."""
    if c:
        row = [x + c * y for x, y in zip(M[dst], M[src])]
        M[dst] = [x % D for x in row] if D else row


def _addmul_col(M: list[list[int]], dst: int, src: int, c: int, D: int = 0) -> None:
    """Column dst += c * column src, reduced mod D unless D is 0."""
    if c:
        for row in M:
            v = row[dst] + c * row[src]
            row[dst] = v % D if D else v


def _eliminate(M: list[list[int]], U: list[list[int]], V: list[list[int]], D: int = 0) -> None:
    """Diagonalize M in place, each diagonal entry dividing the next, with
    the row operations applied to U and the column operations to V.

    With D > 0, M's entries lie in 0..D-1 and stay there, and M is
    diagonalized over Z/D: gcd(M[i][i], D) divides gcd(M[i+1][i+1], D).
    """
    m, n = len(M), len(M[0]) if M else 0
    t = 0
    while t < min(m, n):
        # locate the smallest nonzero entry in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = abs(v)
                    if best is None or a < best:
                        best, pivot = a, (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        _swap_rows(M, t, pi)
        _swap_rows(U, t, pi)
        _swap_cols(M, t, pj)
        _swap_cols(V, t, pj)

        while True:
            p = M[t][t]
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                v = M[i][t]
                if v:
                    q = v // p
                    _addmul_row(M, i, t, -q, D)
                    _addmul_row(U, i, t, -q)
                    if M[i][t]:
                        # remainder smaller than the pivot: promote it
                        _swap_rows(M, t, i)
                        _swap_rows(U, t, i)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, n):
                v = M[t][j]
                if v:
                    q = v // p
                    _addmul_col(M, j, t, -q, D)
                    _addmul_col(V, j, t, -q)
                    if M[t][j]:
                        _swap_cols(M, t, j)
                        _swap_cols(V, t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # both cleared; enforce that the pivot divides the rest of the block
            p = M[t][t]
            offender = None
            for i in range(t + 1, m):
                row = M[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _addmul_row(M, t, offender, 1, D)
            _addmul_row(U, t, offender, 1)
        t += 1


def smith_normal_form(
    A: ExactMatrix, *, left: bool = True, right: bool = True
) -> tuple[ExactMatrix | None, ExactMatrix, ExactMatrix | None]:
    if A.ring != ZZ:
        raise ValueError("Smith normal form is defined over Z")
    m, n = A.nrows, A.ncols
    M = [[int(v) for v in row] for row in A.to_rows()]
    # an untracked U is m empty rows and an untracked V has no rows, so the
    # row and column operations on them do nothing
    U = [[int(i == j) for j in range(m)] if left else [] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)] if right else []
    _eliminate(M, U, V)

    # normalize signs on the diagonal
    for i in range(min(m, n)):
        if M[i][i] < 0:
            M[i] = [-x for x in M[i]]
            U[i] = [-x for x in U[i]]

    to_mat = lambda rows, r, c: ExactMatrix(ZZ, r, c, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}, _normalized=True)
    return (to_mat(U, m, m) if left else None), to_mat(M, m, n), (to_mat(V, n, n) if right else None)


def diagonal_of(D: ExactMatrix) -> list[int]:
    """Nonzero diagonal entries of a Smith form, in order."""
    out = []
    for i in range(min(D.nrows, D.ncols)):
        v = D.entry(i, i)
        if v == 0:
            break
        out.append(int(v))
    return out


def invariant_factors(A: ExactMatrix) -> list[int]:
    """Invariant factors of coker(A), including 1s, excluding 0s.

    The r factors d_i of A, of rank r, multiply to the gcd of its r x r
    minors, so each divides the nonzero minor D that `_bareiss` finds.
    The Smith form of A over Z/D then has d_i = gcd(t_i, D) for its first
    r diagonal entries t_i (Domich, Kannan and Trotter 1987; Hafner and
    McCurley 1991); a t_i the elimination mod D leaves at 0 gives D.
    """
    if A.ring != ZZ:
        raise ValueError("Smith normal form is defined over Z")
    r, D = _bareiss([[int(v) for v in row] for row in A.to_rows()])
    D = abs(D)
    M = [[int(v) % D for v in row] for row in A.to_rows()]
    _eliminate(M, [[] for _ in M], [], D)
    return [gcd(M[i][i], D) for i in range(r)]


def _bareiss(M: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination of M in place, with row and column swaps.

    Returns the rank r of M and a nonzero r x r minor of it: after the
    swaps, the minor on its first r rows and columns, signed so that a
    square M of full rank gets its determinant (1 when r = 0).
    """
    m, n = len(M), len(M[0]) if M else 0
    sign, prev = 1, 1
    for k in range(min(m, n)):
        pivot = next(((i, j) for j in range(k, n) for i in range(k, m) if M[i][j]), None)
        if pivot is None:
            return k, sign * prev
        i, j = pivot
        if i != k:
            _swap_rows(M, k, i)
            sign = -sign
        if j != k:
            _swap_cols(M, k, j)
            sign = -sign
        top = M[k][k:]
        p = top[0]
        for i in range(k + 1, m):
            row = M[i]
            a = row[k]
            row[k:] = [(x * p - a * y) // prev for x, y in zip(row[k:], top)]
        prev = p
    return min(m, n), sign * prev


def det_bareiss(A: ExactMatrix) -> int:
    """Exact integer determinant via fraction-free Gaussian elimination."""
    if A.ring != ZZ:
        raise ValueError("det_bareiss is defined over Z")
    if A.nrows != A.ncols:
        raise ValueError("determinant of a non-square matrix")
    r, det = _bareiss([[int(v) for v in row] for row in A.to_rows()])
    return det if r == A.nrows else 0
