"""Smith normal form over the integers, with transform tracking.

smith_normal_form(A) returns (U, D, V) with U*A*V = D, U and V
unimodular, D diagonal with nonnegative entries satisfying the
divisibility chain d_1 | d_2 | ... .  The elimination is gcd-driven
with partial pivoting on the smallest nonzero entry (ties broken by
position), which makes the result deterministic.  A caller that reads
no U, or no V, asks for it not to be tracked and gets None in its place:
the transforms are dense, m x m and n x n.
"""

from __future__ import annotations

from .matrix import ExactMatrix
from .rings import ZZ


def _swap_rows(M: list[list[int]], i: int, j: int) -> None:
    M[i], M[j] = M[j], M[i]


def _swap_cols(M: list[list[int]], i: int, j: int) -> None:
    for row in M:
        row[i], row[j] = row[j], row[i]


def _addmul_row(M: list[list[int]], dst: int, src: int, c: int) -> None:
    if c:
        row_d, row_s = M[dst], M[src]
        for k in range(len(row_d)):
            row_d[k] += c * row_s[k]


def _addmul_col(M: list[list[int]], dst: int, src: int, c: int) -> None:
    if c:
        for row in M:
            row[dst] += c * row[src]


def _scale_row(M: list[list[int]], i: int, c: int) -> None:
    M[i] = [c * x for x in M[i]]


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
        if pi != t:
            _swap_rows(M, t, pi)
            _swap_rows(U, t, pi)
        if pj != t:
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
                    _addmul_row(M, i, t, -q)
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
                    _addmul_col(M, j, t, -q)
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
            _addmul_row(M, t, offender, 1)
            _addmul_row(U, t, offender, 1)
        t += 1

    # normalize signs on the diagonal
    for i in range(min(m, n)):
        if M[i][i] < 0:
            _scale_row(M, i, -1)
            _scale_row(U, i, -1)

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
    """Invariant factors of coker(A), including 1s, excluding 0s."""
    _, D, _ = smith_normal_form(A, left=False, right=False)
    return diagonal_of(D)


def det_bareiss(A: ExactMatrix) -> int:
    """Exact integer determinant via fraction-free Gaussian elimination."""
    if A.ring != ZZ:
        raise ValueError("det_bareiss is defined over Z")
    if A.nrows != A.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = A.nrows
    if n == 0:
        return 1
    M = [[int(v) for v in row] for row in A.to_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot_row is None:
                return 0
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
