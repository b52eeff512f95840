"""Exact rank / kernel / solve primitives on top of ExactMatrix.

Field computations use dense reduced row echelon form with the
leftmost-pivot rule, so solutions come out canonical (free variables
set to zero).  Integer computations reduce to the Smith normal form.
"""

from __future__ import annotations

from .matrix import ExactMatrix
from .rings import Scalar, ZZ
from .snf import diagonal_of, invariant_factors, smith_normal_form


# ---------------------------------------------------------------------------
# fields


def rref(A: ExactMatrix) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form (dense) and the list of pivot columns."""
    ring = A.ring
    if not ring.is_field:
        raise ValueError("rref requires a field")
    M = A.to_rows()
    nrows, ncols = A.nrows, A.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = ring.inv(M[r][c])
        if inv != 1:
            M[r] = [ring.mul(v, inv) for v in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                row_i, row_r = M[i], M[r]
                M[i] = [ring.sub(row_i[k], ring.mul(f, row_r[k])) for k in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M, pivots


def rank(A: ExactMatrix) -> int:
    if A.ring.is_field:
        return len(rref(A)[1])
    return len(invariant_factors(A))


def solve_field(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Solve A X = B over a field; raises ValueError if inconsistent.

    When the solution is not unique the free variables are set to zero,
    which again makes the output canonical.
    """
    ring = A.ring
    aug = A.hstack(B)
    M, pivots = rref(aug)
    n = A.ncols
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent linear system")
    entries: dict[tuple[int, int], Scalar] = {}
    for r, pc in enumerate(pivots):
        for j in range(B.ncols):
            v = M[r][n + j]
            if v != 0:
                entries[(pc, j)] = v
    return ExactMatrix(ring, n, B.ncols, entries, _normalized=True)


# ---------------------------------------------------------------------------
# integers


def integer_kernel_basis(A: ExactMatrix) -> ExactMatrix:
    """Basis (columns) of ker(A) as a direct summand of Z^ncols.

    Taken from the columns of V in U A V = D corresponding to zero
    diagonal entries; these always span the full integer kernel lattice.
    """
    if A.ring != ZZ:
        raise ValueError("integer kernel requires base Z")
    _, D, V = smith_normal_form(A, left=False)
    r = len(diagonal_of(D))
    cols = list(range(r, A.ncols))
    return V.submatrix(list(range(A.ncols)), cols)


def integer_solve(K: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Solve K X = B over Z; raises ValueError when no integral solution exists.

    K need not be square but must have linearly independent columns,
    so any solution is unique.
    """
    if K.ring != ZZ or B.ring != ZZ:
        raise ValueError("integer_solve requires base Z")
    U, D, V = smith_normal_form(K)
    r = len(diagonal_of(D))
    if r != K.ncols:
        raise ValueError("columns are not independent")
    UB = U * B
    Y_entries: dict[tuple[int, int], int] = {}
    for (i, j), v in UB.entries.items():
        if i >= r:
            raise ValueError("no solution over Z")
        d = D.entry(i, i)
        if v % d:
            raise ValueError("no integral solution")
        Y_entries[(i, j)] = v // d
    Y = ExactMatrix(ZZ, K.ncols, B.ncols, Y_entries, _normalized=True)
    return V * Y
