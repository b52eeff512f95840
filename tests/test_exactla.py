"""Exact linear algebra layer: rings, sparse matrices, Smith form, solvers.

Oracle values in this file are frozen from independent computations:
invariant factors via gcds of minors, kernels over small fields by
exhaustive enumeration, determinants by cofactor expansion.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cychom.rings import ZZ, QQ, GF, ring_from_name
from cychom.matrix import ExactMatrix
from cychom.snf import det_bareiss, invariant_factors, smith_normal_form
from cychom.linalg import (
    integer_kernel_basis,
    integer_solve,
    rank,
    rref,
    solve_field,
)
from presentation_homology import rank_kernel


# ---------------------------------------------------------------------------
# rings


def test_ring_basics():
    assert ZZ.characteristic == 0 and not ZZ.is_field
    assert QQ.characteristic == 0 and QQ.is_field
    F7 = GF(7)
    assert F7.characteristic == 7 and F7.is_field
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.neg(2) == 5
    assert QQ.coerce(2) == Fraction(2)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_ring_from_name():
    assert ring_from_name("Z") == ZZ
    assert ring_from_name("Q") == QQ
    assert ring_from_name("Fp", 5) == GF(5)
    with pytest.raises(ValueError):
        ring_from_name("Fp")
    with pytest.raises(ValueError):
        ring_from_name("R")


def test_gf_singleton_cache():
    assert GF(3) is GF(3)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_arithmetic():
    A = ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4]])
    B = ExactMatrix.from_rows(ZZ, [[0, 1], [1, 0]])
    assert (A * B).to_rows() == [[2, 1], [4, 3]]
    assert (A + B).to_rows() == [[1, 3], [4, 4]]
    assert (A - A).is_zero()
    assert (-A).to_rows() == [[-1, -2], [-3, -4]]
    assert A.transpose().to_rows() == [[1, 3], [2, 4]]
    assert A.scale(2).to_rows() == [[2, 4], [6, 8]]
    assert ExactMatrix.identity(ZZ, 2) * A == A


def test_matrix_zero_entries_dropped():
    A = ExactMatrix(ZZ, 2, 2, {(0, 0): 1, (1, 1): 0})
    assert A.nnz == 1
    assert (0, 0) in A.entries and (1, 1) not in A.entries


def test_matrix_apply_and_stack():
    A = ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4]])
    H = A.hstack(ExactMatrix.identity(ZZ, 2))
    assert H.ncols == 4 and H.entry(0, 2) == 1
    V = A.vstack(ExactMatrix.identity(ZZ, 2))
    assert V.nrows == 4 and V.entry(2, 0) == 1


def test_matrix_shape_errors():
    A = ExactMatrix.from_rows(ZZ, [[1, 2]])
    B = ExactMatrix.from_rows(ZZ, [[1, 2]])
    with pytest.raises(ValueError):
        A * B
    with pytest.raises(ValueError):
        A + ExactMatrix.identity(ZZ, 2)


def test_matrix_modular_reduction():
    A = ExactMatrix.from_rows(GF(3), [[4, -1], [3, 5]])
    assert A.to_rows() == [[1, 2], [0, 2]]


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_oracle_2x2():
    # invariant factors of [[2,4],[6,8]]: gcd of entries is 2, |det| = 8,
    # so the factors are (2, 4)
    A = ExactMatrix.from_rows(ZZ, [[2, 4], [6, 8]])
    U, D, V = smith_normal_form(A)
    assert U * A * V == D
    assert [D.entry(i, i) for i in range(2)] == [2, 4]
    assert abs(det_bareiss(U)) == 1 and abs(det_bareiss(V)) == 1


def test_snf_oracle_rank_deficient():
    # [[1,2],[2,4]] has gcd 1 and vanishing determinant: factors (1,)
    A = ExactMatrix.from_rows(ZZ, [[1, 2], [2, 4]])
    assert invariant_factors(A) == [1]


def test_snf_oracle_3x3():
    # diag(2,6,12) already in Smith form; a unimodular scramble keeps factors
    D0 = ExactMatrix.from_rows(ZZ, [[2, 0, 0], [0, 6, 0], [0, 0, 12]])
    P = ExactMatrix.from_rows(ZZ, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    Q = ExactMatrix.from_rows(ZZ, [[1, 0, 0], [2, 1, 0], [1, 0, 1]])
    assert invariant_factors(P * D0 * Q) == [2, 6, 12]


def test_det_bareiss_oracle():
    A = ExactMatrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    # cofactor expansion: 1*(50-48) - 2*(40-42) + 3*(32-35) = -3
    assert det_bareiss(A) == -3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_properties(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    A = ExactMatrix.from_rows(ZZ, rows)
    U, D, V = smith_normal_form(A)
    assert U * A * V == D
    assert abs(det_bareiss(U)) == 1
    assert abs(det_bareiss(V)) == 1
    diag = [D.entry(i, i) for i in range(min(m, n))]
    for (i, j) in D.entries:
        assert i == j
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    for d in diag:
        assert d >= 0


@st.composite
def integer_matrices(draw):
    """Tall, wide and square integer matrices, of rank below min(m, n) when k is.

    Each is an m x k times a k x n matrix of small entries.
    """
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(1, max(m, n)))
    entry = st.integers(-12, 12)
    L = [[draw(entry) for _ in range(k)] for _ in range(m)]
    R = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return [[sum(L[i][t] * R[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_invariant_factors_match_sympy(rows):
    from sympy import Matrix, ZZ as SZZ
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    want = [abs(int(f)) for f in sympy_factors(Matrix(rows), domain=SZZ) if f]
    assert invariant_factors(ExactMatrix.from_rows(ZZ, rows)) == want


# ---------------------------------------------------------------------------
# field linear algebra


def test_kernel_oracle_f2():
    # kernel of [[1,1],[1,1]] over F_2 is spanned by (1,1): checked by
    # enumerating all four vectors
    A = ExactMatrix.from_rows(GF(2), [[1, 1], [1, 1]])
    r, K = rank_kernel(A)
    assert r == 1
    assert K.to_rows() == [[1], [1]]


def test_rref_oracle():
    A = ExactMatrix.from_rows(QQ, [[2, 4], [1, 3]])
    E, pivots = rref(A)
    assert pivots == [0, 1]
    assert E[0] == [1, 0] and E[1] == [0, 1]


def test_solve_field():
    A = ExactMatrix.from_rows(GF(5), [[1, 2], [3, 4]])
    X = ExactMatrix.from_rows(GF(5), [[1], [1]])
    B = A * X
    Y = solve_field(A, B)
    assert A * Y == B


def test_solve_field_inconsistent():
    A = ExactMatrix.from_rows(QQ, [[1, 1], [1, 1]])
    B = ExactMatrix.from_rows(QQ, [[1], [0]])
    with pytest.raises(ValueError):
        solve_field(A, B)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.sampled_from([2, 3, 7]), st.data())
def test_rank_kernel_properties(m, n, p, data):
    F = GF(p)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    A = ExactMatrix.from_rows(F, rows)
    r, K = rank_kernel(A)
    assert r + K.ncols == n
    if K.ncols:
        assert (A * K).is_zero()
        assert rank(K) == K.ncols


# ---------------------------------------------------------------------------
# integer kernels and solving


def test_integer_kernel_saturated():
    # kernel of [2, -2] over Z is generated by (1, 1), not (2, 2)
    A = ExactMatrix.from_rows(ZZ, [[2, -2]])
    K = integer_kernel_basis(A)
    assert K.ncols == 1
    col = [K.entry(i, 0) for i in range(2)]
    assert sorted(abs(c) for c in col) == [1, 1]


def test_integer_solve_roundtrip():
    K = ExactMatrix.from_rows(ZZ, [[1, 0], [2, 1], [0, 3]])
    X = ExactMatrix.from_rows(ZZ, [[2], [-1]])
    B = K * X
    assert integer_solve(K, B) == X


def test_integer_solve_nonintegral():
    K = ExactMatrix.from_rows(ZZ, [[2], [0]])
    B = ExactMatrix.from_rows(ZZ, [[1], [0]])
    with pytest.raises(ValueError):
        integer_solve(K, B)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_integer_kernel_properties(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    A = ExactMatrix.from_rows(ZZ, rows)
    K = integer_kernel_basis(A)
    if K.ncols:
        assert (A * K).is_zero()
    # over Q the kernel has the same dimension, so K spans after tensoring
    AQ = ExactMatrix.from_rows(QQ, rows)
    assert K.ncols == n - rank(AQ)
    if K.ncols:
        KQ = ExactMatrix(QQ, K.nrows, K.ncols, {k: Fraction(v) for k, v in K.entries.items()})
        assert rank(KQ) == K.ncols
