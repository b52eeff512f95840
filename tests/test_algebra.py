import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from cychom.rings import QQ, GF
from cychom.algebra import (
    Algebra,
    AlgebraError,
    algebra_from_json,
    algebra_to_json,
    _poly_is_irreducible,
    catalog,
)


F2, F3, F5 = GF(2), GF(3), GF(5)


def mult(A, i, j):
    return A.multiply({i: A.base.one}, {j: A.base.one})


# -- validation ---------------------------------------------------------------


def test_catalog_members_validate():
    for base in (F2, F3, F5, QQ):
        for name in (
            "ground-field",
            "dual-numbers",
            "truncated-poly(3)",
            "group-algebra(2)",
            "group-algebra(3)",
            "matrix-algebra(2)",
        ):
            A = catalog(name, base)
            assert A.unit_is_basis_zero, (name, base.label())


def test_unit_law_violation_rejected():
    # all products zero is associative, but then nothing acts as a unit
    structure = [
        [[0, 0], [0, 0]],
        [[0, 0], [0, 0]],
    ]
    with pytest.raises(AlgebraError, match="unit law"):
        Algebra.from_structure_constants(QQ, 2, structure, [1, 0])


def test_associativity_error_names_a_triple():
    # e1*e1 = e2, e2*e2 = e1, cross products zero:
    # (e1 e1) e2 = e2 e2 = e1 but e1 (e1 e2) = 0, so (1,1,2) fails
    bad = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 1, 0]],
    ]
    with pytest.raises(AlgebraError, match=r"associativity fails at basis triple \(\d+, \d+, \d+\)"):
        Algebra.from_structure_constants(QQ, 3, bad, [1, 0, 0])


def test_shape_errors():
    with pytest.raises(AlgebraError):
        Algebra.from_structure_constants(QQ, 2, [[[1, 0]]], [1, 0])
    with pytest.raises(AlgebraError):
        Algebra.from_structure_constants(QQ, 1, [[[1]]], [1, 0])


# -- specific tables -----------------------------------------------------------


def test_dual_numbers_table():
    A = catalog("dual-numbers", F3)
    assert A.dim == 2
    assert mult(A, 1, 1) == {}
    assert mult(A, 0, 1) == {1: 1}


def test_truncated_poly_nilpotency():
    A = catalog("truncated-poly(4)", QQ)
    x = {1: QQ.one}
    x2 = A.multiply(x, x)
    x3 = A.multiply(x2, x)
    assert x3 == {3: QQ.one}
    assert A.multiply(x3, x) == {}


def test_group_algebra_is_cyclic():
    A = catalog("group-algebra(3)", F2)
    g = {1: 1}
    g2 = A.multiply(g, g)
    assert g2 == {2: 1}
    assert A.multiply(g2, g) == {0: 1}


def test_matrix_algebra_2_noncommutative_with_unit_first():
    for base in (F3, QQ):
        A = catalog("matrix-algebra(2)", base)
        assert A.dim == 4
        assert A.unit_is_basis_zero
        assert A.commutator_quotient() < A.dim


def test_field_extension_f4():
    # x^2 = x + 1 over F2
    A = catalog("field-extension(1,1)", F2)
    assert A.dim == 2
    assert mult(A, 1, 1) == {0: 1, 1: 1}
    # every nonzero element invertible: x * (x+1) = x^2 + x = 1
    assert A.multiply({1: 1}, {0: 1, 1: 1}) == {0: 1}


def test_field_extension_f9():
    # x^2 = -1 = 2 over F3 (x^2+1 irreducible mod 3)
    A = catalog("field-extension(2,0)", F3)
    assert A.dim == 2
    assert mult(A, 1, 1) == {0: 2}


def test_field_extension_rejects_reducible():
    with pytest.raises(AlgebraError, match="reducible"):
        catalog("field-extension(0,0)", F2)  # x^2 = 0 has the root 0
    with pytest.raises(AlgebraError, match="reducible"):
        catalog("field-extension(1,0)", F3)  # x^2 = 1 has roots 1, 2


def test_min_poly_irreducibility_matches_sympy():
    # x^k - (tail_{k-1} x^{k-1} + ... + tail_0) for every tail with k <= 4
    from sympy import Poly, symbols

    x = symbols("x")
    for p in (2, 3, 5):
        for k in range(1, 5):
            for tail in itertools.product(range(p), repeat=k):
                f = Poly([1] + [-c for c in reversed(tail)], x, modulus=p)
                assert _poly_is_irreducible(list(tail), p) == f.is_irreducible, (p, tail)
    with pytest.raises(AlgebraError, match="above 4"):
        _poly_is_irreducible([1, 0, 0, 0, 0], 2)


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_field_extension_f9_every_nonzero_invertible(a, b):
    A = catalog("field-extension(2,0)", F3)
    if a == 0 and b == 0:
        return
    v = {k: c for k, c in ((0, a), (1, b)) if c != 0}
    # brute-force an inverse
    found = False
    for c in range(3):
        for d in range(3):
            w = {k: s for k, s in ((0, c), (1, d)) if s != 0}
            if A.multiply(v, w) == {0: 1}:
                found = True
    assert found


# -- commutator quotients -------------------------------------------------------


def test_commutator_quotient_oracles():
    # commutative algebras: [A,A] = 0 so the quotient is all of A
    assert catalog("ground-field", F3).commutator_quotient() == 1
    assert catalog("dual-numbers", F3).commutator_quotient() == 2
    assert catalog("dual-numbers", QQ).commutator_quotient() == 2
    assert catalog("truncated-poly(3)", QQ).commutator_quotient() == 3
    assert catalog("group-algebra(3)", F2).commutator_quotient() == 3
    # M_2: [A,A] = trace-zero matrices (dim 3), quotient dim 1
    assert catalog("matrix-algebra(2)", F3).commutator_quotient() == 1
    assert catalog("matrix-algebra(2)", QQ).commutator_quotient() == 1


def test_matrix_algebra_commutator_quotient_up_to_3():
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            assert catalog(f"matrix-algebra({n})", GF(p)).commutator_quotient() == 1


def test_field_extension_left_multiplication_invertible():
    # zero Jacobson radical: L_v is invertible for every nonzero v
    from cychom.matrix import ExactMatrix
    from cychom.linalg import rank

    for name, base in (("field-extension(1,1)", F2), ("field-extension(2,0)", F3)):
        A = catalog(name, base)
        assert A.commutator_quotient() == A.dim
        p = base.p
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                v = {k: c for k, c in ((0, a), (1, b)) if c % p != 0}
                entries = {}
                for j in range(A.dim):
                    for i, c in A.multiply(v, {j: base.one}).items():
                        entries[(i, j)] = c
                L = ExactMatrix(base, A.dim, A.dim, entries)
                assert rank(L) == A.dim, (name, a, b)


# -- rebasing -------------------------------------------------------------------


def test_with_unit_first_preserves_products():
    # raw matrix-algebra table has unit e_00 + e_11, not a basis vector
    base = F5
    n = 2
    dim = 4
    zero, one = base.zero, base.one
    dense = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        dense[i * n + j][k * n + l][i * n + l] = one
    unit = [one, zero, zero, one]
    raw = Algebra.from_structure_constants(base, dim, dense, unit)
    assert not raw.unit_is_basis_zero
    fixed = raw.with_unit_first()
    assert fixed.unit_is_basis_zero
    assert fixed.commutator_quotient() == 1


# -- JSON ------------------------------------------------------------------------


def test_json_roundtrip():
    A = catalog("matrix-algebra(2)", F3)
    doc = algebra_to_json(A)
    B = algebra_from_json(json.dumps(doc))
    assert B.base == A.base and B.dim == A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            assert mult(A, i, j) == mult(B, i, j)


def test_json_missing_field():
    with pytest.raises(AlgebraError, match="missing"):
        algebra_from_json({"base": "Q", "dim": 1, "unit": [1]})


def test_unknown_catalog_name():
    with pytest.raises(AlgebraError, match="unknown catalog"):
        catalog("octonions", QQ)
