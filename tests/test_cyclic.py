from fractions import Fraction

import pytest

import tuple_operators as oracle
from cychom.rings import ZZ, QQ, GF
from cychom.matrix import ExactMatrix
from cychom.algebra import CATALOG_NAMES, AlgebraError, catalog
from cychom.cyclic import (
    FastOps,
    NormalizedBarModule,
    TupleOps,
    bar_complex,
    bar_module,
    cyclic_bar_module,
    cyclic_identity_report,
    cyclic_identity_multibase_report,
    hochschild_complex,
    mixed_complex_from_display,
    normalized,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


def state_to_matrix(ops, state, nrows_slots, ncols):
    """Scatter a TupleState into the matrix it represents."""
    base = ops.A.base
    d = ops.d
    entries = {}
    for r in range(len(state.src)):
        row = 0
        for slot in range(state.slots):
            row = row * d + int(state.tup[r, slot])
        key = (row, int(state.src[r]))
        entries[key] = base.add(entries.get(key, base.zero), base.coerce(int(state.coeff[r])))
    entries = {k: v for k, v in entries.items() if v != 0}
    return ExactMatrix(base, d**nrows_slots, ncols, entries)


# -- ranks and basic shapes -----------------------------------------------------


def test_bar_module_ranks():
    X = bar_module(catalog("dual-numbers", F3))
    assert X.rank(2) == 8
    assert X.rank(0) == 2
    Y = bar_module(catalog("ground-field", F5))
    assert [Y.rank(n) for n in range(4)] == [1, 1, 1, 1]


def test_ground_field_operators_are_scalars():
    X = bar_module(catalog("ground-field", F5))
    for n in range(5):
        for i in range(n + 1):
            if n >= 1:
                assert X.face(n, i) == ExactMatrix.identity(F5, 1)
        expected = 1 if n % 2 == 0 else -1
        assert X.cyclic(n) == ExactMatrix.identity(F5, 1).scale(F5.coerce(expected))


def test_cyclic_operator_has_order_n_plus_1():
    for A in (catalog("dual-numbers", F3), catalog("matrix-algebra(2)", F2)):
        X = bar_module(A)
        for n in range(4):
            t = X.cyclic(n)
            acc = ExactMatrix.identity(A.base, X.rank(n))
            for _ in range(n + 1):
                acc = t.mul(acc)
            assert acc == ExactMatrix.identity(A.base, X.rank(n)), n


def test_norm_kills_one_minus_t():
    X = bar_module(catalog("dual-numbers", F3))
    for n in range(4):
        t = X.cyclic(n)
        N = X.norm(n)
        one = ExactMatrix.identity(F3, X.rank(n))
        assert N.mul(one.sub(t)).is_zero()
        assert one.sub(t).mul(N).is_zero()


# -- numpy assembly agrees with the per-tuple builders ------------------------------


def _fractional_algebra():
    # a non-permutation change of basis gives structure constants with
    # denominators 2 and 3
    P = ExactMatrix.from_rows(QQ, [[1, 0, 0], [0, 2, 1], [0, 0, 3]])
    return catalog("truncated-poly(3)", QQ).rebased(P)


def _assert_same(got, want, what):
    assert got == want, what
    assert {type(v) for v in got.entries.values()} <= {type(want.ring.one)}, what


_ASSEMBLY_CASES = [(name, base) for name in CATALOG_NAMES for base in (F2, F3, F5, QQ)]
_ASSEMBLY_CASES.append(("fractional", QQ))


@pytest.mark.parametrize(
    "name,base", _ASSEMBLY_CASES, ids=[f"{n}-{b.label()}" for n, b in _ASSEMBLY_CASES]
)
def test_operator_assembly_matches_per_tuple_builders(name, base):
    if name == "fractional":
        A = _fractional_algebra()
        assert any(Fraction(c).denominator > 1 for r in A.structure for t in r for _, c in t)
    else:
        try:
            A = catalog(name, base)
        except AlgebraError:
            pytest.skip(f"{name} does not exist over {base.label()}")
    X = cyclic_bar_module(A)
    for n in range(6):
        faces = [oracle.face(A, n, i) for i in range(n + 1)] if n else []
        for i, want in enumerate(faces):
            _assert_same(X.face(n, i), want, ("face", n, i))
        for j in range(n + 1):
            _assert_same(X.degeneracy(n, j), oracle.degeneracy(A, n, j), ("degeneracy", n, j))
        _assert_same(X.cyclic(n), oracle.cyclic(A, n), ("cyclic", n))
        _assert_same(X.norm(n), oracle.norm(A, n), ("norm", n))
        if n:
            b = faces[0]
            for i in range(1, n + 1):
                if i == n:
                    _assert_same(X.bar_boundary(n), b, ("b'", n))
                b = b.add(faces[i]) if i % 2 == 0 else b.sub(faces[i])
            _assert_same(X.hochschild_boundary(n), b, ("b", n))
    Xb = NormalizedBarModule(A)
    U = Xb.algebra
    for n in range(6):
        if n:
            _assert_same(Xb.boundary(n), oracle.normalized_boundary(U, n), ("b-bar", n))
        _assert_same(Xb.connes(n), oracle.normalized_connes(U, n), ("B-bar", n))
        _assert_same(Xb.inclusion(n), oracle.inclusion(U, n), ("inclusion", n))
        _assert_same(Xb.projection(n), oracle.projection(U, n), ("projection", n))


def test_operator_assembly_refuses_codes_beyond_64_bits():
    X = cyclic_bar_module(catalog("matrix-algebra(2)", F2))
    with pytest.raises(ValueError, match="64-bit"):
        X.face(31, 0)  # 4^32 basis tuples
    assert X.rank(31) == 4**32


# -- vectorized engine agrees with the matrices ----------------------------------


@pytest.mark.parametrize(
    "name,base",
    [("dual-numbers", F3), ("field-extension(1,1)", F2), ("matrix-algebra(2)", F3)],
)
def test_tuple_engine_matches_matrices(name, base):
    A = catalog(name, base)
    X = bar_module(A)
    ops = TupleOps(A)
    for n in range(3):
        idstate = ops.identity_state(n)
        ncols = A.dim ** (n + 1)
        for i in range(n + 1) if n >= 1 else ():
            got = state_to_matrix(ops, ops.face(idstate, i), n, ncols)
            assert got == X.face(n, i), ("face", n, i)
        for j in range(n + 1):
            got = state_to_matrix(ops, ops.degeneracy(idstate, j), n + 2, ncols)
            assert got == X.degeneracy(n, j), ("degeneracy", n, j)
        got = state_to_matrix(ops, ops.cyclic(idstate), n + 1, ncols)
        assert got == X.cyclic(n), ("cyclic", n)
        got = state_to_matrix(ops, ops.norm(idstate), n + 1, ncols)
        assert got == X.norm(n), ("norm", n)


def test_identity_sweep_passes_small():
    assert cyclic_identity_report(catalog("dual-numbers", F3), 5) == []
    assert cyclic_identity_report(catalog("matrix-algebra(2)", F2), 3) == []
    assert cyclic_identity_report(catalog("group-algebra(3)", QQ), 4) == []


def test_signed_identities_at_matrix_level():
    # independent of the vectorized sweep: raw matrix products
    X = bar_module(catalog("field-extension(2,0)", F3))
    for n in range(1, 4):
        t = X.cyclic(n)
        for i in range(1, n + 1):
            lhs = X.face(n, i).mul(t)
            rhs = X.cyclic(n - 1).mul(X.face(n, i - 1)).neg()
            assert lhs == rhs, (n, i)
        lhs = X.face(n, 0).mul(t)
        rhs = X.face(n, n)
        if n % 2 == 1:
            rhs = rhs.neg()
        assert lhs == rhs, n


def test_unsigned_rotation_breaks_signed_identity():
    # guard that the sweep is not vacuous: dropping the (-1)^n sign must
    # violate d_0 t = (-1)^n d_n somewhere
    A = catalog("dual-numbers", F3)
    X = bar_module(A)
    raw = cyclic_bar_module(A)
    n = 1
    tau = X.cyclic(n).neg()  # unsigned rotation at odd n
    lhs = X.face(n, 0).mul(tau)
    rhs = X.face(n, n).neg()
    assert lhs != rhs
    del raw


# -- complexes -------------------------------------------------------------------


def test_b_squares_to_zero():
    for name, base in (("dual-numbers", F3), ("matrix-algebra(2)", F2)):
        X = bar_module(catalog(name, base))
        for n in range(2, 5):
            assert X.hochschild_boundary(n - 1).mul(X.hochschild_boundary(n)).is_zero()
            assert X.bar_boundary(n - 1).mul(X.bar_boundary(n)).is_zero()


def test_ground_field_hochschild_homology():
    C = hochschild_complex(bar_module(catalog("ground-field", F3)), 5)
    assert C.validate().ok
    dims = [C.homology(n).dimension for n in range(5)]
    assert dims == [1, 0, 0, 0, 0]


def test_bar_complex_acyclic_interior():
    for name, base in (("ground-field", F5), ("dual-numbers", F3)):
        C = bar_complex(bar_module(catalog(name, base)), 6)
        assert C.validate().ok
        for k in range(1, 6):
            assert C.homology(k).dimension == 0, (name, k)


def test_extra_degeneracy_contracts_bar_complex():
    X = bar_module(catalog("dual-numbers", F3))
    for n in range(4):
        s = X.extra_degeneracy(n)
        lhs = X.bar_boundary(n + 1).mul(s)
        if n > 0:
            lhs = lhs.add(X.extra_degeneracy(n - 1).mul(X.bar_boundary(n)))
        assert lhs == ExactMatrix.identity(F3, X.rank(n)), n


def test_connes_B_structure():
    for name, base in (("dual-numbers", F3), ("field-extension(1,1)", F2)):
        X = bar_module(catalog(name, base))
        for n in range(3):
            B = X.connes_B(n)
            b = X.hochschild_boundary(n + 1)
            anti = b.mul(B)
            if n > 0:
                anti = anti.add(X.connes_B(n - 1).mul(X.hochschild_boundary(n)))
            assert anti.is_zero(), (name, "bB+Bb", n)
            assert X.connes_B(n + 1).mul(B).is_zero(), (name, "B^2", n)


# -- normalization ----------------------------------------------------------------


def test_normalized_ranks():
    assert [normalized(catalog("dual-numbers", F3)).rank(n) for n in range(5)] == [2] * 5
    gf = normalized(catalog("ground-field", F2))
    assert [gf.rank(n) for n in range(4)] == [1, 0, 0, 0]
    f4 = normalized(catalog("field-extension(1,1)", F2))
    assert [f4.rank(n) for n in range(4)] == [2, 2, 2, 2]
    m2 = normalized(catalog("matrix-algebra(2)", F3))
    assert [m2.rank(n) for n in range(3)] == [4, 12, 36]


def test_projection_section_identities():
    Xb = normalized(catalog("dual-numbers", F3))
    for n in range(4):
        P, I = Xb.projection(n), Xb.inclusion(n)
        assert P.mul(I) == ExactMatrix.identity(F3, Xb.rank(n))


def test_normalized_boundary_is_induced():
    for name, base in (("dual-numbers", F3), ("matrix-algebra(2)", F2)):
        Xb = normalized(catalog(name, base))
        X = Xb.raw
        for n in range(1, 4):
            induced = Xb.projection(n - 1).mul(X.hochschild_boundary(n)).mul(Xb.inclusion(n))
            assert Xb.boundary(n) == induced, (name, n)


def test_normalized_connes_is_induced():
    for name, base in (("dual-numbers", F3), ("field-extension(2,0)", F3), ("matrix-algebra(2)", F2)):
        Xb = normalized(catalog(name, base))
        X = Xb.raw
        for n in range(3):
            induced = Xb.projection(n + 1).mul(X.connes_B(n)).mul(Xb.inclusion(n))
            assert Xb.connes(n) == induced, (name, n)


def test_normalized_mixed_identities():
    Xb = normalized(catalog("dual-numbers", F3))
    for n in range(4):
        bB = Xb.boundary(n + 1).mul(Xb.connes(n))
        Bb = Xb.connes(n - 1).mul(Xb.boundary(n)) if n > 0 else None
        anti = bB.add(Bb) if Bb is not None else bB
        assert anti.is_zero(), n
        assert Xb.connes(n + 1).mul(Xb.connes(n)).is_zero(), n


def test_normalized_vs_raw_homology_dims():
    # dims <= 3 here; the acceptance run pushes to 5
    for name, base in (("dual-numbers", F2), ("dual-numbers", F3), ("field-extension(1,1)", F2)):
        A = catalog(name, base)
        raw = hochschild_complex(bar_module(A), 4)
        nor = normalized(A).hochschild_complex(4)
        for n in range(4):
            assert raw.homology(n).dimension == nor.homology(n).dimension, (name, n)


def test_normalized_h0_dual_numbers():
    C = normalized(catalog("dual-numbers", F3)).hochschild_complex(2)
    assert C.homology(0).dimension == 2


# -- the comparison display --------------------------------------------------------


def test_display_shapes():
    src, tgt, f = mixed_complex_from_display(6)
    assert src.validate() == []
    assert tgt.validate() == []
    assert src.B_at(-1).entry(0, 0) == 6
    assert tgt.relations[0].entry(0, 0) == 6
    assert f.component(0) == ExactMatrix.identity(ZZ, 1)
    # B-compatibility: f_0 B_src lands in the relation submodule n*Z
    comp = f.component(0).mul(src.B_at(-1))
    assert comp.entry(0, 0) % 6 == 0


def test_display_rejects_bad_order():
    with pytest.raises(ValueError):
        mixed_complex_from_display(0)


def test_multibase_sweep_matches_per_base_reports():
    # one integer sweep judged mod p must reproduce the per-base reference
    # engine's verdicts, table entry by table entry
    for name in ("truncated-poly(3)", "matrix-algebra(2)"):
        A = catalog(name, QQ)
        multi = cyclic_identity_multibase_report(A, (2, 3, 5, None), 3)
        for p in (2, 3, 5, None):
            base = GF(p) if p else QQ
            assert multi[p] == cyclic_identity_report(catalog(name, base), 3) == []


def test_sweeps_detect_nonassociative_table():
    # bypass validation to plant a genuinely broken product: with e0 the
    # unit, (e1 e1) e2 = e2 e2 = 0 but e1 (e1 e2) = e1, so face identities
    # involving three multiplications cannot all hold
    from cychom.algebra import Algebra

    unit_row = (((0, 1),), ((1, 1),), ((2, 1),))
    structure = (
        unit_row,
        (((1, 1),), ((2, 1),), ((0, 1),)),
        (((2, 1),), (), ()),
    )
    A = Algebra(ZZ, 3, structure, (1, 0, 0))
    assert cyclic_identity_report(A, 2)
    multi = cyclic_identity_multibase_report(A, (2, 3, None), 2)
    assert all(multi[m] for m in (2, 3, None))


def test_residual_sort_network_matches_argsort(monkeypatch):
    # force the generic sort path and compare against the network path on a
    # small-width state built from two-term products; the residual is not
    # zero here, which is the point: both paths must agree entry for entry
    import numpy as np
    import cychom.cyclic as cyc

    ops = FastOps(catalog("matrix-algebra(2)", QQ))
    x = ops.identity_state(2)
    lhs = ops.face(ops.degeneracy(x, 1), 0)
    rhs = ops.scaled(ops.cyclic(ops.cyclic(x)), -1)
    fast = cyc._residual_coeffs(lhs, rhs)
    monkeypatch.setattr(cyc, "_SORT_NETWORKS", {})
    slow = cyc._residual_coeffs(lhs, rhs)
    assert np.array_equal(fast, slow)


def test_residual_blocks_match_one_block(monkeypatch):
    # _residual_coeffs works through blocks of rows; any block size must
    # give the one-block result entry for entry, on the network path
    # (width 2) and on the generic sort path (the norm's wider states)
    import numpy as np
    import cychom.cyclic as cyc

    ops = FastOps(catalog("matrix-algebra(2)", QQ))
    x = ops.identity_state(2)
    cases = [
        (ops.face(ops.degeneracy(x, 1), 0), ops.scaled(ops.cyclic(ops.cyclic(x)), -1)),
        (ops.norm(ops.one_minus_cyclic(x)), None),
    ]
    for lhs, rhs in cases:
        whole = cyc._residual_coeffs(lhs, rhs)
        for block in (1, 7, 50):
            monkeypatch.setattr(cyc, "_RESIDUAL_BLOCK", block)
            assert np.array_equal(cyc._residual_coeffs(lhs, rhs), whole)
        monkeypatch.undo()
