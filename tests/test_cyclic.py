from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import identity_oracles as engines
import tuple_operators as oracle
from cychom.rings import ZZ, QQ, GF
from cychom.matrix import ExactMatrix
from cychom.algebra import CATALOG_NAMES, Algebra, AlgebraError, catalog
from cychom.cyclic import (
    NormalizedBarModule,
    SummandOps,
    cyclic_bar_module,
    cyclic_identity_report,
    cyclic_identity_multibase_report,
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
    X = cyclic_bar_module(catalog("dual-numbers", F3))
    assert X.rank(2) == 8
    assert X.rank(0) == 2
    Y = cyclic_bar_module(catalog("ground-field", F5))
    assert [Y.rank(n) for n in range(4)] == [1, 1, 1, 1]


def test_ground_field_operators_are_scalars():
    X = cyclic_bar_module(catalog("ground-field", F5))
    for n in range(5):
        for i in range(n + 1):
            if n >= 1:
                assert X.face(n, i) == ExactMatrix.identity(F5, 1)
        expected = 1 if n % 2 == 0 else -1
        assert X.cyclic(n) == ExactMatrix.identity(F5, 1).scale(F5.coerce(expected))


def test_cyclic_operator_has_order_n_plus_1():
    for A in (catalog("dual-numbers", F3), catalog("matrix-algebra(2)", F2)):
        X = cyclic_bar_module(A)
        for n in range(4):
            t = X.cyclic(n)
            acc = ExactMatrix.identity(A.base, X.rank(n))
            for _ in range(n + 1):
                acc = t.mul(acc)
            assert acc == ExactMatrix.identity(A.base, X.rank(n)), n


def test_norm_kills_one_minus_t():
    X = cyclic_bar_module(catalog("dual-numbers", F3))
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


def test_operator_assembly_refuses_coefficients_beyond_64_bits(monkeypatch):
    import cychom.cyclic as cyc

    def allocate(*args):
        raise AssertionError("the assembly allocated before it refused")

    monkeypatch.setattr(cyc.SummandOps, "identity_state", allocate)
    # every code of a one-dimensional table is 0, but the two faces of b
    # on X_1 meet in one entry, each with coefficient 2^62
    huge = Algebra(ZZ, 1, ((((0, 2**62),),),), (1,))
    with pytest.raises(ValueError, match="64-bit"):
        cyclic_bar_module(huge).coo("b", 1)
    with pytest.raises(ValueError, match="64-bit"):
        normalized(huge).coo("b", 1)
    monkeypatch.undo()
    assert cyclic_bar_module(huge).coo("d", 1, 0).vals.tolist() == [2**62]


def test_operator_assembly_refuses_bad_arguments():
    X = cyclic_bar_module(catalog("dual-numbers", F3))
    Xb = normalized(catalog("dual-numbers", F3))
    with pytest.raises(ValueError, match="unknown operator"):
        Xb.coo("b'", 2)
    with pytest.raises(ValueError, match="face index 5 outside 0..2"):
        X.coo("d", 2, 5)
    with pytest.raises(ValueError, match="unknown operator"):
        X.coo("B", 2)
    with pytest.raises(ValueError, match="degeneracy index -1 outside 0..2"):
        X.coo("s", 2, -1)
    with pytest.raises(ValueError, match="takes no index"):
        X.coo("b", 2, 1)
    with pytest.raises(ValueError, match="degree -1"):
        X.coo("t", -1)


# -- vectorized engine agrees with the matrices ----------------------------------


@pytest.mark.parametrize(
    "name,base",
    [("dual-numbers", F3), ("field-extension(1,1)", F2), ("matrix-algebra(2)", F3)],
)
def test_tuple_engine_matches_matrices(name, base):
    A = catalog(name, base)
    X = cyclic_bar_module(A)
    ops = engines.TupleOps(A)
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
    X = cyclic_bar_module(catalog("field-extension(2,0)", F3))
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
    X = cyclic_bar_module(A)
    n = 1
    tau = X.cyclic(n).neg()  # unsigned rotation at odd n
    lhs = X.face(n, 0).mul(tau)
    rhs = X.face(n, n).neg()
    assert lhs != rhs


# -- complexes -------------------------------------------------------------------


def test_b_squares_to_zero():
    for name, base in (("dual-numbers", F3), ("matrix-algebra(2)", F2)):
        X = cyclic_bar_module(catalog(name, base))
        for n in range(2, 5):
            assert X.hochschild_boundary(n - 1).mul(X.hochschild_boundary(n)).is_zero()
            assert X.bar_boundary(n - 1).mul(X.bar_boundary(n)).is_zero()


def test_ground_field_hochschild_homology():
    X = cyclic_bar_module(catalog("ground-field", F3))
    C = oracle.dense_complex(X, 5, X.hochschild_boundary)
    assert C.validate().ok
    dims = [C.homology(n).dimension for n in range(5)]
    assert dims == [1, 0, 0, 0, 0]


def test_bar_complex_acyclic_interior():
    for name, base in (("ground-field", F5), ("dual-numbers", F3)):
        X = cyclic_bar_module(catalog(name, base))
        C = oracle.dense_complex(X, 6, X.bar_boundary)
        assert C.validate().ok
        for k in range(1, 6):
            assert C.homology(k).dimension == 0, (name, k)


def test_extra_degeneracy_contracts_bar_complex():
    X = cyclic_bar_module(catalog("dual-numbers", F3))
    for n in range(4):
        s = X.extra_degeneracy(n)
        lhs = X.bar_boundary(n + 1).mul(s)
        if n > 0:
            lhs = lhs.add(X.extra_degeneracy(n - 1).mul(X.bar_boundary(n)))
        assert lhs == ExactMatrix.identity(F3, X.rank(n)), n


def test_connes_B_structure():
    for name, base in (("dual-numbers", F3), ("field-extension(1,1)", F2)):
        X = cyclic_bar_module(catalog(name, base))
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
        X = cyclic_bar_module(Xb.algebra)
        for n in range(1, 4):
            induced = Xb.projection(n - 1).mul(X.hochschild_boundary(n)).mul(Xb.inclusion(n))
            assert Xb.boundary(n) == induced, (name, n)


def test_normalized_connes_is_induced():
    for name, base in (("dual-numbers", F3), ("field-extension(2,0)", F3), ("matrix-algebra(2)", F2)):
        Xb = normalized(catalog(name, base))
        X = cyclic_bar_module(Xb.algebra)
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
        X, Xb = cyclic_bar_module(A), normalized(A)
        raw = oracle.dense_complex(X, 4, X.hochschild_boundary)
        nor = oracle.dense_complex(Xb, 4, Xb.boundary)
        for n in range(4):
            assert raw.homology(n).dimension == nor.homology(n).dimension, (name, n)


def test_normalized_h0_dual_numbers():
    Xb = normalized(catalog("dual-numbers", F3))
    C = oracle.dense_complex(Xb, 2, Xb.boundary)
    assert C.homology(0).dimension == 2


def test_multibase_sweep_matches_per_base_reports():
    # one integer sweep judged mod p must reproduce the per-base reference
    # engine's verdicts, table entry by table entry
    for name in ("truncated-poly(3)", "matrix-algebra(2)"):
        A = catalog(name, QQ)
        multi = cyclic_identity_multibase_report(A, (2, 3, 5, None), 3)
        for p in (2, 3, 5, None):
            base = GF(p) if p else QQ
            assert multi[p] == engines.cyclic_identity_report(catalog(name, base), 3) == []


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
    ops = engines.FastOps(catalog("matrix-algebra(2)", QQ))
    x = ops.identity_state(2)
    lhs = ops.face(ops.degeneracy(x, 1), 0)
    rhs = ops.scaled(ops.cyclic(ops.cyclic(x)), -1)
    fast = engines._residual_coeffs(lhs, rhs)
    monkeypatch.setattr(engines, "_SORT_NETWORKS", {})
    slow = engines._residual_coeffs(lhs, rhs)
    assert np.array_equal(fast, slow)


def test_residual_blocks_match_one_block(monkeypatch):
    # _residual_coeffs works through blocks of rows; any block size must
    # give the one-block result entry for entry, on the network path
    # (width 2) and on the generic sort path (the norm's wider states)
    ops = engines.FastOps(catalog("matrix-algebra(2)", QQ))
    x = ops.identity_state(2)
    cases = [
        (ops.face(ops.degeneracy(x, 1), 0), ops.scaled(ops.cyclic(ops.cyclic(x)), -1)),
        (ops.norm(ops.one_minus_cyclic(x)), None),
    ]
    for lhs, rhs in cases:
        whole = engines._residual_coeffs(lhs, rhs)
        for block in (1, 7, 50):
            monkeypatch.setattr(engines, "_RESIDUAL_BLOCK", block)
            assert np.array_equal(engines._residual_coeffs(lhs, rhs), whole)
        monkeypatch.undo()


# -- the summand sweep against the matrices and the reference engines ------------


def _rebased_truncated_poly():
    # a unimodular change of basis keeps the constants integral; it gives
    # products with three terms and a unit with three terms
    P = ExactMatrix.from_rows(QQ, [[1, 0, 0], [1, 1, 0], [-1, 2, 1]])
    return catalog("truncated-poly(3)", QQ).rebased(P)


def summands_to_matrix(A, state, ncols):
    """Scatter a summand state into the matrix it represents over A's base."""
    base = A.base
    entries = {}
    for src, code, coeff in zip(state.src.tolist(), state.code.tolist(), state.coeff.tolist()):
        key = (code, src)
        entries[key] = base.add(entries.get(key, base.zero), base.coerce(coeff))
    entries = {k: v for k, v in entries.items() if v != 0}
    return ExactMatrix(base, A.dim**state.slots, ncols, entries)


@pytest.mark.parametrize(
    "name,base",
    [("dual-numbers", F3), ("field-extension(1,1)", F2), ("matrix-algebra(2)", F3),
     ("rebased truncated-poly(3)", QQ)],
)
def test_summand_engine_matches_matrices(name, base):
    A = _rebased_truncated_poly() if name.startswith("rebased") else catalog(name, base)
    ops = SummandOps(A)
    for n in range(3):
        x = ops.identity_state(n)
        ncols = A.dim ** (n + 1)

        def matrix(state):
            return summands_to_matrix(A, state, ncols)

        for i in range(n + 1) if n >= 1 else ():
            assert matrix(ops.face(x, i)) == oracle.face(A, n, i), ("face", n, i)
        for j in range(n + 1):
            assert matrix(ops.degeneracy(x, j)) == oracle.degeneracy(A, n, j), ("degeneracy", n, j)
        assert matrix(ops.cyclic(x)) == oracle.cyclic(A, n), ("cyclic", n)
        assert matrix(ops.norm(x)) == oracle.norm(A, n), ("norm", n)
        one_minus_t = ExactMatrix.identity(A.base, ncols).sub(oracle.cyclic(A, n))
        assert matrix(ops.one_minus_cyclic(x)) == one_minus_t, ("1 - t", n)


def test_summand_engine_lifts_the_two_term_limit():
    A = _rebased_truncated_poly()
    assert max(len(t) for row in A.structure for t in row) == 3
    with pytest.raises(ValueError, match="two terms"):
        engines.FastOps(A)
    moduli = (2, 3, 5, None)
    assert cyclic_identity_multibase_report(A, moduli, 5) == {m: [] for m in moduli}


def test_summand_engine_refuses_fractional_tables():
    with pytest.raises(ValueError, match="integer structure constants"):
        cyclic_identity_multibase_report(_fractional_algebra(), (None,), 1)


def _reduced(A, m):
    """A's integer table over F_m (m None: over Z), unvalidated like a planted table."""
    base = GF(m) if m else ZZ
    structure = tuple(
        tuple(
            tuple((k, base.coerce(int(c))) for k, c in terms if base.coerce(int(c)))
            for terms in row
        )
        for row in A.structure
    )
    return Algebra(base, A.dim, structure, tuple(base.coerce(int(u)) for u in A.unit))


def _assert_matches_oracles(A, moduli):
    # the TupleOps oracle judges each base on its own, for n <= 3; the
    # FastOps oracle, where its two-term limit allows, all moduli at once for n <= 4
    got = cyclic_identity_multibase_report(A, moduli, 3)
    for m in moduli:
        assert got[m] == engines.cyclic_identity_report(_reduced(A, m), 3), m
    try:
        engines.FastOps(A)
    except ValueError:
        return got
    want = engines.cyclic_identity_multibase_report(A, moduli, 4)
    assert cyclic_identity_multibase_report(A, moduli, 4) == want
    return got


_SWEPT = [name for name in CATALOG_NAMES if not name.startswith("field-extension")]


@st.composite
def unimodular_rebased(draw):
    """A catalog algebra over Q in the basis of a random unimodular integer matrix."""
    A = catalog(draw(st.sampled_from(_SWEPT)), QQ)
    d = A.dim
    entry = st.integers(-1, 1)
    L = [[1 if i == j else draw(entry) if i > j else 0 for j in range(d)] for i in range(d)]
    U = [[1 if i == j else draw(entry) if i < j else 0 for j in range(d)] for i in range(d)]
    perm = draw(st.permutations(range(d)))
    rows = [[sum(L[perm[i]][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return A.rebased(ExactMatrix.from_rows(QQ, rows))


@settings(max_examples=25, deadline=None)
@given(unimodular_rebased())
def test_sweep_matches_oracles_on_rebased_catalog_algebras(A):
    got = _assert_matches_oracles(A, (2, 3, 5, None))
    assert got == {m: [] for m in (2, 3, 5, None)}


@st.composite
def planted_tables(draw):
    """An integer table with e0 as two-sided unit and random products of the rest."""
    d = draw(st.integers(2, 3))
    coeff = st.integers(-2, 2).filter(bool)
    structure = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == 0 or j == 0:
                structure[i][j] = ((i + j, 1),)
            else:
                ks = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
                structure[i][j] = tuple((k, draw(coeff)) for k in sorted(ks))
    return Algebra(ZZ, d, tuple(tuple(row) for row in structure), (1,) + (0,) * (d - 1))


@settings(max_examples=30, deadline=None)
@given(planted_tables())
def test_sweep_matches_oracles_on_planted_tables(A):
    _assert_matches_oracles(A, (2, 3, None))


def test_sweep_reports_do_not_depend_on_the_block(monkeypatch):
    import cychom.cyclic as cyc

    broken = Algebra(ZZ, 3, (
        (((0, 1),), ((1, 1),), ((2, 1),)),
        (((1, 1),), ((2, 1),), ((0, 1),)),
        (((2, 1),), (), ()),
    ), (1, 0, 0))
    cases = [
        (catalog("matrix-algebra(2)", QQ), (2, 3, 5, None), 3),
        (_rebased_truncated_poly(), (2, 3, None), 3),
        (broken, (2, 3, None), 3),
    ]
    want = [cyclic_identity_multibase_report(A, moduli, n) for A, moduli, n in cases]
    want_one = cyclic_identity_report(catalog("field-extension(1,1)", F2), 4)
    assert all(want[2].values())
    for block in (1, 7, 50):
        monkeypatch.setattr(cyc, "_SWEEP_BLOCK", block)
        assert [cyclic_identity_multibase_report(A, moduli, n) for A, moduli, n in cases] == want
        assert cyclic_identity_report(catalog("field-extension(1,1)", F2), 4) == want_one


def test_identity_sweep_refuses_what_64_bits_cannot_hold(monkeypatch):
    import cychom.cyclic as cyc

    def allocate(*args):
        raise AssertionError("the sweep allocated before it refused")

    monkeypatch.setattr(cyc.SummandOps, "identity_state", allocate)
    # codes: 4^34 basis tuples after two degeneracies at degree 31
    with pytest.raises(ValueError, match="64-bit"):
        cyclic_identity_report(catalog("matrix-algebra(2)", F3), 31)
    # coefficients: every code of a one-dimensional table is 0, but two
    # products of 2^31 e0 grow a coefficient to 2^62
    huge = Algebra(ZZ, 1, ((((0, 2**31),),),), (1,))
    with pytest.raises(ValueError, match="64-bit"):
        cyclic_identity_report(huge, 0)
    monkeypatch.undo()
    assert cyclic_identity_report(catalog("matrix-algebra(2)", F3), 2) == []
    # 2^20 fits; its unit is 1 while e0 e0 = 2^20 e0, so d_0 s_0 = id fails
    assert "d_0 s_0 = id @ n=0 fails" in cyclic_identity_report(
        Algebra(ZZ, 1, ((((0, 2**20),),),), (1,)), 3)


def _judged_rows(monkeypatch, A, moduli, n_max):
    """The report, and per identity name the source rows `_residual` judged, block by block."""
    import cychom.cyclic as cyc

    names = {(n, tuple(lhs)): name for n in range(n_max + 1)
             for name, lhs, _ in cyc.identity_programs(n)}
    sides, judged = [], {}
    run_cached, residual = cyc._run_cached, cyc._residual

    def recording_run(engine, state, program, first):
        sides.append((state, program))
        return run_cached(engine, state, program, first)

    def recording_residual(lhs, rhs, d, start):
        (state, program), *_ = sides  # the lhs runs first
        sides.clear()
        key = names[state.slots - 1, tuple(program)]
        judged.setdefault(key, []).append(state.src.copy())
        assert state.src[0] == start
        return residual(lhs, rhs, d, start)

    monkeypatch.setattr(cyc, "_run_cached", recording_run)
    monkeypatch.setattr(cyc, "_residual", recording_residual)
    return cyclic_identity_multibase_report(A, moduli, n_max), judged


def test_sweep_judges_every_row_once_per_identity(monkeypatch):
    import cychom.cyclic as cyc

    A, top = catalog("matrix-algebra(2)", QQ), 5
    # 4^6 rows at the top degree: N(1-t) and (1-t)N expand a row into 12
    # summands, so they take 341 rows a block and end on a block of 4
    monkeypatch.setattr(cyc, "_SWEEP_BLOCK", 1 << 12)
    programs, blocks = cyc._sweep_plan(SummandOps(A), top)
    steps = {programs[k][0]: step for members, step in blocks for k in members}
    assert steps[f"N(1-t) = 0 @ n={top}"] == steps[f"(1-t)N = 0 @ n={top}"] == 341
    assert steps[f"d_0 d_1 = d_0 d_0 @ n={top}"] == 512  # two faces of two terms a side
    report, judged = _judged_rows(monkeypatch, A, (2, 3, None), top)
    assert report == {m: [] for m in (2, 3, None)}
    for n in range(top + 1):
        for name, _, _ in cyc.identity_programs(n):
            rows = np.concatenate(judged.pop(name))
            assert np.array_equal(np.sort(rows), np.arange(A.dim ** (n + 1))), name
    assert not judged


def test_sweep_finds_a_fault_on_the_last_row(monkeypatch):
    import cychom.cyclic as cyc

    A, top = catalog("matrix-algebra(2)", QQ), 5
    last = A.dim ** (top + 1) - 1
    cyclic = cyc.SummandOps.cyclic

    def faulty(self, s):
        out = cyclic(self, s)
        if s.slots == top + 1:
            out.coeff = np.where(s.src == last, 2 * out.coeff, out.coeff)
        return out

    monkeypatch.setattr(cyc, "_SWEEP_BLOCK", 1 << 12)
    monkeypatch.setattr(cyc.SummandOps, "cyclic", faulty)
    report = cyclic_identity_multibase_report(A, (2, 3, 5, 7, None), top)
    # t^6, N(1-t) and (1-t)N leave 1 - 2^6 = -63 = -3^2 * 7 on the last row
    for m in (2, 3, 5, 7, None):
        for name in ("t^6 = id", "N(1-t) = 0", "(1-t)N = 0"):
            assert (f"{name} @ n={top} fails" in report[m]) == (m not in (3, 7)), (name, m)
        assert not any(f"@ n={top - 1} " in line for line in report[m])


def test_identity_sweep_stays_within_its_memory_budget():
    import tracemalloc

    A = catalog("truncated-poly(3)", QQ)
    tracemalloc.start()
    try:
        report = cyclic_identity_multibase_report(A, (2, 3, 5, None), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == {m: [] for m in (2, 3, 5, None)}
    # a block of 2^16 summands, the first-op states it keeps and the residual's sort
    assert peak <= 16 * 2**20, peak / 2**20
