"""Hochschild homology by one Morse reduction (`hh`) against dense homology."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cychom.algebra import CATALOG_NAMES, AlgebraError, catalog
from cychom.bicomplex import hh
from cychom.cyclic import cyclic_bar_module, normalized
from cychom.matrix import ExactMatrix
from cychom.rings import GF, QQ, ZZ
from algebra_constructors import reduced_mod
from tuple_operators import dense_complex

BASES = (GF(2), GF(3), GF(5), QQ, ZZ)


@st.composite
def rebased_catalog_algebras(draw):
    """A catalog algebra in the basis of a random unimodular integer matrix."""
    base = draw(st.sampled_from(BASES))
    try:
        A = catalog(draw(st.sampled_from(CATALOG_NAMES)), base)
    except AlgebraError:  # the field extensions need F_p, the ground field a field
        assume(False)
    d = A.dim
    entry = st.integers(-1, 1)
    L = [[1 if i == j else draw(entry) if i > j else 0 for j in range(d)] for i in range(d)]
    U = [[1 if i == j else draw(entry) if i < j else 0 for j in range(d)] for i in range(d)]
    perm = draw(st.permutations(range(d)))
    rows = [[sum(L[perm[i]][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return A.rebased(ExactMatrix.from_rows(base, rows))


@settings(max_examples=40, deadline=None)
@given(rebased_catalog_algebras(), st.booleans(), st.integers(0, 3), st.integers(1, 3))
def test_hh_matches_dense_homology(A, raw, lo, top):
    lo = min(lo, top)
    X = cyclic_bar_module(A) if raw else normalized(A)
    assume(X.rank(top + 1) <= 256)
    boundary = X.hochschild_boundary if raw else X.boundary
    dense = dense_complex(X, top + 1, boundary)
    table = hh(X, (lo, top))
    assert table.groups == {d: dense.homology(d) for d in range(lo, top + 1)}


@pytest.mark.parametrize("name", ["truncated-poly(3)", "group-algebra(3)"])
def test_unit_without_a_unit_coordinate_is_rebased(name):
    # a unimodular change of basis can leave the unit with no coordinate
    # +-1; normalizing must still put it first, without changing HH
    A = catalog(name, ZZ)
    P = ExactMatrix.from_rows(ZZ, [[1, 0, -1], [-2, 0, 3], [1, 1, 0]])
    B = A.rebased(P)
    assert B.unit == (3, -3, 2)
    assert B.with_unit_first().unit_is_basis_zero
    assert hh(normalized(B), (0, 3)).groups == hh(normalized(A), (0, 3)).groups


@pytest.mark.parametrize("base", [GF(2), GF(3), QQ, ZZ], ids=lambda b: b.label())
def test_hh_is_morita_invariant(base):
    # HH(M_2(k)) = HH(k): k in degree 0 and nothing above, raw or normalized;
    # the group algebra of the trivial group is the ground ring, also over Z
    ground = catalog("ground-field" if base.is_field else "group-algebra(1)", base)
    matrices = catalog("matrix-algebra(2)", base)
    for build in (cyclic_bar_module, normalized):
        want = hh(build(ground), (0, 5)).groups
        assert hh(build(matrices), (0, 5)).groups == want, build.__name__
        assert want[0].free_rank == 1 and all(want[d].is_zero() for d in range(1, 6))


def test_hh_refuses_negative_or_empty_degrees():
    X = cyclic_bar_module(catalog("dual-numbers", GF(3)))
    for degrees in ((-1, 2), (3, 2)):
        with pytest.raises(ValueError):
            hh(X, degrees)


def test_raw_hh_over_z_factors_each_differential_once(monkeypatch):
    # degrees 0..5 read the differentials d_1..d_6 of one residual complex;
    # each is factored once, however many degrees read it
    from cychom import complexes

    calls = []
    original = complexes.invariant_factors

    def counted(D):
        calls.append(D.nrows)
        return original(D)

    monkeypatch.setattr(complexes, "invariant_factors", counted)
    table = hh(cyclic_bar_module(catalog("group-algebra(3)", ZZ)), (0, 5))
    assert sorted(table.groups) == list(range(6))
    assert 0 < len(calls) <= 6, calls


def test_raw_hh_over_z_is_invariant_under_a_change_of_basis():
    # the rebased structure constants reach 15 and the residual d_4 is
    # 57 x 225 with entries up to 97,240,176: its exact Smith form grows
    # them without bound, its Smith form modulo a maximal minor does not
    A = catalog("group-algebra(3)", ZZ)
    B = A.rebased(ExactMatrix.from_rows(ZZ, [[1, -1, 1], [-1, 2, -2], [1, -1, 2]]))
    assert B.unit == (2, 0, -1)
    want = hh(cyclic_bar_module(A), (1, 3)).groups
    assert hh(cyclic_bar_module(B), (1, 3)).groups == want
    assert [want[d].torsion for d in (1, 2, 3)] == [(3, 3, 3), (), (3, 3, 3)]


def _elementary_products(d: int, rng: random.Random):
    """A product of one to three elementary matrices 1 + (+-1) e_ij, i != j."""
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        P = [[row[k] + (s * row[i] if k == j else 0) for k in range(d)] for row in P]
    return P


@pytest.mark.parametrize("name", ["dual-numbers", "truncated-poly(3)", "group-algebra(2)",
                                  "group-algebra(3)", "matrix-algebra(2)"])
def test_hh_satisfies_universal_coefficients(name):
    # the complexes are free over Z, so dim HH_n(A/p) = rank HH_n(A)
    # + #{p | t} over the invariant factors t of HH_n(A) and HH_{n-1}(A);
    # small rebasings keep the Z route's reductions cheap
    rng = random.Random(name)
    A = catalog(name, ZZ)
    for _ in range(2):
        B = A.rebased(ExactMatrix.from_rows(ZZ, _elementary_products(A.dim, rng)))
        for build, top in ((cyclic_bar_module, 3), (normalized, 5)):
            over_z = hh(build(B), (0, top)).groups
            for p in (2, 3, 5):
                over_p = hh(build(reduced_mod(B, p)), (0, top)).groups
                for n in range(top + 1):
                    torsion = over_z[n].torsion + (over_z[n - 1].torsion if n else ())
                    want = over_z[n].free_rank + sum(t % p == 0 for t in torsion)
                    assert over_p[n].dimension == want, (build.__name__, B.unit, p, n)
