"""Chain complexes, homology groups, induced maps, presented complexes.

Induced maps, canonical presentations and presented complexes come from
the oracle in `presentation_homology`; `complex_homology` is checked
against it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cychom.linalg import integer_kernel_basis
from cychom.rings import ZZ, QQ, GF
from cychom.matrix import ExactMatrix
from cychom.complexes import (
    ChainComplex,
    HomologyGroup,
    complex_homology,
)
from presentation_homology import (
    ChainMap,
    PresentedChainComplex,
    homology_map,
    homology_presentation,
    is_homology_iso,
    rank_kernel,
    validate_complex,
)


def M(ring, rows):
    return ExactMatrix.from_rows(ring, rows)


# ---------------------------------------------------------------------------
# groups


def test_group_labels():
    assert HomologyGroup(ZZ, 0).label() == "0"
    assert HomologyGroup(ZZ, 2).label() == "Z^2"
    assert HomologyGroup(ZZ, 1, (2, 4)).label() == "Z + Z/2 + Z/4"
    assert HomologyGroup(GF(3), 2).label() == "F3^2"


def test_group_invariants_checked():
    with pytest.raises(ValueError):
        HomologyGroup(ZZ, 0, (4, 2))
    with pytest.raises(ValueError):
        HomologyGroup(QQ, 1, (2,))


def test_group_dimension_field_only():
    assert HomologyGroup(QQ, 3).dimension == 3
    with pytest.raises(ValueError):
        HomologyGroup(ZZ, 3).dimension


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_complex():
    # boundary of a 2-simplex: faces then edges
    d1 = M(ZZ, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    d2 = M(ZZ, [[1], [-1], [1]])
    C = ChainComplex(ZZ, {0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})
    assert validate_complex(C).ok


def test_validate_rejects_shape():
    C = ChainComplex(ZZ, {0: 2, 1: 1}, {1: M(ZZ, [[1]])})
    rep = validate_complex(C)
    assert not rep.ok and "shape" in rep.problems[0]


def test_validate_rejects_nonsquare_zero():
    d1 = M(ZZ, [[1, 0], [0, 1]])
    d2 = M(ZZ, [[1, 0], [0, 1]])
    C = ChainComplex(ZZ, {0: 2, 1: 2, 2: 2}, {1: d1, 2: d2})
    rep = validate_complex(C)
    assert not rep.ok and "d o d" in rep.problems[0]


# ---------------------------------------------------------------------------
# homology oracles


def test_times_five_complex():
    # 0 -> Z --5--> Z -> 0 presents Z/5 in degree 0
    C = ChainComplex(ZZ, {0: 1, 1: 1}, {1: M(ZZ, [[5]])})
    assert complex_homology(C, 0).label() == "Z/5"
    assert complex_homology(C, 1).is_zero()


def test_circle_over_z():
    # one vertex, one loop: both differentials vanish
    C = ChainComplex(ZZ, {0: 1, 1: 1}, {1: M(ZZ, [[0]])})
    assert complex_homology(C, 0) == HomologyGroup(ZZ, 1)
    assert complex_homology(C, 1) == HomologyGroup(ZZ, 1)


def test_mixed_free_and_torsion():
    C = ChainComplex(ZZ, {0: 2, 1: 2}, {1: M(ZZ, [[2, 0], [0, 0]])})
    assert complex_homology(C, 0) == HomologyGroup(ZZ, 1, (2,))
    assert complex_homology(C, 1) == HomologyGroup(ZZ, 1)


def test_field_homology_dimensions():
    F2 = GF(2)
    d1 = M(F2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    d2 = M(F2, [[1], [1], [1]])
    C = ChainComplex(F2, {0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})
    assert validate_complex(C).ok
    # 2-simplex boundary mod 2: contractible except the top class survives mod 2?
    # rank d1 = 2, rank d2 = 1: H0 = 3-2 = 1, H1 = (3-2)-1 = 0, H2 = 1-1 = 0
    assert complex_homology(C, 0).dimension == 1
    assert complex_homology(C, 1).dimension == 0
    assert complex_homology(C, 2).dimension == 0


def test_homology_outside_support():
    C = ChainComplex(QQ, {0: 2}, {})
    assert complex_homology(C, 5).is_zero()
    assert complex_homology(C, -1).is_zero()


# ---------------------------------------------------------------------------
# induced maps


def test_identity_induces_identity():
    F3 = GF(3)
    d1 = M(F3, [[1, 1], [2, 2]])
    C = ChainComplex(F3, {0: 2, 1: 2}, {1: d1})
    f = ChainMap(C, C, {0: ExactMatrix.identity(F3, 2), 1: ExactMatrix.identity(F3, 2)})
    assert f.validate().ok
    for d in (0, 1):
        Md, hs, ht = homology_map(f, d)
        assert hs == ht
        assert Md == ExactMatrix.identity(F3, hs.dimension)
        assert is_homology_iso(Md, hs, ht)


def test_swap_on_homology():
    F2 = GF(2)
    C = ChainComplex(F2, {1: 2}, {})
    f = ChainMap(C, C, {1: M(F2, [[0, 1], [1, 0]])})
    Md, hs, ht = homology_map(f, 1)
    assert Md.to_rows() == [[0, 1], [1, 0]]
    assert is_homology_iso(Md, hs, ht)


def test_multiplication_on_torsion_class():
    C = ChainComplex(ZZ, {0: 1, 1: 1}, {1: M(ZZ, [[5]])})
    f = ChainMap(C, C, {0: M(ZZ, [[2]]), 1: M(ZZ, [[2]])})
    assert f.validate().ok
    Md, hs, ht = homology_map(f, 0)
    assert hs.label() == "Z/5" and ht.label() == "Z/5"
    assert Md.to_rows() == [[2]]


def test_chain_map_validation_catches_noncommuting():
    C = ChainComplex(ZZ, {0: 1, 1: 1}, {1: M(ZZ, [[5]])})
    f = ChainMap(C, C, {0: M(ZZ, [[2]]), 1: M(ZZ, [[3]])})
    assert not f.validate().ok


def test_presentation_class_of_boundary_is_zero():
    F5 = GF(5)
    d2 = M(F5, [[1], [1]])
    C = ChainComplex(F5, {1: 2, 2: 1}, {2: d2})
    pres = homology_presentation(C, 1)
    assert pres.group.dimension == 1
    cls = pres.class_of(M(F5, [[2], [2]]))
    assert cls.is_zero()
    cls2 = pres.class_of(M(F5, [[1], [0]]))
    assert not cls2.is_zero()


def test_iso_detection_rejects_rank_drop():
    F2 = GF(2)
    C = ChainComplex(F2, {1: 2}, {})
    f = ChainMap(C, C, {1: M(F2, [[1, 1], [1, 1]])})
    Md, hs, ht = homology_map(f, 1)
    assert not is_homology_iso(Md, hs, ht)


# ---------------------------------------------------------------------------
# presented complexes


def test_presented_single_quotient():
    P = PresentedChainComplex({0: 1}, {}, {0: M(ZZ, [[5]])})
    assert P.homology(0).label() == "Z/5"


def test_presented_mod4_times2():
    # Z/4 --2--> Z/4: kernel and cokernel of doubling are both Z/2
    rel = {0: M(ZZ, [[4]]), 1: M(ZZ, [[4]])}
    P = PresentedChainComplex({0: 1, 1: 1}, {1: M(ZZ, [[2]])}, rel)
    total = P.to_free_total()
    assert validate_complex(total).ok
    assert P.homology(0).label() == "Z/2"
    assert P.homology(1).label() == "Z/2"
    assert P.homology(2).is_zero()


def test_presented_rejects_bad_differential():
    # d = 1 does not send 4Z into 2Z ... it does; use a target with no relations
    rel = {1: M(ZZ, [[3]])}
    P = PresentedChainComplex({0: 1, 1: 1}, {1: M(ZZ, [[1]])}, rel)
    with pytest.raises(ValueError):
        P.to_free_total()


def test_presented_free_matches_plain():
    # no relations: presented homology agrees with the plain computation
    d1 = M(ZZ, [[2, 0], [0, 0]])
    P = PresentedChainComplex({0: 2, 1: 2}, {1: d1}, {})
    C = ChainComplex(ZZ, {0: 2, 1: 2}, {1: d1})
    for d in (0, 1):
        assert P.homology(d) == complex_homology(C, d)


# ---------------------------------------------------------------------------
# ranks and invariant factors against the presentation oracle


def _kernel_basis(A):
    return integer_kernel_basis(A) if A.ring == ZZ else rank_kernel(A)[1]


@st.composite
def random_complexes(draw, ring):
    """C_0 <- C_1 <- C_2 <- C_3 with d_1 random and d_{k+1} = K_k T, K_k spanning ker d_k."""
    entry = st.integers(-4, 4) if ring.characteristic == 0 else st.integers(0, ring.characteristic - 1)
    ranks = {k: draw(st.integers(0, 4)) for k in range(4)}

    def matrix(nrows, ncols):
        values = draw(st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols))
        return ExactMatrix(ring, nrows, ncols, {divmod(k, ncols): v for k, v in enumerate(values)})

    diffs = {1: matrix(ranks[0], ranks[1])}
    for k in (1, 2):
        K = _kernel_basis(diffs[k])
        diffs[k + 1] = K * matrix(K.ncols, ranks[k + 1])
    return ChainComplex(ring, ranks, diffs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ZZ, GF(2), GF(3), GF(5), QQ]).flatmap(random_complexes))
def test_complex_homology_matches_presentations(C):
    assert C.validate().ok
    for d in range(-1, 5):
        assert complex_homology(C, d) == homology_presentation(C, d).group, d


@settings(max_examples=40, deadline=None)
@given(random_complexes(ZZ), st.integers(2, 6))
def test_presented_homology_matches_presentations(C, n):
    # every degree is (Z/n)^{n_d}; n * identity relations are carried into
    # each other by any differential
    relations = {d: ExactMatrix(ZZ, r, r, {(i, i): n for i in range(r)}) for d, r in C.ranks.items()}
    total = PresentedChainComplex(C.ranks, C.diffs, relations).to_free_total()
    assert total.validate().ok
    for d in range(-1, 6):
        assert complex_homology(total, d) == homology_presentation(total, d).group, d
