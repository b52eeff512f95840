"""The chain reduction engine against the direct homology computations."""

import pytest
from hypothesis import given, settings, strategies as st

from cychom.rings import ZZ, QQ, GF
from cychom.matrix import ExactMatrix
from cychom.complexes import ChainComplex, complex_homology
from cychom.reduction import (
    MorseReduction,
    homology_via_reduction,
    reduce_chain_complex,
    residual_complex,
)
from markowitz_reduction import MarkowitzReduction


def reduction_of(C: ChainComplex):
    def boundary(d, j):
        M = C.diff(d)
        return {i: v for (i, jj), v in M.entries.items() if jj == j}

    return reduce_chain_complex(C.ring, dict(C.ranks), boundary)


def test_two_sphere_over_f2():
    # boundary of a 3-simplex: standard simplicial 2-sphere
    F2 = GF(2)
    import itertools

    verts = list(range(4))
    simplices = {
        0: [(v,) for v in verts],
        1: list(itertools.combinations(verts, 2)),
        2: list(itertools.combinations(verts, 3)),
    }
    idx = {d: {s: i for i, s in enumerate(simplices[d])} for d in simplices}
    diffs = {}
    for d in (1, 2):
        entries = {}
        for j, s in enumerate(simplices[d]):
            for k in range(len(s)):
                face = s[:k] + s[k + 1 :]
                entries[(idx[d - 1][face], j)] = 1
        diffs[d] = ExactMatrix(F2, len(simplices[d - 1]), len(simplices[d]), entries)
    C = ChainComplex(F2, {d: len(simplices[d]) for d in simplices}, diffs)
    assert C.validate().ok
    red, _ = reduction_of(C)
    assert red.is_exactly_reduced()
    assert [len(red.alive(d)) for d in (0, 1, 2)] == [1, 0, 1]


def test_residual_homology_over_z():
    # x5 complex cannot cancel (pivot 5 is not a unit) and survives whole
    C = ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[5]])})
    red, _ = reduction_of(C)
    assert len(red.alive()) == 2
    assert homology_via_reduction(red, 0).label() == "Z/5"
    assert homology_via_reduction(red, 1).is_zero()


def test_mixed_torsion_over_z():
    d1 = ExactMatrix.from_rows(ZZ, [[2, 0, 1], [0, 3, 1]])
    C = ChainComplex(ZZ, {0: 2, 1: 3}, {1: d1})
    red, _ = reduction_of(C)
    for d in (0, 1):
        assert homology_via_reduction(red, d) == complex_homology(C, d)


def test_transport_down_is_chain_level_projection():
    # reduced coordinates of a cycle count its homology class over a field
    F3 = GF(3)
    d1 = ExactMatrix.from_rows(F3, [[1, 1, 0], [2, 2, 0]])
    C = ChainComplex(F3, {0: 2, 1: 3}, {1: d1})
    red, ids = reduction_of(C)
    assert red.is_exactly_reduced()
    # kernel of d1 contains (1, 2, 0) and (0, 0, 1)
    z = {ids[(1, 0)]: 1, ids[(1, 1)]: 2}
    w = red.transport_down(z)
    assert all(red.alive_flags[i] for i in w)
    # boundaries map to zero in the reduced complex
    img = {ids[(0, 0)]: 1, ids[(0, 1)]: 2}  # d1 applied to e_0
    assert red.transport_down(img) == {}


def test_transport_roundtrip():
    F5 = GF(5)
    d1 = ExactMatrix.from_rows(F5, [[1, 2, 3], [0, 1, 4]])
    C = ChainComplex(F5, {0: 2, 1: 3}, {1: d1})
    red, ids = reduction_of(C)
    for i in red.alive(1):
        lifted = red.transport_down(red.transport_up({i: 1}))
        assert lifted == {i: 1}


def test_transport_up_gives_cycles():
    # lifted representatives must be cycles when the reduced differential is zero
    F2 = GF(2)
    d1 = ExactMatrix.from_rows(F2, [[1, 1, 1]])
    d2 = ExactMatrix.from_rows(F2, [[1, 1], [1, 0], [0, 1]])
    C = ChainComplex(F2, {0: 1, 1: 3, 2: 2}, {1: d1, 2: d2})
    assert C.validate().ok
    red, ids = reduction_of(C)
    assert red.is_exactly_reduced()
    back = {i: j for j, i in ids.items()}
    for i in red.alive(1):
        chain = red.transport_up({i: 1})
        col = {back[c][1]: v for c, v in chain.items()}
        as_vec = ExactMatrix(F2, 3, 1, {(k, 0): v for k, v in col.items()})
        assert (d1 * as_vec).is_zero()


def test_boundary_set_twice_rejected():
    red = MorseReduction(ZZ)
    a = red.add_cell(0)
    b = red.add_cell(1)
    red.set_boundary(b, {a: 1})
    with pytest.raises(ValueError):
        red.set_boundary(b, {a: 2})


def test_residual_complex_roundtrip():
    C = ChainComplex(ZZ, {0: 2, 1: 2}, {1: ExactMatrix.from_rows(ZZ, [[2, 0], [0, 1]])})
    red, _ = reduction_of(C)
    R, by_degree, _ = residual_complex(red)
    assert R.validate().ok
    assert complex_homology(R, 0) == complex_homology(C, 0)
    assert complex_homology(R, 1) == complex_homology(C, 1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.integers(2, 4), st.integers(1, 3), st.data())
def test_reduction_matches_direct_homology(p, n0, n1, n2, data):
    # random two-step complex: d1 arbitrary, d2 built from kernel columns
    F = GF(p)
    rows = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n1, max_size=n1), min_size=n0, max_size=n0)
    )
    d1 = ExactMatrix.from_rows(F, rows)
    from cychom.linalg import rank_kernel

    _, K = rank_kernel(d1)
    if K.ncols:
        mix = data.draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=n2, max_size=n2),
                min_size=K.ncols,
                max_size=K.ncols,
            )
        )
        d2 = K * ExactMatrix.from_rows(F, mix)
    else:
        d2 = ExactMatrix.zero(F, n1, n2)
    C = ChainComplex(F, {0: n0, 1: n1, 2: n2}, {1: d1, 2: d2})
    assert C.validate().ok
    red, _ = reduction_of(C)
    assert red.is_exactly_reduced()
    for d in (0, 1, 2):
        assert len(red.alive(d)) == complex_homology(C, d).dimension


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_integer_reduction_matches_snf_homology(m, n, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    C = ChainComplex(ZZ, {0: m, 1: n}, {1: ExactMatrix.from_rows(ZZ, rows)})
    red, _ = reduction_of(C)
    for d in (0, 1):
        assert homology_via_reduction(red, d) == complex_homology(C, d)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]))
def test_alive_index_matches_scan_of_flags(seed, p):
    # alive(d) after reduce() reads a per-degree index; it must list what a
    # scan of alive_flags finds, in id order.  Only odd degrees get random
    # boundaries, so d o d = 0 holds.
    import random

    rnd = random.Random(seed)
    red = MorseReduction(GF(p))
    degrees = [rnd.randrange(4) for _ in range(rnd.randrange(1, 30))]
    cells = [red.add_cell(d) for d in degrees]
    for i in cells:
        if degrees[i] % 2 == 0:
            continue
        below = [j for j in cells if degrees[j] == degrees[i] - 1]
        picked = rnd.sample(below, min(len(below), rnd.randrange(3)))
        red.set_boundary(i, {j: rnd.randrange(1, p) for j in picked})
    red.reduce()
    for d in range(-1, 5):
        scan = [i for i, ok in enumerate(red.alive_flags) if ok and red.degree[i] == d]
        assert red.alive(d) == scan


# -- the sweep against the Markowitz-heap oracle -----------------------------------


def _scrambled_complex(ring, data):
    """A random complex in degrees 0..top with known homology, in a scrambled basis.

    It starts as a sum of pieces: a cell alone, or a pair of cells in
    degrees d, d - 1 joined by a scalar k (over Z a non-unit k leaves
    torsion).  Then random elementary changes of basis e_i += c e_j within
    a degree rewrite the differentials on both sides of that degree.
    """
    top = data.draw(st.integers(1, 3))
    scalars = [0, 1, 2, 3] if ring == ZZ else [0, 1, 2, -1]
    ranks = {d: 0 for d in range(top + 1)}
    entries = {d: {} for d in range(1, top + 1)}
    for _ in range(data.draw(st.integers(1, 9))):
        d = data.draw(st.integers(0, top))
        k = data.draw(st.sampled_from(scalars))
        if d == 0 or k == 0:
            ranks[d] += 1
            continue
        entries[d][(ranks[d - 1], ranks[d])] = k
        ranks[d - 1] += 1
        ranks[d] += 1
    diffs = {d: ExactMatrix(ring, ranks[d - 1], ranks[d], entries[d]) for d in entries}
    for _ in range(data.draw(st.integers(0, 12))):
        d = data.draw(st.integers(0, top))
        if ranks[d] < 2:
            continue
        i, j = data.draw(st.lists(st.integers(0, ranks[d] - 1), min_size=2, max_size=2, unique=True))
        c = ring.coerce(data.draw(st.sampled_from([1, -1, 2])))
        E = ExactMatrix.identity(ring, ranks[d]) + ExactMatrix(ring, ranks[d], ranks[d], {(j, i): c})
        E_inv = ExactMatrix.identity(ring, ranks[d]) - ExactMatrix(ring, ranks[d], ranks[d], {(j, i): c})
        if d in diffs:
            diffs[d] = diffs[d] * E
        if d + 1 in diffs:
            diffs[d + 1] = E_inv * diffs[d + 1]
    C = ChainComplex(ring, ranks, diffs)
    assert C.validate().ok
    return C


def _reduced(C: ChainComplex, engine):
    red = engine(C.ring)
    ids = {(d, j): red.add_cell(d) for d in sorted(C.ranks) for j in range(C.ranks[d])}
    for d, M in C.diffs.items():
        for j in range(M.ncols):
            col = M.col(j)
            if col:
                red.set_boundary(ids[(d, j)], {ids[(d - 1, i)]: c for i, c in col.items()})
    red.reduce()
    return red


_RINGS = st.sampled_from([GF(2), GF(3), GF(5), QQ, ZZ])


@settings(max_examples=60, deadline=None)
@given(_RINGS, st.data())
def test_sweep_matches_markowitz_oracle(ring, data):
    C = _scrambled_complex(ring, data)
    sweep, oracle = _reduced(C, MorseReduction), _reduced(C, MarkowitzReduction)
    for d in C.ranks:
        if ring.is_field:
            assert sweep.is_exactly_reduced()
            assert len(sweep.alive(d)) == len(oracle.alive(d)) == complex_homology(C, d).dimension
        else:
            assert homology_via_reduction(sweep, d) == homology_via_reduction(oracle, d)
            assert homology_via_reduction(sweep, d) == complex_homology(C, d)
    # sweeps repeat until no unit is left to cancel
    assert not any(ring.is_unit(c) for i in sweep.alive() for c in sweep.cols[i].values())


def test_integer_sweeps_repeat_for_units_made_by_fill_in():
    # d(y) = 2a + 3x has no unit when the sweep passes y; cancelling b
    # against a rewrites it to x, a unit that only a second sweep cancels
    red = MorseReduction(ZZ)
    a, x, y, b = red.add_cell(0), red.add_cell(0), red.add_cell(1), red.add_cell(1)
    red.set_boundary(y, {a: 2, x: 3})
    red.set_boundary(b, {a: 1, x: 1})
    red.reduce()
    assert [entry[:2] for entry in red.log] == [(a, b), (x, y)]
    assert red.alive() == []


@settings(max_examples=30, deadline=None)
@given(_RINGS, st.data())
def test_reduction_is_deterministic(ring, data):
    C = _scrambled_complex(ring, data)
    first, second = _reduced(C, MorseReduction), _reduced(C, MorseReduction)
    assert first.log == second.log
    assert first.alive_flags == second.alive_flags


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([GF(2), GF(3), GF(5), QQ]), st.data())
def test_degree_filtered_transport_matches_full_replay(ring, data):
    # a homogeneous chain is touched only by the log entries its degree
    # selects, so replaying that slice must give the full replay's result
    C = _scrambled_complex(ring, data)
    red = _reduced(C, MorseReduction)
    d = data.draw(st.sampled_from(sorted(C.ranks)))
    cells = [i for i, deg in enumerate(red.degree) if deg == d]
    survivors = red.alive(d)
    for pool in (cells, survivors):
        if not pool:
            continue
        picked = data.draw(st.lists(st.sampled_from(pool), max_size=4))
        chain = {i: ring.coerce(data.draw(st.integers(-3, 3))) for i in picked}
        assert red.transport_down(chain, d) == red.transport_down(chain)
        assert red.transport_up(chain, d) == red.transport_up(chain)
