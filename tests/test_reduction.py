"""The chain reduction engine against the direct homology computations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cychom.rings import ZZ, QQ, GF
from cychom.matrix import ExactMatrix
from cychom.complexes import ChainComplex, complex_homology
from cychom.linalg import rank
from cychom.reduction import MorseReduction, homology_via_reduction, residual_complex
from dict_reduction import MorseReduction as DictReduction, csc_from_columns, replayed
from markowitz_reduction import MarkowitzReduction
from presentation_homology import rank_kernel


def reduction_of(C: ChainComplex):
    """C reduced, with the id table {(degree, index): cell id}."""
    ranks = dict(C.ranks)
    csc = {d: csc_from_columns(C.diff(d).col(j) for j in range(ranks[d])) for d in ranks if d - 1 in ranks}
    red = MorseReduction(C.ring, ranks, csc)
    red.reduce()
    return red, {(d, j): red.start[d] + j for d in ranks for j in range(ranks[d])}


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
    assert homology_via_reduction(red, [0])[0].label() == "Z/5"
    assert homology_via_reduction(red, [1])[1].is_zero()


def test_mixed_torsion_over_z():
    d1 = ExactMatrix.from_rows(ZZ, [[2, 0, 1], [0, 3, 1]])
    C = ChainComplex(ZZ, {0: 2, 1: 3}, {1: d1})
    red, _ = reduction_of(C)
    for d in (0, 1):
        assert homology_via_reduction(red, [d])[d] == complex_homology(C, d)


def test_transport_down_is_chain_level_projection():
    # reduced coordinates of a cycle count its homology class over a field
    F3 = GF(3)
    d1 = ExactMatrix.from_rows(F3, [[1, 1, 0], [2, 2, 0]])
    C = ChainComplex(F3, {0: 2, 1: 3}, {1: d1})
    red, ids = reduction_of(C)
    assert red.is_exactly_reduced()
    # kernel of d1 contains (1, 2, 0) and (0, 0, 1)
    z = {ids[(1, 0)]: 1, ids[(1, 1)]: 2}
    w = _replayed_down(red, z)
    assert w and all(red.alive_flags[i] for i in w)
    # boundaries map to zero in the reduced complex
    img = {ids[(0, 0)]: 1, ids[(0, 1)]: 2}  # d1 applied to e_0
    assert _replayed_down(red, img) == {}


def test_transport_roundtrip():
    F5 = GF(5)
    d1 = ExactMatrix.from_rows(F5, [[1, 2, 3], [0, 1, 4]])
    C = ChainComplex(F5, {0: 2, 1: 3}, {1: d1})
    red = _reduced(C, DictReduction)  # the lift is the dict engine's
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
    red = _reduced(C, DictReduction)  # the lift is the dict engine's
    assert red.is_exactly_reduced()
    for i in red.alive(1):
        chain = red.transport_up({i: 1})  # cells are numbered degree by degree
        as_vec = ExactMatrix(F2, 3, 1, {(c - C.ranks[0], 0): v for c, v in chain.items()})
        assert (d1 * as_vec).is_zero()


def test_boundary_that_does_not_fit_the_ranks_is_rejected():
    with pytest.raises(ValueError):
        MorseReduction(ZZ, {0: 1, 1: 1}, {1: ([0, 1, 1], [0], [1])})
    with pytest.raises(ValueError):
        MorseReduction(ZZ, {1: 1}, {1: ([0, 1], [0], [1])})


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
        assert homology_via_reduction(red, [d])[d] == complex_homology(C, d)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]))
def test_alive_index_matches_scan_of_flags(seed, p):
    # alive(d) after reduce() reads a per-degree index; it must list what a
    # scan of alive_flags finds, in id order.  Only odd degrees get random
    # boundaries, so d o d = 0 holds.
    import random

    rnd = random.Random(seed)
    degrees = sorted(rnd.randrange(4) for _ in range(rnd.randrange(1, 30)))
    ranks = {d: degrees.count(d) for d in range(4)}
    boundaries = {}
    for d in (1, 3):
        columns = []
        for _ in range(ranks[d]):
            picked = rnd.sample(range(ranks[d - 1]), min(ranks[d - 1], rnd.randrange(3)))
            columns.append({j: rnd.randrange(1, p) for j in picked})
        boundaries[d] = csc_from_columns(columns)
    red = MorseReduction(GF(p), ranks, boundaries)
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


def _csc(C: ChainComplex) -> dict:
    return {d: csc_from_columns(M.col(j) for j in range(M.ncols)) for d, M in C.diffs.items()}


def _reduced(C: ChainComplex, engine):
    """C reduced by `engine`; cells take the same ids in every engine."""
    if engine is MorseReduction:
        red = MorseReduction(C.ring, dict(C.ranks), _csc(C))
    else:
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
            assert homology_via_reduction(sweep, [d])[d] == homology_via_reduction(oracle, [d])[d]
            assert homology_via_reduction(sweep, [d])[d] == complex_homology(C, d)
    # sweeps repeat until no unit is left to cancel
    assert not any(ring.is_unit(c) for i in sweep.alive() for c in sweep.cols[i].values())


def test_integer_sweeps_repeat_for_units_made_by_fill_in():
    # d(y) = 2a + 3x has no unit when the sweep passes y; cancelling b
    # against a rewrites it to x, a unit that only a second sweep cancels
    # (cells are swept in id order and cancelled against their largest unit row)
    x, a, y, b = 0, 1, 2, 3
    red = MorseReduction(ZZ, {0: 2, 1: 2}, {1: csc_from_columns([{a: 2, x: 3}, {a: 1, x: 1}])})
    red.reduce()
    assert [entry[:2] for entry in red.log] == [(a, b), (x, y)]
    assert red.alive() == []


def test_later_integer_sweeps_drop_cells_cancelled_as_upper_since():
    # y and w both bound 2a + 3x.  The first sweep reads z = 2y - 2w and
    # cancels (a, b); the second cancels (x, y), so when it reaches z it
    # must drop the y coordinate, leaving 2w: H_1 = Z/2
    x, a, y, w, b, z = range(6)
    boundaries = {
        1: csc_from_columns([{a: 2, x: 3}, {a: 2, x: 3}, {a: 1, x: 1}]),
        2: csc_from_columns([{y - 2: 2, w - 2: -2}]),  # rows index degree 1
    }
    red = MorseReduction(ZZ, {0: 2, 1: 3, 2: 1}, boundaries)
    red.reduce()
    assert [entry[:2] for entry in red.log] == [(a, b), (x, y)]
    assert red.alive() == [w, z] and red.cols[z] == {w: -2}
    assert homology_via_reduction(red, [1])[1].label() == "Z/2"


def test_projection_drops_upper_cells_that_fill_brings_back():
    # y is still a residual when the first sweep cancels (w, v) with the
    # snapshot dv - w = y; the second sweep cancels (x, y).  Projecting w
    # brings y back through that snapshot, and y is an upper cell by then
    x, a, y, w, b, z, v = range(7)
    boundaries = {
        1: csc_from_columns([{a: 2, x: 3}, {a: 2, x: 3}, {a: 1, x: 1}]),
        2: csc_from_columns([{y - 2: 2, w - 2: -2}, {y - 2: 1, w - 2: -1}]),  # rows index degree 1
    }
    red = MorseReduction(ZZ, {0: 2, 1: 3, 2: 2}, boundaries)
    red.reduce()
    assert [entry[:2] for entry in red.log] == [(a, b), (w, v), (x, y)]
    assert _replayed_down(red, {w: 1}) == _replayed_down(red, {w: 1}, 1) == {}


@settings(max_examples=30, deadline=None)
@given(_RINGS, st.data())
def test_reduction_is_deterministic(ring, data):
    C = _scrambled_complex(ring, data)
    first, second = _reduced(C, MorseReduction), _reduced(C, MorseReduction)
    assert first.log == second.log
    assert first.alive_flags == second.alive_flags


def _replayed_down(red, chain: dict, degree: int | None = None) -> dict:
    """transport_down by a forward replay of the log, or of a degree's slice of it.

    This is the dict engine's transport, run on another engine's log.
    """
    return replayed(red).transport_down(chain, degree)


@settings(max_examples=60, deadline=None)
@given(_RINGS, st.data())
def test_degree_filtered_transport_matches_full_replay(ring, data):
    # a homogeneous chain is touched only by the log entries its degree
    # selects, so replaying that slice must give the full replay's result;
    # over Z too, where later sweeps drop upper cells cancelled since.
    # The same holds for the dict engine's lift
    C = _scrambled_complex(ring, data)
    red, oracle = _reduced(C, MorseReduction), _reduced(C, DictReduction)
    d = data.draw(st.sampled_from(sorted(C.ranks)))
    cells = [i for i, deg in enumerate(red.degree) if deg == d]
    for pool in (cells, red.alive(d), oracle.alive(d)):
        if not pool:
            continue
        picked = data.draw(st.lists(st.sampled_from(pool), max_size=4))
        chain = {i: ring.coerce(data.draw(st.integers(-3, 3))) for i in picked}
        assert _replayed_down(red, chain, d) == _replayed_down(red, chain)
        assert oracle.transport_up(chain, d) == oracle.transport_up(chain)


# -- the left-looking sweep against the dict engine it replaced --------------------


def _boundary_chain(C: ChainComplex, red, d: int, j: int) -> dict:
    """The boundary of the j-th degree-d cell of C, on the reduction's cell ids."""
    if d not in C.diffs:
        return {}
    return {red.start[d - 1] + i: c for i, c in C.diff(d).col(j).items()}


def _cross_map(src, dst, d: int, ring) -> ExactMatrix:
    """The projection into dst of src.transport_up on the degree-d survivors; src lifts."""
    rows, cols = dst.alive(d), src.alive(d)
    pos = {cell: r for r, cell in enumerate(rows)}
    entries = {}
    for j, y in enumerate(cols):
        for cell, c in _replayed_down(dst, src.transport_up({y: ring.one}, d)).items():
            entries[(pos[cell], j)] = c
    return ExactMatrix(ring, len(rows), len(cols), entries)


@settings(max_examples=60, deadline=None)
@given(_RINGS, st.data())
def test_left_looking_sweep_matches_dict_oracle(ring, data):
    C = _scrambled_complex(ring, data)
    new, old = _reduced(C, MorseReduction), _reduced(C, DictReduction)
    old.start = new.start  # both engines number the cells degree by degree
    residual = {i: new.cols[i] for i in new.alive()}
    old_residual = {i: old.cols[i] for i in old.alive()}
    for d in sorted(C.ranks):
        # equal homology (Smith normal form over Z) and, over a field, survivors
        assert homology_via_reduction(new, [d])[d] == homology_via_reduction(old, [d])[d]
        if ring.is_field:
            assert len(new.alive(d)) == len(old.alive(d)) == complex_homology(C, d).dimension
        # the projection is a chain map: down o boundary = residual o down
        for j in range(C.ranks[d]):
            x = new.start[d] + j
            lhs = _replayed_down(new, _boundary_chain(C, new, d, j))
            image = {}
            for y, c in _replayed_down(new, {x: ring.one}).items():
                for z, e in residual[y].items():
                    image[z] = ring.add(image.get(z, ring.zero), ring.mul(c, e))
            assert lhs == {z: c for z, c in image.items() if c != 0}
        # the dict engine's lift is one too: boundary o up = up o residual
        for y in old.alive(d):
            up = old.transport_up({y: ring.one}, d)
            lhs = {}
            for x, c in up.items():
                for z, e in _boundary_chain(C, old, d, x - old.start[d]).items():
                    lhs[z] = ring.add(lhs.get(z, ring.zero), ring.mul(c, e))
            rhs = old.transport_up(old_residual[y], d - 1) if old_residual[y] else {}
            assert {z: c for z, c in lhs.items() if c != 0} == rhs
        # down o up is the identity on the dict engine's survivors; over a
        # field, its lifts projected by the left-looking engine are invertible
        n = len(old.alive(d))
        assert _cross_map(old, old, d, ring) == ExactMatrix.identity(ring, n)
        if ring.is_field and n:
            assert rank(_cross_map(old, new, d, ring)) == n


def test_non_unit_pivots_over_q_make_fractions():
    # no entry is +-1, so every cancellation takes a Fraction pivot; H_1 is
    # spanned by e_3 - 2 e_0
    half = Fraction(1, 2)
    d1 = ExactMatrix.from_rows(QQ, [[2, 3, 0, 4], [0, half, 3, 6]])
    d2 = ExactMatrix.from_rows(QQ, [[18], [-12], [2], [0]])
    C = ChainComplex(QQ, {0: 2, 1: 4, 2: 1}, {1: d1, 2: d2})
    assert C.validate().ok
    red, oracle = _reduced(C, MorseReduction), _reduced(C, DictReduction)
    assert [len(red.alive(d)) for d in (0, 1, 2)] == [len(oracle.alive(d)) for d in (0, 1, 2)] == [0, 1, 0]
    assert red.log and all(lam not in (1, -1) for _, _, lam, _ in red.log)
    (y,) = red.alive(1)
    # a cycle lifted by the dict engine, and the cycle e_3 - 2 e_0, project
    # onto nonzero Fraction multiples of the survivor
    up = oracle.transport_up({oracle.alive(1)[0]: Fraction(1)}, 1)
    cycle = ExactMatrix(QQ, 4, 1, {(x - red.start[1], 0): c for x, c in up.items()})
    assert (d1 * cycle).is_zero()
    down = _replayed_down(red, {red.start[1] + 3: Fraction(1), red.start[1]: Fraction(-2)})
    for chain in (down, _replayed_down(red, up)):
        assert len(chain) == 1 and chain[y] != 0
        assert all(type(c) is Fraction for c in chain.values())


# -- growing one reduction in row blocks ------------------------------------------


def _filtered_complex(ring, data):
    """A random complex with a row filtration, in a scrambled filtered basis.

    Returns (C, rows), where rows[d] gives the row of each cell of degree
    d in increasing order: the boundary of a row-r cell lands on rows
    <= r, as in a row truncation tower.  Pieces are a cell alone or a
    pair of cells in degrees d, d - 1 joined by a scalar, the lower one
    in a row no higher than the upper one; then changes of basis
    e_i += c e_j within a degree, with row(j) <= row(i), keep the
    filtration while they mix the pieces.
    """
    top = data.draw(st.integers(1, 3))
    height = data.draw(st.integers(1, 4))
    scalars = [0, 1, 2, -1]
    cells = {d: [] for d in range(top + 1)}  # row of each cell, in creation order
    pairs = []
    for _ in range(data.draw(st.integers(1, 12))):
        d = data.draw(st.integers(0, top))
        r = data.draw(st.integers(0, height - 1))
        k = data.draw(st.sampled_from(scalars))
        if d == 0 or k == 0:
            cells[d].append(r)
            continue
        pairs.append((d, len(cells[d - 1]), len(cells[d]), k))
        cells[d - 1].append(data.draw(st.integers(0, r)))
        cells[d].append(r)
    order = {d: sorted(range(len(rs)), key=lambda i: rs[i]) for d, rs in cells.items()}
    pos = {d: {i: n for n, i in enumerate(idx)} for d, idx in order.items()}
    rows = {d: [cells[d][i] for i in order[d]] for d in cells}
    ranks = {d: len(rs) for d, rs in rows.items()}
    entries = {d: {} for d in range(1, top + 1)}
    for d, i, j, k in pairs:
        entries[d][(pos[d - 1][i], pos[d][j])] = k
    diffs = {d: ExactMatrix(ring, ranks[d - 1], ranks[d], entries[d]) for d in entries}
    # over Q a half turns a pair's 2 into a unit on an older cell
    mixers = [1, -1, 2] + ([Fraction(1, 2)] if ring.kind == "Q" else [])
    for _ in range(data.draw(st.integers(0, 12))):
        d = data.draw(st.integers(0, top))
        if ranks[d] < 2:
            continue
        i, j = data.draw(st.lists(st.integers(0, ranks[d] - 1), min_size=2, max_size=2, unique=True))
        if rows[d][j] > rows[d][i]:
            i, j = j, i
        c = ring.coerce(data.draw(st.sampled_from(mixers)))
        E = ExactMatrix.identity(ring, ranks[d]) + ExactMatrix(ring, ranks[d], ranks[d], {(j, i): c})
        E_inv = ExactMatrix.identity(ring, ranks[d]) - ExactMatrix(ring, ranks[d], ranks[d], {(j, i): c})
        if d in diffs:
            diffs[d] = diffs[d] * E
        if d + 1 in diffs:
            diffs[d + 1] = E_inv * diffs[d + 1]
    C = ChainComplex(ring, ranks, diffs)
    assert C.validate().ok
    return C, rows


def _row_block(C: ChainComplex, rows: dict, r: int):
    """Row r of a filtered complex as a block.

    Returns its ranks, its CSC boundaries, the (degree, index) of each of
    its cells in arrival order, and the number of cells of rows <= r per
    degree.
    """
    below = {d: sum(1 for x in rs if x < r) for d, rs in rows.items()}
    upto = {d: sum(1 for x in rs if x <= r) for d, rs in rows.items()}
    ranks = {d: upto[d] - below[d] for d in rows}
    boundaries = {
        d: csc_from_columns(M.col(j) for j in range(below[d], upto[d])) for d, M in C.diffs.items()
    }
    keys = [(d, j) for d in sorted(rows) for j in range(below[d], upto[d])]
    return ranks, boundaries, keys, upto


def _keyed_state(red, key):
    """Log entries (a, b, lam, snapshot) and survivors, with cells renamed by key."""
    log = {(key[a], key[b]): (lam, {key[x]: c for x, c in rest}) for a, b, lam, rest in red.log}
    return log, sorted(key[i] for i in red.alive())


def test_q_pivots_keep_the_elder_rule_across_blocks():
    # blocks a1 | a2 | b with db = a1 + 2 a2: the unit a1 is older than
    # a2's block, so b cancels a2, and a1 survives the third block, as its
    # class does (a1 = -2 a2 there): rank(step 1 -> step 3) counts 1.  In
    # one block the unit is preferred
    a1, a2, b = range(3)
    red = MorseReduction(QQ)
    for ranks in ({0: 1}, {0: 1}):
        red.add_cells(ranks, {})
        red.reduce()
    red.add_cells({1: 1}, {1: csc_from_columns([{a1: 1, a2: 2}])})
    red.reduce()
    assert [entry[:3] for entry in red.log] == [(a2, b, 2)]
    assert red.alive(0) == [a1]
    one = MorseReduction(QQ, {0: 2, 1: 1}, {1: csc_from_columns([{a1: 1, a2: 2}])})
    one.reduce()
    assert [entry[:3] for entry in one.log] == [(a1, b, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF(2), GF(3), GF(5), QQ]), st.data())
def test_row_blocks_match_one_shot_reductions(ring, data):
    # after a sweep of one or more blocks of rows, the grown reduction holds
    # the pairs, pivots, snapshots and survivors of a one-shot reduction of
    # the truncation to those rows
    C, rows = _filtered_complex(ring, data)
    grown = MorseReduction(ring)
    key = []  # (degree, index) of each cell of the grown reduction, by id
    top = max(max(rs, default=0) for rs in rows.values())
    for r in range(top + 1):
        ranks, boundaries, keys, upto = _row_block(C, rows, r)
        grown.add_cells(ranks, boundaries)
        key += keys
        if r < top and data.draw(st.booleans(), label="sweep later"):
            continue
        grown.reduce()
        if ring.kind == "Q":
            # the unit preference reads the row blocks, so the one-shot
            # sweep gets the same blocks before it runs
            whole, whole_key = MorseReduction(ring), []
            for s in range(r + 1):
                ranks, boundaries, keys, _ = _row_block(C, rows, s)
                whole.add_cells(ranks, boundaries)
                whole_key += keys
        else:
            whole = MorseReduction(
                ring,
                upto,
                {d: csc_from_columns(M.col(j) for j in range(upto[d])) for d, M in C.diffs.items()},
            )
            whole_key = [(d, j) for d in sorted(upto) for j in range(upto[d])]
        whole.reduce()
        assert _keyed_state(grown, key) == _keyed_state(whole, whole_key), r
        for d in rows:
            assert [key[i] for i in grown.alive(d)] == [whole_key[i] for i in whole.alive(d)]


def _first_columns(M: ExactMatrix, ncols: int) -> ExactMatrix:
    """The first ncols columns of M."""
    entries = {(i, j): c for (i, j), c in M.entries.items() if j < ncols}
    return ExactMatrix(M.ring, M.nrows, ncols, entries)


def _inclusion_rank(C: ChainComplex, d: int, src: dict, dst: dict) -> int:
    """rank H_d(C_src) -> H_d(C_dst) for the subcomplexes of the first src[e] / dst[e] cells.

    The image is (Z_d(src) + B_d(dst)) / B_d(dst), by linear algebra on C.
    """
    ring, n = C.ring, C.ranks[d]
    if d in C.diffs:
        _, Z = rank_kernel(_first_columns(C.diff(d), src[d]))
    else:
        Z = ExactMatrix.identity(ring, src[d])
    B = _first_columns(C.diff(d + 1), dst[d + 1]) if d + 1 in C.diffs else ExactMatrix(ring, n, 0, {})
    entries = {**Z.entries, **{(i, Z.ncols + j): c for (i, j), c in B.entries.items()}}
    both = ExactMatrix(ring, n, Z.ncols + B.ncols, entries)
    return (rank(both) if both.ncols else 0) - (rank(B) if B.ncols else 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF(2), GF(3), GF(5), QQ]), st.data())
def test_row_block_survivors_count_tower_ranks(ring, data):
    # grown by rows, one reduction is a barcode: the rank of
    # H_d(rows <= s) -> H_d(rows <= t) counts the degree-d survivors after
    # row t among the cells that rows <= s had
    C, rows = _filtered_complex(ring, data)
    red = MorseReduction(ring)
    top = max(max(rs, default=0) for rs in rows.values())
    cells, survivors, upto = [], [], []
    for r in range(top + 1):
        ranks, boundaries, _, counts = _row_block(C, rows, r)
        red.add_cells(ranks, boundaries)
        red.reduce()
        upto.append(counts)
        cells.append(len(red.degree))
        survivors.append({d: red.alive(d) for d in rows})
    for t in range(top + 1):
        for s in range(t + 1):
            for d in rows:
                counted = sum(1 for y in survivors[t][d] if y < cells[s])
                assert counted == _inclusion_rank(C, d, upto[s], upto[t]), (s, t, d)
