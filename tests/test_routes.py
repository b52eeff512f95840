"""Differential tests: the reduced routes against the materialized ones.

hp_poly runs on the orbit-reduced plane, hc_minus_poly on its left
region and hc / the S-tower on the normalized (b, B) complex.  The
materialized plane, left region and cyclic bicomplex they replaced stay
as references (`materialized_plane`); on every catalog algebra over F2,
F3, F5 and Q the tables must be byte-identical, verdicts, stage groups
and dying classes included.  Sizes are capped so the references stay
cheap: rows of at most about a thousand basis tuples.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cychom import bicomplex
from cychom.algebra import CATALOG_NAMES, AlgebraError, catalog
from cychom.cyclic import cyclic_bar_module
from cychom.linalg import rank
from cychom.orbits import OrbitPlane
from cychom.rings import GF, QQ
from dict_reduction import MorseReduction as DictReduction
from materialized_plane import cyclic_first_quadrant, materialized_stages
import per_stage_towers
from per_stage_towers import lifted_stage_map
from scalar_orbits import ScalarOrbitPlane

BASES = (GF(2), GF(3), GF(5), QQ)
# top truncation row by algebra dimension; row 4 is the first to carry
# classes over F5, so no entry goes below it
TOP_ROW = {1: 24, 2: 6, 3: 4, 4: 4}


def _configs():
    out = []
    for base in BASES:
        for name in CATALOG_NAMES:
            try:
                catalog(name, base)
            except AlgebraError:
                continue  # e.g. field-extension(1,1) is split over F5
            out.append((name, base))
    return out


CONFIGS = _configs()
IDS = [f"{name}/{base.label()}" for name, base in CONFIGS]


def _module(name, base):
    return cyclic_bar_module(catalog(name, base))


def _reference(monkeypatch, fn, *args, **kwargs):
    def stages(X, lo, hi, left=False):
        return materialized_stages("left" if left else "plane")(X, lo, hi)

    with monkeypatch.context() as m:
        m.setattr(bicomplex, "_plane_stages", stages)
        m.setattr(bicomplex, "_first_quadrant", cyclic_first_quadrant)
        return fn(*args, **kwargs)


def _dumps(table):
    return json.dumps(table.to_json(), sort_keys=True)


def _stage_ranks(table):
    return sum(
        g["group"]["free_rank"]
        for rep in table.to_json()["verdicts"].values()
        for g in rep["stages"]
    )


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_hp_poly_orbit_route_matches_materialized_plane(monkeypatch, name, base):
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    for degrees, schedule, persistence in (
        ((-1, 2), list(range(top - 3, top + 1)), 3),
        ((0, 1), list(range(0, top + 1, 2)), 2),
    ):
        fast = bicomplex.hp_poly(X, degrees, schedule, persistence)
        slow = _reference(monkeypatch, bicomplex.hp_poly, X, degrees, schedule, persistence)
        assert _dumps(fast) == _dumps(slow), (degrees, schedule)
        if base.characteristic:
            # truncation edges carry classes over F_p: the comparison sees them
            assert _stage_ranks(fast) > 0


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_hc_minus_poly_orbit_route_matches_materialized_left(monkeypatch, name, base):
    # up to degree 0 the left region's stages run the plane's walks; up to
    # degree 2 they also hold the edge cells of rows 1..3, and walks cut at
    # edge rows 1 and 2
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    for degrees, schedule, persistence in (
        ((-2, 0), list(range(top - 3, top + 1)), 3),
        ((-1, 2), list(range(0, top + 1, 2)), 2),
    ):
        fast = bicomplex.hc_minus_poly(X, degrees, schedule, persistence)
        slow = _reference(
            monkeypatch, bicomplex.hc_minus_poly, X, degrees, schedule, persistence
        )
        assert _dumps(fast) == _dumps(slow), (degrees, schedule)
        if base.characteristic or degrees[1] > 0:
            assert _stage_ranks(fast) > 0


# rows the metamorphic test below may reach, by algebra dimension: it needs
# no materialized reference, so it goes deeper than TOP_ROW
DEEP_ROW = {1: 40, 2: 16, 3: 9, 4: 8}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_hc_minus_poly_matches_hp_poly_in_degrees_up_to_zero(config, data):
    # HC^-_n = HP_n for n <= 0: the left region is the plane in every degree
    # <= 0 and differs in degree 1 only by cells with zero boundary, so the
    # two towers give the same verdict blocks there, edge or no edge
    X = _module(*config)
    lo = data.draw(st.integers(-4, 0), label="lo")
    hi = data.draw(st.integers(lo, 2), label="hi")
    rows = st.integers(0, DEEP_ROW[X.rank(0)])
    schedule = sorted(data.draw(st.sets(rows, min_size=2, max_size=6), label="schedule"))
    persistence = data.draw(st.integers(2, 3), label="persistence")
    minus = bicomplex.hc_minus_poly(X, (lo, hi), schedule, persistence).to_json()
    plane = bicomplex.hp_poly(X, (lo, hi), schedule, persistence).to_json()
    for d in range(lo, min(hi, 0) + 1):
        assert minus["verdicts"][str(d)] == plane["verdicts"][str(d)], d


# HC and S-tower depth by algebra dimension: (d_max, degrees, K, persistence)
FIRST_QUADRANT = {
    1: (10, (-4, 6), None, 3),
    2: (5, (-1, 2), None, 2),
    3: (4, (0, 0), 2, 2),
    4: (3, (0, 0), 2, 2),
}


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_hc_and_s_tower_match_cyclic_bicomplex(monkeypatch, name, base):
    X = _module(name, base)
    d_max, degrees, K, persistence = FIRST_QUADRANT[X.rank(0)]
    fast = bicomplex.hc(X, d_max)
    slow = _reference(monkeypatch, bicomplex.hc, X, d_max)
    assert _dumps(fast) == _dumps(slow)
    fast = bicomplex.hp_s_tower_table(X, degrees, K, persistence)
    slow = _reference(
        monkeypatch, bicomplex.hp_s_tower_table, X, degrees, K, persistence
    )
    assert _dumps(fast) == _dumps(slow)
    for d, k in ((0, 1), (1, 1), (0, 2))[: 3 if X.rank(0) <= 2 else 2]:
        S, src, tgt = bicomplex.sbi_S_map(X, d, k)
        S_ref, src_ref, tgt_ref = _reference(monkeypatch, bicomplex.sbi_S_map, X, d, k)
        assert (src, tgt) == (src_ref, tgt_ref)
        assert (S.nrows, S.ncols) == (S_ref.nrows, S_ref.ncols)
        assert rank(S) == rank(S_ref), (d, k)


def test_orbit_plane_survivor_counts():
    # surviving orbits of matrix-algebra(2) over F3 in rows 0..8: necklaces
    # whose stabilizer order is divisible by 3 with q * (orbit size) even
    plane = OrbitPlane(catalog("matrix-algebra(2)", GF(3)))
    counts = {q: len(plane.survivors(q)) for q in range(9)}
    assert counts == {0: 0, 1: 0, 2: 4, 3: 0, 4: 0, 5: 6, 6: 0, 7: 0, 8: 24}
    assert OrbitPlane(catalog("matrix-algebra(2)", QQ)).survivors(8) == []


def _contract(plane, r, parity, chain):
    """h on a row-r chain {code: coeff} in a column of the given parity.

    Written out term by term from the formulas in `orbits` with the scalar
    helpers of the oracle, independently of any zig-zag.
    """
    p = plane.p
    by_orbit: dict = {}
    for y, c in chain.items():
        x, j, m = plane._orbit(r, y)
        f = by_orbit.setdefault((x, m), [0] * m)
        f[j] = (f[j] + (-c if (r * j) % 2 else c)) % p
    out: dict = {}

    def add(x, k, c):  # c * f_k = c * (-1)^{rk} tau^k x
        y = plane._rotations(r, x)[k]
        out[y] = (out.get(y, 0) + (-c if (r * k) % 2 else c)) % p

    for (x, m), f in by_orbit.items():
        kind = plane._kind(r, m)
        for k, c in enumerate(f):
            if not c:
                continue
            if parity == 0 and kind != "twisted":
                for i in range(k):
                    add(x, i, -c)
            elif parity == 0:
                half = c * pow(2, -1, p)
                for i in range(m):
                    add(x, i, half if i >= k else -half)
            elif kind == "free" and k == m - 1:
                add(x, 0, c * pow((r + 1) // m, -1, p))
    return {y: c for y, c in out.items() if c}


def _included(plane, column, q, x, left=False):
    """The perturbed inclusion sum_k (-h v)^k i of a survivor, by (row, code).

    plane is a ScalarOrbitPlane: only its code helpers are used.  With
    left the survivor is one of the left region's, where h = 0 out of
    column 0, so the zig-zag ends there.
    """
    p = plane.p
    if column % 2 == 0:
        v = {x: 1}
    else:
        v = {
            y: -1 % p if (q * j) % 2 else 1
            for j, y in enumerate(plane._rotations(q, x))
        }
    out = {(q, y): c for y, c in v.items()}
    r = q
    while r > 0 and v and not (left and column == 0):
        down: dict = {}
        for y, c in v.items():
            plane._vertical(r, y, c, column % 2 == 0, down)
        r = r - 1
        v = {y: (-c) % p for y, c in _contract(plane, r, column % 2, down).items()}
        column += 1
        out.update({(r, y): c for y, c in v.items()})
    return out


@functools.lru_cache(maxsize=None)
def _operator(ops, kind, q):
    return ops.coo(kind, q).matrix()


def _total_boundary(ops, d, chain):
    """The materialized plane's total differential on {(row, code): coeff}."""
    ring = ops.ring
    out: dict = {}
    for (q, j), c in chain.items():
        even = (d - q) % 2 == 0
        pieces = [(q, "N" if even else "1-t")]
        if q > 0:
            pieces.append((q - 1, "b" if even else "-b'"))
        for row, kind in pieces:
            for i, e in _operator(ops, kind, q).col(j).items():
                key = (row, i)
                out[key] = ring.add(out.get(key, ring.zero), ring.mul(c, e))
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize(
    "name,base,top",
    [
        ("ground-field", GF(3), 20),
        ("ground-field", GF(5), 24),
        ("dual-numbers", GF(3), 11),
        ("group-algebra(2)", GF(3), 8),
        ("field-extension(1,1)", GF(3), 8),
        ("truncated-poly(3)", GF(2), 7),
        ("matrix-algebra(2)", GF(3), 5),
    ],
)
def test_orbit_plane_inclusion_is_a_chain_map(name, base, top):
    # the perturbation lemma's inclusion i' must satisfy D i' = i' D' on
    # the materialized plane: this pins signs that ranks alone cannot see
    A = catalog(name, base)
    plane, scalar = OrbitPlane(A), ScalarOrbitPlane(A)
    ops = bicomplex._PlaneOperators(cyclic_bar_module(A))
    checked = 0
    for d in (0, 1):
        for q in range(top + 1):
            for x in plane.survivors(q):
                lhs = _total_boundary(ops, d, _included(scalar, d - q, q, x))
                rhs: dict = {}
                for (r, y), c in plane.boundary(d - q, q, x).items():
                    for key, e in _included(scalar, d - 1 - r, r, y).items():
                        rhs[key] = (rhs.get(key, 0) + c * e) % base.p
                assert lhs == {k: v for k, v in rhs.items() if v}, (d, q, x)
                checked += 1
    assert checked


def _edge_included(plane, q, x, k):
    """i of the edge cell (q, x, k): f_k, less f_0 on a free orbit, by (row, code)."""
    p = plane.p
    rotations = plane._rotations(q, x)
    out = {(q, rotations[k]): -1 % p if (q * k) % 2 else 1}
    if plane._kind(q, len(rotations)) == "free":
        out[(q, x)] = -1 % p  # k >= 1, so f_k is another tuple
    return out


@pytest.mark.parametrize(
    "name,base,top",
    [
        ("ground-field", GF(3), 20),
        ("dual-numbers", GF(3), 11),
        ("dual-numbers", GF(2), 12),
        ("group-algebra(2)", GF(3), 8),
        ("field-extension(1,1)", GF(3), 8),
        ("truncated-poly(3)", GF(2), 7),
        ("matrix-algebra(2)", GF(3), 5),
    ],
)
def test_left_region_inclusion_is_a_chain_map(name, base, top):
    # the same on the left region p <= 0, column 0 included: survivors'
    # zig-zags are cut there and projected by pi_edge onto edge cells, whose
    # own boundary is pi_edge b; D i' = i' D' pins pi_edge and the cut
    A = catalog(name, base)
    plane, scalar = OrbitPlane(A), ScalarOrbitPlane(A)
    ops = bicomplex._PlaneOperators(cyclic_bar_module(A))

    def included(cell, d):
        if len(cell) == 3:
            return _edge_included(scalar, *cell)
        q, x = cell
        return _included(scalar, d - q, q, x, left=True)

    checked = {"edge": 0, "cut": 0}
    for d in range(5):
        images = []
        if 0 < d <= top:
            cells, targets = plane.edge_row(d)[0], plane.edge_row(d - 1)[0]
            image = {cell: {} for cell in cells}
            for i, j, c in zip(*(a.tolist() for a in plane.edge_boundary(d, ops.coo("b", d)))):
                image[cells[j]][targets[i]] = c
            images += image.items()
        for q in range(d + 1, top + 1):
            for x in plane.survivors(q):
                images.append(((q, x), plane.boundary(d - q, q, x, left=True)))
        for cell, image in images:
            lhs = _total_boundary(ops, d, included(cell, d))
            rhs: dict = {}
            for target, c in image.items():
                for key, e in included(target, d - 1).items():
                    rhs[key] = (rhs.get(key, 0) + c * e) % base.p
            assert lhs == {k: v for k, v in rhs.items() if v}, (d, cell)
            if len(cell) == 3:
                checked["edge"] += 1
            elif d >= 2 and any(len(t) == 3 for t in image):
                checked["cut"] += 1
    assert checked["edge"] and checked["cut"], checked
    q, x = next((q, x) for q in range(top + 1) for x in plane.survivors(q))
    with pytest.raises(ValueError, match="columns <= -1"):
        plane.boundary(0, q, x, left=True)  # column 0 holds edge cells instead


@pytest.mark.parametrize(
    "name,base,top",
    [
        ("dual-numbers", GF(3), 16),
        ("dual-numbers", GF(2), 20),
        ("ground-field", GF(5), 20),
        ("matrix-algebra(2)", GF(2), 9),
        ("field-extension(1,0,1)", GF(2), 9),
        ("group-algebra(3)", GF(3), 9),
        ("truncated-poly(3)", GF(2), 9),
    ],
)
def test_orbit_plane_matches_scalar_recursion(name, base, top):
    # the numpy engine against the per-code recursion it replaced, on rows
    # deeper than the materialized plane above can reach; rows are asked
    # for in an interleaved order so that later walks reuse earlier levels
    A = catalog(name, base)
    plane, scalar = OrbitPlane(A), ScalarOrbitPlane(A)
    compared = 0
    for q in [*range(0, top + 1, 2), *range(1, top + 1, 2)]:
        assert plane.survivors(q) == scalar.survivors(q), q
        for column in (1, 0):
            for x in plane.survivors(q):
                assert plane.boundary(column, q, x) == scalar.boundary(column, q, x), (
                    q, column, x,
                )
                compared += 1
    assert compared


@pytest.mark.parametrize(
    "name,q", [("dual-numbers", 62), ("dual-numbers", 63), ("matrix-algebra(2)", 31)]
)
def test_orbit_plane_refuses_rows_beyond_64_bit_codes(name, q):
    # dim^(q+1) >= 2^63: refused before anything is enumerated or allocated
    plane = OrbitPlane(catalog(name, GF(2)))
    dim = plane.dim
    for call in (lambda: plane.survivors(q), lambda: plane.boundary(0, q, 0)):
        with pytest.raises(ValueError, match=rf"row {q} .* {dim}-dimensional"):
            call()


# -- stages on the left-looking reduction and on the dict engine it replaced -----


def _dict_engine(ring, ranks, boundaries):
    """The dict engine of `dict_reduction` on a stage's CSC input, same cell ids."""
    red = DictReduction(ring)
    red.start, red.ranks = {}, dict(ranks)
    for d in sorted(ranks):
        red.start[d] = len(red.degree)
        for _ in range(ranks[d]):
            red.add_cell(d)
    for d, (indptr, rows, values) in boundaries.items():
        indptr, rows, values = (list(np.asarray(a).tolist()) for a in (indptr, rows, values))
        for j in range(ranks[d]):
            col = {red.start[d - 1] + rows[k]: values[k] for k in range(indptr[j], indptr[j + 1])}
            if col:
                red.set_boundary(red.start[d] + j, col)
    return red


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_stages_match_on_the_dict_engine(monkeypatch, name, base):
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    d_max = FIRST_QUADRANT[X.rank(0)][0]

    def build(stages):
        plane = stages(X, -1, 2)
        left = stages(X, -2, 1, left=True)
        return {
            "plane": [plane(Q) for Q in (top - 2, top)],
            "left": [left(Q) for Q in (top - 2, top)],
            "mixed": [bicomplex._first_quadrant(X, 0, d_max)],
            "first": [cyclic_first_quadrant(X, 0, d_max)],
        }

    # the dict engine runs the per-stage towers, which reduce each stage whole
    new = build(bicomplex._plane_stages)
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "MorseReduction", _dict_engine)
        m.setattr(per_stage_towers, "MorseReduction", _dict_engine)
        old = build(per_stage_towers.plane_stages)
    for route, stages in new.items():
        for stage, ref in zip(stages, old[route]):
            assert isinstance(ref.red, DictReduction)
            for d in range(stage.lo, stage.hi + 1):
                assert stage.group(d) == ref.group(d), (route, d)
        if len(stages) == 2:
            for d in range(stages[0].lo, stages[0].hi + 1):
                fast = bicomplex._stage_map(*stages, d)
                slow = lifted_stage_map(*old[route], d)
                assert (fast.nrows, fast.ncols) == (slow.nrows, slow.ncols)
                assert rank(fast) == rank(slow), (route, d)
        else:
            for n in range(2, d_max + 1):
                fast = bicomplex._s_map_on_stage(stages[0], n)
                slow = bicomplex._s_map_on_stage(old[route][0], n)
                assert (fast.nrows, fast.ncols) == (slow.nrows, slow.ncols)
                assert rank(fast) == rank(slow), (route, n)


# -- one reduction per tower against the per-stage engine it replaced -------------


def _per_stage(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "_plane_stages", per_stage_towers.plane_stages)
        m.setattr(bicomplex, "_stage_map", lifted_stage_map)
        return fn(*args)


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_shared_tower_reduction_matches_per_stage_towers(monkeypatch, name, base):
    # every window and schedule the route tests above use, on both theories
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    for theory in (bicomplex.hp_poly, bicomplex.hc_minus_poly):
        for degrees, schedule, persistence in (
            ((-1, 2), list(range(top - 3, top + 1)), 3),
            ((0, 1), list(range(0, top + 1, 2)), 2),
            ((-2, 0), list(range(top - 3, top + 1)), 3),
            ((-1, 2), list(range(0, top + 1, 2)), 2),
        ):
            shared = theory(X, degrees, schedule, persistence)
            fresh = _per_stage(monkeypatch, theory, X, degrees, schedule, persistence)
            assert _dumps(shared) == _dumps(fresh), (theory.__name__, degrees, schedule)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CONFIGS), st.booleans(), st.data())
def test_shared_tower_reduction_matches_per_stage_towers_on_random_schedules(config, left, data):
    X = _module(*config)
    lo = data.draw(st.integers(-4, 2), label="lo")
    hi = data.draw(st.integers(lo, 3), label="hi")
    rows = st.integers(0, DEEP_ROW[X.rank(0)])
    schedule = sorted(data.draw(st.sets(rows, min_size=2, max_size=6), label="schedule"))
    persistence = data.draw(st.integers(2, 3), label="persistence")
    theory = bicomplex.hc_minus_poly if left else bicomplex.hp_poly
    shared = theory(X, (lo, hi), schedule, persistence)
    with pytest.MonkeyPatch.context() as m:
        fresh = _per_stage(m, theory, X, (lo, hi), schedule, persistence)
    assert _dumps(shared) == _dumps(fresh)


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_projected_tower_maps_equal_lifted_ones(name, base):
    # orbit stages: the shared reduction's projections against lift, shift
    # and project on stages reduced whole; materialized stages, each with
    # its own reduction: projection against lift and project
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    schedule = list(range(max(0, top - 4), top + 1))
    for left, (lo, hi) in ((False, (-1, 2)), (True, (-2, 1))):
        shared = bicomplex._plane_stages(X, lo, hi, left)
        fresh = per_stage_towers.plane_stages(X, lo, hi, left)
        prev = None
        for Q in schedule:
            now, ref = shared(Q), fresh(Q)
            for d in range(lo, hi + 1):
                assert len(now.alive(d)) == len(ref.alive(d)), (left, Q, d)
                if prev is not None:
                    projected = bicomplex._stage_map(prev[0], now, d)
                    assert projected == lifted_stage_map(prev[1], ref, d), (left, Q, d)
            prev = now, ref
    ops = bicomplex._PlaneOperators(X)
    for region in ("plane", "left"):
        stages = [bicomplex._TotalStage(ops, region, Q, -1, 1) for Q in schedule[-3:]]
        for src, dst in zip(stages, stages[1:]):
            for d in range(-1, 2):
                assert bicomplex._stage_map(src, dst, d) == lifted_stage_map(src, dst, d), (region, d)
