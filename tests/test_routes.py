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

import pytest
from hypothesis import given, settings, strategies as st

from cychom import bicomplex, orbits
from cychom.algebra import CATALOG_NAMES, AlgebraError, catalog
from cychom.cyclic import cyclic_bar_module, normalized
from cychom.linalg import rank
from cychom.orbits import OrbitPlane
from cychom.rings import GF, QQ
from cychom.tate import GModuleComplex, tate_complex
from dict_reduction import MorseReduction as DictReduction, dict_engine
from materialized_plane import cyclic_first_quadrant, materialized_stages
import per_stage_towers
from per_stage_towers import lifted_s_rank, lifted_stage_map
from scalar_orbits import ScalarOrbitPlane, edge_cells, keyed_boundary

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
        m.setattr(bicomplex, "_run_truncation_tower", per_stage_towers.run_truncation_tower)
        m.setattr(bicomplex, "_first_quadrant", cyclic_first_quadrant)
        return fn(*args, **kwargs)


def _lifted_reference(monkeypatch, fn, *args):
    """fn on the materialized first quadrant, reduced by the dict engine, with S lifted."""
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "_first_quadrant", cyclic_first_quadrant)
        m.setattr(bicomplex, "MorseReduction", dict_engine)
        m.setattr(bicomplex, "_s_rank", lifted_s_rank)
        return fn(*args)


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


# HC and S-tower depth by algebra dimension: (d_max, degrees, persistence)
FIRST_QUADRANT = {
    1: (10, (-4, 6), 3),
    2: (5, (-1, 2), 2),
    3: (4, (0, 0), 2),
    4: (3, (0, 0), 2),
}


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_hc_and_s_tower_match_cyclic_bicomplex(monkeypatch, name, base):
    X = _module(name, base)
    d_max, degrees, persistence = FIRST_QUADRANT[X.rank(0)]
    fast = bicomplex.hc(X, d_max)
    slow = _lifted_reference(monkeypatch, bicomplex.hc, X, d_max)
    assert _dumps(fast) == _dumps(slow)
    fast = bicomplex.hp_s_tower_table(X, degrees, persistence)
    slow = _lifted_reference(monkeypatch, bicomplex.hp_s_tower_table, X, degrees, persistence)
    assert _dumps(fast) == _dumps(slow)
    for d, k in ((0, 1), (1, 1), (0, 2))[: 3 if X.rank(0) <= 2 else 2]:
        S, src, tgt = bicomplex.sbi_S_map(X, d, k)
        S_ref, src_ref, tgt_ref = _lifted_reference(monkeypatch, bicomplex.sbi_S_map, X, d, k)
        assert (src, tgt) == (src_ref, tgt_ref)
        assert (S.nrows, S.ncols) == (S_ref.nrows, S_ref.ncols)
        assert rank(S) == rank(S_ref), (d, k)


# top degree of the hypothesis tests' first quadrants, by algebra dimension
MIXED_TOP = {1: 12, 2: 6, 3: 4, 4: 3}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_s_rank_from_connes_sequence_matches_lifted_s(config, data):
    # rank S = dim HC_n - rank(HH_n -> HC_n) against S lifted, shifted and
    # projected on the materialized first quadrant by the dict engine
    X = _module(*config)
    hi = data.draw(st.integers(2, MIXED_TOP[X.rank(0)]), label="hi")
    lo = data.draw(st.integers(0, hi - 2), label="lo")
    stage = bicomplex._first_quadrant(X, lo, hi)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bicomplex, "MorseReduction", dict_engine)
        ref = cyclic_first_quadrant(X, lo, hi)
    for n in range(lo + 2, hi + 1):
        assert bicomplex._s_rank(stage, n) == lifted_s_rank(ref, n), n


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_connes_sequence_holds_against_hh(config, data):
    # the first block of the mixed complex is the normalized Hochschild
    # complex, and HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} is exact:
    # dim HH_n = (dim HC_n - rank S_n) + (dim HC_{n-1} - rank S_{n+1})
    A = catalog(*config)
    X = cyclic_bar_module(A)
    top = data.draw(st.integers(0, MIXED_TOP[X.rank(0)] - 1), label="top")
    lo = data.draw(st.integers(0, top), label="lo")
    stage = bicomplex._first_quadrant(X, lo, top + 1)
    hh = bicomplex.hh(normalized(A), (lo, top + 1)).groups
    assert {n: stage.hh.group(n) for n in hh} == hh
    hc = {n: stage.group(n).dimension for n in range(lo, top + 2)}
    s = {n: bicomplex._s_rank(stage, n) if n >= 2 else 0 for n in hc}
    for n in range(lo + 1, top + 1):
        assert hh[n].dimension == (hc[n] - s[n]) + (hc[n - 1] - s[n + 1]), n
    if lo == 0:  # HC_{-1} = 0 and S_1 = 0
        assert hh[0].dimension == hc[0]


def test_orbit_plane_survivor_counts():
    # surviving orbits of matrix-algebra(2) over F3 in rows 0..8: necklaces
    # whose stabilizer order is divisible by 3 with q * (orbit size) even
    plane = OrbitPlane(catalog("matrix-algebra(2)", GF(3)))
    counts = {q: len(plane.survivors(q)) for q in range(9)}
    assert counts == {0: 0, 1: 0, 2: 4, 3: 0, 4: 0, 5: 6, 6: 0, 7: 0, 8: 24}
    assert OrbitPlane(catalog("matrix-algebra(2)", QQ)).survivors(8) == []


def test_each_orbit_row_is_a_tate_complex():
    # row q of the plane is the Tate complex of C_{q+1} acting on X_q by
    # the signed t = (-1)^q tau, so H^0 and H^-1 of that module have one
    # class per surviving orbit; rows of at most 256 tuples, 11 on a line
    for base in (GF(2), GF(3), GF(5)):
        for name in CATALOG_NAMES:
            try:
                A = catalog(name, base)
            except AlgebraError:
                continue
            X, plane = cyclic_bar_module(A), OrbitPlane(A)
            for q in (q for q in range(11) if A.dim ** (q + 1) <= 256):
                M = GModuleComplex(base, q + 1, {0: X.rank(q)}, {0: X.cyclic(q)})
                T = tate_complex(M, (-2, 1))
                survivors = len(plane.survivors(q))
                assert T.homology(0).dimension == survivors, (name, base.label(), q)
                assert T.homology(-1).dimension == survivors, (name, base.label(), q)


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def test_primitive_necklaces_are_counted_by_the_lyndon_formula():
    # words of length m over d letters with least rotation themselves and
    # period m are Lyndon words: (1/m) sum over k | m of mu(k) d^(m/k)
    names = ("ground-field", "dual-numbers", "truncated-poly(3)", "matrix-algebra(2)")
    for d, name in enumerate(names, start=1):
        plane = OrbitPlane(catalog(name, GF(3)))
        assert plane.dim == d
        for m in range(1, 9):
            lyndon = sum(_mobius(k) * d ** (m // k) for k in range(1, m + 1) if m % k == 0) // m
            assert len(plane._primitive_necklaces(m)) == lyndon, (d, m)


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
def _operator(X, kind, q):
    return X.coo(kind, q).matrix()


def _total_boundary(X, d, chain):
    """The materialized plane's total differential on {(row, code): coeff}."""
    ring = X.base
    out: dict = {}
    for (q, j), c in chain.items():
        even = (d - q) % 2 == 0
        pieces = [(q, "N" if even else "1-t")]
        if q > 0:
            pieces.append((q - 1, "b" if even else "-b'"))
        for row, kind in pieces:
            for i, e in _operator(X, kind, q).col(j).items():
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
    X = cyclic_bar_module(A)
    checked = 0
    for d in (0, 1):
        for q in range(top + 1):
            for x in plane.survivors(q):
                lhs = _total_boundary(X, d, _included(scalar, d - q, q, x))
                rhs: dict = {}
                for (r, y), c in keyed_boundary(plane, d - q, q, x).items():
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
    X = cyclic_bar_module(A)

    def included(cell, d):
        if len(cell) == 3:
            return _edge_included(scalar, *cell)
        q, x = cell
        return _included(scalar, d - q, q, x, left=True)

    checked = {"edge": 0, "cut": 0}
    for d in range(5):
        images = []
        if 0 < d <= top:
            cells, targets = edge_cells(plane, d), edge_cells(plane, d - 1)
            image = {cell: {} for cell in cells}
            for i, j, c in zip(*(a.tolist() for a in plane.edge_boundary(d, X.coo("b", d)))):
                image[cells[j]][targets[i]] = c
            images += image.items()
        for q in range(d + 1, top + 1):
            for x in plane.survivors(q):
                images.append(((q, x), keyed_boundary(plane, d - q, q, x, left=True)))
        for cell, image in images:
            lhs = _total_boundary(X, d, included(cell, d))
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
        keyed_boundary(plane, 0, q, x, left=True)  # column 0 holds edge cells instead


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
                assert keyed_boundary(plane, column, q, x) == scalar.boundary(column, q, x), (
                    q, column, x,
                )
                compared += 1
    assert compared


def test_orbit_plane_matches_scalar_recursion_in_small_batches(monkeypatch):
    # 64 face entries a batch split the walk's batches, the spans of
    # _below and the necklace enumeration into many slices each
    monkeypatch.setattr(orbits, "_BATCH", 64)
    test_orbit_plane_matches_scalar_recursion("truncated-poly(3)", GF(2), 9)


@pytest.mark.parametrize(
    "name,q", [("dual-numbers", 62), ("dual-numbers", 63), ("matrix-algebra(2)", 31)]
)
def test_orbit_plane_refuses_rows_beyond_64_bit_codes(name, q):
    # dim^(q+1) >= 2^63: refused before anything is enumerated or allocated
    plane = OrbitPlane(catalog(name, GF(2)))
    dim = plane.dim
    for call in (lambda: plane.survivors(q), lambda: plane.boundary(0, q)):
        with pytest.raises(ValueError, match=rf"row {q} .* {dim}-dimensional"):
            call()


# -- stages on the left-looking reduction and on the dict engine it replaced -----


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_stages_match_on_the_dict_engine(monkeypatch, name, base):
    # the dict engine runs the per-stage towers, which reduce each stage
    # whole, and the materialized first quadrant, on which S is lifted
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    d_max = FIRST_QUADRANT[X.rank(0)][0]
    plane, left = bicomplex._plane_stages(X, -1, 2), bicomplex._plane_stages(X, -2, 1, left=True)
    new = {
        "plane": [plane(Q) for Q in (top - 2, top)],
        "left": [left(Q) for Q in (top - 2, top)],
        "mixed": [bicomplex._first_quadrant(X, 0, d_max)],
        "first": [cyclic_first_quadrant(X, 0, d_max)],
    }
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "MorseReduction", dict_engine)
        first = cyclic_first_quadrant(X, 0, d_max)
    old = {
        "plane": [per_stage_towers.plane_stages(X, -1, 2)(Q) for Q in (top - 2, top)],
        "left": [per_stage_towers.plane_stages(X, -2, 1, left=True)(Q) for Q in (top - 2, top)],
        "mixed": [first],
        "first": [first],
    }
    for route, stages in new.items():
        for stage, ref in zip(stages, old[route]):
            assert isinstance(ref.red, DictReduction)
            for d in range(stage.lo, stage.hi + 1):
                assert stage.group(d) == ref.group(d), (route, d)
        if len(stages) == 2:
            for d in range(stages[0].lo, stages[0].hi + 1):
                counted = len(stages[0].alive(d)) - len(bicomplex._stage_map(*stages, d))
                assert counted == rank(lifted_stage_map(*old[route], d)), (route, d)
    for n in range(2, d_max + 1):
        assert bicomplex._s_rank(new["mixed"][0], n) == lifted_s_rank(first, n), n


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_plane_stages_match_the_keyed_assembly(name, base):
    # the blocks placed by (row, place) against the tuple-keyed assembly
    # they replaced, each on a reduction of its own: the same cells, pairs
    # and survivors after every stage.  The left window (-1, 2) holds the
    # edge rows 1..3 and walks cut at edge rows 1 and 2
    X = _module(name, base)
    schedule = list(range(0, TOP_ROW[X.rank(0)] + 1, 2))
    for left, (lo, hi) in ((False, (-1, 2)), (True, (-2, 0)), (True, (-1, 2))):
        new = bicomplex._plane_stages(X, lo, hi, left)
        old = per_stage_towers.keyed_plane_stages(X, lo, hi, left)
        for Q in schedule:
            a, b = new(Q), old(Q)
            where = (left, lo, hi, Q)
            assert a.red.degree == b.red.degree, where
            assert [e[:3] for e in a.red.log] == [e[:3] for e in b.red.log], where
            for d in range(lo - 1, hi + 2):
                assert a.alive(d) == b.alive(d), (where, d)


# -- one reduction per tower against the per-stage engine it replaced -------------


def _per_stage(monkeypatch, fn, *args):
    """fn on stages reduced whole by the dict engine, its tower walked on lifted maps."""
    walk = functools.partial(per_stage_towers.run_truncation_tower, stage_map=lifted_stage_map)
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "_plane_stages", per_stage_towers.plane_stages)
        m.setattr(bicomplex, "_run_truncation_tower", walk)
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


def _lifted_ranks(stages, d: int) -> dict:
    """rank H_d(stage i) -> H_d(stage j) for i <= j, from the lifted maps of per-stage stages."""
    maps = [lifted_stage_map(src, dst, d) for src, dst in zip(stages, stages[1:])]
    return _composite_ranks(stages, d, maps)


def _composite_ranks(stages, d: int, maps) -> dict:
    """rank H_d(stage i) -> H_d(stage j) for i <= j, from the maps between consecutive stages.

    These ranks fix a tower of vector spaces up to isomorphism.
    """
    ranks = {(i, i): len(stage.alive(d)) for i, stage in enumerate(stages)}
    for j in range(1, len(stages)):
        for i in range(j):
            ranks[(i, j)] = per_stage_towers.composite_rank(maps[:j], i)
    return ranks


def _counted_ranks(stages, d: int) -> dict:
    """The same ranks on stages of one reduction, each the count _stage_map leaves.

    Every stage is taken before any rank is read, so most pairs map into
    a stage that is not the reduction's latest.
    """
    return {
        (i, j): len(stages[i].alive(d)) - len(bicomplex._stage_map(stages[i], stages[j], d))
        for j in range(len(stages))
        for i in range(j + 1)
    }


def _bar_ranks(X, lo: int, hi: int, left: bool, schedule) -> dict:
    """The same ranks from the bars of the tower walk, per degree.

    A persistence longer than the schedule keeps every degree walking to
    its end.
    """
    stages = functools.partial(bicomplex._plane_stages, left=left)
    reports = bicomplex._run_truncation_tower(stages, X, (lo, hi), schedule, len(schedule) + 1)
    n = len(schedule)
    return {
        d: {
            (i, j): bicomplex._composite_rank(rep.bars.values(), schedule[i], schedule[j])
            for j in range(n)
            for i in range(j + 1)
        }
        for d, rep in reports.items()
    }


def _check_counted_ranks(X, lo: int, hi: int, left: bool, schedule) -> None:
    """Counted and barcoded tower ranks against lifted composites on per-stage stages.

    The shared reduction's projections, read while each stage is the
    latest, give the same ranks too.
    """
    shared = bicomplex._plane_stages(X, lo, hi, left)
    fresh = per_stage_towers.plane_stages(X, lo, hi, left)
    now, refs, projected = [], [], {d: [] for d in range(lo, hi + 1)}
    for Q in schedule:
        now.append(shared(Q))
        refs.append(fresh(Q))
        for d in projected:
            assert len(now[-1].alive(d)) == len(refs[-1].alive(d)), (left, Q, d)
            if len(now) > 1:
                projected[d].append(per_stage_towers.projected_stage_map(now[-2], now[-1], d))
    bars = _bar_ranks(X, lo, hi, left, schedule)
    for d in projected:
        lifted = _lifted_ranks(refs, d)
        assert _counted_ranks(now, d) == lifted, (left, d)
        assert bars[d] == lifted, (left, d)
        assert _composite_ranks(now, d, projected[d]) == lifted, (left, d)


@pytest.mark.parametrize("name,base", CONFIGS, ids=IDS)
def test_projected_tower_maps_equal_lifted_ones(monkeypatch, name, base):
    # orbit stages: the shared reduction's counts, its bars and its
    # projections against lift, shift and project on stages reduced whole
    # by the dict engine; materialized stages, each with its own
    # reduction: projection against lift and project on the dict engine.
    # The engines pick different survivors, so the towers are compared by
    # the ranks of all composites, which fix a tower of vector spaces up
    # to isomorphism
    X = _module(name, base)
    top = TOP_ROW[X.rank(0)]
    schedule = list(range(max(0, top - 4), top + 1))
    for left, (lo, hi) in ((False, (-1, 2)), (True, (-2, 1))):
        _check_counted_ranks(X, lo, hi, left, schedule)
    for region in ("plane", "left"):
        stages = [bicomplex._TotalStage(X, region, Q, -1, 1) for Q in schedule[-3:]]
        with monkeypatch.context() as m:
            m.setattr(bicomplex, "MorseReduction", dict_engine)
            refs = [bicomplex._TotalStage(X, region, Q, -1, 1) for Q in schedule[-3:]]
        for d in range(-1, 2):
            maps = [
                per_stage_towers.projected_stage_map(src, dst, d)
                for src, dst in zip(stages, stages[1:])
            ]
            assert _composite_ranks(stages, d, maps) == _lifted_ranks(refs, d), (region, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONFIGS), st.booleans(), st.data())
def test_counted_tower_ranks_equal_lifted_composites(config, left, data):
    # every pair of stages i <= j of a random schedule, a dst that is not
    # the reduction's latest stage included: the survivors' count, and the
    # bars of the walk, equal the rank of the lifted maps' composite
    X = _module(*config)
    lo = data.draw(st.integers(-3, 1), label="lo")
    hi = data.draw(st.integers(lo, 2), label="hi")
    rows = st.integers(0, DEEP_ROW[X.rank(0)])
    schedule = sorted(data.draw(st.sets(rows, min_size=2, max_size=5), label="schedule"))
    _check_counted_ranks(X, lo, hi, left, schedule)
