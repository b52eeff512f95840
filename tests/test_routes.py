"""Differential tests: the reduced routes against the materialized ones.

hp_poly runs on the orbit-reduced plane and hc / the S-tower on the
normalized (b, B) complex.  The materialized plane and the cyclic
bicomplex they replaced stay as references; on every catalog algebra
over F2, F3, F5 and Q the tables must be byte-identical, verdicts, stage
groups and dying classes included.  Sizes are capped so the references
stay cheap: rows of at most about a thousand basis tuples.
"""

import functools
import json

import numpy as np
import pytest

from cychom import bicomplex
from cychom.algebra import CATALOG_NAMES, AlgebraError, catalog
from cychom.cyclic import cyclic_bar_module
from cychom.linalg import rank
from cychom.orbits import OrbitPlane
from cychom.rings import GF, QQ
from dict_reduction import MorseReduction as DictReduction
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
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "_plane_stages", bicomplex._materialized_stages("plane"))
        m.setattr(bicomplex, "_first_quadrant", bicomplex._cyclic_first_quadrant)
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


def _included(plane, column, q, x):
    """The perturbed inclusion sum_k (-h v)^k i of a survivor, by (row, code).

    plane is a ScalarOrbitPlane: only its code helpers are used.
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
    while r > 0 and v:
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
    red.start = {}
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

    def build():
        ops = bicomplex._PlaneOperators(X)
        plane = bicomplex._plane_stages(X, -1, 2)
        return {
            "plane": [plane(Q) for Q in (top - 2, top)],
            "left": [bicomplex._TotalStage(ops, "left", Q, -2, 0) for Q in (top - 2, top)],
            "mixed": [bicomplex._first_quadrant(X, 0, d_max)],
            "first": [bicomplex._cyclic_first_quadrant(X, 0, d_max)],
        }

    new = build()
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "MorseReduction", _dict_engine)
        old = build()
    for route, stages in new.items():
        for stage, ref in zip(stages, old[route]):
            assert isinstance(ref.red, DictReduction)
            for d in range(stage.lo, stage.hi + 1):
                assert stage.group(d) == ref.group(d), (route, d)
        if len(stages) == 2:
            for d in range(stages[0].lo, stages[0].hi + 1):
                fast = bicomplex._stage_map(*stages, d)
                slow = bicomplex._stage_map(*old[route], d)
                assert (fast.nrows, fast.ncols) == (slow.nrows, slow.ncols)
                assert rank(fast) == rank(slow), (route, d)
        else:
            for n in range(2, d_max + 1):
                fast = bicomplex._s_map_on_stage(stages[0], n)
                slow = bicomplex._s_map_on_stage(old[route][0], n)
                assert (fast.nrows, fast.ncols) == (slow.nrows, slow.ncols)
                assert rank(fast) == rank(slow), (route, n)
