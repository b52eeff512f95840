"""The per-stage tower engine and the tower maps that the barcode replaced.

`bicomplex._plane_stages` keeps one reduction per tower, grows it by the
new rows' cells at each schedule step, and reads every tower rank as a
count of survivors (`bicomplex._stage_map`, `_composite_rank`).  Here
every stage is built and reduced whole, as one block, and the maps are
matrices: `projected_stage_map` projects a survivor into a later stage
by a forward replay of that stage's log, and `lifted_stage_map` lifts
it in its own stage first (transport_up), includes it by shifting its
cell ids and projects it.  `composite_rank` and `persistent_rank`
multiply the matrices out and rank them, and `run_truncation_tower` is
the walk that certified verdicts from them.  `bicomplex._s_rank`
counts the survivors of Connes' sequence; `lifted_s_map` is S itself,
lifted, shifted and projected on the materialized first quadrant.  The
lift needs an engine that records pivot rows, so `MorseReduction` here
is the dict engine; it is looked up in this module, so a test may swap
it.  `keyed_plane_stages` is the tuple-keyed assembly of the shared
reduction's blocks that `bicomplex._plane_stages` replaced, on the
left-looking engine.  Not collected by pytest; the tests import it.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction

from cychom import reduction
from cychom.bicomplex import StabilizationReport, _ReducedStage
from cychom.complexes import HomologyGroup
from cychom.cyclic import CyclicModule
from cychom.linalg import rank
from cychom.matrix import ExactMatrix
from cychom.orbits import OrbitPlane
from dict_reduction import csc_from_columns, dict_engine as MorseReduction, replayed
from scalar_orbits import edge_cells, keyed_boundary


def plane_stages(X: CyclicModule, lo: int, hi: int, left: bool = False):
    """Row truncations Q -> stage of the orbit-reduced plane, or of its left region.

    A degree lists its cells in row order.  On the plane it has one per
    surviving orbit (q, x) of rows 0..Q.  On the left region p <= 0,
    degree d has the edge cells (d, x, k) of row d at column 0 when
    0 < d <= Q (row 0 has none), then the survivors of rows q > d.
    """
    plane = OrbitPlane(X.algebra)

    @functools.cache
    def edge_columns(d: int) -> list[dict]:
        """pi_edge b on the edge cells of row d: {edge cell of row d - 1: coeff}."""
        b = X.coo("b", d)
        rows, cols, vals = plane.edge_boundary(d, b)
        columns: list[dict] = [{} for _ in plane.edge_row(d)[0]]
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            columns[j][i] = v if b.den == 1 else Fraction(v, b.den)
        return columns

    def stage(Q: int) -> _ReducedStage:
        survivors = [(q, x) for q in range(Q + 1) for x in plane.survivors(q)]
        index = {key: i for i, key in enumerate(survivors)}
        degrees = range(lo - 1, hi + 2)
        edged = range(1, Q + 1) if left else range(0)
        edges = {d: edge_cells(plane, d) if d in edged else [] for d in degrees}
        # the survivors of rows q <= d that the left region leaves out of degree d
        skip = {d: bisect.bisect_left(survivors, (d + 1,)) if left else 0 for d in degrees}

        def place(key: tuple, d: int) -> int:
            """Cell id of key in degree d; edge cells come first, sorted."""
            if len(key) == 3:
                return bisect.bisect_left(edges[d], key)
            return len(edges[d]) + index[key] - skip[d]

        ranks = {d: len(edges[d]) + len(survivors) - skip[d] for d in degrees}
        boundaries = {
            d: csc_from_columns([
                *(edge_columns(d) if d in edged else []),
                *(
                    {
                        place(key, d - 1): c
                        for key, c in keyed_boundary(plane, d - q, q, x, left).items()
                    }
                    for q, x in survivors[skip[d]:]
                ),
            ])
            for d in range(lo, hi + 2)
        }
        return _ReducedStage(MorseReduction(X.base, ranks, boundaries), Q, lo, hi)

    return stage


def keyed_plane_stages(X: CyclicModule, lo: int, hi: int, left: bool = False):
    """`bicomplex._plane_stages` as it was, on cells keyed (q, x) and (q, x, k).

    The stages are views of one reduction: each call, with Q no smaller
    than the last, adds the cells of the rows above the last Q as a block
    and sweeps only them.  A degree lists its cells in row order.  On the
    plane it has one per surviving orbit (q, x) of rows 0..Q.  On the
    left region p <= 0, degree d has the edge cells (d, x, k) of row d at
    column 0 when 0 < d <= Q (row 0 has none), then the survivors of rows
    q > d.
    """
    plane = OrbitPlane(X.algebra)
    red = reduction.MorseReduction(X.base)
    degrees = range(lo - 1, hi + 2)
    index: dict[int, dict] = {d: {} for d in degrees}  # cell key -> index in its degree
    top = -1  # the last row added

    def edge_columns(d: int) -> list[dict]:
        """pi_edge b on the edge cells of row d, as columns on those of row d - 1.

        Row d - 1's edge cells lead their degree, so their indices there
        are their places in the edge row.
        """
        b = X.coo("b", d)
        rows, cols, vals = plane.edge_boundary(d, b)
        columns: list[dict] = [{} for _ in plane.edge_row(d)[0]]
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            columns[j][i] = v if b.den == 1 else Fraction(v, b.den)
        return columns

    def stage(Q: int) -> _ReducedStage:
        nonlocal top
        if Q < top:
            raise ValueError("the stages of one tower come in increasing Q")
        new = [(q, x) for q in range(top + 1, Q + 1) for x in plane.survivors(q)]
        ranks, boundaries = {}, {}
        for d in degrees:
            edges = edge_cells(plane, d) if left and max(top, 0) < d <= Q else []
            survivors = [key for key in new if key[0] > d] if left else new
            for key in edges + survivors:
                index[d][key] = len(index[d])
            ranks[d] = len(edges) + len(survivors)
            if d >= lo:
                below = index[d - 1]
                boundaries[d] = csc_from_columns([
                    *(edge_columns(d) if edges else []),
                    *(
                        {below[key]: c for key, c in keyed_boundary(plane, d - q, q, x, left).items()}
                        for q, x in survivors
                    ),
                ])
        top = Q
        red.add_cells(ranks, boundaries)
        return _ReducedStage(red, Q, lo, hi)

    return stage


def _shifted_map(src: _ReducedStage, dst: _ReducedStage, d: int, image) -> ExactMatrix:
    """Matrix of H_d(inclusion) whose column y is image(y shifted into dst's cell ids).

    The degree-d cells of src are a prefix of those of dst, so the
    chain-level inclusion shifts cell ids by the difference of the two
    degree offsets.
    """
    if src.q_max > dst.q_max:
        raise ValueError("src truncation must sit inside dst")
    rows_alive = dst.alive(d)
    cols_alive = src.alive(d)
    row_pos = {cell: r for r, cell in enumerate(rows_alive)}
    shift = dst.red.start[d] - src.red.start[d]
    entries = {}
    for j, y in enumerate(cols_alive):
        for cell, c in image(y, shift).items():
            entries[(row_pos[cell], j)] = c
    return ExactMatrix(src.ring, len(rows_alive), len(cols_alive), entries)


def projected_stage_map(src: _ReducedStage, dst: _ReducedStage, d: int) -> ExactMatrix:
    """Matrix of H_d(inclusion) between two reduced truncations, by projection alone.

    dst's reduction logged every pair of src's again, so column y is the
    projection of the survivor y into dst: lifting y first would add
    only upper cells, which the projection drops.  The projection
    replays dst's log as it stands, so dst must be its latest stage.
    """
    if dst.cells != len(dst.red.degree):
        raise ValueError("dst must be the latest stage of its reduction")
    replay = replayed(dst.red)
    return _shifted_map(
        src, dst, d, lambda y, shift: replay.transport_down({y + shift: src.ring.one}, d)
    )


def lifted_stage_map(src: _ReducedStage, dst: _ReducedStage, d: int) -> ExactMatrix:
    """Matrix of H_d(inclusion) between two reduced truncations, by lift and projection."""

    def image(y, shift):
        lifted = src.red.transport_up({y: src.ring.one}, d)
        return dst.red.transport_down({cell + shift: c for cell, c in lifted.items()}, d)

    return _shifted_map(src, dst, d, image)


def composite_rank(maps: list[ExactMatrix], start: int) -> int:
    """Rank of maps[-1] * ... * maps[start], the stage-start image downstream."""
    comp = maps[start]
    for t in range(start + 1, len(maps)):
        comp = maps[t] * comp
    return rank(comp) if comp.nrows and comp.ncols else 0


def persistent_rank(maps: list[ExactMatrix], h: int) -> int | None:
    """Common downstream-image rank anchored at the h latest eligible stages, or None."""
    n = len(maps)
    common = None
    for i in range(n - 2 * h + 1, n - h + 1):
        r = composite_rank(maps, i)
        if common is None:
            common = r
        elif r != common:
            return None
    return common


def run_truncation_tower(
    stages, X, degrees, q_schedule, persistence, stage_map=projected_stage_map
) -> dict[int, StabilizationReport]:
    """`bicomplex._run_truncation_tower` on the matrices of stage_map; reports carry no bars."""
    lo, hi = degrees
    schedule = list(q_schedule)
    reports = {d: StabilizationReport(degree=d, persistence=persistence) for d in range(lo, hi + 1)}
    maps = {d: [] for d in reports}
    runs = {d: 0 for d in reports}
    pending = set(reports)
    stage_at = stages(X, lo, hi)
    prev = None
    for Q in schedule:
        if not pending:
            break
        stage = stage_at(Q)
        for d in sorted(pending):
            rep = reports[d]
            rep.stages.append((Q, stage.group(d)))
            if prev is None:
                continue
            M = stage_map(prev, stage, d)
            maps[d].append(M)
            r = rank(M) if M.ncols and M.nrows else 0
            if r < M.ncols:
                rep.dying.append(
                    f"{M.ncols - r} class(es) of H_{d} at q_max={prev.q_max} die in q_max={Q}"
                )
            iso = M.ncols == M.nrows and r == M.ncols
            runs[d] = runs[d] + 1 if iso else 0
            if runs[d] >= persistence and composite_rank(maps[d], 0) == M.nrows:
                rep.verdict = "stabilized"
                rep.q_star = rep.stages[len(rep.stages) - 1 - persistence][0]
                rep.value = rep.stages[-1][1]
                pending.discard(d)
            elif len(maps[d]) >= 2 * persistence - 1:
                r = persistent_rank(maps[d], persistence)
                if r is not None:
                    rep.verdict = "stabilized-persistent"
                    rep.q_star = rep.stages[len(maps[d]) - 2 * persistence + 1][0]
                    rep.value = HomologyGroup(stage.ring, r)
                    pending.discard(d)
        prev = stage
    return reports


def lifted_s_map(stage: _ReducedStage, n: int) -> ExactMatrix:
    """H_n -> H_{n-2} induced by the periodicity shift S of a materialized first quadrant.

    The stage is `materialized_plane.cyclic_first_quadrant`, reduced on an
    engine that lifts.  S is the quotient by the columns p in {0, 1},
    (p, q) -> (p - 2, q): the rows q <= n - 2 lead degrees n and n - 2
    with the same offsets, so S keeps the first cells of degree n and
    moves them to degree n - 2.
    """
    ring = stage.ring
    rows_alive = stage.alive(n - 2)
    row_pos = {cell: r for r, cell in enumerate(rows_alive)}
    first = stage.red.start[n]
    last = first + stage.red.ranks[n - 2]
    shift = stage.red.start[n - 2] - first
    entries = {}
    for j, y in enumerate(stage.alive(n)):
        lifted = stage.red.transport_up({y: ring.one}, n)
        shifted = {cell + shift: c for cell, c in lifted.items() if first <= cell < last}
        for cell, c in stage.red.transport_down(shifted, n - 2).items():
            entries[(row_pos[cell], j)] = c
    return ExactMatrix(ring, len(rows_alive), len(stage.alive(n)), entries)


def lifted_s_rank(stage: _ReducedStage, n: int) -> int:
    """rank of lifted_s_map, the oracle of `bicomplex._s_rank`."""
    S = lifted_s_map(stage, n)
    return rank(S) if S.nrows and S.ncols else 0
