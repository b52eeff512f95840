"""The per-stage tower engine and the lifted maps that the shared reductions replaced.

`bicomplex._plane_stages` keeps one reduction per tower, grows it by the
new rows' cells at each schedule step, and `bicomplex._stage_map`
projects a survivor into the next stage without lifting it.  Here every
stage is built and reduced whole, as one block, and `lifted_stage_map`
lifts a survivor in its own stage (transport_up), includes it by
shifting its cell ids and projects it into the next stage
(transport_down).  `bicomplex._s_rank` reads the rank of S off Connes'
sequence; `lifted_s_map` is S itself, lifted, shifted and projected on
the materialized first quadrant.  The lift needs an engine that records
pivot rows, so `MorseReduction` here is the dict engine; it is looked up
in this module, so a test may swap it.  Not collected by pytest; the
tests import it.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction

from cychom.bicomplex import _ReducedStage
from cychom.cyclic import CyclicModule
from cychom.linalg import rank
from cychom.matrix import ExactMatrix
from cychom.orbits import OrbitPlane
from cychom.reduction import csc_from_columns
from dict_reduction import dict_engine as MorseReduction


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
        edges = {d: plane.edge_row(d)[0] if d in edged else [] for d in degrees}
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
                    {place(key, d - 1): c for key, c in plane.boundary(d - q, q, x, left).items()}
                    for q, x in survivors[skip[d]:]
                ),
            ])
            for d in range(lo, hi + 2)
        }
        return _ReducedStage(MorseReduction(X.base, ranks, boundaries), Q, lo, hi)

    return stage


def lifted_stage_map(src: _ReducedStage, dst: _ReducedStage, d: int) -> ExactMatrix:
    """Matrix of H_d(inclusion) between two reduced truncations, by lift and projection.

    The degree-d cells of src are a prefix of those of dst, so the
    chain-level inclusion shifts cell ids by the difference of the two
    degree offsets.
    """
    if src.q_max > dst.q_max:
        raise ValueError("src truncation must sit inside dst")
    ring = src.ring
    rows_alive = dst.alive(d)
    cols_alive = src.alive(d)
    row_pos = {cell: r for r, cell in enumerate(rows_alive)}
    shift = dst.start[d] - src.start[d]
    entries = {}
    for j, y in enumerate(cols_alive):
        lifted = src.red.transport_up({y: ring.one}, d)
        down = dst.red.transport_down({cell + shift: c for cell, c in lifted.items()})
        for cell, c in down.items():
            entries[(row_pos[cell], j)] = c
    return ExactMatrix(
        ring, len(rows_alive), len(cols_alive), entries, _normalized=True
    )


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
    first = stage.start[n]
    last = first + stage.red.ranks[n - 2]
    shift = stage.start[n - 2] - first
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
