"""The per-stage tower engine that the shared tower reduction replaced: the test oracle.

`bicomplex._plane_stages` keeps one reduction per tower, grows it by the
new rows' cells at each schedule step, and `bicomplex._stage_map`
projects a survivor into the next stage without lifting it.  Here every
stage is built and reduced whole, as one block, and `lifted_stage_map`
lifts a survivor in its own stage (transport_up), includes it by
shifting its cell ids and projects it into the next stage
(transport_down).  `MorseReduction` is looked up in this module, so a
test may swap the engine.  Not collected by pytest; the tests import it.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction

from cychom.bicomplex import _PlaneOperators, _ReducedStage
from cychom.cyclic import CyclicModule
from cychom.matrix import ExactMatrix
from cychom.orbits import OrbitPlane
from cychom.reduction import MorseReduction, csc_from_columns


def plane_stages(X: CyclicModule, lo: int, hi: int, left: bool = False):
    """Row truncations Q -> stage of the orbit-reduced plane, or of its left region.

    A degree lists its cells in row order.  On the plane it has one per
    surviving orbit (q, x) of rows 0..Q.  On the left region p <= 0,
    degree d has the edge cells (d, x, k) of row d at column 0 when
    0 < d <= Q (row 0 has none), then the survivors of rows q > d.
    """
    plane = OrbitPlane(X.algebra)
    ops = _PlaneOperators(X)

    @functools.cache
    def edge_columns(d: int) -> list[dict]:
        """pi_edge b on the edge cells of row d: {edge cell of row d - 1: coeff}."""
        b = ops.coo("b", d)
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
