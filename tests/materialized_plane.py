"""The materialized routes that the reduced stages replaced: the test oracle.

hp_poly and hc_minus_poly run on the orbit-reduced plane and its left
region, and hc and the S-tower on the normalized (b, B) complex.  The
stage builders here reduce the materialized regions of the plane row by
row instead (`bicomplex._TotalStage`), and `truncation_inclusion` is the
chain-level inclusion between two row truncations.  The tests compare
the reduced routes against these.
"""

from __future__ import annotations

from cychom.bicomplex import _Layout, _TotalStage, row_truncated_total
from cychom.cyclic import CyclicModule
from cychom.matrix import ExactMatrix
from presentation_homology import ChainMap


def materialized_stages(region: str):
    """Stage builder on a materialized region of the plane: X, lo, hi -> (Q -> stage)."""

    def stages(X: CyclicModule, lo: int, hi: int):
        return lambda Q: _TotalStage(X, region, Q, lo, hi)

    return stages


def cyclic_first_quadrant(X: CyclicModule, lo: int, hi: int) -> _TotalStage:
    """The reduced HC complex from the materialized cyclic bicomplex."""
    return _TotalStage(X, "first", hi + 1, lo, hi)


def truncation_inclusion(
    X: CyclicModule,
    q_from: int,
    q_to: int,
    degrees: tuple[int, int],
    region: str = "plane",
) -> ChainMap:
    """The subcomplex inclusion of the q <= q_from truncation into q <= q_to.

    Row layouts list q in increasing order, so on shared rows the inclusion
    is the identity on leading summands.
    """
    if q_from > q_to:
        raise ValueError("q_from must be <= q_to")
    src = row_truncated_total(X, q_from, degrees, region)
    tgt = row_truncated_total(X, q_to, degrees, region)
    lo, hi = degrees
    components = {}
    one = X.base.one
    for d in range(lo, hi + 1):
        sl = _Layout(X, region, d, q_from)
        tl = _Layout(X, region, d, q_to)
        entries = {}
        for q in sl.qs:
            so, to = sl.offsets[q], tl.offsets[q]
            for j in range(X.rank(q)):
                entries[(to + j, so + j)] = one
        components[d] = ExactMatrix(
            X.base, tl.total, sl.total, entries, _normalized=True
        )
    return ChainMap(source=src, target=tgt, components=components)
