"""Left-looking sparse chain reduction, grown in blocks and read as a barcode.

Cancels invertible boundary entries (a, b) pairwise, shrinking a complex
to a homotopy-equivalent one.  Over a field a full reduction leaves the
zero differential, so surviving cells per degree count homology.  Over Z
the surviving cells form a residual complex, and `complex_homology`
reads its groups from ranks and invariant factors.

Cancelling a pair (a in degree d, b in degree d+1) with unit pivot
lam = <db, a> rewrites every other degree-(d+1) boundary as
dy - <dy, a> lam^{-1} db and simply drops b-coordinates in degree d+2
(forced: the dropped coordinate is determined by d o d = 0).  A log
entry is (a, b, lam, snapshot), the snapshot being db without its a
entry; the sweep clears later columns against it.  No chain is ever
projected or lifted, so no pivot row is recorded.

Input.  Cells come in blocks, and ids are given in arrival order: a
block's cells take the next ids, degree by degree in increasing order.
Each degree's boundary comes as CSC arrays: indptr, row indices into
the cells of the degree below, counted in arrival order, and nonzero
values (int64, or Fractions over Q).  A complex handed over in one
block has ids that are its degree's offset plus its index there.

Sweep.  The reduction is left-looking, like the column algorithms of
Chen-Kerber ("Persistent homology computation with a twist", EuroCG
2011) and Bauer ("Ripser", J. Appl. Comput. Topol. 5, 2021).  reduce()
sweeps the columns added since its last call, degree by degree and in
id order within a degree.  A column is read from its CSC slice at its
turn, minus the entries on cells already cancelled as upper cells, and
is cleared against the earlier pivots it hits through a heap of their
log indices.  Pivot j's snapshot misses the lower cells of earlier
pivots, so its fill lands only on later pivots and each pivot is popped
at most once.  The cleared column is the one right-looking elimination
would hold at this point.  Over a field one sweep empties every boundary.

Filtered complexes.  When the blocks are the rows of a filtration and
a row-q cell's boundary lands only on rows <= q (row truncations of a
double complex), arrival order keeps row order within each degree.  A
column then meets only cells and pivots of rows up to its own, so each
block's sweep logs the pairs and snapshots that a sweep of the
truncation it completes would log: one reduction serves a whole
truncation tower, and a stage is its state after a block.  Cancelling
each column against its newest cell is the lowest-one rule of the
standard persistence algorithm (Zomorodian-Carlsson, "Computing
persistent homology", DCG 33, 2005), so every log entry (a, b) is a
persistence pair, a class born with a and killed by b, and every
surviving cell an open bar.  A survivor of an earlier stage that a
later one has cancelled lies in the newest block of the boundary that
killed it, so its class there is a combination of cells no newer than
itself, which by the same argument reach only older survivors: the
rank of H_d(earlier stage) -> H_d(later stage) is the number of the
later stage's degree-d survivors that the earlier stage already had.

Pivot rule.  Over a field a column is cancelled against its largest
row, its newest cell, so every pair is a persistence pair (the smallest
row made the seed-7 benchmark reduction 4x slower).  Over Z only the
largest +-1 entry cancels; a column without one keeps its residual, and
passes over the surviving non-empty columns repeat while one cancels,
since fill-in can make units in columns already passed (they also drop
coordinates of upper cells cancelled since).  The choice depends only on
the current entries, so repeated runs reduce identically.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .complexes import ChainComplex, HomologyGroup, complex_homology
from .matrix import ExactMatrix
from .rings import BaseRing

_UPPER = -2  # pivot-table mark of a cell cancelled as an upper cell


class MorseReduction:
    """Reduction state for a chain complex that may grow in blocks.

    ranks maps each degree to its number of cells; boundaries maps a
    degree d to the CSC arrays of the differential out of it, whose rows
    index the cells of degree d - 1.  A degree without an entry has no
    boundary.  add_cells appends a further block the same way.  Usage:
    construct, call reduce() after each block, then read survivors.
    """

    def __init__(
        self,
        ring: BaseRing,
        ranks: dict[int, int] | None = None,
        boundaries: dict[int, tuple] | None = None,
    ):
        self.ring = ring
        self.start: dict[int, int] = {}  # first id of each degree's first block
        self.ranks: dict[int, int] = {}  # cells so far, per degree
        self.degree: list[int] = []
        self.alive_flags: list[bool] = []
        # log entries: (a, b, lam, col_b items but a)
        self.log: list[tuple] = []
        self._blocks: dict[int, list[range]] = {}  # the ids of each degree, block by block
        self._pending: dict[int, list] = {}  # degree -> CSC blocks the next sweep reads
        self._piv: list[int] = []  # log index of a lower cell, _UPPER, or -1
        self._negs: list = []  # -1 / lam per log entry
        self._residual: dict[int, dict] = {}  # surviving cells with a nonzero boundary
        self._cols: list | None = None  # cols, built on demand
        self._reduced = True
        self.add_cells(ranks or {}, boundaries or {})

    def add_cells(self, ranks: dict[int, int], boundaries: dict[int, tuple]) -> None:
        """Append a block: ranks[d] new cells of degree d, after every earlier cell.

        boundaries[d] is the CSC of the differential out of the new cells
        of degree d; its rows index the cells of degree d - 1 in arrival
        order, this block's included.
        """
        for d, (indptr, _, _) in boundaries.items():
            below = d - 1 in ranks or d - 1 in self.ranks
            if d not in ranks or not below or len(indptr) != ranks[d] + 1:
                raise ValueError(f"the boundary out of degree {d} does not fit the ranks")
        first = {}
        for d in sorted(ranks):
            first[d], n = len(self.degree), ranks[d]
            self.start.setdefault(d, first[d])
            self.ranks[d] = self.ranks.get(d, 0) + n
            self.degree += [d] * n
            self.alive_flags += [True] * n
            self._piv += [-1] * n
            self._blocks.setdefault(d, []).append(range(first[d], first[d] + n))
        for d, (indptr, rows, values) in boundaries.items():
            if len(rows):
                self._pending.setdefault(d, []).append((first[d], indptr, rows, values))
        if any(ranks.values()):
            self._reduced = False
        self._cols = None

    def _lists(self, d: int, block: tuple) -> tuple[int, list, list, list]:
        """A pending block of degree d as first id, indptr, row cell ids and values."""
        first, indptr, rows, values = block
        below = self._blocks[d - 1]  # rows are places among these, in arrival order
        ends = np.cumsum([len(new) for new in below])
        shift = np.array([new.stop for new in below]) - ends  # id minus place, per block
        rows = np.asarray(rows, dtype=np.int64)
        rows = (rows + shift[np.searchsorted(ends, rows, side="right")]).tolist()
        return first, np.asarray(indptr).tolist(), rows, np.asarray(values).tolist()

    @property
    def cols(self) -> list:
        """The boundary of each cell as {cell: coefficient}.

        A cell that waits for reduce() has its input boundary, a swept one
        its residual boundary, and a cancelled one None.
        """
        if self._cols is None:
            flags, residual = self.alive_flags, self._residual
            cols = [residual.get(i, {}) if ok else None for i, ok in enumerate(flags)]
            for d, blocks in self._pending.items():
                for block in blocks:
                    first, indptr, rows, values = self._lists(d, block)
                    for j, (s, e) in enumerate(zip(indptr, indptr[1:])):
                        cols[first + j] = dict(zip(rows[s:e], values[s:e]))
            self._cols = cols
        return self._cols

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> None:
        """Sweep the columns added since the last call, degree by degree."""
        if self._reduced:
            return
        piv, drop = self._piv, not self.ring.is_field
        for d in sorted(self._pending):
            for block in self._pending[d]:
                first, indptr, rows, values = self._lists(d, block)
                for j in range(len(indptr) - 1):
                    s, e = indptr[j], indptr[j + 1]
                    if s == e:
                        continue
                    col, heap = {}, []
                    for x, c in zip(rows[s:e], values[s:e]):
                        k = piv[x]
                        if k != _UPPER:
                            col[x] = c
                            if k >= 0:
                                heap.append(k)
                    self._settle(first + j, col, heap, drop)
        self._pending = {}
        cancelled = not self.ring.is_field
        while cancelled:
            cancelled = False
            for b in sorted(self._residual):
                col = self._residual.pop(b, None)
                if col is not None:
                    heap = [piv[x] for x in col if piv[x] >= 0]
                    cancelled |= self._settle(b, col, heap, True)
        self._reduced = True
        self._cols = None

    def _settle(self, b: int, col: dict, heap: list, drop: bool) -> bool:
        """Clear column b, then cancel it or keep it as a residual; True if cancelled."""
        if heap:
            self._clear(col, heap)
        if drop:  # over Z: upper cells cancelled since the column was read
            col = {x: c for x, c in col.items() if self._piv[x] != _UPPER}
        if not col:
            return False
        if self.ring.is_field:
            a = max(col)
        else:
            units = [x for x, c in col.items() if c == 1 or c == -1]
            if not units:
                self._residual[b] = col
                return False
            a = max(units)
        self._cancel(a, b, col)
        return True

    def _clear(self, col: dict, heap: list) -> None:
        """Subtract from col, in log order, every pivot it hits."""
        piv, negs, log = self._piv, self._negs, self.log
        pop, push = heapq.heappop, heapq.heappush
        p = self.ring.p
        heapq.heapify(heap)
        while heap:
            j = pop(heap)
            a, _, _, rest = log[j]
            c = col.pop(a, None)
            if c is None:  # a repeated index, or an entry that fill cancelled
                continue
            mu = c * negs[j] % p if p else c * negs[j]
            for x, cx in rest:
                old = col.get(x)
                if old is None:
                    col[x] = mu * cx % p if p else mu * cx
                    if piv[x] >= 0:
                        push(heap, piv[x])
                else:
                    new = (old + mu * cx) % p if p else old + mu * cx
                    if new:
                        col[x] = new
                    else:
                        del col[x]

    def _cancel(self, a: int, b: int, col: dict) -> None:
        ring = self.ring
        lam = col.pop(a)
        if ring.kind == "Fp":
            neg = -pow(lam, -1, ring.p) % ring.p
        else:
            neg = -lam if lam == 1 or lam == -1 else -1 / Fraction(lam)
        self._piv[a] = len(self.log)
        self._piv[b] = _UPPER
        self.log.append((a, b, lam, tuple(col.items())))
        self._negs.append(neg)
        self.alive_flags[a] = False
        self.alive_flags[b] = False
        self._residual.pop(a, None)  # the lower cell's own boundary goes with it

    # -- results ------------------------------------------------------------

    def alive(self, degree: int | None = None) -> list[int]:
        """Surviving cells, in id order: all of them, or those of one degree."""
        flags = self.alive_flags
        if degree is None:
            return [i for i, ok in enumerate(flags) if ok]
        return [i for new in self._blocks.get(degree, ()) for i in new if flags[i]]

    def is_exactly_reduced(self, degree: int | None = None) -> bool:
        """True when reduce() left no residual boundary entries (always, over a field)."""
        return self._reduced and not any(i in self._residual for i in self.alive(degree))


def residual_complex(red: MorseReduction):
    """Surviving cells as a ChainComplex, with the id <-> index dictionaries."""
    by_degree: dict[int, list[int]] = {}
    for i in red.alive():
        by_degree.setdefault(red.degree[i], []).append(i)
    index = {}
    for d, cells in by_degree.items():
        cells.sort()
        for k, i in enumerate(cells):
            index[i] = k
    ranks = {d: len(cells) for d, cells in by_degree.items()}
    diffs = {}
    for d, cells in by_degree.items():
        if (d - 1) not in by_degree:
            if any(red.cols[i] for i in cells):
                raise ValueError("residual boundary leaves the surviving degrees")
            continue
        entries = {}
        for i in cells:
            for j, c in red.cols[i].items():
                entries[(index[j], index[i])] = c
        diffs[d] = ExactMatrix(red.ring, ranks[d - 1], ranks[d], entries)
    return ChainComplex(red.ring, ranks, diffs), by_degree, index


def homology_via_reduction(red: MorseReduction, degrees) -> dict:
    """H_d of the reduced (hence of the original) complex, for each d in degrees.

    Over a field the survivors of a full reduction count homology; else
    every degree is read off one residual complex.
    """
    if red.ring.is_field and red.is_exactly_reduced():
        return {d: HomologyGroup(red.ring, len(red.alive(d))) for d in degrees}
    C, _, _ = residual_complex(red)
    return {d: complex_homology(C, d) for d in degrees}
