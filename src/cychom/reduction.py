"""Left-looking sparse chain reduction with bidirectional chain transport.

Cancels invertible boundary entries (a, b) pairwise, shrinking a complex
to a homotopy-equivalent one while recording enough data to transport
chains in both directions afterwards.  Over a field a full reduction
leaves the zero differential, so surviving cells per degree count
homology; the transports realize the induced maps along truncation
towers without ever materializing a homology presentation.

Cancelling a pair (a in degree d, b in degree d+1) with unit pivot
lam = <db, a> rewrites every other degree-(d+1) boundary as
dy - <dy, a> lam^{-1} db and simply drops b-coordinates in degree d+2
(forced: the dropped coordinate is determined by d o d = 0).  The
corresponding maps are, per logged cancellation,

  down (original -> reduced):  v |-> v - v[a] lam^{-1} (db snapshot),
                               then delete the b coordinate;
  up   (reduced -> original):  v |-> v - lam^{-1} (sum_y <dy,a> v[y]) b,

replayed forward (down) or backward (up) over the log.  A homogeneous
degree-d chain is touched only by the entries whose cells have degree d,
so the transports can replay a per-degree slice of the log instead.

Input.  Cells are dense integer ids, degree by degree in increasing
order, so a cell's id is its degree's offset plus its index there.  Each
degree's boundary comes as CSC arrays: indptr, row indices into the
degree below and nonzero values (int64, or Fractions over Q).

Sweep.  The reduction is left-looking, like the column algorithms of
Chen-Kerber ("Persistent homology computation with a twist", EuroCG
2011) and Bauer ("Ripser", J. Appl. Comput. Topol. 5, 2021).  Cells are
swept in id order.  A column is read from its CSC slice at its turn,
minus the entries on cells already cancelled as upper cells, and is
cleared against the earlier pivots it hits through a heap of their log
indices.  Pivot j's snapshot misses the lower cells of earlier pivots,
so its fill lands only on later pivots and each pivot is popped at most
once.  The cleared column is the one right-looking elimination would
hold at this point, and the coefficient it had on each pivot's lower
cell is that pivot's row entry, so row_a in the log fills in as later
columns clear.  Over a field one sweep empties every boundary.

Pivot rule.  A column is cancelled against its largest row (the
smallest row made the seed-7 benchmark reduction 4x slower).  Over F_p
every entry is a unit.  Over Q a +-1 entry is preferred, so values stay
Python ints and only a column without one makes a Fraction pivot.  Over
Z only +-1 entries cancel; a column without one keeps its residual, and
passes over the surviving non-empty columns repeat while one cancels,
since fill-in can make units in columns already passed (they also drop
coordinates of upper cells cancelled since).  The choice depends only
on the current entries, so repeated runs reduce identically.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .rings import BaseRing

_UPPER = -2  # pivot-table mark of a cell cancelled as an upper cell


def csc_from_columns(columns) -> tuple[list, list, list]:
    """CSC arrays (indptr, rows, values) of {row: value} columns, zeros dropped."""
    indptr, rows, values = [0], [], []
    for col in columns:
        for i, c in col.items():
            if c != 0:
                rows.append(i)
                values.append(c)
        indptr.append(len(rows))
    return indptr, rows, values


class MorseReduction:
    """Reduction state for one chain complex.

    ranks maps each degree to its number of cells; boundaries maps a
    degree d to the CSC arrays of the differential out of it, whose rows
    index the cells of degree d - 1.  A degree without an entry has no
    boundary.  Usage: construct, call reduce(), then read survivors /
    transport chains.
    """

    def __init__(self, ring: BaseRing, ranks: dict[int, int], boundaries: dict[int, tuple]):
        self.ring = ring
        self.start: dict[int, int] = {}  # first cell id of each degree
        self.degree: list[int] = []
        for d in sorted(ranks):
            self.start[d] = len(self.degree)
            self.degree += [d] * ranks[d]
        self._ranks = dict(ranks)
        for d, (indptr, _, _) in boundaries.items():
            if d - 1 not in ranks or d not in ranks or len(indptr) != ranks[d] + 1:
                raise ValueError(f"the boundary out of degree {d} does not fit the ranks")
        self._csc: dict[int, tuple] | None = dict(boundaries)
        self.alive_flags: list[bool] = [True] * len(self.degree)
        # log entries: (a, b, lam, col_b items, row_a), row_a filled as columns clear
        self.log: list[tuple] = []
        self._residual: dict[int, dict] = {}  # surviving cells with a nonzero boundary
        self._cols: list | None = None  # cols after reduce(), built on demand
        self._reduced = False
        self._alive_by_degree = {d: range(self.start[d], self.start[d] + ranks[d]) for d in ranks}
        self._log_by_degree: tuple[dict, dict] | None = None  # built on demand

    @property
    def cols(self) -> list:
        """The boundary of each cell as {cell: coefficient}.

        Before reduce() it is the input, built anew on each read; afterwards
        the residual boundary of a surviving cell and None for a cancelled one.
        """
        if self._reduced:
            if self._cols is None:
                flags, residual = self.alive_flags, self._residual
                self._cols = [residual.get(i, {}) if ok else None for i, ok in enumerate(flags)]
            return self._cols
        out: list = []
        for d in sorted(self.start):
            if d in self._csc:
                _, indptr, rows, values = self._block(d)
                out += [dict(zip(rows[s:e], values[s:e])) for s, e in zip(indptr, indptr[1:])]
            else:
                out += [{} for _ in range(self._ranks[d])]
        return out

    def _block(self, d: int) -> tuple[int, list, list, list]:
        """First cell id, indptr, row cell ids and values of degree d's input, as lists."""
        indptr, rows, values = self._csc[d]
        rows = (np.asarray(rows, dtype=np.int64) + self.start[d - 1]).tolist()
        return self.start[d], np.asarray(indptr).tolist(), rows, np.asarray(values).tolist()

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> None:
        if self._reduced:
            return
        piv = self._piv = [-1] * len(self.degree)  # log index of a lower cell, or _UPPER
        self._lows, self._negs, self._rests = [], [], []  # per log entry, for clearing
        for d in sorted(self._csc):
            first, indptr, rows, values = self._block(d)
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
                self._settle(first + j, col, heap, False)
        cancelled = not self.ring.is_field
        while cancelled:
            cancelled = False
            for b in sorted(self._residual):
                col = self._residual.pop(b, None)
                if col is not None:
                    heap = [piv[x] for x in col if piv[x] >= 0]
                    cancelled |= self._settle(b, col, heap, True)
        del self._piv, self._lows, self._negs, self._rests
        self._csc = None
        self._reduced = True
        flags = self.alive_flags
        self._alive_by_degree = {
            d: [i for i in cells if flags[i]] for d, cells in self._alive_by_degree.items()
        }

    def _settle(self, b: int, col: dict, heap: list, drop: bool) -> bool:
        """Clear column b, then cancel it or keep it as a residual; True if cancelled."""
        if heap:
            self._clear(b, col, heap)
        if drop:  # later passes: upper cells cancelled since the column was read
            col = {x: c for x, c in col.items() if self._piv[x] != _UPPER}
        if not col:
            return False
        kind = self.ring.kind
        if kind == "Fp":
            a = max(col)
        else:
            units = [x for x, c in col.items() if c == 1 or c == -1]
            a = max(units) if units else (max(col) if kind == "Q" else None)
        if a is None:
            self._residual[b] = col
            return False
        self._cancel(a, b, col)
        return True

    def _clear(self, b: int, col: dict, heap: list) -> None:
        """Subtract from column b, in log order, every earlier pivot it hits."""
        piv, lows, negs, rests, log = self._piv, self._lows, self._negs, self._rests, self.log
        pop, push = heapq.heappop, heapq.heappush
        p = self.ring.p
        heapq.heapify(heap)
        while heap:
            j = pop(heap)
            c = col.pop(lows[j], None)
            if c is None:  # a repeated index, or an entry that fill cancelled
                continue
            log[j][4].append((b, c))
            mu = c * negs[j] % p if p else c * negs[j]
            for x, cx in rests[j]:
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
        rest = tuple(col.items())
        self._piv[a] = len(self.log)
        self._piv[b] = _UPPER
        self.log.append((a, b, lam, ((a, lam),) + rest, []))
        self._lows.append(a)
        self._negs.append(neg)
        self._rests.append(rest)
        self.alive_flags[a] = False
        self.alive_flags[b] = False
        self._residual.pop(a, None)  # the lower cell's own boundary goes with it

    # -- results ------------------------------------------------------------

    def alive(self, degree: int | None = None) -> list[int]:
        """Surviving cells, in id order, read per degree from an index."""
        if degree is None:
            return [i for i, ok in enumerate(self.alive_flags) if ok]
        return list(self._alive_by_degree.get(degree, ()))

    def is_exactly_reduced(self, degree: int | None = None) -> bool:
        """True when reduce() left no residual boundary entries (always, over a field)."""
        return self._reduced and not any(i in self._residual for i in self.alive(degree))

    # -- chain transport -----------------------------------------------------

    def _degree_log(self, degree: int) -> tuple[list, list]:
        """The log entries that act on a homogeneous degree-d chain, in log order.

        Projection down is affected by entries whose lower cell has degree
        d (the rewrite) and by those whose upper cell does (the forced
        coordinate drop); lifting up only by entries whose upper cell has
        degree d.
        """
        if self._log_by_degree is None:
            down: dict[int, list] = {}
            up: dict[int, list] = {}
            for entry in self.log:
                da, db = self.degree[entry[0]], self.degree[entry[1]]
                down.setdefault(da, []).append(entry)
                down.setdefault(db, []).append(entry)
                up.setdefault(db, []).append(entry)
            self._log_by_degree = (down, up)
        down, up = self._log_by_degree
        return down.get(degree, []), up.get(degree, [])

    def _normal(self, v: dict) -> dict:
        """v in the ring's normal form: over Q every value a Fraction."""
        if self.ring.kind == "Q":
            return {i: Fraction(c) for i, c in v.items()}
        return v

    def transport_down(
        self, chain: dict[int, object], degree: int | None = None
    ) -> dict[int, object]:
        """Image of an original chain in the reduced complex (replays forward).

        A chain that is homogeneous of a known degree may pass it, and then
        only the log entries that can act on it are replayed.
        """
        ring = self.ring
        v = {i: c for i, c in chain.items() if c != 0}
        log = self.log if degree is None else self._degree_log(degree)[0]
        for a, b, lam, col_items, _ in log:
            va = v.pop(a, None)
            if va is not None:
                factor = ring.neg(ring.mul(va, ring.inv(lam)))
                for x, c in col_items:
                    if x == a:
                        continue
                    add = ring.mul(factor, c)
                    new = ring.add(v.get(x, ring.zero), add)
                    if new == 0:
                        v.pop(x, None)
                    else:
                        v[x] = new
            v.pop(b, None)
        return self._normal(v)

    def transport_up(
        self, chain: dict[int, object], degree: int | None = None
    ) -> dict[int, object]:
        """A chain of the original complex mapping onto a reduced chain (replays backward).

        `degree` restricts the replay as in transport_down.
        """
        ring = self.ring
        v = {i: c for i, c in chain.items() if c != 0}
        log = self.log if degree is None else self._degree_log(degree)[1]
        for a, b, lam, _, row_items in reversed(log):
            acc = ring.zero
            for y, c_ya in row_items:
                vy = v.get(y)
                if vy is not None:
                    acc = ring.add(acc, ring.mul(c_ya, vy))
            if acc != 0:
                coeff = ring.neg(ring.mul(acc, ring.inv(lam)))
                new = ring.add(v.get(b, ring.zero), coeff)
                if new == 0:
                    v.pop(b, None)
                else:
                    v[b] = new
        return self._normal(v)


def residual_complex(red: MorseReduction):
    """Surviving cells as a ChainComplex, with the id <-> index dictionaries."""
    from .complexes import ChainComplex
    from .matrix import ExactMatrix

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


def homology_via_reduction(red: MorseReduction, d: int):
    """H_d of the reduced (hence of the original) complex."""
    from .complexes import HomologyGroup, complex_homology

    if red.ring.is_field and red.is_exactly_reduced():
        return HomologyGroup(red.ring, len(red.alive(d)))
    C, _, _ = residual_complex(red)
    return complex_homology(C, d)
