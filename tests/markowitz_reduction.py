"""The Markowitz-heap chain reduction, kept as a second test oracle of `reduction`.

It subclasses the dict/set engine of `dict_reduction`, whose reduce()
sweeps the cells in id order.  This engine picks
every pivot from a global heap ordered by Markowitz score
(len(row) - 1) * (len(column) - 1), re-pushing entries that fill-in
turns into units.  Both leave a homotopy-equivalent complex, so over a
field they leave the same number of cells per degree and over Z the same
homology.  Not collected by pytest; the tests import it.
"""

from __future__ import annotations

import heapq

from dict_reduction import MorseReduction


class MarkowitzReduction(MorseReduction):
    def _score(self, b: int, a: int) -> tuple[int, int, int]:
        return ((len(self.rows[a]) - 1) * (len(self.cols[b]) - 1), b, a)

    def reduce(self) -> None:
        if self._reduced:
            return
        ring = self.ring
        heap: list[tuple[int, int, int]] = []
        for b, col in enumerate(self.cols):
            for a, c in col.items():
                if ring.is_unit(c):
                    heap.append(self._score(b, a))
        heapq.heapify(heap)
        while heap:
            score, b, a = heapq.heappop(heap)
            if not (self.alive_flags[a] and self.alive_flags[b]):
                continue
            lam = self.cols[b].get(a)
            if lam is None or not ring.is_unit(lam):
                continue
            current = self._score(b, a)
            if current[0] > score:
                heapq.heappush(heap, current)
                continue
            self._cancel_pushing(a, b, lam, heap)
        self._reduced = True
        for i, ok in enumerate(self.alive_flags):
            if ok:
                self._alive_by_degree.setdefault(self.degree[i], []).append(i)

    def _cancel_pushing(self, a: int, b: int, lam, heap) -> None:
        """MorseReduction._cancel, pushing every entry that becomes a unit."""
        ring = self.ring
        cols, rows = self.cols, self.rows
        col_b = cols[b]
        row_a = [(y, cols[y][a]) for y in rows[a] if y != b]
        self.log.append((a, b, lam, tuple(col_b.items()), tuple(row_a)))
        lam_inv = ring.inv(lam)

        self.alive_flags[a] = False
        self.alive_flags[b] = False
        for x in col_b:
            rows[x].discard(b)
        for y in rows[a]:
            if y != b:
                del cols[y][a]
        rows[a] = set()
        for x in cols[a]:
            rows[x].discard(a)
        cols[a] = None
        for z in rows[b]:
            del cols[z][b]
        rows[b] = set()

        col_b_rest = [(x, c) for x, c in col_b.items() if x != a]
        cols[b] = None
        for y, c_ya in row_a:
            mu = ring.neg(ring.mul(c_ya, lam_inv))
            col_y = cols[y]
            for x, c in col_b_rest:
                delta = ring.mul(mu, c)
                old = col_y.get(x)
                if old is None:
                    col_y[x] = delta
                    rows[x].add(y)
                    if ring.is_unit(delta):
                        heapq.heappush(heap, self._score(y, x))
                else:
                    new = ring.add(old, delta)
                    if new == 0:
                        del col_y[x]
                        rows[x].discard(y)
                    else:
                        col_y[x] = new
                        if ring.is_unit(new) and not ring.is_unit(old):
                            heapq.heappush(heap, self._score(y, x))
