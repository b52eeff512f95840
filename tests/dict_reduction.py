"""The right-looking dict/set chain reduction, kept as the test oracle of `reduction`.

Cells are added one at a time and boundaries are dicts id -> coefficient;
`rows` keeps, for every cell, the set of cells whose boundary hits it.
reduce() sweeps the cells in id order and cancels each live cell against
the unit entry of its boundary with the shortest row, lowest id first,
rewriting every other column that hits the cancelled lower cell at once.
Over Z sweeps repeat while one cancelled anything.  Survivors, residual
boundaries have the contract of `cychom.reduction.MorseReduction`, so
`residual_complex` and `homology_via_reduction` accept both engines.
transport_down replays the log forward: the projection of a chain onto
the reduced complex, which `cychom` does not compute; `replayed` runs
it on the other engine's log.  Each log entry here also keeps the row
of its pivot, the cells whose boundary hit the lower cell, and
transport_up replays those backward: the lift into the original
complex, which `cychom` does not record either.  Not collected by
pytest; the tests import it.
"""

from __future__ import annotations

import numpy as np

from cychom.rings import BaseRing


class MorseReduction:
    """Reduction state for one chain complex.

    Cells are dense integer ids grouped by degree; boundaries are dicts
    id -> coefficient over `ring`.  Usage: add cells, set boundaries,
    call reduce(), then read survivors / transport chains.
    """

    def __init__(self, ring: BaseRing):
        self.ring = ring
        self.degree: list[int] = []
        self.cols: list[dict[int, object] | None] = []  # boundary of each cell
        self.rows: list[set[int]] = []  # rows[i]: cells whose boundary hits i
        self.alive_flags: list[bool] = []
        # log entries: (a, b, lam, col_items, row_items) with snapshots as tuples
        self.log: list[tuple] = []
        self._reduced = False
        self._alive_by_degree: dict[int, list[int]] = {}  # filled by reduce()
        self._log_by_degree: tuple[dict, dict] | None = None  # built on demand

    # -- construction -------------------------------------------------------

    def add_cell(self, degree: int) -> int:
        i = len(self.degree)
        self.degree.append(degree)
        self.cols.append({})
        self.rows.append(set())
        self.alive_flags.append(True)
        return i

    def set_boundary(self, i: int, boundary: dict[int, object]) -> None:
        if self.cols[i]:
            raise ValueError("boundary already set")
        col = {j: c for j, c in boundary.items() if c != 0}
        self.cols[i] = col
        for j in col:
            self.rows[j].add(i)

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> None:
        if self._reduced:
            return
        ring = self.ring
        cols, rows, alive = self.cols, self.rows, self.alive_flags
        field = ring.is_field  # every stored entry of a field is a unit
        while True:
            cancelled = False
            for b in range(len(cols)):
                col = cols[b]
                if not (alive[b] and col):
                    continue
                units = col if field else [a for a, c in col.items() if ring.is_unit(c)]
                if not units:
                    continue
                a = min(units, key=lambda x: (len(rows[x]), x))
                self._cancel(a, b, col[a])
                cancelled = True
            if field or not cancelled:
                break
        self._reduced = True
        for i, ok in enumerate(alive):
            if ok:
                self._alive_by_degree.setdefault(self.degree[i], []).append(i)

    def _cancel(self, a: int, b: int, lam) -> None:
        ring = self.ring
        cols, rows = self.cols, self.rows
        col_b = cols[b]
        row_a = [(y, cols[y][a]) for y in rows[a] if y != b]
        self.log.append((a, b, lam, tuple(col_b.items()), tuple(row_a)))
        lam_inv = ring.inv(lam)

        # detach a and b before rewriting
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
        for z in rows[b]:  # degree d+2 boundaries lose their b coordinate
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
                else:
                    new = ring.add(old, delta)
                    if new == 0:
                        del col_y[x]
                        rows[x].discard(y)
                    else:
                        col_y[x] = new

    # -- results ------------------------------------------------------------

    def alive(self, degree: int | None = None) -> list[int]:
        """Surviving cells, in id order; after reduce() by a per-degree index."""
        if degree is None:
            return [i for i, ok in enumerate(self.alive_flags) if ok]
        if self._reduced:
            return list(self._alive_by_degree.get(degree, ()))
        return [
            i for i, ok in enumerate(self.alive_flags) if ok and self.degree[i] == degree
        ]

    def residual_boundary(self, i: int) -> dict[int, object]:
        if not self.alive_flags[i]:
            raise ValueError("cell was cancelled")
        return dict(self.cols[i])

    def is_exactly_reduced(self, degree: int | None = None) -> bool:
        """True when no residual boundary entries remain (always, over a field)."""
        for i in self.alive(degree):
            if self.cols[i]:
                return False
        return True

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
        for a, b, lam, col_items, *_ in log:  # a MorseReduction log has no rows
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
        return v

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
        return v


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


def dict_engine(ring: BaseRing, ranks: dict[int, int], boundaries: dict[int, tuple]) -> MorseReduction:
    """The dict engine on `cychom`'s one-block input (ranks, CSC boundaries), same cell ids."""
    red = MorseReduction(ring)
    red.start, red.ranks = {}, dict(ranks)
    for d in sorted(ranks):
        red.start[d] = len(red.degree)
        for _ in range(ranks[d]):
            red.add_cell(d)
    for d, (indptr, rows, values) in boundaries.items():
        indptr, rows, values = (np.asarray(a).tolist() for a in (indptr, rows, values))
        for j in range(ranks[d]):
            col = {red.start[d - 1] + rows[k]: values[k] for k in range(indptr[j], indptr[j + 1])}
            if col:
                red.set_boundary(red.start[d] + j, col)
    return red


def replayed(red) -> MorseReduction:
    """A dict engine holding the cells and log of red, either engine, for its transport_down."""
    replay = MorseReduction(red.ring)
    replay.degree, replay.log = red.degree, red.log
    return replay
