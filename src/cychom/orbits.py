"""The 2-periodic plane reduced row by row to its orbit Tate cohomology.

Row q of the plane is the periodic Tate complex of C_{q+1} acting on
X_q = A^{(q+1)} through the signed rotation t = (-1)^q tau, with N and
1 - t alternating along the row.  X_q is a signed permutation module:
it splits over the tau-orbits of basis tuples.  Take an orbit with
representative x (the least rotation in big-endian code order), size m
and stabilizer order s = (q+1)/m, and write f_j = t^j x for 0 <= j < m.
Then t f_{m-1} = eps f_0 with eps = (-1)^{qm}, and over F_p the orbit's
piece of the row is one of three kinds:

  survivor   p | s and eps = 1 (always, when p = 2): N vanishes on the
             orbit and the row has one class per column, represented by
             x in even columns and by f_0 + ... + f_{m-1} in odd ones;
  free       eps = 1 and p does not divide s: N = s (f_0 + ... + f_{m-1})
             and the piece is exact;
  twisted    eps = -1 with p odd: N vanishes, 1 - t is invertible and the
             piece is exact.

Over Q no orbit survives.  Each kind carries an explicit deformation
retraction (i, pi, h) of its row piece onto that homology, with h moving
one column right and h i = 0, pi h = 0, h h = 0:

  even column:  h(f_k) = -(f_0 + ... + f_{k-1})              (eps = 1)
                h(f_k) = (f_k + ... + f_{m-1} - f_0 - ... - f_{k-1}) / 2
                                                             (twisted)
  odd column:   h(f_{m-1}) = f_0 / s, h(f_k) = 0 otherwise   (free)
                h = 0                                (survivor, twisted)
  pi:           pi(f_k) = 1 in even columns, pi(f_k) = [k = m - 1] in
                odd ones (survivors only).

The vertical differential lowers q, so the homological perturbation
lemma turns the sum of these retractions into a retraction of the whole
plane onto the survivors, with induced differential
  D = pi (v - v h v + v h v h v - ...) i
(v the vertical differential); the series stops because every zig-zag
v h lowers q.  None of the data crosses rows, so the same retraction
restricts to every row truncation: truncation stages of the plane are the
row truncations of the reduced complex, and its inclusions induce the
truncation tower's maps on homology.

Everything above depends on a column only through its parity, so the
reduced complex is stored as one boundary array per (row, parity).  A
cell is (row, place): its place among its row's survivors or, on the
edge row of a cut walk (below), among that row's edge cells.  The
zig-zag Z(f_k) of an orbit is a sum of cells base + inc_0 + ... +
inc_{k-1} + [k = m - 1] last, kept as terms (start, cell packed in an
int64, coefficient) that count towards Z(f_k) for k >= start.
A level is one (row, parity); the first request for a row's boundaries
walks the levels below it twice, in numpy on integer codes.  Top down,
the vertical faces of the previous level's orbits give the orbits the
next level needs, less those it has already evaluated.  Bottom up, Z of
those orbits is evaluated from their faces again, looking up only the
faces that land on a rotation of an orbit whose Z is nonzero; only such
orbits are kept.  The second face pass is what keeps one level's faces,
not every level's, in memory.  Survivors first appear in row p - 1, and
Z vanishes in every row below it, so the walk stops there.  The faces
are the bar modules' own, from `cyclic.SummandOps.face`, and terms are
summed by `cyclic._sum_by`.

The left region p <= 0, which carries negative cyclic homology, has the
same rows cut at column 0, where nothing comes in.  There a row's
homology is ker N, with a basis of edge cells per orbit: f_k for
0 <= k < m on survivor and twisted orbits, where N = 0, and f_k - f_0
for 1 <= k < m on free ones.  The retraction onto it is
pi_edge = 1 - h N, with h the plane's h from column -1, so pi_edge(f_k) =
f_k - f_0 on free orbits and f_k elsewhere; h = 0 out of column 0.  A
survivor's zig-zag in the left region is therefore the plane's cut at
column 0: its chain there, on the edge row e = d - 1 of a boundary out
of total degree d, is projected by pi_edge instead of contracted.  An
edge cell's reduced boundary is pi_edge b on row q - 1 (b keeps ker N,
since N b = b' N).  The cut depends on e alone, so walks for e >= 1 keep
their own levels, keyed by e; for e <= 0 the walk meets no edge cell (row
0 has none: its orbits are free of size 1) and is the plane's.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import Algebra
from .cyclic import SummandOps, _refuse, _sum_by, _Summands

# face entries per numpy batch: bounds the memory of one batch
_BATCH = 1 << 18
# a cell (row, place) packs into the int64 row << _PLACE | place
_PLACE = 32


def _distinct(a: np.ndarray, *carry: np.ndarray) -> list[np.ndarray]:
    """[sorted distinct entries of a, *each carry array at one occurrence of each].

    A sort, which on int64 codes is many times faster than np.unique's hashing.
    """
    if carry:
        order = np.argsort(a)
        a, carry = a[order], [c[order] for c in carry]
    else:
        a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return [a[first], *(c[first] for c in carry)]


def _in_sorted(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mask of the entries of a that occur in the sorted array table."""
    if not len(table):
        return np.zeros(len(a), dtype=bool)
    pos = np.minimum(np.searchsorted(table, a), len(table) - 1)
    return table[pos] == a


def _ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) of every slot when entry i owns counts[i] consecutive slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, offset


def _spans(counts: np.ndarray, limit: int):
    """Consecutive slices of entries whose counts sum to at most limit, or one entry."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        yield slice(start, stop)
        start = stop


class _Level:
    """Zig-zags of the orbits of one (row, parity) evaluated so far.

    done holds every evaluated representative, sorted.  Orbits with
    nonzero Z get ids 0, 1, ...: orbit i has size[i] rotations and the
    terms start, cell and value[ptr[i]:ptr[i + 1]], and codes (sorted)
    lists every rotation tau^shift x of such an orbit with its id.
    """

    def __init__(self):
        empty = np.zeros(0, dtype=np.int64)
        self.done = self.codes = self.orbit = self.shift = empty
        self.start = self.cell = self.value = self.size = empty
        self.ptr = np.zeros(1, dtype=np.int64)


class OrbitPlane:
    """Survivors and reduced boundaries of the 2-periodic plane of A over F_p.

    A survivor of row q is named by its place in survivors(q); in total
    degree d it sits in column d - q.  The faces come
    from `SummandOps`, built on the first walk; over Q, and for primes
    that leave no survivor, nothing is walked and the structure constants
    are never read.  Codes are int64, so a row with dim^(q+1) >= 2^63
    basis tuples is refused.  Coefficients are int64 residues too: a face
    term's coefficient is a structure constant, already below p, and a
    product of two residues stays below 2^63 for every p up to 3 * 10^9;
    larger primes leave no survivor in any row that can be enumerated.
    """

    def __init__(self, A: Algebra):
        if not A.base.is_field:
            raise ValueError("tower stages require field coefficients")
        self.algebra = A
        self.p = A.base.characteristic
        self.dim = A.dim
        self._survivors: dict[int, tuple[list[int], np.ndarray, np.ndarray]] = {}
        # keyed (row, parity, edge row of the cut or None)
        self._levels: dict[tuple, _Level] = {}
        self._boundary: dict[tuple, np.ndarray] = {}
        self._edges: dict[int, tuple] = {}

    # -- codes and orbits -----------------------------------------------------

    def _check_row(self, q: int) -> None:
        _refuse(self.dim, q + 1, 1, f"row {q} of the plane of a {self.dim}-dimensional algebra "
                f"has {self.dim}^{q + 1} basis tuples, too many for 64-bit codes")

    def _powers(self, q: int) -> np.ndarray:
        """dim^0, ..., dim^(q+1)."""
        return self.dim ** np.arange(q + 2, dtype=np.int64)

    def _kinds(self, q: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(twisted, survivor) masks of row-q orbits of sizes m; the rest are free."""
        p = self.p
        twisted = (m * q) % 2 == 1 if p != 2 else np.zeros(len(m), dtype=bool)
        survivor = ~twisted & (((q + 1) // m) % p == 0) if p else np.zeros(len(m), dtype=bool)
        return twisted, survivor

    def _least(self, q: int, codes: np.ndarray):
        """(x, j, m) per code: code = tau^j x, x the least rotation, m the orbit size."""
        d, n = self.dim, q + 1
        top = d**q
        best, first = codes.copy(), np.zeros(len(codes), dtype=np.int64)
        period = np.full(len(codes), n, dtype=np.int64)
        y = codes
        for k in range(1, n):
            y = (y % d) * top + y // d  # tau^k code
            np.copyto(first, k, where=y < best)  # best = tau^first code
            np.minimum(best, y, out=best)
            np.copyto(period, k, where=(y == codes) & (period == n))
        return best, (period - first) % period, period

    def _rotations(self, q: int, x: np.ndarray, m: np.ndarray):
        """(orbit index, j, code of tau^j x) for every rotation of each orbit."""
        o, j = _ranges(m)
        pw, base = self._powers(q), x[o]
        return o, j, (base % pw[j]) * pw[q + 1 - j] + base // pw[j]

    @cached_property
    def _ops(self) -> SummandOps:
        return SummandOps(self.algebra)

    def _faces(self, q: int, codes: np.ndarray) -> tuple[np.ndarray, ...]:
        """Terms e * y of the cyclic faces d_0, ..., d_q of row-q codes.

        Returns flat arrays (i, position in codes, y, e), one entry per
        nonzero term of a face d_i, from `SummandOps.face`.  e is a
        structure constant, over F_p already a residue mod p.
        """
        x = _Summands(q + 1, np.arange(len(codes)), codes, np.ones(len(codes), dtype=np.int64))
        faces = [self._ops.face(x, i) for i in range(q + 1)]
        face = np.repeat(np.arange(q + 1), [len(s.src) for s in faces])
        src, y, e = (np.concatenate(a) for a in zip(*((s.src, s.code, s.coeff) for s in faces)))
        return face, src, y, e

    def _batches(self, q: int, n: int):
        """Slices of n row-q codes whose faces fill at most one batch."""
        return _spans(np.full(n, self._ops.width("b", q)), _BATCH)

    # -- survivors ------------------------------------------------------------

    def _survivor_row(self, q: int):
        hit = self._survivors.get(q)
        if hit is not None:
            return hit
        d, n = self.dim, q + 1
        xs, ms = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        if self.p:
            sizes = np.array([m for m in range(1, n + 1) if n % m == 0], dtype=np.int64)
            for m in sizes[self._kinds(q, sizes)[1]].tolist():
                words = self._primitive_necklaces(m)
                # x is w repeated n/m times
                xs.append(words * sum(d ** (m * t) for t in range(n // m)))
                ms.append(np.full(len(words), m, dtype=np.int64))
        x, m = np.concatenate(xs), np.concatenate(ms)
        order = np.argsort(x)
        hit = self._survivors[q] = (x[order].tolist(), x[order], m[order])
        return hit

    def _primitive_necklaces(self, m: int) -> np.ndarray:
        """Codes of length-m words that are their own least rotation, of period m."""
        out = []
        for chunk in range(0, self.dim**m, _BATCH):
            w = np.arange(chunk, min(chunk + _BATCH, self.dim**m), dtype=np.int64)
            x, _, period = self._least(m - 1, w)
            out.append(w[(x == w) & (period == m)])
        return np.concatenate(out)

    def survivors(self, q: int) -> list[int]:
        """Representatives of the row-q orbits with Tate cohomology, sorted."""
        self._check_row(q)
        return self._survivor_row(q)[0]

    # -- zig-zags -------------------------------------------------------------

    def _level(self, q: int, parity: int, cut: int | None) -> _Level:
        return self._levels.setdefault((q, parity, cut), _Level())

    def _floor(self, cut: int | None) -> int:
        """The lowest row a walk visits: p - 1 on the plane, the edge row when cut."""
        return self.p - 1 if cut is None else cut

    def _needed(self, q: int, parity: int, m: np.ndarray) -> np.ndarray:
        """How many rotations f_0, f_1, ... of each orbit Z needs v of.

        Z(f_k) = pi(f_k) + sum_{i<k} Z(v f_i) in even columns, less half of
        the sum over all i when twisted; in odd columns only a free orbit
        needs Z(v f_0).
        """
        twisted, survivor = self._kinds(q, m)
        if parity == 0:
            return np.where(twisted, m, m - 1)
        return (~twisted & ~survivor).astype(np.int64)

    def _new_orbits(self, q: int, parity: int, x: np.ndarray, cut: int | None):
        """Orbits one level down that the faces of row-q orbits x at (q, parity)
        reach and that are not evaluated yet, with their sizes.

        Faces of tau^k x are rotations of cyclic faces of x (see
        _rotated_hits), so the cyclic faces of x reach every orbit needed.
        """
        xs, ms = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for part in self._batches(q, len(x)):
            y = self._faces(q, x[part])[2]  # the codes the faces reach
            y, _, m = self._least(q - 1, _distinct(y)[0])
            y, m = _distinct(y, m)
            xs.append(y)
            ms.append(m)
        y, m = _distinct(np.concatenate(xs), np.concatenate(ms))
        new = ~_in_sorted(y, self._level(q - 1, 1 - parity, cut).done)
        return y[new], m[new]

    def _below(
        self, q: int, parity: int, x: np.ndarray, counts: np.ndarray, cut: int | None
    ):
        """Z(v f_k) one level down for k < counts of each row-q orbit x at (q, parity).

        h has moved these chains one column right, to parity 1 - parity,
        where v is b if that column is even and -b' if it is odd.  Returns
        (orbit index, k, cell id, coefficient), one entry per term reached;
        entries with equal (orbit, k, cell) are not yet summed.
        """
        lower = self._level(q - 1, 1 - parity, cut)
        out = [[np.zeros(0, dtype=np.int64)] for _ in range(4)]
        if len(lower.codes):
            for part in self._batches(q, len(x)):
                f, src, y, e = self._faces(q, x[part])
                hit = np.flatnonzero(_in_sorted(y, lower.codes))
                src = src[hit] + part.start
                pos = np.searchsorted(lower.codes, y[hit])
                hits = (src, f[hit], e[hit], lower.orbit[pos], lower.shift[pos])
                for span in _spans(counts[src], _BATCH):
                    found = self._rotated_hits(
                        q, parity, lower, counts, *(a[span] for a in hits)
                    )
                    for acc, a in zip(out, found):
                        acc.append(a)
        return [np.concatenate(a) for a in out]

    def _rotated_hits(self, q, parity, lower, counts, src, f, e, t, j0):
        """_below's terms from faces e * tau^{j0} x_t of the orbits x[src].

        d_i tau^k x = tau^k d_{i-k} x for i >= k and tau^{k-1} d_{i-k+q+1} x
        for i < k, so face f of x is face i = f + k (mod q + 1) of tau^k x.
        """
        p, n, even = self.p, q + 1, parity == 1
        h, k = _ranges(counts[src])
        i = f[h] + k
        wrap = i >= n
        i -= n * wrap
        t = t[h]
        j = (j0[h] + k - wrap) % lower.size[t]
        # Z(f_j) sums the terms of x_t that start at or before j
        keep = np.flatnonzero((even | (i < q)) & (lower.start[lower.ptr[t]] <= j))
        h, k, i, t, j = h[keep], k[keep], i[keep], t[keep], j[keep]
        # signs of face i in v, of f_k = (-1)^{qk} tau^k x, and of
        # Z(tau^j x_t) = (-1)^{(q-1)j} Z(f_j)
        odd = (i + q * k + (q - 1) * j + (not even)) % 2 == 1
        c = np.where(odd, p - e[h], e[h])
        g, off = _ranges(lower.ptr[t + 1] - lower.ptr[t])
        term = lower.ptr[t][g] + off
        keep = np.flatnonzero(lower.start[term] <= j[g])
        g, term = g[keep], term[keep]
        return src[h][g], k[g], lower.cell[term], c[g] * lower.value[term] % p

    def _edge_terms(self, q: int, x: np.ndarray, m: np.ndarray, free: np.ndarray):
        """Z at the cut, in column 0, where h = 0 and the zig-zag ends.

        Z(f_k) = pi_edge(f_k) is the edge cell f_k, or 0 for k = 0 on a
        free orbit.  Terms count towards Z(f_j) for j >= start, so cell k
        enters at start k and leaves again at start k + 1.
        """
        o, k, code = self._rotations(q, x, m)
        keep = ~free[o] | (k > 0)
        o, k = o[keep], k[keep]
        cell = (q << _PLACE) | self.edge_row(q)[1][code[keep]]
        more = k < m[o] - 1
        one = np.ones(len(o), dtype=np.int64)
        return [o, o[more]], [k, k[more] + 1], [cell, cell[more]], [one, (self.p - 1) * one[more]]

    def _evaluate(
        self, q: int, parity: int, x: np.ndarray, m: np.ndarray, cut: int | None
    ) -> None:
        """Z(f_0), ..., Z(f_{m-1}) of new orbits at (q, parity); keep the nonzero ones."""
        p = self.p
        twisted, survivor = self._kinds(q, m)
        if q == cut:
            orbit, start, cell, value = self._edge_terms(q, x, m, ~twisted & ~survivor)
        else:
            # pi: a survivor's class, on f_0 in even columns and on f_{m-1} in odd ones
            sv = np.flatnonzero(survivor)
            orbit = [sv]
            start = [np.zeros(len(sv), dtype=np.int64) if parity == 0 else m[sv] - 1]
            cell = [(q << _PLACE) | np.searchsorted(self._survivor_row(q)[1], x[sv])]
            value = [np.ones(len(sv), dtype=np.int64)]
        if q - 1 >= self._floor(cut):  # never at the cut itself
            o, k, c, v = self._below(q, parity, x, self._needed(q, parity, m), cut)
            if parity == 0:
                # Z(v f_k) counts towards Z(f_{k+1}), ...; k = m - 1 only
                # enters the twisted base
                orbit += [o]
                start += [k + 1]
                cell += [c]
                value += [v]
                tw = twisted[o]
                if tw.any():
                    half = pow(2, -1, p)
                    orbit += [o[tw]]
                    start += [np.zeros(int(tw.sum()), dtype=np.int64)]
                    cell += [c[tw]]
                    value += [(p - half) * v[tw] % p]
            else:
                # free: Z(f_{m-1}) = -Z(v f_0) / s
                inverse = np.array(
                    [pow(s, -1, p) if s % p else 0 for s in range(q + 2)], dtype=np.int64
                )
                orbit += [o]
                start += [m[o] - 1]
                cell += [c]
                value += [(p - inverse[(q + 1) // m[o]]) * v % p]
        (orbit, start, cell), value = _sum_by(
            p, np.concatenate(value), *map(np.concatenate, (orbit, start, cell))
        )
        level = self._level(q, parity, cut)
        level.done = np.sort(np.concatenate([level.done, x]))
        if not len(orbit):
            return
        first = np.flatnonzero(np.diff(orbit, prepend=-1))  # orbit is sorted
        kept = orbit[first]
        n = len(level.ptr) - 1
        ends = np.append(first[1:], len(orbit)) + level.ptr[-1]
        level.ptr = np.concatenate([level.ptr, ends])
        level.start = np.concatenate([level.start, start])
        level.cell = np.concatenate([level.cell, cell])
        level.value = np.concatenate([level.value, value])
        level.size = np.concatenate([level.size, m[kept]])
        o, j, codes = self._rotations(q, x[kept], m[kept])
        codes = np.concatenate([level.codes, codes])
        order = np.argsort(codes)
        level.codes = codes[order]
        level.orbit = np.concatenate([level.orbit, o + n])[order]
        level.shift = np.concatenate([level.shift, j])[order]

    # -- the reduced complex --------------------------------------------------

    def boundary(self, column: int, q: int, left: bool = False) -> np.ndarray:
        """Reduced boundaries of all row-q survivors in the given column.

        Returns an (nnz, 4) int64 array, sorted, with one entry (survivor
        place, target row, target place, coefficient) per nonzero
        coefficient.  Places are in survivors(row), except that with left
        a target on the edge row column + q - 1 is an edge cell, placed in
        edge_row(row).  With left the boundaries are the left region's,
        for a column <= -1: the zig-zags are cut at column 0, on that edge
        row.  Memoized per column parity, row and cut.
        """
        self._check_row(q)
        if left and column >= 0:
            raise ValueError("survivors of the left region sit in columns <= -1")
        parity = column % 2
        # an edge row <= 0 meets no edge cell: the plane walk is the cut one
        cut = column + q - 1 if left and column + q > 1 else None
        hit = self._boundary.get((parity, q, cut))
        if hit is not None:
            return hit
        _, x, m = self._survivor_row(q)
        # i(x) = x in even columns and f_0 + ... + f_{m-1} in odd ones; its
        # vertical faces lie one row down in the same column, where the
        # orbits at (q, 1 - parity) send theirs
        counts = np.ones_like(m) if parity == 0 else m
        levels = []
        r, par, y = q, 1 - parity, x
        while len(y) and r - 1 >= self._floor(cut):
            y, ym = self._new_orbits(r, par, y, cut)
            r, par = r - 1, 1 - par
            levels.append((r, par, y, ym))
            y = y[self._needed(r, par, ym) > 0]
        for level in reversed(levels):
            self._evaluate(*level, cut)
        o, _, cell, val = self._below(q, 1 - parity, x, counts, cut)
        (o, cell), val = _sum_by(self.p, val, o, cell)
        hit = np.stack([o, cell >> _PLACE, cell & ((1 << _PLACE) - 1), val], axis=1)
        self._boundary[parity, q, cut] = hit
        return hit

    def edge_row(self, q: int):
        """The edge cells of row q and pi_edge on its codes, memoized.

        Returns (cells, owner, sign, base).  An edge cell f_k of the orbit
        of x is named by its place in cells, which lists the codes
        tau^k x of the edge cells sorted by (x, k).  Code z of the row is
        sign[z] f_j of its orbit; pi_edge sends it to sign[z] times the
        cell owner[z], or to 0 where owner[z] = -1.  base[z] is the
        orbit's f_0 = x where the orbit is free and -1 elsewhere, so the
        cell owner[z] is the chain sign[z] z - x on a free orbit and
        sign[z] z on the others.
        """
        hit = self._edges.get(q)
        if hit is None:
            self._check_row(q)
            z = np.arange(self.dim ** (q + 1), dtype=np.int64)
            x, j, m = self._least(q, z)
            twisted, survivor = self._kinds(q, m)
            free = ~twisted & ~survivor
            idx = np.flatnonzero(~free | (j > 0))
            idx = idx[np.lexsort((j[idx], x[idx]))]
            owner = np.full(len(z), -1, dtype=np.int64)
            owner[idx] = np.arange(len(idx))
            sign = 1 - 2 * ((q * j) % 2)
            hit = self._edges[q] = (idx, owner, sign, np.where(free, x, -1))
        return hit

    def edge_boundary(self, q: int, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """pi_edge b on the edge cells of row q, given b: X_q -> X_{q-1} as a Coo.

        Returns (rows, cols, vals): an edge cell of row q - 1, one of row q
        and the sum of b's values that lands there, mod p (exact over Q,
        where b's values are numerators over its den).
        """
        _, owner, sign, base = self.edge_row(q)
        _, owner_below, sign_below, _ = self.edge_row(q - 1)
        z = np.flatnonzero(owner >= 0)
        f0 = z[base[z] >= 0]
        col = np.concatenate([owner[z], owner[f0]])
        code = np.concatenate([z, base[f0]])
        coef = np.concatenate([sign[z], np.full(len(f0), -1, dtype=np.int64)])
        # b's entries in the columns of those codes; b is sorted by column
        indptr = np.searchsorted(b.cols, np.arange(b.ncols + 1))
        at, offset = _ranges(indptr[code + 1] - indptr[code])
        entry = indptr[code][at] + offset
        r = b.rows[entry]
        keep = owner_below[r] >= 0
        vals = coef[at] * sign_below[r] * b.vals[entry]
        (cols, rows), vals = _sum_by(self.p, vals[keep], col[at][keep], owner_below[r][keep])
        return rows, cols, vals
