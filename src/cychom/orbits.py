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
reduced complex is stored as one boundary per (parity, survivor), keyed
by (q, x).  The zig-zag Z(f_k) of an orbit is a sum of survivors of the
form base + inc_0 + ... + inc_{k-1} + [k = m - 1] last, kept as terms
(start, survivor, coefficient) that count towards Z(f_k) for k >= start.
A level is one (row, parity); the first request for a row's boundaries
walks the levels below it twice, in numpy on integer codes.  Top down,
the vertical faces of the previous level's orbits give the orbits the
next level needs, less those it has already evaluated.  Bottom up, Z of
those orbits is evaluated from their faces again, looking up only the
faces that land on a rotation of an orbit whose Z is nonzero; only such
orbits are kept.  Survivors first appear in row p - 1, and Z vanishes in
every row below it, so the walk stops there.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra

# face entries per numpy batch: bounds the memory of one batch
_BATCH = 1 << 18


def _sum_by(p: int, vals: np.ndarray, *keys: np.ndarray):
    """Sum vals mod p over equal key tuples and drop zero sums; keys come back sorted."""
    if not len(vals):
        return keys, vals
    order = np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    edge = np.zeros(len(vals), dtype=bool)
    edge[0] = True
    for k in keys:
        edge[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(edge)
    sums = np.add.reduceat(vals[order], starts) % p
    keep = sums != 0
    return [k[starts][keep] for k in keys], sums[keep]


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

    A cell is a pair (q, x): a surviving orbit with representative code x
    in row q.  In total degree d it sits in column d - q.  Over Q nothing
    survives, so the structure constants are only read mod p.  Codes are
    int64, so a row with dim^(q+1) >= 2^63 basis tuples is refused.
    Coefficients are int64 residues too: a product of two stays below
    2^63 for every p up to 3 * 10^9, and larger primes leave no survivor
    in any row that can be enumerated.
    """

    def __init__(self, A: Algebra):
        if not A.base.is_field:
            raise ValueError("tower stages require field coefficients")
        self.p = p = A.base.characteristic
        self.dim = d = A.dim
        # products of basis pairs a * d + y, as nonzero (k, e) padded with e = 0
        pairs = [
            [(k, int(c) % p) for k, c in A.structure[a][y] if int(c) % p] if p else []
            for a in range(d)
            for y in range(d)
        ]
        width = max(1, max(len(t) for t in pairs))
        self._K = np.zeros((d * d, width), dtype=np.int64)
        self._E = np.zeros((d * d, width), dtype=np.int64)
        for i, terms in enumerate(pairs):
            for l, (k, e) in enumerate(terms):
                self._K[i, l], self._E[i, l] = k, e
        self._survivors: dict[int, tuple[list[int], np.ndarray, np.ndarray]] = {}
        self._levels: dict[tuple[int, int], _Level] = {}
        self._boundary: dict[tuple[int, int], dict[int, dict]] = {}
        self._cells: list[tuple[int, int]] = []  # survivor cells (q, x) met in zig-zags
        self._cell_ids: dict[tuple[int, int], int] = {}

    # -- codes and orbits -----------------------------------------------------

    def _check_row(self, q: int) -> None:
        if self.dim ** (q + 1) >= 2**63:
            raise ValueError(
                f"row {q} of the plane of a {self.dim}-dimensional algebra has "
                f"{self.dim}^{q + 1} basis tuples, too many for 64-bit codes"
            )

    def _powers(self, q: int) -> np.ndarray:
        """dim^0, ..., dim^(q+1)."""
        return self.dim ** np.arange(q + 2, dtype=np.int64)

    def _kinds(self, q: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(twisted, survivor) masks of row-q orbits of sizes m; the rest are free."""
        p = self.p
        twisted = (m * q) % 2 == 1 if p != 2 else np.zeros(len(m), dtype=bool)
        survivor = ~twisted & (((q + 1) // m) % p == 0)
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
            less = y < best
            best[less] = y[less]
            first[less] = k  # best = tau^first code
            period[(y == codes) & (period == n)] = k
        return best, (period - first) % period, period

    def _rotations(self, q: int, x: np.ndarray, m: np.ndarray):
        """(orbit index, j, code of tau^j x) for every rotation of each orbit."""
        o, j = _ranges(m)
        pw, base = self._powers(q), x[o]
        return o, j, (base % pw[j]) * pw[q + 1 - j] + base // pw[j]

    def _faces(self, q: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Terms e * y of the cyclic faces d_0, ..., d_q of row-q codes.

        d_i multiplies slots i and i + 1 for i < q; d_q multiplies the last
        slot by the first and puts the product in front.  Returns y and
        e mod p, indexed [i, code, product term]; e = 0 marks no term.
        """
        d, pw = self.dim, self._powers(q)
        slots = [codes // pw[q - s] % d for s in range(q + 1)]
        keys = np.empty((q + 1, len(codes), self._K.shape[1]), dtype=np.int64)
        vals = np.empty_like(keys)
        # numpy divides fast by a scalar, so this loops over the faces
        for i in range(q + 1):
            if i < q:
                pair = slots[i] * d + slots[i + 1]
                lo = pw[q - i - 1]
                rest = codes // pw[q - i + 1] * pw[q - i] + codes % lo  # slots i, i+1 cut out
            else:
                pair = slots[q] * d + slots[0]
                lo = pw[q - 1]
                rest = codes // d % lo
            keys[i] = self._K[pair] * lo + rest[:, None]
            vals[i] = self._E[pair]
        return keys, vals

    def _batches(self, q: int, n: int):
        """Slices of n row-q codes whose faces fill at most one batch."""
        return _spans(np.full(n, (q + 1) * self._K.shape[1]), _BATCH)

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
        d, top = self.dim, self.dim ** (m - 1)
        out = []
        for chunk in range(0, d**m, _BATCH):
            w = np.arange(chunk, min(chunk + _BATCH, d**m), dtype=np.int64)
            ok = np.ones(len(w), dtype=bool)
            y = w
            for _ in range(m - 1):
                y = (y % d) * top + y // d
                ok &= y > w
            out.append(w[ok])
        return np.concatenate(out)

    def survivors(self, q: int) -> list[int]:
        """Representatives of the row-q orbits with Tate cohomology, sorted."""
        self._check_row(q)
        return self._survivor_row(q)[0]

    # -- zig-zags -------------------------------------------------------------

    def _level(self, q: int, parity: int) -> _Level:
        return self._levels.setdefault((q, parity), _Level())

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

    def _new_orbits(self, q: int, parity: int, x: np.ndarray):
        """Orbits one level down that the faces of row-q orbits x at (q, parity)
        reach and that are not evaluated yet, with their sizes.

        Faces of tau^k x are rotations of cyclic faces of x (see
        _rotated_hits), so the cyclic faces of x reach every orbit needed.
        """
        xs, ms = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for part in self._batches(q, len(x)):
            keys, vals = self._faces(q, x[part])
            y, _, m = self._least(q - 1, _distinct(keys[vals != 0])[0])
            y, m = _distinct(y, m)
            xs.append(y)
            ms.append(m)
        y, m = _distinct(np.concatenate(xs), np.concatenate(ms))
        new = ~_in_sorted(y, self._level(q - 1, 1 - parity).done)
        return y[new], m[new]

    def _below(self, q: int, parity: int, x: np.ndarray, counts: np.ndarray):
        """Z(v f_k) one level down for k < counts of each row-q orbit x at (q, parity).

        h has moved these chains one column right, to parity 1 - parity,
        where v is b if that column is even and -b' if it is odd.  Returns
        (orbit index, k, cell id, coefficient), one entry per term reached;
        entries with equal (orbit, k, cell) are not yet summed.
        """
        lower = self._level(q - 1, 1 - parity)
        out = [[np.zeros(0, dtype=np.int64)] for _ in range(4)]
        if len(lower.codes):
            for part in self._batches(q, len(x)):
                keys, vals = self._faces(q, x[part])
                face = np.flatnonzero(vals)
                face = face[_in_sorted(keys.ravel()[face], lower.codes)]
                pos = np.searchsorted(lower.codes, keys.ravel()[face])
                f, src = np.divmod(face // vals.shape[2], vals.shape[1])
                src += part.start
                hits = (src, f, vals.ravel()[face], lower.orbit[pos], lower.shift[pos])
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
        keep = (even | (i < q)) & (lower.start[lower.ptr[t]] <= j)
        h, k, i, t, j = h[keep], k[keep], i[keep], t[keep], j[keep]
        # signs of face i in v, of f_k = (-1)^{qk} tau^k x, and of
        # Z(tau^j x_t) = (-1)^{(q-1)j} Z(f_j)
        odd = (i + q * k + (q - 1) * j + (not even)) % 2 == 1
        c = np.where(odd, p - e[h], e[h])
        g, off = _ranges(lower.ptr[t + 1] - lower.ptr[t])
        term = lower.ptr[t][g] + off
        keep = lower.start[term] <= j[g]
        g, term = g[keep], term[keep]
        return src[h][g], k[g], lower.cell[term], c[g] * lower.value[term] % p

    def _cell(self, q: int, x: int) -> int:
        key = (q, x)
        i = self._cell_ids.get(key)
        if i is None:
            i = self._cell_ids[key] = len(self._cells)
            self._cells.append(key)
        return i

    def _evaluate(self, q: int, parity: int, x: np.ndarray, m: np.ndarray) -> None:
        """Z(f_0), ..., Z(f_{m-1}) of new orbits at (q, parity); keep the nonzero ones."""
        p = self.p
        twisted, survivor = self._kinds(q, m)
        sv = np.flatnonzero(survivor)
        # pi: a survivor's class, on f_0 in even columns and on f_{m-1} in odd ones
        orbit = [sv]
        start = [np.zeros(len(sv), dtype=np.int64) if parity == 0 else m[sv] - 1]
        cell = [np.array([self._cell(q, y) for y in x[sv].tolist()], dtype=np.int64)]
        value = [np.ones(len(sv), dtype=np.int64)]
        if q - 1 >= p - 1:
            o, k, c, v = self._below(q, parity, x, self._needed(q, parity, m))
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
        level = self._level(q, parity)
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

    def _row_boundaries(self, q: int, parity: int) -> dict[int, dict]:
        """Reduced boundaries of every row-q survivor in columns of this parity."""
        p = self.p
        xs, x, m = self._survivor_row(q)
        out: dict[int, dict] = {y: {} for y in xs}
        if not xs or q - 1 < p - 1:
            return out
        # i(x) = x in even columns and f_0 + ... + f_{m-1} in odd ones; its
        # vertical faces lie one row down in the same column, where the
        # orbits at (q, 1 - parity) send theirs
        counts = np.ones_like(m) if parity == 0 else m
        levels = []
        r, par, y = q, 1 - parity, x
        while len(y) and r - 1 >= p - 1:
            y, ym = self._new_orbits(r, par, y)
            r, par = r - 1, 1 - par
            levels.append((r, par, y, ym))
            y = y[self._needed(r, par, ym) > 0]
        for level in reversed(levels):
            self._evaluate(*level)
        o, _, cell, val = self._below(q, 1 - parity, x, counts)
        (o, cell), val = _sum_by(p, val, o, cell)
        for i, c, v in zip(o.tolist(), cell.tolist(), val.tolist()):
            out[xs[i]][self._cells[c]] = v
        return out

    def boundary(self, column: int, q: int, x: int) -> dict:
        """Reduced boundary of survivor (q, x) in the given column: {(r, y): coeff}.

        The first call for a row and column parity computes the boundaries
        of all the row's survivors; x must be one of them.
        """
        self._check_row(q)
        parity = column % 2
        row = self._boundary.get((parity, q))
        if row is None:
            row = self._boundary[(parity, q)] = self._row_boundaries(q, parity)
        return row[x]
