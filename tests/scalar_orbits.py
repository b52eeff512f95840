"""The scalar zig-zag recursion that `cychom.orbits` replaced: the test oracle.

`ScalarOrbitPlane` evaluates the perturbation-lemma zig-zags of the
orbit-reduced plane one code at a time, memoized per (row, parity,
orbit), straight from the formulas in the `cychom.orbits` docstring.
The tests compare `OrbitPlane` against it and use its helpers
(`_orbit`, `_rotations`, `_vertical`, `_kind`) to write the contraction
h out term by term.  `keyed_boundary` and `edge_cells` name
`OrbitPlane`'s cells (row, place) by the oracle's keys.
"""

from __future__ import annotations

from cychom.algebra import Algebra


class ScalarOrbitPlane:
    """Survivors and reduced boundaries of the 2-periodic plane of A over F_p.

    A cell is a pair (q, x): a surviving orbit with representative code x
    in row q.  In total degree d it sits in column d - q.  Over Q nothing
    survives, so the structure constants are only read mod p.
    """

    def __init__(self, A: Algebra):
        if not A.base.is_field:
            raise ValueError("tower stages require field coefficients")
        self.p = A.base.characteristic
        self.dim = A.dim
        self.products = [
            [[(k, int(c) % self.p) for k, c in A.structure[a][b]] for b in range(A.dim)]
            for a in range(A.dim)
        ] if self.p else None
        self._pow = [1]
        self._survivors: dict[int, list[int]] = {}
        self._orbits: dict[int, dict[int, tuple[int, int, int]]] = {}
        self._zig: dict[tuple[int, int, int], list[dict]] = {}
        self._boundary: dict[tuple[int, int, int], dict] = {}

    # -- tuples and orbits ----------------------------------------------------

    def _power(self, k: int) -> int:
        while len(self._pow) <= k:
            self._pow.append(self._pow[-1] * self.dim)
        return self._pow[k]

    def _rotations(self, q: int, code: int) -> list[int]:
        """[code, tau code, tau^2 code, ...] up to the orbit size, tau moving
        the last slot of a row-q code to the front."""
        d, top = self.dim, self._power(q)
        rots = [code]
        y = (code % d) * top + code // d
        while y != code:
            rots.append(y)
            y = (y % d) * top + y // d
        return rots

    def _orbit(self, q: int, code: int) -> tuple[int, int, int]:
        """(x, j, m): code = tau^j x with x the least rotation, m the orbit size."""
        table = self._orbits.setdefault(q, {})
        hit = table.get(code)
        if hit is None:
            rots = self._rotations(q, code)
            m = len(rots)
            x = min(rots)
            i = rots.index(x)  # x = tau^i code
            hit = table[code] = (x, (m - i) % m, m)
        return hit

    def _kind(self, q: int, m: int) -> str:
        s = (q + 1) // m
        if self.p != 2 and (q * m) % 2:
            return "twisted"
        return "survivor" if self.p and s % self.p == 0 else "free"

    def survivors(self, q: int) -> list[int]:
        """Representatives of the row-q orbits with Tate cohomology, sorted."""
        hit = self._survivors.get(q)
        if hit is None:
            hit = []
            n = q + 1
            for m in range(1, n + 1):
                if n % m or self._kind(q, m) != "survivor":
                    continue
                block = self._power(m)
                for w in self._primitive_necklaces(m):
                    x = 0
                    for _ in range(n // m):
                        x = x * block + w
                    hit.append(x)
            hit.sort()
            self._survivors[q] = hit
        return hit

    def _primitive_necklaces(self, m: int) -> list[int]:
        """Codes of length-m words that are their own least rotation, of period m."""
        out = []
        for w in range(self._power(m)):
            x, _, size = self._orbit(m - 1, w)
            if x == w and size == m:
                out.append(w)
        return out

    # -- vertical differential on codes ---------------------------------------

    def _vertical(self, q: int, code: int, coeff: int, even: bool, out: dict) -> None:
        """Add coeff * v(code) to out: b in even columns, -b' in odd ones."""
        if q == 0:
            return
        self._power(q)
        p, d, pw = self.p, self.dim, self._pow
        prods = self.products
        last = q if even else q - 1
        for i in range(last + 1):
            c = coeff if i % 2 == 0 else -coeff
            if not even:
                c = -c
            if i < q:
                lo = pw[q - i - 1]
                tail = code % lo
                rest = code // lo
                y = rest % d
                rest //= d
                a = rest % d
                head = rest // d
                for k, e in prods[a][y]:
                    key = (head * d + k) * lo + tail
                    out[key] = (out.get(key, 0) + c * e) % p
            else:
                lo = pw[q - 1]
                a = code // pw[q]
                y = code % d
                middle = (code // d) % lo
                for k, e in prods[y][a]:
                    key = k * lo + middle
                    out[key] = (out.get(key, 0) + c * e) % p

    # -- zig-zags -------------------------------------------------------------

    def _zigzag_of_chain(self, q: int, parity: int, chain: dict) -> dict:
        """Z(w) = pi(w) - Z(v h w) for a row-q chain w in a column of this parity."""
        p = self.p
        out: dict = {}
        for y, c in chain.items():
            if c == 0:
                continue
            x, j, m = self._orbit(q, y)
            vec = self._zig_orbit(q, parity, x, m)[j]
            if (q * j) % 2:
                c = -c
            for key, e in vec.items():
                out[key] = (out.get(key, 0) + c * e) % p
        return {k: v for k, v in out.items() if v}

    def _zig_orbit(self, q: int, parity: int, x: int, m: int) -> list[dict]:
        """Z(f_k) for k = 0..m-1 on the orbit of x in row q."""
        key = (q, parity, x)
        hit = self._zig.get(key)
        if hit is not None:
            return hit
        p = self.p
        kind = self._kind(q, m)
        rots = self._rotations(q, x)

        def below(k: int) -> dict:
            # Z(v f_k) one row down, in the next column; f_k = (-1)^{qk} tau^k x
            chain: dict = {}
            self._vertical(q, rots[k], -1 if (q * k) % 2 else 1, parity == 1, chain)
            return self._zigzag_of_chain(q - 1, 1 - parity, chain) if chain else {}

        if parity == 0 and kind != "twisted":
            # Z(f_k) = pi(f_k) + sum_{i<k} Z(v f_i)
            out, acc = [], {}
            for k in range(m):
                vec = dict(acc)
                if kind == "survivor":
                    vec[(q, x)] = (vec.get((q, x), 0) + 1) % p
                out.append({a: b for a, b in vec.items() if b})
                if k < m - 1:
                    for a, b in below(k).items():
                        acc[a] = (acc.get(a, 0) + b) % p
        elif parity == 0:
            # Z(f_k) = (sum_{i<k} Z(v f_i)) - (sum_i Z(v f_i)) / 2
            parts = [below(k) for k in range(m)]
            half = pow(2, -1, p)
            total: dict = {}
            for part in parts:
                for a, b in part.items():
                    total[a] = (total.get(a, 0) + b) % p
            out, acc = [], {}
            for k in range(m):
                vec = dict(acc)
                for a, b in total.items():
                    vec[a] = (vec.get(a, 0) - half * b) % p
                out.append({a: b for a, b in vec.items() if b})
                for a, b in parts[k].items():
                    acc[a] = (acc.get(a, 0) + b) % p
        elif kind == "survivor":
            out = [{} for _ in range(m - 1)] + [{(q, x): 1}]
        elif kind == "free":
            scale = (-pow((q + 1) // m, -1, p)) % p
            last = {a: scale * b % p for a, b in below(0).items()}
            out = [{} for _ in range(m - 1)] + [{a: b for a, b in last.items() if b}]
        else:
            out = [{} for _ in range(m)]
        self._zig[key] = out
        return out

    # -- the reduced complex --------------------------------------------------

    def boundary(self, column: int, q: int, x: int) -> dict:
        """Reduced boundary of survivor (q, x) in the given column: {(r, y): coeff}."""
        parity = column % 2
        key = (parity, q, x)
        hit = self._boundary.get(key)
        if hit is None:
            hit = {}
            if q > 0:
                chain: dict = {}
                if parity == 0:
                    self._vertical(q, x, 1, True, chain)
                else:
                    for j, y in enumerate(self._rotations(q, x)):
                        self._vertical(q, y, -1 if (q * j) % 2 else 1, False, chain)
                hit = self._zigzag_of_chain(q - 1, parity, chain)
            self._boundary[key] = hit
        return hit


# -- OrbitPlane's cells as keys ---------------------------------------------


def edge_cells(plane, q: int) -> list[tuple]:
    """The edge cells of row q of an `OrbitPlane` as keys (q, x, k), in their places."""
    x, k, _ = plane._least(q, plane.edge_row(q)[0])
    return [(q, y, j) for y, j in zip(x.tolist(), k.tolist())]


def keyed_boundary(plane, column: int, q: int, x: int, left: bool = False) -> dict:
    """`OrbitPlane.boundary` of the row-q survivor x alone, as {key: coeff}.

    A target (row, place) becomes the key (r, y) of the survivor y, or,
    with left on the edge row column + q - 1, the key (r, y, k) of the
    edge cell f_k of the orbit of y.
    """
    entries = plane.boundary(column, q, left).tolist()
    place, edge = plane.survivors(q).index(x), column + q - 1
    edges = edge_cells(plane, edge) if left and edge > 0 else []
    return {
        edges[t] if left and r == edge else (r, plane.survivors(r)[t]): c
        for s, r, t, c in entries
        if s == place
    }
