"""Checks of every job's output, computed apart from the code being timed.

Closed forms and ranks come from sympy over GF(p) or QQ, straight from the
seeded algebra's structure constants or from the materialized row
truncations; none of them goes through `MorseReduction`, the orbit-reduced
plane or `Algebra.commutator_quotient`.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from sympy import GF as SymGF, QQ as SymQQ
from sympy.polys.matrices import DomainMatrix

# the largest stage, in cells per total degree, whose group is recomputed
STAGE_CELL_LIMIT = 600


def _domain(p: int):
    return SymGF(p) if p else SymQQ


def _element(K, p: int, v):
    if p:
        return K(int(v) % p)
    v = Fraction(v)
    return K(v.numerator, v.denominator)


def sparse_rank(entries, nrows: int, ncols: int, p: int) -> int:
    """Rank over GF(p) (p > 0) or QQ (p = 0) of {(i, j): value}."""
    K = _domain(p)
    rows: dict[int, dict[int, object]] = {}
    for (i, j), v in entries.items():
        x = _element(K, p, v)
        if x:
            rows.setdefault(i, {})[j] = x
    if not rows:
        return 0
    return DomainMatrix(rows, (nrows, ncols), K).rank()


def _modulus(doc: dict) -> int:
    return int(doc["p"]) if doc["base"] == "Fp" else 0


# ---------------------------------------------------------------------------
# closed forms from the structure constants


def commutator_quotient_dim(doc: dict) -> int:
    """dim A/[A,A] from the algebra JSON: dim minus the rank of all e_i e_j - e_j e_i."""
    c, n = doc["structure"], int(doc["dim"])
    entries = {}
    col = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = c[i][j][k] - c[j][i][k]
                if v:
                    entries[(k, col)] = v
            col += 1
    return n - sparse_rank(entries, n, max(col, 1), _modulus(doc))


class NormalizedMixed:
    """The normalized mixed complex (X-bar, b-bar, B-bar), built here from
    the algebra JSON.

    Needs the unit to be basis vector 0.  A basis tuple of degree n is
    (a_0, ..., a_n) with a_1..a_n != 0; terms landing on a tuple with the
    unit in an interior slot are degenerate and vanish in the quotient.
    """

    def __init__(self, doc: dict):
        self.dim, self.c, self.p = int(doc["dim"]), doc["structure"], _modulus(doc)
        if list(doc["unit"]) != [1] + [0] * (self.dim - 1):
            raise ValueError("the normalized complex needs the unit as basis vector 0")
        self._bases: dict[int, tuple[list, dict]] = {}

    def basis(self, n: int) -> tuple[list, dict]:
        if n not in self._bases:
            tuples = [t for t in product(range(self.dim), repeat=n + 1) if 0 not in t[1:]]
            self._bases[n] = (tuples, {t: i for i, t in enumerate(tuples)})
        return self._bases[n]

    def rank(self, n: int) -> int:
        return len(self.basis(n)[0]) if n >= 0 else 0

    def b(self, n: int) -> dict[tuple[int, int], int]:
        """b-bar : X-bar_n -> X-bar_{n-1}, as {(row, col): value}."""
        entries: dict[tuple[int, int], int] = {}
        if n <= 0:
            return entries
        cols, _ = self.basis(n)
        _, row_of = self.basis(n - 1)
        for j, a in enumerate(cols):
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                if i < n:
                    x, y, head, tail = a[i], a[i + 1], a[:i], a[i + 2:]
                else:
                    x, y, head, tail = a[n], a[0], (), a[1:n]
                for k, v in enumerate(self.c[x][y]):
                    t = head + (k,) + tail
                    if v and 0 not in t[1:]:
                        key = (row_of[t], j)
                        entries[key] = entries.get(key, 0) + sign * v
        return entries

    def B(self, n: int) -> dict[tuple[int, int], int]:
        """B-bar : X-bar_n -> X-bar_{n+1}: signed rotations with the unit in front."""
        entries: dict[tuple[int, int], int] = {}
        cols, _ = self.basis(n)
        _, row_of = self.basis(n + 1)
        for j, a in enumerate(cols):
            for i in range(n + 1):
                t = (0,) + a[i:] + a[:i]
                if 0 not in t[1:]:
                    key = (row_of[t], j)
                    entries[key] = entries.get(key, 0) + (-1 if (n * i) % 2 else 1)
        return entries

    def hh_dims(self, n_max: int) -> dict[int, int]:
        r = {n: sparse_rank(self.b(n), self.rank(n - 1), self.rank(n), self.p)
             for n in range(n_max + 2)}
        return {n: self.rank(n) - r[n] - r[n + 1] for n in range(n_max + 1)}

    def tot_rank(self, n: int) -> int:
        return sum(self.rank(n - 2 * k) for k in range(n // 2 + 1)) if n >= 0 else 0

    def _tot_boundary_rank(self, n: int) -> int:
        """Rank of b-bar + B-bar : Tot_n -> Tot_{n-1}, Tot_n = sum_k X-bar_{n-2k}."""
        if n <= 0:
            return 0

        def offsets(m):
            out, at = {}, 0
            for k in range(m // 2 + 1):
                out[k] = at
                at += self.rank(m - 2 * k)
            return out

        src, dst = offsets(n), offsets(n - 1)
        entries: dict[tuple[int, int], int] = {}
        for k in range(n // 2 + 1):
            m = n - 2 * k
            if k in dst:
                for (i, j), v in self.b(m).items():
                    entries[(dst[k] + i, src[k] + j)] = v
            if k >= 1:
                for (i, j), v in self.B(m).items():
                    entries[(dst[k - 1] + i, src[k] + j)] = v
        return sparse_rank(entries, self.tot_rank(n - 1), self.tot_rank(n), self.p)

    def hc_dim(self, n: int) -> int:
        if n < 0:
            return 0
        return self.tot_rank(n) - self._tot_boundary_rank(n) - self._tot_boundary_rank(n + 1)


# ---------------------------------------------------------------------------
# checks on one report table


def _dims(table: dict) -> dict[int, int | None]:
    return {
        int(d): (None if g is None else g["free_rank"]) for d, g in table["degrees"].items()
    }


def check_closed(table: dict, quotient_dim: int) -> list[str]:
    """Stabilized values of a separable algebra: dim A/[A,A] even, 0 odd.

    HC^-poly has this form only in degrees <= 0.  An unstabilized degree
    is not a wrong value, so it passes here; `check_settle` demands values.
    """
    problems = []
    for d, v in sorted(_dims(table).items()):
        if table["theory"] == "HC-poly" and d > 0:
            continue
        want = quotient_dim if d % 2 == 0 else 0
        if v is not None and v != want:
            problems.append(f"{table['theory']} degree {d}: {v}, closed form {want}")
    return problems


def check_settle(table: dict) -> list[str]:
    return [
        f"{table['theory']} degree {d} did not stabilize"
        for d, v in sorted(_dims(table).items())
        if v is None
    ]


def check_hc_form(table: dict, even: int) -> list[str]:
    problems = []
    for d, v in sorted(_dims(table).items()):
        want = even if d % 2 == 0 else 0
        if v != want:
            problems.append(f"HC degree {d}: {v}, closed form {want}")
    return problems


def check_connes(table: dict, hh: dict[int, int], s_rank, top: int) -> list[str]:
    """dim HH_n = (dim HC_n - rank S_n) + (dim HC_{n-1} - rank S_{n+1}).

    s_rank(n) is the rank of S : HC_n -> HC_{n-2}, zero for n < 2.
    """
    hc = _dims(table)

    def s(m):
        return s_rank(m) if m >= 2 else 0

    problems = []
    for n in range(top + 1):
        if n + 1 not in hc:
            problems.append(f"HC table stops before degree {n + 1}")
            break
        rhs = (hc[n] - s(n)) + (hc[n - 1] - s(n + 1) if n >= 1 else 0)
        if hh[n] != rhs:
            problems.append(f"Connes sequence at n = {n}: HH {hh[n]}, from HC and S {rhs}")
    return problems


class StageGroups:
    """Stage groups of one tower, recomputed with sympy ranks.

    HP^poly and HC^-poly stages are the rows q <= Q of the plane or of its
    left half, materialized by `row_truncated_total`.  S-tower stages are
    HC_n, read off the normalized mixed complex built here.
    """

    def __init__(self, theory: str, X, mixed: NormalizedMixed):
        self.theory, self.X, self.mixed = theory, X, mixed
        self.region = "left" if theory == "HC-poly" else "plane"
        self._memo: dict[tuple[int, int], int] = {}

    def size(self, at: int, d: int) -> int:
        """Cells in the largest degree that `group` builds."""
        if self.theory == "HP":
            return self.mixed.tot_rank(at + 1)
        lo = max(0, d + 1) if self.region == "left" else 0
        return sum(self.mixed.dim ** (q + 1) for q in range(lo, at + 1))

    def group(self, at: int, d: int) -> int:
        if self.theory == "HP":
            return self.mixed.hc_dim(at)
        if (at, d) not in self._memo:
            from cychom.bicomplex import row_truncated_total

            C = row_truncated_total(self.X, at, (d - 1, d + 1), self.region)
            p = self.mixed.p
            r = [sparse_rank(M.entries, M.nrows, M.ncols, p) for M in (C.diff(d), C.diff(d + 1))]
            self._memo[(at, d)] = C.rank(d) - sum(r)
        return self._memo[(at, d)]


def check_stages(table: dict, stages: StageGroups) -> list[str]:
    """The shallowest stages of every tower equal independently computed groups.

    Stages above STAGE_CELL_LIMIT cells are skipped, but every degree must
    have at least one stage checked.
    """
    problems = []
    for d, rep in sorted(table.get("verdicts", {}).items(), key=lambda kv: int(kv[0])):
        checked = 0
        for stage in rep["stages"]:
            at, got = stage["at"], stage["group"]["free_rank"]
            if stages.size(at, int(d)) > STAGE_CELL_LIMIT:
                continue
            want = stages.group(at, int(d))
            checked += 1
            if got != want:
                problems.append(
                    f"{table['theory']} degree {d}, stage {at}: {got}, recomputed {want}"
                )
        if not checked:
            problems.append(f"{table['theory']} degree {d}: no stage small enough to check")
    return problems


def check_gate(doc: dict, expected: int) -> list[str]:
    problems = [f"criterion {c['name']} failed" for c in doc["checks"] if not c["ok"]]
    if len(doc["checks"]) != expected:
        problems.append(f"{len(doc['checks'])} criteria ran, {expected} expected")
    return problems
