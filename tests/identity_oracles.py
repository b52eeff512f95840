"""The two identity-sweep engines that `cychom.cyclic` replaced: the test oracles.

`TupleOps` acts on whole arrays of basis tuples, one digit column per
slot, and reduces coefficients mod p as it goes; `cyclic_identity_report`
sweeps one base with it.  `FastOps` acts on int32 digit codes, one array
per summand position, over an integral table with at most two terms per
product; `cyclic_identity_multibase_report` judges its residuals mod
several primes at once.  The tests compare the summand engine of
`cychom.cyclic` against both, failure list for failure list.  Not
collected by pytest; the tests import it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from cychom.algebra import Algebra
from cychom.cyclic import _run_cached, _run_program, identity_programs
from cychom.rings import Scalar


# ---------------------------------------------------------------------------
# vectorized operator engine

# Operators as maps on arrays of basis tuples.  A state is (src, tup, coeff):
# src tags which basis vector of the domain each row came from, tup is the
# current tuple of basis indices, coeff the integer coefficient.  Applying
# an operator may split rows (structure constants with several terms).
# Integer arithmetic throughout; over F_p coefficients are compared mod p.


class TupleState:
    __slots__ = ("src", "tup", "coeff")

    def __init__(self, src: np.ndarray, tup: np.ndarray, coeff: np.ndarray):
        self.src = src
        self.tup = tup
        self.coeff = coeff

    @property
    def slots(self) -> int:
        return self.tup.shape[1]


class TupleOps:
    """The bar module's operators acting on whole basis enumerations."""

    def __init__(self, A: Algebra):
        self.A = A
        self.d = A.dim
        C = np.zeros((self.d, self.d, self.d), dtype=np.int64)
        for i in range(self.d):
            for j in range(self.d):
                for k, c in A.structure[i][j]:
                    C[i, j, k] = _as_int(c)
        self.C = C
        self.unit = np.array([_as_int(u) for u in A.unit], dtype=np.int64)
        self.p = A.base.p if A.base.kind == "Fp" else None

    def identity_state(self, n: int) -> TupleState:
        size = self.d ** (n + 1)
        src = np.arange(size, dtype=np.int64)
        tup = np.zeros((size, n + 1), dtype=np.int64)
        code = src.copy()
        for slot in range(n, -1, -1):
            tup[:, slot] = code % self.d
            code //= self.d
        return TupleState(src, tup, np.ones(size, dtype=np.int64))

    def face(self, s: TupleState, i: int) -> TupleState:
        n = s.slots - 1
        if n < 1:
            raise ValueError("faces start at degree 1")
        if not (0 <= i <= n):
            raise ValueError(f"face index {i} outside 0..{n}")
        if i < n:
            prods = self.C[s.tup[:, i], s.tup[:, i + 1]]  # (M, d)
            keep = np.delete(s.tup, i + 1, axis=1)
            slot = i
        else:
            prods = self.C[s.tup[:, n], s.tup[:, 0]]
            keep = s.tup[:, :n].copy()
            slot = 0
        rows, ks = np.nonzero(prods)
        tup = keep[rows]
        tup[:, slot] = ks
        return TupleState(
            s.src[rows], tup, self._reduce(s.coeff[rows] * prods[rows, ks])
        )

    def degeneracy(self, s: TupleState, j: int) -> TupleState:
        n = s.slots - 1
        if not (0 <= j <= n):
            raise ValueError(f"degeneracy index {j} outside 0..{n}")
        (us,) = np.nonzero(self.unit)
        parts = []
        for u in us:
            tup = np.insert(s.tup, j + 1, u, axis=1)
            parts.append(
                TupleState(s.src, tup, self._reduce(s.coeff * self.unit[u]))
            )
        return _concat(parts)

    def cyclic(self, s: TupleState) -> TupleState:
        n = s.slots - 1
        tup = np.roll(s.tup, 1, axis=1)
        coeff = s.coeff if n % 2 == 0 else -s.coeff
        return TupleState(s.src, tup, coeff)

    def norm(self, s: TupleState) -> TupleState:
        parts = [s]
        cur = s
        for _ in range(s.slots - 1):
            cur = self.cyclic(cur)
            parts.append(cur)
        return _concat(parts)

    def one_minus_cyclic(self, s: TupleState) -> TupleState:
        t = self.cyclic(s)
        return _concat([s, TupleState(t.src, t.tup, -t.coeff)])

    def scaled(self, s: TupleState, c: int) -> TupleState:
        return TupleState(s.src, s.tup, self._reduce(s.coeff * c))

    def _reduce(self, coeff: np.ndarray) -> np.ndarray:
        return coeff % self.p if self.p is not None else coeff

    def canonical(self, s: TupleState) -> tuple[np.ndarray, np.ndarray]:
        """Collapse duplicates, drop zeros; key = src composed with tuple.

        Key fits int64: src < d^{n+1} and the tuple code < d^{n+2}, so the
        combined key stays under d^{2n+3} <= 4^21 for the sizes swept here.
        """
        key = s.src.copy()
        for slot in range(s.slots):
            key = key * self.d + s.tup[:, slot]
        order = np.argsort(key, kind="stable")
        key = key[order]
        coeff = s.coeff[order]
        if len(key):
            boundaries = np.empty(len(key), dtype=bool)
            boundaries[0] = True
            boundaries[1:] = key[1:] != key[:-1]
            (starts,) = np.nonzero(boundaries)
            sums = np.add.reduceat(coeff, starts)
            sums = self._reduce(sums)
            keys = key[starts]
            keep = sums != 0
            return keys[keep], sums[keep]
        return key, coeff

    def equal(self, a: TupleState, b: TupleState) -> bool:
        if a.slots != b.slots:
            return False
        ka, ca = self.canonical(a)
        kb, cb = self.canonical(b)
        return len(ka) == len(kb) and bool(np.all(ka == kb)) and bool(np.all(ca == cb))

    def is_zero(self, s: TupleState) -> bool:
        k, _ = self.canonical(s)
        return len(k) == 0


def _concat(parts: list[TupleState]) -> TupleState:
    return TupleState(
        np.concatenate([p.src for p in parts]),
        np.concatenate([p.tup for p in parts]),
        np.concatenate([p.coeff for p in parts]),
    )


def _as_int(c: Scalar) -> int:
    v = int(c)
    if v != c:
        raise ValueError("vectorized engine needs integer structure constants")
    return v


def cyclic_identity_report(A: Algebra, n_max: int) -> list[str]:
    """Sweep the simplicial and signed cyclic identities up to degree n_max.

    Returns failure descriptions; empty means every identity held exactly.
    """
    ops = TupleOps(A)
    bad: list[str] = []
    for n in range(n_max + 1):
        x = ops.identity_state(n)
        for name, lhs_prog, rhs_prog in identity_programs(n):
            lhs = _run_program(ops, x, lhs_prog)
            if rhs_prog is None:
                ok = ops.is_zero(lhs)
            else:
                ok = ops.equal(lhs, _run_program(ops, x, rhs_prog))
            if not ok:
                bad.append(f"{name} fails")
    return bad


# ---------------------------------------------------------------------------
# fast multibase sweep

class _CodeBranches:
    """Linear-map image of every basis tuple, packed as digit codes.

    ``parts`` is a list of ``(codes, coeffs)`` pairs of shape ``(d**k,)``
    int32 arrays: row ``r`` of every part is one summand of the image of
    the basis tuple whose code is ``r`` (big-endian base-d digits).  The
    row index staying implicit lets every operator run as flat integer
    arithmetic; the digit count ``slots`` rides along because a code alone
    does not determine it.  Codes stay below d**11 and coefficients below
    a few hundred, so int32 is safe throughout.
    """

    __slots__ = ("slots", "parts")

    def __init__(self, slots, parts):
        self.slots = slots
        self.parts = parts


class FastOps:
    """Integer-table twin of TupleOps built for the full identity sweep.

    Works over an integral structure table, so one sweep settles every
    base at once: reducing table entries mod p is a ring map, hence the
    mod-p residuals of an identity equal the residuals computed over the
    entrywise mod-p algebra.  Requires every basis product to have at most
    two terms, which covers the whole catalog; TupleOps stays as the
    general engine and the two are pinned against each other in tests.
    """

    MAX_TERMS = 2

    def __init__(self, A: Algebra):
        d = A.dim
        K = np.zeros((self.MAX_TERMS, d * d), dtype=np.int32)
        C = np.zeros((self.MAX_TERMS, d * d), dtype=np.int32)
        for i in range(d):
            for j in range(d):
                terms = A.structure[i][j]
                if len(terms) > self.MAX_TERMS:
                    raise ValueError("product has more than two terms; use TupleOps")
                for m, (k, c) in enumerate(terms):
                    K[m, i * d + j] = k
                    C[m, i * d + j] = _as_int(c)
        self.dim = d
        self.K = K
        self.C = C
        self.unit_terms = [(k, _as_int(u)) for k, u in enumerate(A.unit) if _as_int(u) != 0]

    def identity_state(self, n: int) -> _CodeBranches:
        rows = self.dim ** (n + 1)
        codes = np.arange(rows, dtype=np.int32)
        return _CodeBranches(n + 1, [(codes, np.ones(rows, dtype=np.int32))])

    def _zero_part(self, rows):
        z = np.zeros(rows, dtype=np.int32)
        return (z, z.copy())

    def face(self, s: _CodeBranches, i: int) -> _CodeBranches:
        k, d = s.slots, self.dim
        n = k - 1
        if n < 1:
            raise ValueError("faces start at degree 1")
        out = []
        for codes, coeffs in s.parts:
            if i < n:
                p = d ** (k - 2 - i)
                q = codes // p
                y = q % d
                q //= d
                x = q % d
                head = (q // d) * (p * d) + codes % p
            else:
                p = d ** (n - 1)
                x = codes % d
                y = codes // (d ** n)
                head = (codes // d) % p
            pair = x * d + y
            for m in range(self.MAX_TERMS):
                c = coeffs * self.C[m][pair]
                if c.any():
                    out.append((head + self.K[m][pair] * p, c))
        if not out:
            out.append(self._zero_part(s.parts[0][0].shape[0]))
        return _CodeBranches(k - 1, out)

    def degeneracy(self, s: _CodeBranches, j: int) -> _CodeBranches:
        k, d = s.slots, self.dim
        p = d ** (k - 1 - j)
        out = []
        for codes, coeffs in s.parts:
            head = (codes // p) * (p * d) + codes % p
            for uk, uc in self.unit_terms:
                out.append((head + uk * p, coeffs if uc == 1 else coeffs * uc))
        return _CodeBranches(k + 1, out)

    def cyclic(self, s: _CodeBranches) -> _CodeBranches:
        k, d = s.slots, self.dim
        top = d ** (k - 1)
        flip = (k - 1) % 2 == 1
        parts = [
            ((codes % d) * top + codes // d, -coeffs if flip else coeffs)
            for codes, coeffs in s.parts
        ]
        return _CodeBranches(k, parts)

    def norm(self, s: _CodeBranches) -> _CodeBranches:
        parts = list(s.parts)
        rot = s
        for _ in range(s.slots - 1):
            rot = self.cyclic(rot)
            parts.extend(rot.parts)
        return _CodeBranches(s.slots, parts)

    def one_minus_cyclic(self, s: _CodeBranches) -> _CodeBranches:
        rot = self.cyclic(s)
        parts = list(s.parts) + [(codes, -coeffs) for codes, coeffs in rot.parts]
        return _CodeBranches(s.slots, parts)

    def scaled(self, s: _CodeBranches, c: int) -> _CodeBranches:
        return _CodeBranches(s.slots, [(codes, coeffs * c) for codes, coeffs in s.parts])


# optimal compare-exchange schedules for tiny row widths
_SORT_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
}


# summands per block of _residual_coeffs
_RESIDUAL_BLOCK = 1 << 20


def _residual_coeffs(lhs: _CodeBranches, rhs: _CodeBranches | None) -> np.ndarray:
    """Per-segment coefficient sums of lhs - rhs, grouped by output tuple.

    The difference map is zero iff every returned entry is zero, and holds
    mod p iff every entry is divisible by p.  Summands with coefficient 0
    need no special handling: they add nothing to whichever segment their
    code lands in.
    """
    parts = list(lhs.parts)
    if rhs is not None:
        parts += [(codes, -coeffs) for codes, coeffs in rhs.parts]
    w = len(parts)
    if w == 1:
        return parts[0][1]
    rows = parts[0][0].shape[0]
    # rows are independent; blocks of them bound the sort's working memory
    step = max(1, _RESIDUAL_BLOCK // w)
    return np.concatenate([_block_residuals(parts, r, r + step) for r in range(0, rows, step)])


def _block_residuals(parts, start: int, stop: int) -> np.ndarray:
    w = len(parts)
    rows = min(stop, parts[0][0].shape[0]) - start
    codes = np.empty((rows, w), dtype=np.int32)
    coeffs = np.empty((rows, w), dtype=np.int32)
    for idx, (cd, cf) in enumerate(parts):
        codes[:, idx] = cd[start:stop]
        coeffs[:, idx] = cf[start:stop]
    if w in _SORT_NETWORKS:
        for a, b in _SORT_NETWORKS[w]:
            ca, cb = codes[:, a], codes[:, b]
            swap = ca > cb
            ca2 = np.where(swap, cb, ca)
            cb2 = np.where(swap, ca, cb)
            codes[:, a], codes[:, b] = ca2, cb2
            va, vb = coeffs[:, a], coeffs[:, b]
            va2 = np.where(swap, vb, va)
            vb2 = np.where(swap, va, vb)
            coeffs[:, a], coeffs[:, b] = va2, vb2
    else:
        order = np.argsort(codes, axis=1, kind="stable")
        codes = np.take_along_axis(codes, order, axis=1)
        coeffs = np.take_along_axis(coeffs, order, axis=1)
    sums = np.cumsum(coeffs, axis=1)
    ends = np.empty(codes.shape, dtype=bool)
    ends[:, -1] = True
    ends[:, :-1] = codes[:, 1:] != codes[:, :-1]
    # telescoping: segment sums are differences of prefix sums at segment
    # ends, and all of them vanish iff all end prefixes do
    return sums[ends]


def cyclic_identity_multibase_report(
    A: Algebra, moduli: Sequence[int | None], n_max: int
) -> dict[int | None, list[str]]:
    """Sweep the cyclic-module identities over several bases in one pass.

    ``A`` must have integral structure constants (catalog algebras over Q
    or Z do).  Both sides of every identity are integer combinations of the
    table entries, and reducing entries mod p is a ring map, so judging the
    integer residuals mod a prime p reproduces the sweep over the entrywise
    mod-p algebra verbatim, while ``None`` asks for exact vanishing and
    settles Z and Q at once.  Returns, per modulus, the failing identities.
    """
    ops = FastOps(A)
    bad: dict[int | None, list[str]] = {m: [] for m in moduli}
    for n in range(n_max + 1):
        x = ops.identity_state(n)
        first: dict[tuple, _CodeBranches] = {}
        for name, lhs_prog, rhs_prog in identity_programs(n):
            lhs = _run_cached(ops, x, lhs_prog, first)
            rhs = _run_cached(ops, x, rhs_prog, first) if rhs_prog is not None else None
            residual = _residual_coeffs(lhs, rhs)
            for m in moduli:
                ok = not (residual % m).any() if m else not residual.any()
                if not ok:
                    bad[m].append(f"{name} fails")
    return bad
