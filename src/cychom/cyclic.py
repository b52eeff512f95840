"""Cyclic bar modules: tensor powers of an algebra with faces, degeneracies
and the signed cyclic operator, plus the complexes built from them.

Conventions, fixed once for the whole package:
  X_n = A^{(n+1)}, so the cyclic group acting on X_n has order n+1.
  tau_n rotates the last tensor slot to the front; t_n = (-1)^n tau_n.
  d_i multiplies slots i, i+1 for i < n; d_n multiplies the last slot onto
  the front: d_n(a_0 ... a_n) = (a_n a_0) a_1 ... a_{n-1}.
  s_j inserts the unit after slot j, 0 <= j <= n.
  N_n = sum of t_n^i over i = 0..n.
  b = sum (-1)^i d_i (all faces); b' drops the last face.

One numpy engine, `SummandOps`, applies every operator: from A's integer
structure table, to flat int64 arrays of nonzero summands (source tuple,
output code, coefficient), and one sort, `_sum_by`, sums the summands
that meet in one entry.  `CyclicModule` and `NormalizedBarModule` run
the engine on every basis tuple of a degree at once and read the sums
as Coo arrays; `CyclicModule` memoizes each operator once, as a Coo,
and builds an ExactMatrix from it on request.  The orbit walk of
`orbits` runs `SummandOps.face` and `_sum_by` on the codes of one batch
of orbits at a time.  The identity sweep never builds the matrices: it
runs programs of the same operators on blocks of source rows, sums
lhs - rhs per row and output tuple, and judges the sums exactly and mod
several primes.  A block holds as many rows as its identities expand
into `_SWEEP_BLOCK` summands: the identities that start with a face
share blocks and their faces, every other identity sweeps the rows with
those of its own width.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .matrix import ExactMatrix
from .rings import BaseRing


# ---------------------------------------------------------------------------
# operator assembly on int64 codes

_INT64 = 2**63


@dataclass(frozen=True)
class Coo:
    """An operator's nonzero entries vals / den at (rows, cols), by column, then row.

    vals are int64, reduced mod p over F_p; den is 1 except over Q, where
    it undoes the scaling of fractional structure constants.
    """

    base: BaseRing
    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    den: int = 1

    def matrix(self) -> ExactMatrix:
        values = self.vals.tolist()
        if self.base.kind == "Q":
            values = [self.base.coerce(v) / self.den for v in values]
        keys = zip(self.rows.tolist(), self.cols.tolist())
        return ExactMatrix(
            self.base, self.nrows, self.ncols, dict(zip(keys, values)), _normalized=True
        )


def _sum_by(p: int, vals: np.ndarray, *keys: np.ndarray):
    """Sum vals mod p (exactly if p = 0) over equal key tuples and drop zero sums;
    keys come back sorted.  Each step's result replaces the arrays it was
    computed from, so those, and inputs that only this call holds, are
    freed as it goes."""
    if not len(vals):
        return keys, vals
    order = np.lexsort(keys[::-1])
    vals = vals[order]
    keys = [k[order] for k in keys]
    edge = np.ones(len(vals), dtype=bool)
    edge[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    starts = np.flatnonzero(edge)
    keys = [k[starts] for k in keys]
    vals = np.add.reduceat(vals, starts)
    if p:
        vals %= p
    keep = vals != 0
    return [k[keep] for k in keys], vals[keep]


def _empty(base: BaseRing, ncols: int) -> Coo:
    """The operator from a module of rank ncols to 0."""
    empty = np.zeros(0, dtype=np.int64)
    return Coo(base, 0, ncols, empty, empty, empty)


# ---------------------------------------------------------------------------
# cyclic bar modules

# The operators that are sums of faces, out of X_n: b = sum (-1)^i d_i, b'
# without the last face, -b' as it sits on the odd columns of the plane.
# The rotations t = (-1)^n tau, 1 - t and N = sum t^k, whose t^k =
# (-1)^{nk} tau^k also gives B-bar on the normalized module.  `_METHODS`
# names the SummandOps method that applies each single operator, for `coo`
# and the identity programs alike; d, s and scale take an argument.
_FACE_SIGNS = {
    "b": lambda n: {i: (-1) ** i for i in range(n + 1)},
    "b'": lambda n: {i: (-1) ** i for i in range(n)},
    "-b'": lambda n: {i: -((-1) ** i) for i in range(n)},
}
_ROTATIONS = ("t", "1-t", "N")
_KINDS = ("d", "s", *_FACE_SIGNS, *_ROTATIONS)
_METHODS = {"d": "face", "s": "degeneracy", "t": "cyclic", "1-t": "one_minus_cyclic",
            "N": "norm", "scale": "scaled"}


def _check_operator(kinds, kind: str, n: int, i: int | None) -> None:
    """Raise ValueError unless kind is one of kinds, n >= 0, and i indexes a face or degeneracy.

    Only the face d_i and the degeneracy s_i take an index, in 0..n.
    """
    if kind not in kinds:
        raise ValueError(f"unknown operator {kind!r}; expected one of {', '.join(kinds)}")
    if n < 0:
        raise ValueError(f"no operator out of degree {n} < 0")
    if kind in ("d", "s"):
        if not (isinstance(i, int) and 0 <= i <= n):
            raise ValueError(f"{'face' if kind == 'd' else 'degeneracy'} index {i} outside 0..{n}")
    elif i is not None:
        raise ValueError(f"{kind} takes no index")


class CyclicModule:
    """The cyclic bar construction of an algebra.

    Basis of X_n: tuples of basis indices, coded big-endian base dim(A)
    (slot 0 is the most significant digit).  `coo` assembles each
    operator once and memoizes it; the matrix methods build an
    ExactMatrix from that Coo on every call.  Callers must not write to
    a Coo's arrays.  The homology routes that never materialize the
    operators start from `algebra`.
    """

    def __init__(self, A: Algebra):
        self.base = A.base
        self.algebra = A
        self._coos: dict[tuple, Coo] = {}

    @cached_property
    def _ops(self) -> SummandOps:
        return SummandOps(self.algebra)

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        return self.algebra.dim ** (n + 1)

    def coo(self, kind: str, n: int, i: int | None = None) -> Coo:
        """The operator `kind` out of X_n, memoized.

        kind is "d" (the face d_i), "s" (the degeneracy s_i), or one of
        the sums b, b', -b', t, 1-t and N.
        """
        key = (kind, n, i)
        hit = self._coos.get(key)
        if hit is None:
            _check_operator(_KINDS, kind, n, i)
            ops = self._ops
            ops.refuse_beyond_64_bits(kind, n, n + 2 if kind == "s" else n + 1)
            out = n + 1 if kind == "s" else n if kind in _ROTATIONS else n - 1
            if out < 0:  # the faces are 0 on X_0
                hit = _empty(self.base, self.rank(n))
            else:
                s = ops.apply(kind, ops.identity_state(n), i)
                den = 1 if kind in _ROTATIONS else ops.scale
                (cols, rows), vals = _sum_by(self.base.characteristic, s.coeff, s.src, s.code)
                hit = Coo(self.base, self.rank(out), self.rank(n), rows, cols, vals, den)
            self._coos[key] = hit
        return hit

    def face(self, n: int, i: int) -> ExactMatrix:
        if n < 1:
            raise ValueError("faces start at degree 1")
        return self.coo("d", n, i).matrix()

    def degeneracy(self, n: int, j: int) -> ExactMatrix:
        return self.coo("s", n, j).matrix()

    def cyclic(self, n: int) -> ExactMatrix:
        """The signed operator t_n = (-1)^n tau_n."""
        return self.coo("t", n).matrix()

    def norm(self, n: int) -> ExactMatrix:
        """N_n = sum_{i=0}^{n} t_n^i, where t_n^i = (-1)^{ni} tau_n^i."""
        return self.coo("N", n).matrix()

    def hochschild_boundary(self, n: int) -> ExactMatrix:
        """b = sum (-1)^i d_i : X_n -> X_{n-1}."""
        return self.coo("b", n).matrix()

    def bar_boundary(self, n: int) -> ExactMatrix:
        """b' = sum_{i<n} (-1)^i d_i : X_n -> X_{n-1}."""
        return self.coo("b'", n).matrix()

    def extra_degeneracy(self, n: int) -> ExactMatrix:
        """s_{-1} = tau_{n+1} s_n : X_n -> X_{n+1}, inserts the unit in front.

        Contracts the bar complex: b' s_{-1} + s_{-1} b' = id.
        """
        tau = self.cyclic(n + 1).scale(
            self.base.coerce(1 if (n + 1) % 2 == 0 else -1)
        )
        return tau.mul(self.degeneracy(n, n))

    def connes_B(self, n: int) -> ExactMatrix:
        """B = (1 - t_{n+1}) s_{-1} N_n : X_n -> X_{n+1}."""
        sN = self.extra_degeneracy(n).mul(self.norm(n))
        t1 = self.cyclic(n + 1)
        return sN.sub(t1.mul(sN))


def cyclic_bar_module(A: Algebra) -> CyclicModule:
    """The cyclic bar construction of A."""
    return CyclicModule(A)


# ---------------------------------------------------------------------------
# normalized bar modules

# Only b and B descend to the quotient by degenerate elements; t, N and the
# individual faces do not (tau s_{n-1} escapes the degenerate subspace), so
# the normalized object is a mixed complex, not a cyclic module.


def _raw_codes(d: int, n: int, index: np.ndarray) -> np.ndarray:
    """The codes in X_n of the normalized basis tuples numbered index."""
    code = np.zeros(len(index), dtype=np.int64)
    weight = 1
    for _ in range(n):
        index, digit = np.divmod(index, d - 1)
        code += (digit + 1) * weight
        weight *= d
    return code + index * weight


def _normalized_index(d: int, slots: int, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized numbers of codes of `slots` slots, and the mask of non-degenerate ones."""
    index = np.zeros(len(code), dtype=np.int64)
    keep = np.ones(len(code), dtype=bool)
    weight = 1
    for _ in range(slots - 1):
        code, digit = np.divmod(code, d)
        keep &= digit != 0
        index += (digit - 1) * weight
        weight *= d - 1
    return index + code * weight, keep


class NormalizedBarModule:
    """Quotient of the bar module by degeneracy images.

    Needs the algebra's unit to be basis vector 0; then the degenerate
    subspace in degree n is spanned by the basis tuples carrying index 0
    in some slot >= 1, and the quotient has the complementary tuples as a
    basis: rank dim(A) * (dim(A)-1)^n, numbered in the mixed radix with
    slot 0 in 0..d-1 and slots >= 1 in 1..d-1.  Operators are assembled
    on every call, on the codes in X_n of the non-degenerate tuples only:
    the intermediate raw rank d^(n+1) of a product through the bar module
    would dwarf the quotient ranks.
    """

    def __init__(self, A: Algebra):
        if not A.unit_is_basis_zero:
            A = A.with_unit_first()
        if A.dim < 1:
            raise ValueError("algebra must have positive dimension")
        self.algebra = A
        self.base = A.base

    @cached_property
    def _ops(self) -> SummandOps:
        return SummandOps(self.algebra)

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        return self.algebra.dim * (self.algebra.dim - 1) ** n

    def coo(self, kind: str, n: int) -> Coo:
        """b-bar ("b") : X-bar_n -> X-bar_{n-1}, or B-bar ("B") : X-bar_n -> X-bar_{n+1}.

        On the quotient the t-part of B's (1 - t) factor dies (it lands on
        degenerate tuples), leaving B-bar = s_{-1} N: the signed rotations
        t^k = (-1)^{nk} tau^k of a with the unit stuck in front, less those
        that land on degenerate tuples.  The unit in front is a leading 0
        digit, so it keeps the code and adds a slot.
        """
        _check_operator(("b", "B"), kind, n, None)
        ops, d = self._ops, self.algebra.dim
        op, out = ("b", n - 1) if kind == "b" else ("N", n + 1)
        ops.refuse_beyond_64_bits(op, n, max(n, out) + 1)
        if out < 0:  # b-bar is 0 on X-bar_0
            return _empty(self.base, self.rank(n))
        src = np.arange(self.rank(n), dtype=np.int64)
        x = _Summands(n + 1, src, _raw_codes(d, n, src), np.ones(len(src), dtype=np.int64))
        s = ops.apply(op, x)
        rows, keep = _normalized_index(d, out + 1, s.code)
        den = ops.scale if kind == "b" else 1
        (cols, rows), vals = _sum_by(self.base.characteristic, s.coeff[keep], s.src[keep],
                                     rows[keep])
        return Coo(self.base, self.rank(out), self.rank(n), rows, cols, vals, den)

    def inclusion(self, n: int) -> ExactMatrix:
        """Section X-bar_n -> X_n picking the non-degenerate basis tuples."""
        d = self.algebra.dim
        self._ops.refuse_beyond_64_bits("t", n, n + 1)  # one summand per tuple, like t
        cols = np.arange(self.rank(n), dtype=np.int64)
        rows = _raw_codes(d, n, cols)
        return Coo(self.base, d ** (n + 1), len(cols), rows, cols, np.ones_like(cols)).matrix()

    def projection(self, n: int) -> ExactMatrix:
        """Quotient map X_n -> X-bar_n killing degenerate basis tuples."""
        d = self.algebra.dim
        self._ops.refuse_beyond_64_bits("t", n, n + 1)
        rows, keep = _normalized_index(d, n + 1, np.arange(d ** (n + 1), dtype=np.int64))
        cols = np.flatnonzero(keep)
        return Coo(self.base, self.rank(n), d ** (n + 1), rows[keep], cols,
                   np.ones_like(cols)).matrix()

    def boundary(self, n: int) -> ExactMatrix:
        """Induced Hochschild differential b-bar : X-bar_n -> X-bar_{n-1}."""
        return self.coo("b", n).matrix()

    def connes(self, n: int) -> ExactMatrix:
        """Induced Connes operator B-bar : X-bar_n -> X-bar_{n+1}."""
        return self.coo("B", n).matrix()


def normalized(A: Algebra) -> NormalizedBarModule:
    return NormalizedBarModule(A)


# ---------------------------------------------------------------------------
# the operator engine on int64 summands


class _Summands:
    """Images of a block of basis tuples, as flat arrays of nonzero summands.

    Summand k is coeff[k] times the basis tuple coded code[k] (big-endian
    base d, `slots` slots), in the image of the source basis tuple
    numbered src[k].
    """

    __slots__ = ("slots", "src", "code", "coeff")

    def __init__(self, slots: int, src: np.ndarray, code: np.ndarray, coeff: np.ndarray):
        self.slots = slots
        self.src = src
        self.code = code
        self.coeff = coeff


def _join(slots: int, parts: list[_Summands]) -> _Summands:
    if len(parts) == 1:
        return parts[0]
    columns = zip(*((s.src, s.code, s.coeff) for s in parts))
    return _Summands(slots, *(np.concatenate(c) for c in columns))


def _shifted(digit: np.ndarray, p: int, head: np.ndarray) -> np.ndarray:
    """digit * p + head, computed in digit's own array."""
    digit *= p
    digit += head
    return digit


class SummandOps:
    """Faces, degeneracies, t, N and 1 - t of A's bar modules, on int64 summands.

    Over Q the structure constants and the unit are scaled by the lcm of
    their denominators, so that everything runs on integers; a Coo of
    faces or degeneracies divides the scale back out.  Coefficients are
    exact integers: over F_p they are reduced only when an entry or a
    residual is summed, which gives the same result because reduction mod
    p is a ring map.  A face expands each summand into every nonzero term
    of its product; the other operators are arithmetic on the codes.
    """

    def __init__(self, A: Algebra):
        d = self.d = A.dim
        consts = [c for row in A.structure for terms in row for _, c in terms]
        consts += list(A.unit)
        scale = 1  # the lcm of the denominators; ints have denominator 1
        for c in consts:
            scale *= (c * scale).denominator
        self.scale = scale
        self.bound = max([1, A.base.characteristic] + [abs(int(c * scale)) for c in consts])
        if self.bound >= _INT64:
            raise ValueError("structure constants or p do not fit in 64-bit integers")
        T = max(1, max(len(t) for row in A.structure for t in row))
        K = np.zeros((d * d, T), dtype=np.int64)
        C = np.zeros((d * d, T), dtype=np.int64)
        for x in range(d):
            for y in range(d):
                for t, (k, c) in enumerate(A.structure[x][y]):
                    K[x * d + y, t], C[x * d + y, t] = k, int(c * scale)
        # the t-th term of every basis product, indexed by the pair code x*d + y
        self.terms = [(K[:, t].copy(), C[:, t].copy()) for t in range(T)]
        # the pairs whose product has a term after the first
        self.later = (C[:, 1:] != 0).any(axis=1)
        self.unit = [(u, int(c * scale)) for u, c in enumerate(A.unit) if c != 0]

    def refuse_beyond_64_bits(self, kind: str, n: int, slots: int) -> None:
        """Raise ValueError, before anything is allocated, if operator `kind`
        out of X_n would overflow int64.

        Its summands carry codes of `slots` slots, and at most `width` of
        them, each coefficient up to `bound`, meet in one entry: a face
        sends a tuple to one summand per term of a product, a degeneracy
        or a rotation to one.
        """
        if kind == "s":
            width = 1
        elif kind in _ROTATIONS:
            width = {"t": 1, "1-t": 2, "N": n + 1}[kind]
        else:
            width = len(self.terms) * (1 if kind == "d" else len(_FACE_SIGNS[kind](n)))
        if self.d**slots >= _INT64 or width * self.bound >= _INT64:
            raise ValueError(
                f"the operator {kind} out of degree {n} needs codes or coefficients"
                " beyond 64-bit integers"
            )

    def apply(self, kind: str, s: _Summands, i: int | None = None) -> _Summands:
        """The operator `kind` of `CyclicModule.coo` applied to s."""
        if kind in _FACE_SIGNS:
            signs = _FACE_SIGNS[kind](s.slots - 1)
            return _join(s.slots - 1, [self.scaled(self.face(s, k), c) for k, c in signs.items()])
        return _run_program(self, s, [(kind, i)])

    def identity_state(self, n: int, start: int = 0, stop: int | None = None) -> _Summands:
        """The basis tuples of X_n coded start..stop-1, each its own image."""
        src = np.arange(start, self.d ** (n + 1) if stop is None else stop, dtype=np.int64)
        return _Summands(n + 1, src, src, np.ones(len(src), dtype=np.int64))

    def face(self, s: _Summands, i: int) -> _Summands:
        n, d, code = s.slots - 1, self.d, s.code
        if n < 1:
            raise ValueError("faces start at degree 1")
        if not (0 <= i <= n):
            raise ValueError(f"face index {i} outside 0..{n}")
        # pair and head in place: numpy temporaries, not arithmetic, bound this
        if i < n:
            p = d ** (n - 1 - i)  # weight of slot i+1; the product lands in slot i
            q = code // p
            high = q // (d * d)
            pair = high * (d * d)
            np.subtract(q, pair, out=pair)
            q *= p
            head = np.subtract(code, q, out=q)
            high *= p * d
            head += high  # high (p d) + code - q p
        else:
            p = d ** (n - 1)  # the product of the last and first slots lands in front
            q = code // d
            first = q // p
            pair = q * d
            np.subtract(code, pair, out=pair)
            pair *= d
            pair += first  # (code - q d) d + first
            first *= p
            head = q
            head -= first
        K, C = self.terms[0]
        c = C[pair]
        hits = np.count_nonzero(c)
        parts = []
        if hits == len(c):
            c *= s.coeff
            parts.append(_Summands(n, s.src, _shifted(K[pair], p, head), c))
        elif hits:
            rows = np.flatnonzero(c)  # integer indices gather several times faster than a mask
            k = pair[rows]
            c = c[rows]
            c *= s.coeff[rows]
            parts.append(_Summands(n, s.src[rows], _shifted(K[k], p, head[rows]), c))
        if len(self.terms) > 1:
            more = np.flatnonzero(self.later[pair])  # only these meet a later term
            for K, C in self.terms[1:]:
                c = C[pair[more]]
                hit = np.flatnonzero(c)
                rows = more[hit]
                if len(rows):
                    c = c[hit]
                    c *= s.coeff[rows]
                    out = _shifted(K[pair[rows]], p, head[rows])
                    parts.append(_Summands(n, s.src[rows], out, c))
        if not parts:  # every product met here is 0
            return _Summands(n, s.src[:0], s.code[:0], s.coeff[:0])
        return _join(n, parts)

    def degeneracy(self, s: _Summands, j: int) -> _Summands:
        if not (0 <= j < s.slots):
            raise ValueError(f"degeneracy index {j} outside 0..{s.slots - 1}")
        p = self.d ** (s.slots - 1 - j)  # weight of the slots after j
        head = s.code + (s.code // p) * (p * (self.d - 1))  # slot j+1 opened, holding 0
        parts = [_Summands(s.slots + 1, s.src, head + u * p, s.coeff * c) for u, c in self.unit]
        return _join(s.slots + 1, parts)

    def cyclic(self, s: _Summands) -> _Summands:
        rest = s.code // self.d
        code = (s.code - rest * self.d) * self.d ** (s.slots - 1) + rest
        return _Summands(s.slots, s.src, code, s.coeff if s.slots % 2 else -s.coeff)

    def norm(self, s: _Summands) -> _Summands:
        parts = [s]
        for _ in range(s.slots - 1):
            parts.append(self.cyclic(parts[-1]))
        return _join(s.slots, parts)

    def one_minus_cyclic(self, s: _Summands) -> _Summands:
        t = self.cyclic(s)
        return _join(s.slots, [s, _Summands(s.slots, t.src, t.code, -t.coeff)])

    def scaled(self, s: _Summands, c: int) -> _Summands:
        return _Summands(s.slots, s.src, s.code, s.coeff * c)


# ---------------------------------------------------------------------------
# identity sweep on int64 summands

# summands per block of the sweep, its one memory budget: a block takes as
# many source rows (at least one) as the widest of its identities expands
# into this many summands.  The first-op states that a block keeps for its
# later identities come on top.
_SWEEP_BLOCK = 1 << 16


def _residual(lhs: _Summands, rhs: _Summands | None, d: int, start: int) -> np.ndarray:
    """The nonzero coefficient sums of lhs - rhs per (source row, output tuple).

    lhs = rhs exactly iff there are none, and mod p iff each is divisible
    by p; they are not computed when the sides agree summand for summand.
    Both sides land in the same degree, so one int64 key,
    (src - start) * d^slots + code, names a row's output tuple.
    """
    if rhs is not None and all(np.array_equal(a, b) for a, b in (
            (lhs.code, rhs.code), (lhs.src, rhs.src), (lhs.coeff, rhs.coeff))):
        return lhs.coeff[:0]
    sides = [lhs] if rhs is None else [lhs, rhs]
    key = np.concatenate([s.src for s in sides]) - start
    key *= d**lhs.slots
    key += np.concatenate([s.code for s in sides])
    coeff = lhs.coeff if rhs is None else np.concatenate([lhs.coeff, -rhs.coeff])
    return _sum_by(0, coeff, key)[1]


# Identity programs.  A program is a list of op codes applied left to right
# (so [("s", j), ("d", i)] is the composite d_i s_j); the summand engine and
# the tests' reference engines interpret the same list.


def identity_programs(n: int):
    """Yield (name, lhs_program, rhs_program) at degree n; rhs None means 0."""
    ident: list = []
    if n >= 2:
        for j in range(1, n + 1):
            for i in range(j):
                yield (f"d_{i} d_{j} = d_{j-1} d_{i} @ n={n}", [("d", j), ("d", i)], [("d", i), ("d", j - 1)])
    for j in range(n + 1):
        for i in range(j + 1):
            yield (f"s_{i} s_{j} = s_{j+1} s_{i} @ n={n}", [("s", j), ("s", i)], [("s", i), ("s", j + 1)])
    for j in range(n + 1):
        for i in range(n + 2):
            lhs = [("s", j), ("d", i)]
            if i < j:
                yield (f"d_{i} s_{j} = s_{j-1} d_{i} @ n={n}", lhs, [("d", i), ("s", j - 1)])
            elif i in (j, j + 1):
                yield (f"d_{i} s_{j} = id @ n={n}", lhs, ident)
            else:
                yield (f"d_{i} s_{j} = s_{j} d_{i-1} @ n={n}", lhs, [("d", i - 1), ("s", j)])
    yield (f"t^{n + 1} = id @ n={n}", [("t", None)] * (n + 1), ident)
    if n >= 1:
        for i in range(1, n + 1):
            yield (
                f"d_{i} t = -t d_{i-1} @ n={n}",
                [("t", None), ("d", i)],
                [("d", i - 1), ("t", None), ("scale", -1)],
            )
        yield (
            f"d_0 t = (-1)^n d_n @ n={n}",
            [("t", None), ("d", 0)],
            [("d", n), ("scale", 1 if n % 2 == 0 else -1)],
        )
        for j in range(1, n + 1):
            yield (
                f"s_{j} t = -t s_{j-1} @ n={n}",
                [("t", None), ("s", j)],
                [("s", j - 1), ("t", None), ("scale", -1)],
            )
        yield (
            f"s_0 t = (-1)^n t^2 s_n @ n={n}",
            [("t", None), ("s", 0)],
            [("s", n), ("t", None), ("t", None), ("scale", 1 if n % 2 == 0 else -1)],
        )
    yield (f"N(1-t) = 0 @ n={n}", [("1-t", None), ("N", None)], None)
    yield (f"(1-t)N = 0 @ n={n}", [("N", None), ("1-t", None)], None)


def _run_program(engine, state, program):
    for op, arg in program:
        method = getattr(engine, _METHODS[op])
        state = method(state) if arg is None else method(state, arg)
    return state


def _run_cached(engine, state, program, first):
    if program:
        key = program[0]
        hit = first.get(key)
        if hit is None:
            hit = first[key] = _run_program(engine, state, program[:1])
        state = hit
        program = program[1:]
    return _run_program(engine, state, program)


def _sweep_plan(ops: SummandOps, n: int) -> tuple[list, list]:
    """Degree n's identities and their blocks.

    A face multiplies the summands per source row by at most the terms of
    a product, a degeneracy by the unit's terms, N by n+1 and 1 - t by 2;
    a coefficient grows by at most `bound` per face or degeneracy.  The
    blocks are pairs (identity numbers, rows per block).  The identities
    with a face as the first op of either side share a block, and so the
    faces, which cost ten times a degeneracy or a rotation; each other
    identity shares one with those of its own width.  Raises ValueError,
    before anything is allocated, when a code, or the sum of a key's
    coefficients, would not fit in 64 bits.
    """
    T, U = len(ops.terms), len(ops.unit)
    programs = list(identity_programs(n))
    widths, total, slots = [], 1, n + 1
    for _, lhs, rhs in programs:
        summands = coefficients = 0
        for program in (lhs, rhs):
            if program is None:
                continue
            w, depth, k = 1, 0, n + 1
            for op, _ in program:
                if op == "d":
                    w, depth, k = w * T, depth + 1, k - 1
                elif op == "s":
                    w, depth, k = w * U, depth + 1, k + 1
                elif op in ("N", "1-t"):
                    w *= n + 1 if op == "N" else 2
                slots = max(slots, k)
            summands += w
            coefficients += w * ops.bound**depth
        widths.append(summands)
        total = max(total, coefficients)
    key = ops.d**slots
    if key >= _INT64 or total >= _INT64:
        raise ValueError(
            f"the identities at degree {n} need codes or coefficients beyond 64-bit integers"
        )
    blocks: dict[int | None, list[int]] = {}  # None: the block of the faces
    for k, (_, lhs, rhs) in enumerate(programs):
        face = any(side and side[0][0] == "d" for side in (lhs, rhs))
        blocks.setdefault(None if face else widths[k], []).append(k)
    return programs, [
        (members, max(1, min(_SWEEP_BLOCK // max(widths[k] for k in members),
                             (_INT64 - 1) // key)))
        for members in blocks.values()
    ]


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

    Each of `_sweep_plan`'s blocks sweeps every source row of its degree,
    and within a block an identity's first operator is applied once for
    every identity that starts with it.
    """
    ops = SummandOps(A)
    if ops.scale != 1:
        raise ValueError("the identity sweep needs integer structure constants")
    plans = [_sweep_plan(ops, n) for n in range(n_max + 1)]
    bad: dict[int | None, list[str]] = {m: [] for m in moduli}
    for n, (programs, blocks) in enumerate(plans):
        failing: list[set] = [set() for _ in programs]
        rows = ops.d ** (n + 1)
        for members, step in blocks:
            for start in range(0, rows, step):
                x = ops.identity_state(n, start, min(rows, start + step))
                first: dict[tuple, _Summands] = {}
                for k in members:
                    if len(failing[k]) == len(bad):
                        continue  # fails for every modulus already
                    _, lhs_prog, rhs_prog = programs[k]
                    lhs = _run_cached(ops, x, lhs_prog, first)
                    rhs = _run_cached(ops, x, rhs_prog, first) if rhs_prog is not None else None
                    residual = _residual(lhs, rhs, ops.d, start)
                    if len(residual):
                        failing[k].update(m for m in bad if not m or (residual % m).any())
        for fails, (name, _, _) in zip(failing, programs):
            for m in bad:
                if m in fails:
                    bad[m].append(f"{name} fails")
    return bad


def cyclic_identity_report(A: Algebra, n_max: int) -> list[str]:
    """Sweep the simplicial and signed cyclic identities up to degree n_max.

    Judged over A's own base: mod p over F_p, exactly over Q or Z.  Returns
    failure descriptions; empty means every identity held.
    """
    modulus = A.base.p if A.base.kind == "Fp" else None
    return cyclic_identity_multibase_report(A, (modulus,), n_max)[modulus]
