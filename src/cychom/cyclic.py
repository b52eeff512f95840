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

The homology pipelines read the operators as ExactMatrix objects, which
`_BarOperators` assembles in numpy: every basis tuple of a degree at once,
as int64 codes, with duplicate entries summed by a sort.  The identity
sweep never builds the matrices.  `SummandOps` applies the same operators,
from the same integer structure table, to flat arrays of nonzero summands
(source row, output code, coefficient), a bounded block of source rows
at a time; one sweep judges the integer residuals exactly and mod several
primes.  Tests pin it against the matrices on small modules.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .complexes import ChainComplex
from .matrix import ExactMatrix
from .rings import BaseRing, ZZ


# ---------------------------------------------------------------------------
# operator assembly on int64 codes

_INT64 = 2**63


class _Codes:
    """Basis tuples of the bar modules as int64 codes in a mixed radix.

    A tuple of m slots is coded most significant slot first, with slot 0
    in 0..d-1 and slots 1..m-1 in offset..d-1.  Offset 0 gives the bar
    module's basis A^(m); offset 1 the normalized one's, whose tuples
    carry no unit (basis vector 0) in slots >= 1.
    """

    def __init__(self, d: int, offset: int):
        self.d = d
        self.offset = offset
        self.radix = d - offset

    def rank(self, m: int) -> int:
        return self.d * self.radix ** (m - 1)

    def digits(self, m: int) -> np.ndarray:
        """The (rank, m) digit array of every code, in code order."""
        codes = np.arange(self.rank(m), dtype=np.int64)
        D = np.empty((len(codes), m), dtype=np.int64)
        for k in range(m - 1, 0, -1):
            D[:, k] = codes % self.radix + self.offset
            codes //= self.radix
        D[:, 0] = codes
        return D

    def encode(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Codes of digit rows, and the mask of rows that are tuples here (None: all)."""
        codes = D[:, 0].copy()
        for k in range(1, D.shape[1]):
            codes = codes * self.radix + (D[:, k] - self.offset)
        valid = (D[:, 1:] >= self.offset).all(axis=1) if self.offset else None
        return codes, valid


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


class _BarOperators:
    """Faces, degeneracies and signed rotations of A's bar modules, assembled in numpy.

    Each operator is a list of pieces per degree: for every source code
    r = cols[k], the target tuple digits[k] with coefficient coeffs[k].
    `_coo` sums the pieces into a Coo.  Over Q the structure
    constants and the unit are scaled by the lcm of their denominators,
    so that everything runs on integers, and divided back at the end.
    """

    def __init__(self, A: Algebra):
        base = A.base
        d = A.dim
        self.base = base
        self.raw = _Codes(d, 0)
        self.normalized = _Codes(d, 1)
        consts = [c for row in A.structure for terms in row for _, c in terms]
        consts += list(A.unit)
        scale = 1  # the lcm of the denominators; ints have denominator 1
        for c in consts:
            scale *= (c * scale).denominator
        self.scale = scale
        self.bound = max([1, base.characteristic] + [abs(int(c * scale)) for c in consts])
        if self.bound >= _INT64:
            raise ValueError("structure constants or p do not fit in 64-bit integers")
        terms = max(1, max(len(t) for row in A.structure for t in row))
        self.K = np.zeros((d, d, terms), dtype=np.int64)
        self.C = np.zeros((d, d, terms), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                for t, (k, c) in enumerate(A.structure[i][j]):
                    self.K[i, j, t], self.C[i, j, t] = k, int(c * scale)
        self.unit = [(u, int(c * scale)) for u, c in enumerate(A.unit) if c != 0]

    def _coo(self, src: _Codes, m: int, dst: _Codes, m_out: int, width: int,
             pieces, scaled: bool) -> "Coo":
        """Operator from m-slot tuples (coded by src) to m_out-slot tuples (by dst).

        pieces(D) yields (cols, digits, coeffs) given the digit array D of
        every source code; at most `width` of them meet in one entry.
        """
        ncols, nrows = src.rank(m), dst.rank(m_out)
        if max(ncols, nrows) >= _INT64 or width * self.bound >= _INT64:
            raise ValueError(
                f"an operator on {ncols} x {nrows} basis tuples does not fit in 64-bit codes"
            )
        parts = []
        for cols, digits, coeffs in pieces(src.digits(m)):
            rows, valid = dst.encode(digits)
            if valid is not None:
                cols, rows, coeffs = cols[valid], rows[valid], coeffs[valid]
            parts.append((cols, rows, coeffs))
        cols, rows, vals = (np.concatenate(x) for x in zip(*parts))
        if len(vals):
            order = np.lexsort((rows, cols))
            cols, rows, vals = cols[order], rows[order], vals[order]
            edge = np.ones(len(vals), dtype=bool)
            edge[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
            starts = np.flatnonzero(edge)
            cols, rows = cols[starts], rows[starts]
            vals = np.add.reduceat(vals, starts)
        if self.base.kind == "Fp":
            vals %= self.base.p
        keep = vals != 0
        den = self.scale if scaled and self.base.kind == "Q" else 1
        return Coo(self.base, nrows, ncols, rows[keep], cols[keep], vals[keep], den)

    def _face_pieces(self, D: np.ndarray, i: int, sign: int):
        """Pieces of sign * d_i on the tuples D."""
        n = D.shape[1] - 1
        if i < n:
            x, y, rest, slot = D[:, i], D[:, i + 1], np.delete(D, i + 1, axis=1), i
        else:
            x, y, rest, slot = D[:, n], D[:, 0], D[:, :n], 0
        for t in range(self.K.shape[2]):
            c = self.C[x, y, t]
            (hit,) = np.nonzero(c)
            digits = rest[hit]
            digits[:, slot] = self.K[x[hit], y[hit], t]
            yield hit, digits, sign * c[hit]

    def faces(self, codes: _Codes, n: int, signs: dict[int, int]) -> "Coo":
        """sum_i signs[i] d_i : X_n -> X_{n-1}."""

        def pieces(D):
            for i, sign in signs.items():
                yield from self._face_pieces(D, i, sign)

        width = len(signs) * self.K.shape[2]
        return self._coo(codes, n + 1, codes, n, width, pieces, scaled=True)

    def degeneracy(self, n: int, j: int) -> "Coo":
        """s_j : X_n -> X_{n+1}, inserting the unit after slot j."""

        def pieces(D):
            src = np.arange(len(D))
            for u, c in self.unit:
                yield src, np.insert(D, j + 1, u, axis=1), np.full(len(D), c)

        return self._coo(self.raw, n + 1, self.raw, n + 2, 1, pieces, scaled=True)

    def rotations(self, codes: _Codes, n: int, signs: dict[int, int], unit_first: bool
                  ) -> "Coo":
        """sum_k signs[k] tau^k on X_n, with the unit put in front if unit_first.

        tau^k moves the last k slots to the front.
        """

        def pieces(D):
            src = np.arange(len(D))
            for k, sign in signs.items():
                digits = np.roll(D, k, axis=1)
                if unit_first:
                    digits = np.insert(digits, 0, 0, axis=1)
                yield src, digits, np.full(len(D), sign)

        m_out = n + 2 if unit_first else n + 1
        return self._coo(codes, n + 1, codes, m_out, len(signs), pieces, scaled=False)

    def recode(self, src: _Codes, dst: _Codes, n: int) -> "Coo":
        """The basis tuples of X_n coded by src that dst also codes, as a 0/1 matrix."""

        def pieces(D):
            yield np.arange(len(D)), D, np.ones(len(D), dtype=np.int64)

        return self._coo(src, n + 1, dst, n + 1, 1, pieces, scaled=False)


# ---------------------------------------------------------------------------
# cyclic bar modules


class CyclicModule:
    """The cyclic bar construction of an algebra, one matrix per operator.

    Basis of X_n: tuples of basis indices, coded big-endian base dim(A)
    (slot 0 is the most significant digit).  Operator matrices are
    produced lazily and memoized; everything handed out is an immutable
    ExactMatrix, so concurrent readers are safe and duplicate inserts of
    the same key are harmless.  The homology routes that never
    materialize the operators start from `algebra`.
    """

    def __init__(self, A: Algebra):
        self.base = A.base
        self.algebra = A
        self._faces: dict[tuple[int, int], ExactMatrix] = {}
        self._degens: dict[tuple[int, int], ExactMatrix] = {}
        self._cyclics: dict[int, ExactMatrix] = {}
        self._norms: dict[int, ExactMatrix] = {}

    @cached_property
    def _ops(self) -> _BarOperators:
        return _BarOperators(self.algebra)

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        return self.algebra.dim ** (n + 1)

    def face(self, n: int, i: int) -> ExactMatrix:
        if n < 1:
            raise ValueError("faces start at degree 1")
        if not (0 <= i <= n):
            raise ValueError(f"face index {i} outside 0..{n}")
        if (n, i) not in self._faces:
            self._faces[(n, i)] = self._ops.faces(self._ops.raw, n, {i: 1}).matrix()
        return self._faces[(n, i)]

    def degeneracy(self, n: int, j: int) -> ExactMatrix:
        if not (0 <= j <= n):
            raise ValueError(f"degeneracy index {j} outside 0..{n}")
        if (n, j) not in self._degens:
            self._degens[(n, j)] = self._ops.degeneracy(n, j).matrix()
        return self._degens[(n, j)]

    def cyclic(self, n: int) -> ExactMatrix:
        """The signed operator t_n = (-1)^n tau_n."""
        if n not in self._cyclics:
            self._cyclics[n] = self._ops.rotations(self._ops.raw, n, {1: (-1) ** n}, False).matrix()
        return self._cyclics[n]

    def norm(self, n: int) -> ExactMatrix:
        """N_n = sum_{i=0}^{n} t_n^i, where t_n^i = (-1)^{ni} tau_n^i."""
        if n not in self._norms:
            signs = {i: (-1) ** (n * i) for i in range(n + 1)}
            self._norms[n] = self._ops.rotations(self._ops.raw, n, signs, False).matrix()
        return self._norms[n]

    def hochschild_boundary(self, n: int) -> ExactMatrix:
        """b = sum (-1)^i d_i : X_n -> X_{n-1}."""
        if n == 0:
            return ExactMatrix.zero(self.base, 0, self.rank(0))
        return self._ops.faces(self._ops.raw, n, {i: (-1) ** i for i in range(n + 1)}).matrix()

    def bar_boundary(self, n: int) -> ExactMatrix:
        """b' = sum_{i<n} (-1)^i d_i : X_n -> X_{n-1}."""
        if n == 0:
            return ExactMatrix.zero(self.base, 0, self.rank(0))
        return self._ops.faces(self._ops.raw, n, {i: (-1) ** i for i in range(n)}).matrix()

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


def cyclic_bar_module(A: Algebra, n_max: int | None = None) -> CyclicModule:
    """The cyclic bar construction of A; n_max is advisory only."""
    return CyclicModule(A)


# The module memos keep the modules of the last _MEMO_ALGEBRAS algebras
# used, so a long-lived process does not hold every algebra it has seen.
# `verify --suite all` revisits an algebra at most 16 algebras later.
_MEMO_ALGEBRAS = 16
_bar_memo: dict[Algebra, CyclicModule] = {}


def _recall(memo: dict, A: Algebra, build):
    """memo[A], built if missing, kept as the most recent of a bounded memo."""
    hit = memo.pop(A, None)
    memo[A] = build(A) if hit is None else hit
    while len(memo) > _MEMO_ALGEBRAS:
        del memo[next(iter(memo))]
    return memo[A]


def bar_module(A: Algebra) -> CyclicModule:
    """Memoized cyclic_bar_module; overlapping windows share matrices."""
    return _recall(_bar_memo, A, cyclic_bar_module)


def hochschild_complex(X: CyclicModule, n_max: int) -> ChainComplex:
    ranks = {n: X.rank(n) for n in range(n_max + 1)}
    diffs = {n: X.hochschild_boundary(n) for n in range(1, n_max + 1)}
    return ChainComplex(X.base, ranks, diffs)


def bar_complex(X: CyclicModule, n_max: int) -> ChainComplex:
    ranks = {n: X.rank(n) for n in range(n_max + 1)}
    diffs = {n: X.bar_boundary(n) for n in range(1, n_max + 1)}
    return ChainComplex(X.base, ranks, diffs)


# ---------------------------------------------------------------------------
# normalized bar modules

# Only b and B descend to the quotient by degenerate elements; t, N and the
# individual faces do not (tau s_{n-1} escapes the degenerate subspace), so
# the normalized object is a mixed complex, not a cyclic module.


class NormalizedBarModule:
    """Quotient of the bar module by degeneracy images.

    Needs the algebra's unit to be basis vector 0; then the degenerate
    subspace in degree n is spanned by the basis tuples carrying index 0
    in some slot >= 1, and the quotient has the complementary tuples as a
    basis: rank dim(A) * (dim(A)-1)^n.
    """

    def __init__(self, A: Algebra):
        if not A.unit_is_basis_zero:
            A = A.with_unit_first()
        if A.dim < 1:
            raise ValueError("algebra must have positive dimension")
        self.algebra = A
        self.base = A.base
        self.raw = bar_module(A)
        self._bnd: dict[int, ExactMatrix] = {}
        self._connes: dict[int, ExactMatrix] = {}

    @cached_property
    def _ops(self) -> _BarOperators:
        return _BarOperators(self.algebra)

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        return self.algebra.dim * (self.algebra.dim - 1) ** n

    def inclusion(self, n: int) -> ExactMatrix:
        """Section X-bar_n -> X_n picking the non-degenerate basis tuples."""
        return self._ops.recode(self._ops.normalized, self._ops.raw, n).matrix()

    def projection(self, n: int) -> ExactMatrix:
        """Quotient map X_n -> X-bar_n killing degenerate basis tuples."""
        return self._ops.recode(self._ops.raw, self._ops.normalized, n).matrix()

    def boundary(self, n: int) -> ExactMatrix:
        """Induced Hochschild differential b-bar : X-bar_n -> X-bar_{n-1}."""
        if n not in self._bnd:
            if n <= 0:
                self._bnd[n] = ExactMatrix.zero(self.base, 0, self.rank(max(n, 0)))
            else:
                self._bnd[n] = self.boundary_coo(n).matrix()
        return self._bnd[n]

    def boundary_coo(self, n: int) -> Coo:
        """b-bar for n >= 1, assembled tuple-wise rather than by three matrix products.

        The intermediate raw rank d^(n+1) would dwarf the quotient ranks.
        """
        return self._ops.faces(self._ops.normalized, n, {i: (-1) ** i for i in range(n + 1)})

    def connes(self, n: int) -> ExactMatrix:
        """Induced Connes operator B-bar : X-bar_n -> X-bar_{n+1}."""
        if n not in self._connes:
            self._connes[n] = self.connes_coo(n).matrix()
        return self._connes[n]

    def connes_coo(self, n: int) -> Coo:
        """B-bar as a Coo.

        On the quotient the (1 - t) factor's t-part dies (it lands on
        degenerate tuples), leaving B-bar = s_{-1} N: the signed rotations
        t^k = (-1)^{nk} tau^k of a with the unit stuck in front, less those
        that land on degenerate tuples.
        """
        signs = {k: (-1) ** (n * k) for k in range(n + 1)}
        return self._ops.rotations(self._ops.normalized, n, signs, True)

    def hochschild_complex(self, n_max: int) -> ChainComplex:
        ranks = {n: self.rank(n) for n in range(n_max + 1)}
        diffs = {n: self.boundary(n) for n in range(1, n_max + 1)}
        return ChainComplex(self.base, ranks, diffs)


_normalized_memo: dict[Algebra, NormalizedBarModule] = {}


def normalized(A: Algebra) -> NormalizedBarModule:
    return _recall(_normalized_memo, A, NormalizedBarModule)


# ---------------------------------------------------------------------------
# mixed complexes


@dataclass
class MixedComplex:
    """Degreewise modules with d (degree -1) and B (degree +1).

    Modules are free of the given ranks unless a degree appears in
    relations, in which case that degree is the cokernel of the relation
    matrix (needed for the Z/n target of the comparison display).
    """

    base: BaseRing
    lo: int
    hi: int
    ranks: dict[int, int]
    d: dict[int, ExactMatrix] = field(default_factory=dict)
    B: dict[int, ExactMatrix] = field(default_factory=dict)
    relations: dict[int, ExactMatrix] = field(default_factory=dict)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def d_at(self, n: int) -> ExactMatrix:
        return self.d.get(n) or ExactMatrix.zero(self.base, self.rank(n - 1), self.rank(n))

    def B_at(self, n: int) -> ExactMatrix:
        return self.B.get(n) or ExactMatrix.zero(self.base, self.rank(n + 1), self.rank(n))

    def validate(self) -> list[str]:
        problems = []
        for n in range(self.lo, self.hi + 1):
            if not self._lands_in_relations(self.d_at(n).mul(self.d_at(n + 1)), n - 1):
                problems.append(f"d o d != 0 into degree {n - 1}")
            if not self._lands_in_relations(self.B_at(n + 1).mul(self.B_at(n)), n + 2):
                problems.append(f"B o B != 0 out of degree {n}")
            anti = self.d_at(n + 1).mul(self.B_at(n)).add(self.B_at(n - 1).mul(self.d_at(n)))
            if not self._lands_in_relations(anti, n):
                problems.append(f"dB + Bd != 0 at degree {n}")
        return problems

    def _lands_in_relations(self, M: ExactMatrix, n: int) -> bool:
        if M.is_zero():
            return True
        rel = self.relations.get(n)
        if rel is None or rel.ncols == 0:
            return False
        from .linalg import integer_solve, solve_field

        try:
            if self.base.is_field:
                solve_field(rel, M)
            else:
                integer_solve(rel, M)
            return True
        except ValueError:
            return False


@dataclass
class MixedMap:
    source: MixedComplex
    target: MixedComplex
    components: dict[int, ExactMatrix]

    def component(self, n: int) -> ExactMatrix:
        return self.components.get(n) or ExactMatrix.zero(
            self.source.base, self.target.rank(n), self.source.rank(n)
        )


def mixed_complex_from_display(n: int):
    """The comparison display for one cyclic group order.

    Source: Z in degrees 0 and -1, d = 0, B = multiplication by n.
    Target: Z/n in degree 0 (free cover Z with relation n), zero operators.
    Map: canonical surjection in degree 0.  Returns (source, target, map).
    """
    if n < 1:
        raise ValueError("group order must be >= 1")
    source = MixedComplex(
        base=ZZ,
        lo=-1,
        hi=0,
        ranks={0: 1, -1: 1},
        d={},
        B={-1: ExactMatrix(ZZ, 1, 1, {(0, 0): n})},
    )
    target = MixedComplex(
        base=ZZ,
        lo=0,
        hi=0,
        ranks={0: 1},
        relations={0: ExactMatrix(ZZ, 1, 1, {(0, 0): n})},
    )
    the_map = MixedMap(source, target, {0: ExactMatrix.identity(ZZ, 1)})
    return source, target, the_map


# ---------------------------------------------------------------------------
# identity sweep on int64 summands

# summands per block of the sweep: a block takes as many source rows as the
# widest identity of its degree can expand into this many summands
_SWEEP_BLOCK = 1 << 18


class _Summands:
    """Images of a block of basis tuples, as flat arrays of nonzero summands.

    Summand k is coeff[k] times the basis tuple coded code[k] (big-endian
    base d, `slots` slots), in the image of the basis tuple coded src[k].
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
    """Faces, degeneracies, t, N and 1 - t acting on int64 summands.

    Takes the integer structure table of `_BarOperators`, so coefficients
    are exact integers: over F_p they are reduced only when a residual is
    judged, which gives the same verdict because reduction mod p is a ring
    map.  A face expands each summand into every nonzero term of its
    product; the other operators are arithmetic on the codes.
    """

    def __init__(self, A: Algebra):
        ops = _BarOperators(A)
        if ops.scale != 1:
            raise ValueError("the identity sweep needs integer structure constants")
        d = self.d = A.dim
        T = ops.K.shape[2]
        K, C = ops.K.reshape(d * d, T), ops.C.reshape(d * d, T)
        # the t-th term of every basis product, indexed by the pair code x*d + y
        self.terms = [(K[:, t].copy(), C[:, t].copy()) for t in range(T)]
        # the pairs whose product has a term after the first
        self.later = (C[:, 1:] != 0).any(axis=1)
        self.unit = ops.unit
        self.bound = ops.bound

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
        hit = c != 0
        parts = []
        if hit.all():
            c *= s.coeff
            parts.append(_Summands(n, s.src, _shifted(K[pair], p, head), c))
        elif hit.any():
            k = pair[hit]
            c = c[hit]
            c *= s.coeff[hit]
            parts.append(_Summands(n, s.src[hit], _shifted(K[k], p, head[hit]), c))
        if len(self.terms) > 1:
            more = np.flatnonzero(self.later[pair])  # only these meet a later term
            for K, C in self.terms[1:]:
                c = C[pair[more]]
                hit = c != 0
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


def _residual(lhs: _Summands, rhs: _Summands | None, d: int, start: int, bits: int
              ) -> np.ndarray:
    """Coefficient sums of lhs - rhs per (source row, output tuple).

    lhs = rhs exactly iff every sum is 0, and mod p iff every sum is
    divisible by p; the array is empty when the sides agree summand for
    summand.  Otherwise the summands of both sides are sorted once, by the
    key (src - start) * d^slots + code with the coefficient plus
    2^(bits-1) packed into the low `bits` bits, and a key's sum is the
    difference of the prefix sums at its last summand and the previous
    key's.  That difference is exact even where a prefix sum wraps in
    int64, because every key's sum fits.
    """
    if rhs is not None and all(np.array_equal(a, b) for a, b in (
            (lhs.code, rhs.code), (lhs.src, rhs.src), (lhs.coeff, rhs.coeff))):
        return lhs.coeff[:0]
    sides = [(lhs, lhs.coeff)] if rhs is None else [(lhs, lhs.coeff), (rhs, -rhs.coeff)]
    bias = 1 << (bits - 1)
    packed = np.empty(sum(len(coeff) for _, coeff in sides), dtype=np.int64)
    at = 0
    for s, coeff in sides:
        out = packed[at:at + len(coeff)]
        at += len(coeff)
        np.subtract(s.src, start, out=out)
        out *= d**s.slots
        out += s.code
        out <<= bits
        out += bias
        out += coeff
    packed.sort()
    key = packed >> bits
    sums = np.cumsum((packed & ((1 << bits) - 1)) - bias)
    last = np.empty(len(key), dtype=bool)
    last[-1:] = True
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    return np.diff(sums[last], prepend=0)


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
    yield (f"N(1-t) = 0 @ n={n}", [("omt", None), ("N", None)], None)
    yield (f"(1-t)N = 0 @ n={n}", [("N", None), ("omt", None)], None)


def _run_program(engine, state, program):
    for op, arg in program:
        if op == "d":
            state = engine.face(state, arg)
        elif op == "s":
            state = engine.degeneracy(state, arg)
        elif op == "t":
            state = engine.cyclic(state)
        elif op == "N":
            state = engine.norm(state)
        elif op == "omt":
            state = engine.one_minus_cyclic(state)
        elif op == "scale":
            state = engine.scaled(state, arg)
        else:  # pragma: no cover - program lists are internal
            raise ValueError(f"unknown op {op!r}")
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


def _sweep_plan(ops: SummandOps, n: int) -> tuple[list, int, int]:
    """Degree n's identities, the bits a packed coefficient takes, and rows per block.

    A face multiplies the summands per source row by at most the terms of
    a product, a degeneracy by the unit's terms, N by n+1 and 1 - t by 2;
    a coefficient grows by at most `bound` per face or degeneracy.  Raises
    ValueError, before anything is allocated, when a code with its packed
    coefficient, or the sum of a key's coefficients, would not fit in 64 bits.
    """
    T, U = len(ops.terms), len(ops.unit)
    programs = list(identity_programs(n))
    width, cmax, total, slots = 1, 1, 1, n + 1
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
                elif op in ("N", "omt"):
                    w *= n + 1 if op == "N" else 2
                slots = max(slots, k)
            summands += w
            coefficients += w * ops.bound**depth
            cmax = max(cmax, ops.bound**depth)
        width, total = max(width, summands), max(total, coefficients)
    bits = cmax.bit_length() + 1
    key = ops.d**slots << bits
    if key >= _INT64 or total >= _INT64:
        raise ValueError(
            f"the identities at degree {n} need codes or coefficients beyond 64-bit integers"
        )
    return programs, bits, max(1, min(_SWEEP_BLOCK // width, (_INT64 - 1) // key))


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

    The source rows of each degree are swept in blocks, and within a block
    an identity's first operator is applied once for every identity that
    starts with it.
    """
    ops = SummandOps(A)
    plans = [_sweep_plan(ops, n) for n in range(n_max + 1)]
    bad: dict[int | None, list[str]] = {m: [] for m in moduli}
    for n, (programs, bits, step) in enumerate(plans):
        failing: list[set] = [set() for _ in programs]
        rows = ops.d ** (n + 1)
        for start in range(0, rows, step):
            x = ops.identity_state(n, start, min(rows, start + step))
            first: dict[tuple, _Summands] = {}
            for fails, (_, lhs_prog, rhs_prog) in zip(failing, programs):
                if len(fails) == len(bad):
                    continue  # fails for every modulus already
                lhs = _run_cached(ops, x, lhs_prog, first)
                rhs = _run_cached(ops, x, rhs_prog, first) if rhs_prog is not None else None
                residual = _residual(lhs, rhs, ops.d, start, bits)
                if residual.any():
                    fails.update(m for m in bad if not m or (residual % m).any())
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
