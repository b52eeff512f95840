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
sweeps act on tuple arrays instead (TupleOps, and FastOps for several
bases at once) and never build the matrices; tests pin both against the
matrices on small modules.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .complexes import ChainComplex
from .matrix import ExactMatrix
from .rings import BaseRing, Scalar, ZZ


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


class _BarOperators:
    """Faces, degeneracies and signed rotations of A's bar modules, assembled in numpy.

    Each operator is a list of pieces per degree: for every source code
    r = cols[k], the target tuple digits[k] with coefficient coeffs[k].
    `_matrix` sums the pieces into an ExactMatrix.  Over Q the structure
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

    def _matrix(self, src: _Codes, m: int, dst: _Codes, m_out: int, width: int,
                pieces, scaled: bool) -> ExactMatrix:
        """Matrix from m-slot tuples (coded by src) to m_out-slot tuples (by dst).

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
        values = vals[keep].tolist()
        if self.base.kind == "Q":
            den = self.scale if scaled else 1
            values = [self.base.coerce(v) / den for v in values]
        keys = zip(rows[keep].tolist(), cols[keep].tolist())
        return ExactMatrix(self.base, nrows, ncols, dict(zip(keys, values)), _normalized=True)

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

    def faces(self, codes: _Codes, n: int, signs: dict[int, int]) -> ExactMatrix:
        """sum_i signs[i] d_i : X_n -> X_{n-1}."""

        def pieces(D):
            for i, sign in signs.items():
                yield from self._face_pieces(D, i, sign)

        width = len(signs) * self.K.shape[2]
        return self._matrix(codes, n + 1, codes, n, width, pieces, scaled=True)

    def degeneracy(self, n: int, j: int) -> ExactMatrix:
        """s_j : X_n -> X_{n+1}, inserting the unit after slot j."""

        def pieces(D):
            src = np.arange(len(D))
            for u, c in self.unit:
                yield src, np.insert(D, j + 1, u, axis=1), np.full(len(D), c)

        return self._matrix(self.raw, n + 1, self.raw, n + 2, 1, pieces, scaled=True)

    def rotations(self, codes: _Codes, n: int, signs: dict[int, int], unit_first: bool
                  ) -> ExactMatrix:
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
        return self._matrix(codes, n + 1, codes, m_out, len(signs), pieces, scaled=False)

    def recode(self, src: _Codes, dst: _Codes, n: int) -> ExactMatrix:
        """The basis tuples of X_n coded by src that dst also codes, as a 0/1 matrix."""

        def pieces(D):
            yield np.arange(len(D)), D, np.ones(len(D), dtype=np.int64)

        return self._matrix(src, n + 1, dst, n + 1, 1, pieces, scaled=False)


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
            self._faces[(n, i)] = self._ops.faces(self._ops.raw, n, {i: 1})
        return self._faces[(n, i)]

    def degeneracy(self, n: int, j: int) -> ExactMatrix:
        if not (0 <= j <= n):
            raise ValueError(f"degeneracy index {j} outside 0..{n}")
        if (n, j) not in self._degens:
            self._degens[(n, j)] = self._ops.degeneracy(n, j)
        return self._degens[(n, j)]

    def cyclic(self, n: int) -> ExactMatrix:
        """The signed operator t_n = (-1)^n tau_n."""
        if n not in self._cyclics:
            self._cyclics[n] = self._ops.rotations(self._ops.raw, n, {1: (-1) ** n}, False)
        return self._cyclics[n]

    def norm(self, n: int) -> ExactMatrix:
        """N_n = sum_{i=0}^{n} t_n^i, where t_n^i = (-1)^{ni} tau_n^i."""
        if n not in self._norms:
            signs = {i: (-1) ** (n * i) for i in range(n + 1)}
            self._norms[n] = self._ops.rotations(self._ops.raw, n, signs, False)
        return self._norms[n]

    def hochschild_boundary(self, n: int) -> ExactMatrix:
        """b = sum (-1)^i d_i : X_n -> X_{n-1}."""
        if n == 0:
            return ExactMatrix.zero(self.base, 0, self.rank(0))
        return self._ops.faces(self._ops.raw, n, {i: (-1) ** i for i in range(n + 1)})

    def bar_boundary(self, n: int) -> ExactMatrix:
        """b' = sum_{i<n} (-1)^i d_i : X_n -> X_{n-1}."""
        if n == 0:
            return ExactMatrix.zero(self.base, 0, self.rank(0))
        return self._ops.faces(self._ops.raw, n, {i: (-1) ** i for i in range(n)})

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


_bar_memo: dict[Algebra, CyclicModule] = {}


def bar_module(A: Algebra) -> CyclicModule:
    """Memoized cyclic_bar_module; overlapping windows share matrices."""
    if A not in _bar_memo:
        _bar_memo[A] = cyclic_bar_module(A)
    return _bar_memo[A]


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
        return self._ops.recode(self._ops.normalized, self._ops.raw, n)

    def projection(self, n: int) -> ExactMatrix:
        """Quotient map X_n -> X-bar_n killing degenerate basis tuples."""
        return self._ops.recode(self._ops.raw, self._ops.normalized, n)

    def boundary(self, n: int) -> ExactMatrix:
        """Induced Hochschild differential b-bar : X-bar_n -> X-bar_{n-1}.

        Assembled tuple-wise rather than by three matrix products; the
        intermediate raw rank d^(n+1) would dwarf the quotient ranks.
        """
        if n not in self._bnd:
            if n <= 0:
                self._bnd[n] = ExactMatrix.zero(self.base, 0, self.rank(max(n, 0)))
            else:
                signs = {i: (-1) ** i for i in range(n + 1)}
                self._bnd[n] = self._ops.faces(self._ops.normalized, n, signs)
        return self._bnd[n]

    def connes(self, n: int) -> ExactMatrix:
        """Induced Connes operator B-bar : X-bar_n -> X-bar_{n+1}.

        On the quotient the (1 - t) factor's t-part dies (it lands on
        degenerate tuples), leaving B-bar = s_{-1} N: the signed rotations
        t^k = (-1)^{nk} tau^k of a with the unit stuck in front, less those
        that land on degenerate tuples.
        """
        if n not in self._connes:
            signs = {k: (-1) ** (n * k) for k in range(n + 1)}
            self._connes[n] = self._ops.rotations(self._ops.normalized, n, signs, True)
        return self._connes[n]

    def hochschild_complex(self, n_max: int) -> ChainComplex:
        ranks = {n: self.rank(n) for n in range(n_max + 1)}
        diffs = {n: self.boundary(n) for n in range(1, n_max + 1)}
        return ChainComplex(self.base, ranks, diffs)


_normalized_memo: dict[Algebra, NormalizedBarModule] = {}


def normalized(A: Algebra) -> NormalizedBarModule:
    if A not in _normalized_memo:
        _normalized_memo[A] = NormalizedBarModule(A)
    return _normalized_memo[A]


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


# Identity programs.  A program is a list of op codes applied left to right
# (so [("s", j), ("d", i)] is the composite d_i s_j); both engines interpret
# the same list, which keeps the reference and the fast sweep in sync.


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


def _run_cached(engine, state, program, first):
    if program:
        key = program[0]
        hit = first.get(key)
        if hit is None:
            hit = first[key] = _run_program(engine, state, program[:1])
        state = hit
        program = program[1:]
    return _run_program(engine, state, program)
