"""Tate cohomology of finite cyclic groups.

Tate cohomology of a bounded complex of C_n-modules M is the homology of
(Tot(M tensor P))^G, where P is the standard 2-periodic complete
resolution of C_n: free rank-n modules in every integer degree with
differentials alternating sigma - 1 and the norm N.  The resolution is
implicit here.  Under the untwisting isomorphism (M tensor k[C_n])^G = M,
1 tensor (sigma - 1) becomes sigma^{-1} - 1 on M and 1 tensor N becomes
the norm of M, so `tate_complex` writes the invariants from M alone.
Each total degree is then a finite direct sum of the M_i, so the
direct-sum totalization needs no truncation bookkeeping; only degrees at
the edge of the requested window are unreliable and are refused.  The
resolution itself, and a route that takes the invariants of
Tot(M tensor P) directly, are the tests' oracle (tests/tate_oracle.py).

Every module is a bounded complex of free C_n-modules.  Tate cohomology
does not change under quasi-isomorphism, so a quotient enters as a free
resolution: the trivial module Z/n is Z --n--> Z in degrees 1 and 0.

Two checks compare the sides of the paper's equivalence.  Construction
5.1's display, the mixed complex Z in degrees 0 and -1 with d = 0 and
B = n mapping onto Z/n, is three 1x1 integer matrices, checked with
the exact integer linear algebra; Corollary 5.3 compares Tate tables
degree by degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .complexes import ChainComplex, HomologyGroup, factors, group_from_factors
from .linalg import integer_kernel_basis, integer_solve, rank
from .matrix import ExactMatrix
from .rings import ZZ, BaseRing
from .snf import invariant_factors


class TateError(ValueError):
    pass


def _shift_matrix(ring: BaseRing, n: int) -> ExactMatrix:
    """sigma on k[C_n] in the basis 1, sigma, ..., sigma^{n-1}."""
    return ExactMatrix(ring, n, n, {((i + 1) % n, i): ring.one for i in range(n)})


def _matrix_power(M: ExactMatrix, k: int) -> ExactMatrix:
    out = ExactMatrix.identity(M.ring, M.nrows)
    for _ in range(k):
        out = M * out
    return out


# ---------------------------------------------------------------------------
# module complexes


class GModuleComplex:
    """Bounded complex of free C_n-modules.

    sigma and the differentials are matrices on the free modules;
    validation checks sigma^n = id, equivariance of d, and d . d = 0.
    """

    def __init__(
        self,
        base: BaseRing,
        order: int,
        ranks: dict[int, int],
        sigmas: dict[int, ExactMatrix],
        diffs: dict[int, ExactMatrix] | None = None,
    ):
        if order < 1:
            raise TateError("group order must be >= 1")
        self.base = base
        self.order = order
        self.ranks = dict(ranks)
        self.sigmas = dict(sigmas)
        self.diffs = dict(diffs or {})
        for i, r in self.ranks.items():
            s = self.sigmas.get(i)
            if s is None or s.nrows != r or s.ncols != r:
                raise TateError(f"degree {i} needs a {r}x{r} sigma action")

    @property
    def degrees(self) -> list[int]:
        return sorted(d for d in self.ranks if self.ranks[d])

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def sigma(self, i: int) -> ExactMatrix:
        return self.sigmas.get(i) or ExactMatrix.zero(self.base, 0, 0)

    def diff(self, i: int) -> ExactMatrix:
        M = self.diffs.get(i)
        if M is None:
            return ExactMatrix.zero(self.base, self.rank(i - 1), self.rank(i))
        return M

    def norm(self, i: int) -> ExactMatrix:
        out = ExactMatrix.identity(self.base, self.rank(i))
        power = out
        for _ in range(self.order - 1):
            power = self.sigma(i) * power
            out = out + power
        return out

    def validate(self) -> list[str]:
        problems = []
        for i in self.degrees:
            if _matrix_power(self.sigma(i), self.order) != ExactMatrix.identity(
                self.base, self.rank(i)
            ):
                problems.append(f"sigma^order != id in degree {i}")
        for i in self.degrees:
            dmat = self.diff(i)
            if not self.rank(i - 1):
                if not dmat.is_zero():
                    problems.append(f"differential at {i} targets a zero module")
                continue
            if self.sigma(i - 1) * dmat != dmat * self.sigma(i):
                problems.append(f"differential at {i} is not equivariant")
            if self.rank(i - 2) and not (self.diff(i - 1) * dmat).is_zero():
                problems.append(f"d . d != 0 out of degree {i}")
        return problems


def named_module(kind: str, order: int, base: BaseRing = ZZ) -> GModuleComplex:
    """The handful of modules the checks and the CLI need.

    trivial-Z: Z with trivial action in degree 0.
    trivial-Zn: Z/order with trivial action, as its free resolution
        Z --order--> Z in degrees 1 and 0; over Z only.
    free: the group ring k[C_order] in degree 0.
    two-term: k[C_order] -> k[C_order], d = sigma - 1, in degrees 1 and 0.
    contractible: k[C_order] -> k[C_order], d = id, in degrees 1 and 0.
    """
    one = ExactMatrix.identity(base, 1)
    sigma = _shift_matrix(base, order)
    if kind == "trivial-Z":
        return GModuleComplex(base, order, {0: 1}, {0: one})
    if kind == "trivial-Zn":
        if base != ZZ:
            raise TateError(f"trivial-Zn is a module over Z, not over {base.label()}")
        times_n = ExactMatrix(ZZ, 1, 1, {(0, 0): order})
        return GModuleComplex(ZZ, order, {0: 1, 1: 1}, {0: one, 1: one}, diffs={1: times_n})
    if kind == "free":
        return GModuleComplex(base, order, {0: order}, {0: sigma})
    if kind == "two-term":
        d = sigma - ExactMatrix.identity(base, order)
        return GModuleComplex(
            base, order, {0: order, 1: order}, {0: sigma, 1: sigma}, diffs={1: d}
        )
    if kind == "contractible":
        return GModuleComplex(
            base,
            order,
            {0: order, 1: order},
            {0: sigma, 1: sigma},
            diffs={1: ExactMatrix.identity(base, order)},
        )
    raise TateError(f"unknown module kind {kind!r}")


def direct_sum_modules(A: GModuleComplex, B: GModuleComplex) -> GModuleComplex:
    if A.order != B.order or A.base != B.base:
        raise TateError("summands must share group order and base")
    degrees = sorted(set(A.degrees) | set(B.degrees))
    ranks, sigmas, diffs = {}, {}, {}

    def block_diag(M1: ExactMatrix, M2: ExactMatrix) -> ExactMatrix:
        entries = dict(M1.entries)
        for (i, j), v in M2.entries.items():
            entries[(M1.nrows + i, M1.ncols + j)] = v
        return ExactMatrix(A.base, M1.nrows + M2.nrows, M1.ncols + M2.ncols, entries)

    for i in degrees:
        ranks[i] = A.rank(i) + B.rank(i)
        sigmas[i] = block_diag(
            A.sigma(i) if A.rank(i) else ExactMatrix.zero(A.base, 0, 0),
            B.sigma(i) if B.rank(i) else ExactMatrix.zero(A.base, 0, 0),
        )
        if A.rank(i - 1) + B.rank(i - 1):
            diffs[i] = block_diag(A.diff(i), B.diff(i))
    return GModuleComplex(A.base, A.order, ranks, sigmas, diffs)


# ---------------------------------------------------------------------------
# the Tate complex


@dataclass
class TateComplex:
    """Untwisted (Tot(M tensor P))^G over a degree window.

    Degree d holds one copy of each M_i; the summand ordering follows
    M.degrees.  The differential out of degree d is diffs[d % 2], so the
    complex is 2-periodic and its interior has two groups, one per
    parity, computed once.  Homology is exact in the window interior and
    refused at the two edge degrees, where incoming or outgoing chains
    were cut.
    """

    base: BaseRing
    order: int
    window: tuple[int, int]
    diffs: tuple[ExactMatrix, ExactMatrix]

    def interior(self) -> range:
        return range(self.window[0] + 1, self.window[1])

    @functools.cached_property
    def _groups(self) -> tuple[HomologyGroup, HomologyGroup]:
        # H_d = ker diffs[d % 2] / im diffs[(d + 1) % 2]
        n = self.diffs[0].ncols
        even, odd = (factors(D) for D in self.diffs)
        return (group_from_factors(self.base, n, even, odd),
                group_from_factors(self.base, n, odd, even))

    def homology(self, d: int) -> HomologyGroup:
        if d not in self.interior():
            raise TateError(
                f"degree {d} is at or outside the window edge {self.window}"
            )
        return self._groups[d % 2]

    def table(self) -> dict[int, HomologyGroup]:
        return {d: self.homology(d) for d in self.interior()}

    def validate(self) -> list[str]:
        even, odd = self.diffs
        squares = (("odd", even * odd), ("even", odd * even))
        return [f"d o d != 0 out of {parity} degrees" for parity, D in squares if not D.is_zero()]


def tate_complex(M: GModuleComplex, window: tuple[int, int]) -> TateComplex:
    """The untwisted Tate complex of M in the total degrees of a window.

    Summand i of degree d, a copy of M_i, maps by M's differential into
    summand i - 1 and by the resolution differential of degree d - i,
    with the Koszul sign of i, into summand i: sigma^{-1} - 1 (sigma^{-1}
    is sigma^{n-1}) when d - i is even and N when it is odd.  No entry is
    placed twice, and the differential depends on d only through its
    parity, so the window shares two matrices.
    """
    lo, hi = window
    if hi - lo < 2:
        raise TateError("window too narrow for any interior degree")
    degs = M.degrees
    if not degs:
        raise TateError("module complex is zero")
    offsets: dict[int, int] = {}
    total = 0
    for i in degs:
        offsets[i] = total
        total += M.rank(i)
    horizontal = {}
    for i in degs:
        ops = (
            _matrix_power(M.sigma(i), M.order - 1) - ExactMatrix.identity(M.base, M.rank(i)),
            M.norm(i),
        )
        horizontal[i] = tuple(-op for op in ops) if i % 2 else ops
    by_parity = []
    for parity in (0, 1):
        entries = {}
        for i in degs:
            if M.rank(i - 1):
                for (r, c), v in M.diff(i).entries.items():
                    entries[(offsets[i - 1] + r, offsets[i] + c)] = v
            for (r, c), v in horizontal[i][(parity - i) % 2].entries.items():
                entries[(offsets[i] + r, offsets[i] + c)] = v
        by_parity.append(ExactMatrix(M.base, total, total, entries))
    return TateComplex(M.base, M.order, (lo, hi), tuple(by_parity))


# ---------------------------------------------------------------------------
# the norm oracle


def norm_oracle(M: GModuleComplex) -> tuple[HomologyGroup, HomologyGroup]:
    """(H^0, H^{-1}) by the classical fixed-point formulas.

    H^0 = ker(sigma - 1) / im N and H^{-1} = ker N / im(sigma - 1), for a
    module in one degree i or the cokernel of a free resolution
    d: M_{i+1} >-> M_i of one.  Each is the middle homology of the three
    columns M --first--> M --second--> M, read off the total complex of
    those columns times M's rows, whose column homology is the cokernel.
    Built directly from sigma on M, independent of the resolution and of
    the untwisting convention in tate_complex, so agreement with it at
    degrees 0 and -1 is a genuine cross-check.
    """
    degs = M.degrees
    i = degs[0] if degs else 0
    a, b, d = M.rank(i + 1), M.rank(i), M.diff(i + 1)
    if not degs or degs[-1] > i + 1 or (a and rank(d) < a):
        raise TateError(
            "norm oracle takes a module in one degree or an injective M_{i+1} -> M_i"
        )
    sm1 = {j: M.sigma(j) - ExactMatrix.identity(M.base, M.rank(j)) for j in (i, i + 1)}
    N = {j: M.norm(j) for j in (i, i + 1)}

    def middle(first: dict, second: dict) -> HomologyGroup:
        # total degree t holds column t of row i and column t - 1 of row
        # i + 1; row i + 1's column maps carry the Koszul sign
        Z = ExactMatrix.zero(M.base, a, b)
        diffs = {
            1: second[i].hstack(d),
            2: first[i].hstack(d).vstack(Z.hstack(-second[i + 1])),
            3: d.vstack(-first[i + 1]),
        }
        C = ChainComplex(M.base, {0: b, 1: b + a, 2: b + a, 3: a}, diffs)
        if not C.validate().ok:
            raise TateError("norm oracle needs an equivariant differential")
        return C.homology(1)

    return middle(N, sm1), middle(sm1, N)


# ---------------------------------------------------------------------------
# the two comparison checks


@dataclass
class CheckReport:
    name: str
    ok: bool
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "ok": self.ok,
            "problems": list(self.problems),
            "details": self.details,
        }


def construction_5_1_check(n: int) -> CheckReport:
    """Verify the integral comparison surjection for one group order.

    The display is three 1x1 integer matrices: the map f0 = 1 from the
    source's degree 0 onto Z/n = coker(n), the relation n, and the
    source's B = n from degree -1 to degree 0.  Every d is zero and the
    target is zero outside degree 0, so four checks remain: f0 is onto
    Z/n, f0 B lands in the relations, the kernel in degree 0 is the
    lattice nZ, and B induces 1 from the kernel's degree -1, all of Z,
    onto it: the shape of the predicted fiber.
    """
    if n < 1:
        return CheckReport("construction-5-1", False, [f"invalid order {n}"])
    f0 = ExactMatrix.identity(ZZ, 1)
    relation = B = ExactMatrix(ZZ, 1, 1, {(0, 0): n})
    problems = []
    if invariant_factors(f0.hstack(relation)) != [1]:
        problems.append("not surjective in degree 0")
    try:
        integer_solve(relation, f0 * B)
    except ValueError:
        problems.append("does not intertwine B at degree -1")
    # the kernel in degree 0 is the x of the pairs (x, y) with f0 x = n y
    pairs = integer_kernel_basis(f0.hstack(-relation))
    if math.gcd(*(pairs.entry(0, j) for j in range(pairs.ncols))) != n:
        problems.append(f"kernel in degree 0 is not the lattice {n}Z")
    # B sends the kernel's generator 1 in degree -1 to a multiple of its
    # generator n in degree 0, the relation
    try:
        induced = integer_solve(relation, B).entries
    except ValueError:
        induced = "not integral"
    if induced != {(0, 0): 1}:
        problems.append(f"induced B on the kernel is {induced}, not 1")

    details = {
        "order": n,
        "kernel_generators": {"0": n, "-1": 1},
        "kernel_is_whole_source": n == 1,
    }
    return CheckReport("construction-5-1", not problems, problems, details)


def _group_sum(a: HomologyGroup, b: HomologyGroup) -> HomologyGroup:
    merged = a.torsion + b.torsion
    if len(merged) > 1:
        # renormalize to an invariant-factor chain
        diag = ExactMatrix(
            ZZ, len(merged), len(merged), {(i, i): t for i, t in enumerate(merged)}
        )
        merged = tuple(invariant_factors(diag))
    return HomologyGroup(ZZ, a.free_rank + b.free_rank, merged)


def corollary_5_3_check(n: int, window: tuple[int, int] = (-4, 4)) -> CheckReport:
    """Degreewise comparison of the two graded groups of the equivalence.

    Left side: Tate cohomology of the trivial module Z, tensored with the
    graded group Z in degrees 0 and -1 (degreewise free, so the graded
    tensor needs no torsion correction): degree d receives T_d and
    T_{d+1}.  Right side: Tate cohomology of the trivial module Z/n.
    """
    if n < 2:
        return CheckReport("corollary-5-3", False, [f"order must be >= 2, got {n}"])
    lo, hi = window
    if lo > hi:
        return CheckReport("corollary-5-3", False, ["empty window"])
    pad = (lo - 2, hi + 2)
    T = tate_complex(named_module("trivial-Z", n), pad)
    R = tate_complex(named_module("trivial-Zn", n), pad)
    problems = []
    lhs_table, rhs_table = {}, {}
    for d in range(lo, hi + 1):
        lhs = _group_sum(T.homology(d), T.homology(d + 1))
        rhs = R.homology(d)
        lhs_table[d] = lhs.label()
        rhs_table[d] = rhs.label()
        if lhs != rhs:
            problems.append(
                f"degree {d}: tensor side {lhs.label()} vs Z/n side {rhs.label()}"
            )
    details = {"order": n, "window": list(window), "lhs": lhs_table, "rhs": rhs_table}
    return CheckReport("corollary-5-3", not problems, problems, details)
