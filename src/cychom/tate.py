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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .complexes import ChainComplex, HomologyGroup
from .linalg import integer_kernel_basis, integer_solve, lands_in_span, rank
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
        # H_d = ker diffs[d % 2] / im diffs[(d + 1) % 2]: both parities have
        # the free rank n - rank - rank, and over Z the torsion of H_d is
        # the invariant factors > 1 of its incoming differential
        n = self.diffs[0].ncols
        if self.base.is_field:
            free = n - rank(self.diffs[0]) - rank(self.diffs[1])
            return HomologyGroup(self.base, free), HomologyGroup(self.base, free)
        factors = [invariant_factors(D) for D in self.diffs]
        free = n - len(factors[0]) - len(factors[1])
        return tuple(HomologyGroup(ZZ, free, tuple(e for e in f if e > 1))
                     for f in reversed(factors))

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
# the Construction 5.1 display


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
            if not lands_in_span(self.d_at(n).mul(self.d_at(n + 1)), self.relations.get(n - 1)):
                problems.append(f"d o d != 0 into degree {n - 1}")
            if not lands_in_span(self.B_at(n + 1).mul(self.B_at(n)), self.relations.get(n + 2)):
                problems.append(f"B o B != 0 out of degree {n}")
            anti = self.d_at(n + 1).mul(self.B_at(n)).add(self.B_at(n - 1).mul(self.d_at(n)))
            if not lands_in_span(anti, self.relations.get(n)):
                problems.append(f"dB + Bd != 0 at degree {n}")
        return problems


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


def _surjective_onto_presented(
    comp: ExactMatrix, rel: ExactMatrix
) -> bool:
    """Surjectivity onto coker(rel): [comp | rel] has all unit factors."""
    if comp.nrows == 0:
        return True
    factors = invariant_factors(comp.hstack(rel))
    return len(factors) == comp.nrows and all(f == 1 for f in factors)


def construction_5_1_check(n: int) -> CheckReport:
    """Verify the integral comparison surjection for one group order.

    Source: Z in degrees 0 and -1 with d = 0 and B = n.  Target: Z/n in
    degree 0 with zero operators.  The check confirms the map is a
    degreewise surjective map of mixed complexes and that its kernel,
    with generators n in degree 0 and 1 in degree -1, carries d = 0 and
    induced B equal to 1: the shape of the predicted fiber.
    """
    if n < 1:
        return CheckReport("construction-5-1", False, [f"invalid order {n}"])
    source, target, the_map = mixed_complex_from_display(n)
    problems = []
    problems.extend(f"source: {p}" for p in source.validate())
    problems.extend(f"target: {p}" for p in target.validate())

    for deg in (0, -1):
        comp = the_map.component(deg)
        if target.rank(deg) and not _surjective_onto_presented(
            comp, target.relations.get(deg) or ExactMatrix.zero(ZZ, target.rank(deg), 0)
        ):
            problems.append(f"not surjective in degree {deg}")
    # chain-map property mod relations of the target
    for deg in (0, -1):
        lhs = target.d_at(deg) * the_map.component(deg)
        rhs = the_map.component(deg - 1) * source.d_at(deg)
        if not lands_in_span(lhs - rhs, target.relations.get(deg - 1)):
            problems.append(f"does not intertwine d at degree {deg}")
        lhs = target.B_at(deg) * the_map.component(deg)
        rhs = the_map.component(deg + 1) * source.B_at(deg)
        if not lands_in_span(lhs - rhs, target.relations.get(deg + 1)):
            problems.append(f"does not intertwine B at degree {deg}")

    # kernel lattice in degree 0: solutions of comp . x = rel . y
    comp0 = the_map.component(0)
    rel0 = target.relations.get(0) or ExactMatrix.zero(ZZ, target.rank(0), 0)
    pair_basis = integer_kernel_basis(comp0.hstack(-rel0))
    k0 = ExactMatrix(
        ZZ,
        comp0.ncols,
        pair_basis.ncols,
        {
            (i, j): v
            for (i, j), v in pair_basis.entries.items()
            if i < comp0.ncols
        },
    )
    expected0 = ExactMatrix(ZZ, 1, 1, {(0, 0): n})
    try:
        integer_solve(k0, expected0)
        integer_solve(expected0, k0)
    except ValueError:
        problems.append(f"kernel in degree 0 is not the lattice {n}Z")
    # degree -1 is untouched by the map; kernel is everything
    k_minus = ExactMatrix.identity(ZZ, source.rank(-1))
    if not source.d_at(0).is_zero():
        problems.append("kernel does not carry d = 0")
    induced = integer_solve(expected0, source.B_at(-1) * k_minus)
    if induced != ExactMatrix.identity(ZZ, 1):
        problems.append(f"induced B on the kernel is {induced.entries}, not 1")

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
