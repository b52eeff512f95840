"""Chain complexes over exact rings and their homology groups.

A ChainComplex stores finitely many degrees with a differential that
lowers degree by one.  Homology is read from the factors of the two
differentials at a degree, each factored once per complex: `rank` ones
over a field, the invariant factors over Z.  H_d has rank n_d less the
number of factors of d_d and of d_{d+1}; over Z its torsion is the
factors > 1 of the incoming d_{d+1}, since ker d_d is a direct summand
of Z^{n_d}.  The Smith forms are transform-free; no kernel basis is
built.  The maps along towers are never built: their ranks count
`MorseReduction` survivors (see `reduction`).  Every module is free: a
quotient such as Z/n enters as its free resolution (see `tate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import rank
from .matrix import ExactMatrix
from .rings import BaseRing, ZZ
from .snf import invariant_factors


# ---------------------------------------------------------------------------
# homology groups


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated homology group in invariant-factor form.

    torsion lists the invariant factors > 1, each dividing the next.
    Over a field torsion is always empty and free_rank is the dimension.
    """

    base: BaseRing
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.base.is_field and self.torsion:
            raise ValueError("torsion over a field")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a chain: {self.torsion}")

    @property
    def dimension(self) -> int:
        if not self.base.is_field:
            raise ValueError("dimension is only defined over a field")
        return self.free_rank

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def label(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z" if self.base == ZZ else self.base.label())
        elif self.free_rank > 1:
            parts.append(("Z" if self.base == ZZ else self.base.label()) + f"^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


# ---------------------------------------------------------------------------
# complexes


class ChainComplex:
    """Bounded complex ... -> C_{d} -> C_{d-1} -> ... of free modules.

    ranks maps degree -> rank; diffs maps degree d to the matrix of
    C_d -> C_{d-1}.  Degrees outside ranks are zero.
    """

    def __init__(self, ring: BaseRing, ranks: dict[int, int], diffs: dict[int, ExactMatrix]):
        self.ring = ring
        self.ranks = {d: r for d, r in ranks.items()}
        self.diffs = dict(diffs)
        for d, M in self.diffs.items():
            if M.ring != ring:
                raise ValueError("differential over wrong ring")
        self._factors: dict[int, list[int]] = {}

    def rank(self, d: int) -> int:
        return self.ranks.get(d, 0)

    def diff(self, d: int) -> ExactMatrix:
        M = self.diffs.get(d)
        if M is None:
            return ExactMatrix.zero(self.ring, self.rank(d - 1), self.rank(d))
        return M

    def validate(self) -> "ComplexReport":
        problems = []
        for d, M in self.diffs.items():
            if (M.nrows, M.ncols) != (self.rank(d - 1), self.rank(d)):
                problems.append(
                    f"differential at degree {d} has shape {M.nrows}x{M.ncols}, "
                    f"expected {self.rank(d - 1)}x{self.rank(d)}"
                )
        if not problems:
            for d in sorted(self.diffs):
                if (d + 1) in self.diffs:
                    if not (self.diff(d) * self.diff(d + 1)).is_zero():
                        problems.append(f"d o d != 0 from degree {d + 1}")
        return ComplexReport(ok=not problems, problems=problems)

    def factors(self, d: int) -> list[int]:
        """The factors of the differential out of degree d, computed once."""
        if d not in self._factors:
            self._factors[d] = factors(self.diff(d)) if self.rank(d) and self.rank(d - 1) else []
        return self._factors[d]

    def homology(self, d: int) -> HomologyGroup:
        return complex_homology(self, d)


@dataclass
class ComplexReport:
    ok: bool
    problems: list[str] = field(default_factory=list)


def factors(D: ExactMatrix) -> list[int]:
    """rank D ones over a field; over Z the invariant factors of D, 1s included."""
    return [1] * rank(D) if D.ring.is_field else invariant_factors(D)


def group_from_factors(ring: BaseRing, n: int, out: list[int], into: list[int]) -> HomologyGroup:
    """H at a degree of rank n from the factors of its outgoing and incoming differentials."""
    return HomologyGroup(ring, n - len(out) - len(into), tuple(e for e in into if e > 1))


def complex_homology(C: ChainComplex, d: int) -> HomologyGroup:
    """H_d(C) as a HomologyGroup (dimension over fields, invariant factors over Z)."""
    return group_from_factors(C.ring, C.rank(d), C.factors(d), C.factors(d + 1))
