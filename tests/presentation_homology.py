"""Homology read through canonical presentations: the test oracle.

`cychom.complexes.complex_homology` reads H_d from ranks and the
invariant factors of the incoming differential alone.  The presentations
here build H_d = ker / im explicitly instead: over a field a reduced
echelon kernel basis and the image's coordinates in it, over Z an
integer kernel basis, the incoming boundaries solved in it and their
Smith form with its left transform.  They give a class's coordinates
(`class_of`), a cycle per basis class (`representative`) and, through
them, the matrix a chain map induces on homology (`homology_map`), which
the tests compare the reduced routes' tower maps against.

`PresentedChainComplex` reads the homology of a complex of quotients
Z^{f_d} / rel_d through the two-row free resolution bicomplex, solving
for the lifts of the differential to the relations.  The Tate tests
compare the free resolutions of `cychom.tate` against it.  Not collected
by pytest; the tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from cychom.complexes import ChainComplex, ComplexReport, HomologyGroup, complex_homology
from cychom.linalg import integer_kernel_basis, integer_solve, rank, rref, solve_field
from cychom.matrix import ExactMatrix
from cychom.rings import Scalar, ZZ
from cychom.snf import smith_normal_form


def validate_complex(C: ChainComplex) -> ComplexReport:
    return C.validate()


def rank_kernel(A: ExactMatrix) -> tuple[int, ExactMatrix]:
    """Rank and a canonical kernel basis (columns) over a field.

    The basis vectors correspond to the free columns of the RREF in
    increasing order; each has a 1 in its free coordinate and the usual
    negated pivot-row entries elsewhere, so the result is reproducible
    across runs.
    """
    ring = A.ring
    M, pivots = rref(A)
    pivot_set = set(pivots)
    free = [c for c in range(A.ncols) if c not in pivot_set]
    entries: dict[tuple[int, int], Scalar] = {}
    for k, c in enumerate(free):
        entries[(c, k)] = ring.one
        for r, pc in enumerate(pivots):
            v = M[r][c]
            if v != 0:
                entries[(pc, k)] = ring.neg(v)
    return len(pivots), ExactMatrix(ring, A.ncols, len(free), entries, _normalized=True)


# ---------------------------------------------------------------------------
# canonical presentations of H_d, used for induced maps


class _FieldPresentation:
    def __init__(self, C: ChainComplex, d: int):
        self.ring = C.ring
        self.ambient = C.rank(d)
        _, K = rank_kernel(C.diff(d)) if C.rank(d - 1) else (0, ExactMatrix.identity(C.ring, self.ambient))
        self.kernel = K  # ambient x k
        k = K.ncols
        if C.rank(d + 1):
            X = solve_field(K, C.diff(d + 1))  # image of the incoming differential in kernel coords
        else:
            X = ExactMatrix.zero(C.ring, k, 0)
        E, pivots = rref(X.transpose())
        self.reducers = [E[r] for r in range(len(pivots))]  # reduced spanning vectors of im, length-k rows
        self.pivots = pivots
        pivset = set(pivots)
        self.coords = [i for i in range(k) if i not in pivset]
        self.group = HomologyGroup(self.ring, len(self.coords))

    def class_of(self, cycle: ExactMatrix) -> ExactMatrix:
        """Coordinates of a cycle's class in the canonical quotient basis (column vector)."""
        ring = self.ring
        x = solve_field(self.kernel, cycle)  # raises if not a cycle
        col = {i: x.entry(i, 0) for i in range(x.nrows)}
        for row, p in zip(self.reducers, self.pivots):
            c = col.get(p, ring.zero)
            if c != 0:
                for k, v in enumerate(row):
                    if v != 0:
                        s = ring.sub(col.get(k, ring.zero), ring.mul(c, v))
                        if s == 0:
                            col.pop(k, None)
                        else:
                            col[k] = s
        entries = {}
        for j, i in enumerate(self.coords):
            v = col.get(i, ring.zero)
            if v != 0:
                entries[(j, 0)] = v
        return ExactMatrix(ring, len(self.coords), 1, entries, _normalized=True)

    def representative(self, j: int) -> ExactMatrix:
        """A cycle representing the j-th canonical basis class (column vector)."""
        e = ExactMatrix(self.ring, self.kernel.ncols, 1, {(self.coords[j], 0): self.ring.one})
        return self.kernel * e


class _IntegerPresentation:
    def __init__(self, C: ChainComplex, d: int):
        self.ring = ZZ
        # X: the boundaries coming in, in the coordinates of the kernel basis K
        if not C.rank(d - 1):  # every chain is a cycle
            K = ExactMatrix.identity(ZZ, C.rank(d))
            X = C.diff(d + 1)
        else:
            K = integer_kernel_basis(C.diff(d))
            if C.rank(d + 1) and K.ncols:
                X = integer_solve(K, C.diff(d + 1))
            else:
                X = ExactMatrix.zero(ZZ, K.ncols, C.rank(d + 1))
        self.kernel = K
        k = K.ncols
        U, D, _ = smith_normal_form(X, right=False)
        self.U = U
        diag = [D.entry(i, i) for i in range(min(D.nrows, D.ncols))]
        diag = [int(v) for v in diag if v != 0]
        self.diag = diag
        # presentation coordinates: torsion coords (d_i > 1) then free coords
        self.torsion_coords = [(i, di) for i, di in enumerate(diag) if di > 1]
        self.free_coords = list(range(len(diag), k))
        self.group = HomologyGroup(
            ZZ, len(self.free_coords), tuple(di for _, di in self.torsion_coords)
        )

    def class_of(self, cycle: ExactMatrix) -> ExactMatrix:
        x = integer_solve(self.kernel, cycle)
        y = self.U * x
        entries = {}
        row = 0
        for i, di in self.torsion_coords:
            v = int(y.entry(i, 0)) % di
            if v:
                entries[(row, 0)] = v
            row += 1
        for i in self.free_coords:
            v = int(y.entry(i, 0))
            if v:
                entries[(row, 0)] = v
            row += 1
        n = len(self.torsion_coords) + len(self.free_coords)
        return ExactMatrix(ZZ, n, 1, entries, _normalized=True)

    @cached_property
    def _U_inverse(self) -> ExactMatrix:
        return integer_solve(self.U, ExactMatrix.identity(ZZ, self.U.nrows))

    def representative(self, j: int) -> ExactMatrix:
        coords = [i for i, _ in self.torsion_coords] + self.free_coords
        e = ExactMatrix(ZZ, self.U.nrows, 1, {(coords[j], 0): 1})
        return self.kernel * (self._U_inverse * e)


def homology_presentation(C: ChainComplex, d: int):
    if C.ring.is_field:
        return _FieldPresentation(C, d)
    return _IntegerPresentation(C, d)


# ---------------------------------------------------------------------------
# chain maps and induced maps on homology


@dataclass
class ChainMap:
    """Degreewise matrices f_d : C_d -> D_d commuting with the differentials."""

    source: ChainComplex
    target: ChainComplex
    components: dict[int, ExactMatrix]

    def component(self, d: int) -> ExactMatrix:
        M = self.components.get(d)
        if M is None:
            return ExactMatrix.zero(self.source.ring, self.target.rank(d), self.source.rank(d))
        return M

    def validate(self) -> ComplexReport:
        problems = []
        degrees = set(self.source.ranks) | set(self.components)
        for d in sorted(degrees):
            f_d = self.component(d)
            if (f_d.nrows, f_d.ncols) != (self.target.rank(d), self.source.rank(d)):
                problems.append(f"component at degree {d} has the wrong shape")
                continue
            lhs = self.component(d - 1) * self.source.diff(d)
            rhs = self.target.diff(d) * f_d
            if lhs != rhs:
                problems.append(f"square at degree {d} does not commute")
        return ComplexReport(ok=not problems, problems=problems)


def homology_map(f: ChainMap, d: int) -> tuple[ExactMatrix, HomologyGroup, HomologyGroup]:
    """Matrix of H_d(f) in the canonical presentation bases.

    Over Z the column entries are presentation coordinates of the image
    classes (torsion coordinates are reduced mod their invariant
    factor).  Returns (matrix, H_d(source), H_d(target)).
    """
    src = homology_presentation(f.source, d)
    tgt = homology_presentation(f.target, d)
    n_src = src.group.free_rank + len(src.group.torsion)
    n_tgt = tgt.group.free_rank + len(tgt.group.torsion)
    entries: dict[tuple[int, int], Scalar] = {}
    f_d = f.component(d)
    for j in range(n_src):
        z = src.representative(j)
        w = f_d * z
        col = tgt.class_of(w)
        for (i, _), v in col.entries.items():
            entries[(i, j)] = v
    M = ExactMatrix(f.source.ring, n_tgt, n_src, entries, _normalized=True)
    return M, src.group, tgt.group


def is_homology_iso(M: ExactMatrix, src: HomologyGroup, tgt: HomologyGroup) -> bool:
    """Decide whether an induced map (field coefficients) is an isomorphism."""
    if not src.base.is_field:
        raise ValueError("iso detection implemented for field coefficients")
    if src.dimension != tgt.dimension:
        return False
    if src.dimension == 0:
        return True
    return rank(M) == src.dimension


# ---------------------------------------------------------------------------
# presented complexes (quotient modules such as Z/n in each degree)


class PresentedChainComplex:
    """Complex of presented Z-modules coker(rel_d : Z^{r_d} -> Z^{f_d}).

    Differentials are given on the free covers and must carry relations
    into relations.  Relation matrices must be injective (true for all
    uses here: relation blocks are n * identity).  Homology is computed
    from the free total complex of the two-row resolution bicomplex.
    """

    def __init__(
        self,
        ranks: dict[int, int],
        diffs: dict[int, ExactMatrix],
        relations: dict[int, ExactMatrix] | None = None,
    ):
        self.ring = ZZ
        self.ranks = dict(ranks)
        self.diffs = dict(diffs)
        self.relations = dict(relations or {})

    def rank(self, d: int) -> int:
        return self.ranks.get(d, 0)

    def relation(self, d: int) -> ExactMatrix:
        R = self.relations.get(d)
        if R is None:
            return ExactMatrix.zero(ZZ, self.rank(d), 0)
        return R

    def diff(self, d: int) -> ExactMatrix:
        M = self.diffs.get(d)
        if M is None:
            return ExactMatrix.zero(ZZ, self.rank(d - 1), self.rank(d))
        return M

    def to_free_total(self) -> ChainComplex:
        degrees = sorted(set(self.ranks) | {d + 1 for d in self.relations})
        ranks = {}
        for d in degrees:
            ranks[d] = self.rank(d) + self.relation(d - 1).ncols
        diffs: dict[int, ExactMatrix] = {}
        lifts: dict[int, ExactMatrix] = {}
        for d in degrees:
            R = self.relation(d)
            if R.ncols and self.rank(d - 1):
                # lift of the differential to relation covers: diff o rel = rel o lift
                R_prev = self.relation(d - 1)
                Y = self.diff(d) * R
                if R_prev.ncols:
                    lifts[d] = integer_solve(R_prev, Y)
                elif not Y.is_zero():
                    raise ValueError(f"differential at degree {d} does not preserve relations")
        for d in degrees:
            f, r_prev = self.rank(d), self.relation(d - 1).ncols
            f_lo, r_lo = self.rank(d - 1), self.relation(d - 2).ncols
            entries: dict[tuple[int, int], int] = {}
            for (i, j), v in self.diff(d).entries.items():
                entries[(i, j)] = v
            for (i, j), v in self.relation(d - 1).entries.items():
                entries[(i, j + f)] = v
            L = lifts.get(d - 1)
            if L is not None:
                for (i, j), v in L.entries.items():
                    entries[(f_lo + i, f + j)] = -v
            diffs[d] = ExactMatrix(ZZ, f_lo + r_lo, f + r_prev, entries)
        return ChainComplex(ZZ, ranks, diffs)

    def homology(self, d: int) -> HomologyGroup:
        return complex_homology(self.to_free_total(), d)
