"""Finite-dimensional associative unital algebras from structure constants.

An Algebra stores e_i * e_j = sum_k c[i][j][k] e_k over a BaseRing plus
the coordinates of 1.  Validation brute-forces associativity on basis
triples and the unit laws.  The catalog provides the standard test
algebras; each is produced with the unit as the zeroth basis vector
(rebasing if necessary) because the normalized bar constructions index
their bases by "no unit in interior slots".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .matrix import ExactMatrix
from .rings import BaseRing, Scalar, ring_from_name
from .linalg import integer_solve, rank, solve_field
from .snf import smith_normal_form


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Algebra:
    base: BaseRing
    dim: int
    structure: tuple  # structure[i][j] = tuple of (k, coeff) pairs, sparse
    unit: tuple

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_structure_constants(base: BaseRing, dim: int, structure, unit) -> "Algebra":
        """Validate and build; structure is dense c[i][j][k], unit a vector."""
        if dim < 1:
            raise AlgebraError("dim must be >= 1")
        if len(structure) != dim or any(
            len(row) != dim or any(len(v) != dim for v in row) for row in structure
        ):
            raise AlgebraError("structure constants must be a dim^3 array")
        if len(unit) != dim:
            raise AlgebraError("unit vector has the wrong length")
        sparse = tuple(
            tuple(
                tuple((k, base.coerce(c)) for k, c in enumerate(structure[i][j]) if base.coerce(c) != 0)
                for j in range(dim)
            )
            for i in range(dim)
        )
        A = Algebra(base, dim, sparse, tuple(base.coerce(u) for u in unit))
        A._validate()
        return A

    def _validate(self) -> None:
        base = self.base
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.multiply(self.basis_product(i, j), {k: base.one})
                    rhs = self.multiply({i: base.one}, self.basis_product(j, k))
                    if lhs != rhs:
                        raise AlgebraError(
                            f"associativity fails at basis triple ({i}, {j}, {k})"
                        )
        u = {i: c for i, c in enumerate(self.unit) if c != 0}
        for i in range(self.dim):
            e = {i: base.one}
            if self.multiply(u, e) != e or self.multiply(e, u) != e:
                raise AlgebraError(f"unit law fails at basis vector {i}")

    # -- arithmetic on sparse coordinate vectors ------------------------------

    def basis_product(self, i: int, j: int) -> dict[int, Scalar]:
        return {k: c for k, c in self.structure[i][j]}

    def multiply(self, x: dict[int, Scalar], y: dict[int, Scalar]) -> dict[int, Scalar]:
        base = self.base
        out: dict[int, Scalar] = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = base.mul(a, b)
                if ab == 0:
                    continue
                for k, c in self.structure[i][j]:
                    v = base.add(out.get(k, base.zero), base.mul(ab, c))
                    if v == 0:
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    @property
    def unit_is_basis_zero(self) -> bool:
        return self.unit == tuple(
            self.base.one if i == 0 else self.base.zero for i in range(self.dim)
        )

    # -- transformations ------------------------------------------------------

    def rebased(self, P: ExactMatrix) -> "Algebra":
        """Algebra in the basis f_j = sum_i P[i][j] e_i (P invertible)."""
        base = self.base
        dim = self.dim
        dense = [[[base.zero] * dim for _ in range(dim)] for _ in range(dim)]
        # products f_a f_b in old coordinates, then solved back through P
        cols = {}
        for a in range(dim):
            cols[a] = {i: P.entry(i, a) for i in range(dim) if P.entry(i, a) != 0}
        entries = {}
        for a in range(dim):
            for b in range(dim):
                prod = self.multiply(cols[a], cols[b])
                for i, c in prod.items():
                    entries[(i, a * dim + b)] = c
        prods = ExactMatrix(base, dim, dim * dim, entries)
        solver = solve_field if base.is_field else integer_solve
        coords = solver(P, prods)
        for a in range(dim):
            for b in range(dim):
                for k in range(dim):
                    dense[a][b][k] = coords.entry(k, a * dim + b)
        unit_col = ExactMatrix(base, dim, 1, {(i, 0): c for i, c in enumerate(self.unit) if c != 0})
        new_unit = solver(P, unit_col)
        return Algebra.from_structure_constants(
            base, dim, dense, [new_unit.entry(i, 0) for i in range(dim)]
        )

    def with_unit_first(self) -> "Algebra":
        """Equivalent algebra whose zeroth basis vector is the unit.

        A unit coordinate invertible in the base swaps the unit in for its
        basis vector.  Over Z there may be none, as in (3, -3, 2), but the
        coordinate gcd c is 1: write 1 = c*v with v integral and primitive,
        then v = c*v^2, so c divides every coordinate of v.  The unit column
        u then has Smith form U u V = e_0, and P = V[0][0] * U^{-1} is
        unimodular with first column u.
        """
        if self.unit_is_basis_zero:
            return self
        base = self.base
        pivot = None
        for i, c in enumerate(self.unit):
            if c != 0 and base.is_unit(c):
                pivot = i
                break
        dim = self.dim
        if pivot is None:
            u = ExactMatrix(base, dim, 1, {(i, 0): c for i, c in enumerate(self.unit)})
            U, _, V = smith_normal_form(u)
            P = integer_solve(U, ExactMatrix.identity(base, dim).scale(V.entry(0, 0)))
            return self.rebased(P)
        # new basis: f_0 = 1, f_j = e_{j'} for the other indices in order
        others = [i for i in range(dim) if i != pivot]
        entries = {}
        for i, c in enumerate(self.unit):
            if c != 0:
                entries[(i, 0)] = c
        for col, i in enumerate(others, start=1):
            entries[(i, col)] = base.one
        P = ExactMatrix(self.base, dim, dim, entries)
        return self.rebased(P)

    # -- invariants ------------------------------------------------------------

    def commutator_quotient(self) -> int:
        """dim A/[A,A]; classical HC_0 oracle."""
        if not self.base.is_field:
            raise AlgebraError("commutator quotient needs a field base")
        entries = {}
        col = 0
        for i in range(self.dim):
            for j in range(self.dim):
                comm = self.multiply({i: self.base.one}, {j: self.base.one})
                back = self.multiply({j: self.base.one}, {i: self.base.one})
                for k, c in back.items():
                    comm[k] = self.base.sub(comm.get(k, self.base.zero), c)
                comm = {k: c for k, c in comm.items() if c != 0}
                if comm:
                    for k, c in comm.items():
                        entries[(k, col)] = c
                    col += 1
        M = ExactMatrix(self.base, self.dim, col, entries)
        return self.dim - (rank(M) if col else 0)


# ---------------------------------------------------------------------------
# catalog


def _poly_is_irreducible(tail: list[int], p: int) -> bool:
    """Whether x^k - (tail_{k-1} x^{k-1} + ... + tail_0) is irreducible over F_p.

    It is reducible exactly when a monic polynomial of degree 1..k//2
    divides it, so every such polynomial is tried.  Degrees above 4 are
    outside the catalog's scale.
    """
    k = len(tail)
    if k > 4:
        raise AlgebraError("min-poly degrees above 4 are not supported")
    f = [(-c) % p for c in tail] + [1]  # ascending coefficients
    for m in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=m):
            g = [*low, 1]
            rem = list(f)
            for top in range(k, m - 1, -1):  # subtract rem[top] x^(top - m) g
                c = rem[top]
                for j in range(m + 1):
                    rem[top - m + j] = (rem[top - m + j] - c * g[j]) % p
            if not any(rem[:m]):
                return False
    return True


def catalog(name: str, base: BaseRing) -> Algebra:
    """Named test algebras; parametrized names use name(arg,...) syntax."""
    head, args = _parse_name(name)
    one, zero = base.one, base.zero

    if head == "ground-field":
        if not base.is_field:
            raise AlgebraError("ground-field needs a field base")
        return Algebra.from_structure_constants(base, 1, [[[one]]], [one])

    if head == "dual-numbers":
        return _truncated_poly(base, 2)

    if head == "truncated-poly":
        if len(args) != 1:
            raise AlgebraError("truncated-poly takes one parameter m >= 2")
        m = int(args[0])
        if m < 2:
            raise AlgebraError("truncated-poly needs m >= 2")
        return _truncated_poly(base, m)

    if head == "field-extension":
        if base.kind != "Fp":
            raise AlgebraError("field-extension needs an F_p base")
        if not args:
            raise AlgebraError("field-extension takes the min-poly tail coefficients")
        tail = [int(a) % base.p for a in args]
        if not _poly_is_irreducible(tail, base.p):
            raise AlgebraError(f"min-poly with tail {tail} is reducible over F_{base.p}")
        k = len(tail)
        dim = k
        dense = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        # basis 1, x, ..., x^{k-1}; x^k = sum tail_i x^i, higher powers by recursion
        powers = {e: {e: one} for e in range(k)}
        for e in range(k, 2 * k - 1):
            prev = powers[e - 1]
            nxt: dict[int, Scalar] = {}
            for i, c in prev.items():
                if i + 1 < k:
                    nxt[i + 1] = base.add(nxt.get(i + 1, zero), c)
                else:
                    for t, tc in enumerate(tail):
                        v = base.add(nxt.get(t, zero), base.mul(c, base.coerce(tc)))
                        nxt[t] = v
            powers[e] = {i: c for i, c in nxt.items() if c != 0}
        for i in range(dim):
            for j in range(dim):
                for t, c in powers[i + j].items():
                    dense[i][j][t] = c
        unit = [one] + [zero] * (dim - 1)
        return Algebra.from_structure_constants(base, dim, dense, unit)

    if head == "group-algebra":
        if len(args) != 1:
            raise AlgebraError("group-algebra takes the group order n >= 1")
        n = int(args[0])
        if n < 1:
            raise AlgebraError("group-algebra needs n >= 1")
        dense = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                dense[i][j][(i + j) % n] = one
        return Algebra.from_structure_constants(base, n, dense, [one] + [zero] * (n - 1))

    if head == "matrix-algebra":
        if len(args) != 1:
            raise AlgebraError("matrix-algebra takes the size n >= 1")
        n = int(args[0])
        if n < 1:
            raise AlgebraError("matrix-algebra needs n >= 1")
        dim = n * n
        dense = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if j == k:
                            dense[i * n + j][k * n + l][i * n + l] = one
        unit = [zero] * dim
        for i in range(n):
            unit[i * n + i] = one
        A = Algebra.from_structure_constants(base, dim, dense, unit)
        return A.with_unit_first()

    raise AlgebraError(f"unknown catalog algebra {head!r}")


def _truncated_poly(base: BaseRing, m: int) -> Algebra:
    one, zero = base.one, base.zero
    dense = [[[zero] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i + j < m:
                dense[i][j][i + j] = one
    return Algebra.from_structure_constants(base, m, dense, [one] + [zero] * (m - 1))


def _parse_name(name: str) -> tuple[str, list[str]]:
    name = name.strip()
    if "(" in name:
        if not name.endswith(")"):
            raise AlgebraError(f"malformed algebra name {name!r}")
        head, rest = name.split("(", 1)
        args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
        return head.strip(), args
    return name, []


CATALOG_NAMES = (
    "ground-field",
    "dual-numbers",
    "truncated-poly(3)",
    "field-extension(1,1)",
    "group-algebra(2)",
    "group-algebra(3)",
    "matrix-algebra(2)",
)


# ---------------------------------------------------------------------------
# JSON interchange


def algebra_from_json(doc: dict | str) -> Algebra:
    """Load from the CLI's JSON schema: base/p/dim/structure/unit."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        base = ring_from_name(doc["base"], doc.get("p"))
        dim = int(doc["dim"])
        structure = doc["structure"]
        unit = doc["unit"]
    except KeyError as missing:
        raise AlgebraError(f"algebra JSON is missing field {missing}")
    return Algebra.from_structure_constants(base, dim, structure, unit)


def algebra_to_json(A: Algebra) -> dict:
    dense = [
        [[_scalar_to_int(A, A.basis_product(i, j).get(k, A.base.zero)) for k in range(A.dim)] for j in range(A.dim)]
        for i in range(A.dim)
    ]
    doc = {
        "base": A.base.kind,
        "dim": A.dim,
        "structure": dense,
        "unit": [_scalar_to_int(A, u) for u in A.unit],
    }
    if A.base.kind == "Fp":
        doc["p"] = A.base.p
    return doc


def _scalar_to_int(A: Algebra, c: Scalar) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise AlgebraError("cannot serialize non-integer rational structure constants")
        return int(c)
    return int(c)
