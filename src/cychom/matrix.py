"""Sparse exact matrices over Z, Q or a prime field.

An ExactMatrix stores only nonzero entries in a dict keyed by
(row, col).  Construction normalizes every entry through the ring and
drops zeros, so two matrices are equal iff their entry dicts are.
Instances are treated as immutable; all operations return new
matrices.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .rings import BaseRing, Scalar


class ExactMatrix:
    __slots__ = ("ring", "nrows", "ncols", "entries", "_cols")

    def __init__(
        self,
        ring: BaseRing,
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], Scalar] | None = None,
        _normalized: bool = False,
    ):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self._cols: dict[int, dict[int, Scalar]] | None = None
        if entries is None:
            self.entries: dict[tuple[int, int], Scalar] = {}
        elif _normalized:
            self.entries = dict(entries)
        else:
            norm = {}
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols} matrix")
                v = ring.coerce(v)
                if v != 0:
                    norm[(i, j)] = v
            self.entries = norm

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring: BaseRing, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(ring, nrows, ncols, None)

    @classmethod
    def identity(cls, ring: BaseRing, n: int) -> "ExactMatrix":
        one = ring.one
        return cls(ring, n, n, {(i, i): one for i in range(n)}, _normalized=True)

    @classmethod
    def from_rows(cls, ring: BaseRing, rows: Iterable[Iterable[Scalar]]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = ring.coerce(v)
                if v != 0:
                    entries[(i, j)] = v
        return cls(ring, nrows, ncols, entries, _normalized=True)

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries.get((i, j), self.ring.zero)

    def col(self, j: int) -> dict[int, Scalar]:
        """Column j as a sparse {row: value} dict (cached per matrix)."""
        if self._cols is None:
            cols: dict[int, dict[int, Scalar]] = {}
            for (i, jj), v in self.entries.items():
                cols.setdefault(jj, {})[i] = v
            self._cols = cols
        return dict(self._cols.get(j, {}))

    def to_rows(self) -> list[list[Scalar]]:
        zero = self.ring.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    # -- algebra ------------------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed base rings")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        ring = self.ring
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = ring.add(out.get(k, 0), v)
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return ExactMatrix(ring, self.nrows, self.ncols, out, _normalized=True)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(self.ring.neg(self.ring.one))

    def __neg__(self) -> "ExactMatrix":
        return self.scale(self.ring.neg(self.ring.one))

    def scale(self, c: Scalar) -> "ExactMatrix":
        ring = self.ring
        c = ring.coerce(c)
        if c == 0:
            return ExactMatrix.zero(ring, self.nrows, self.ncols)
        out = {k: ring.mul(v, c) for k, v in self.entries.items()}
        out = {k: v for k, v in out.items() if v != 0}
        return ExactMatrix(ring, self.nrows, self.ncols, out, _normalized=True)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise ValueError("mixed base rings")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        ring = self.ring
        # column-oriented: result column j = self applied to other's column j
        out: dict[tuple[int, int], Scalar] = {}
        self_cols = {}
        for (i, k), v in self.entries.items():
            self_cols.setdefault(k, []).append((i, v))
        for (k, j), w in other.entries.items():
            hits = self_cols.get(k)
            if not hits:
                continue
            for i, v in hits:
                key = (i, j)
                s = ring.add(out.get(key, 0), ring.mul(v, w))
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return ExactMatrix(ring, self.nrows, other.ncols, out, _normalized=True)

    # named aliases; handy when folding products in loops
    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other

    def sub(self, other: "ExactMatrix") -> "ExactMatrix":
        return self - other

    def neg(self) -> "ExactMatrix":
        return -self

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        return self * other

    def transpose(self) -> "ExactMatrix":
        out = {(j, i): v for (i, j), v in self.entries.items()}
        return ExactMatrix(self.ring, self.ncols, self.nrows, out, _normalized=True)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring or self.nrows != other.nrows:
            raise ValueError("hstack shape mismatch")
        out = dict(self.entries)
        off = self.ncols
        for (i, j), v in other.entries.items():
            out[(i, j + off)] = v
        return ExactMatrix(self.ring, self.nrows, self.ncols + other.ncols, out, _normalized=True)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring or self.ncols != other.ncols:
            raise ValueError("vstack shape mismatch")
        out = dict(self.entries)
        off = self.nrows
        for (i, j), v in other.entries.items():
            out[(i + off, j)] = v
        return ExactMatrix(self.ring, self.nrows + other.nrows, self.ncols, out, _normalized=True)

    def submatrix(self, rows: list[int], cols: list[int]) -> "ExactMatrix":
        rpos = {r: i for i, r in enumerate(rows)}
        cpos = {c: j for j, c in enumerate(cols)}
        out = {}
        for (i, j), v in self.entries.items():
            if i in rpos and j in cpos:
                out[(rpos[i], cpos[j])] = v
        return ExactMatrix(self.ring, len(rows), len(cols), out, _normalized=True)

    # -- comparison / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def __repr__(self) -> str:
        return f"ExactMatrix({self.ring.label()}, {self.nrows}x{self.ncols}, nnz={self.nnz})"
