"""The per-tuple operator builders that `cychom.cyclic` replaced: the test oracle.

Each function decodes one basis tuple at a time, multiplies through
`Algebra.basis_product` and encodes the targets, exactly as the bar
modules used to.  The norm is the sum of the powers of t, formed by
sparse matrix products.  The tests compare the numpy assembly of
`CyclicModule` and `NormalizedBarModule`, and the `SummandOps` engine
behind it, against these entry dict for entry dict.  `dense_complex` builds the dense Hochschild complexes that
`hh` is checked against.  Not collected by pytest; the tests import it.
"""

from __future__ import annotations

from cychom.algebra import Algebra
from cychom.complexes import ChainComplex
from cychom.matrix import ExactMatrix


def dense_complex(module, n_max: int, boundary) -> ChainComplex:
    """The complex of boundary(n) : module_n -> module_{n-1}, n <= n_max, as dense matrices.

    module is a CyclicModule or a NormalizedBarModule, and boundary one of
    its matrix methods, e.g. hochschild_boundary: the oracle of `hh`.
    """
    ranks = {n: module.rank(n) for n in range(n_max + 1)}
    return ChainComplex(module.base, ranks, {n: boundary(n) for n in range(1, n_max + 1)})


# -- the bar module: tuples coded big-endian base dim(A)


def _decode(d: int, n: int, code: int) -> list[int]:
    digits = []
    for _ in range(n + 1):
        digits.append(code % d)
        code //= d
    digits.reverse()
    return digits


def _encode(d: int, digits) -> int:
    code = 0
    for x in digits:
        code = code * d + x
    return code


def face(A: Algebra, n: int, i: int) -> ExactMatrix:
    base, d = A.base, A.dim
    entries = {}
    for col in range(d ** (n + 1)):
        a = _decode(d, n, col)
        if i < n:
            prod = A.basis_product(a[i], a[i + 1])
            rest = a[:i] + [0] + a[i + 2 :]
            slot = i
        else:
            prod = A.basis_product(a[n], a[0])
            rest = [0] + a[1:n]
            slot = 0
        for k, c in prod.items():
            rest[slot] = k
            row = _encode(d, rest)
            prev = entries.get((row, col))
            entries[(row, col)] = c if prev is None else base.add(prev, c)
    return ExactMatrix(base, d**n, d ** (n + 1), entries)


def degeneracy(A: Algebra, n: int, j: int) -> ExactMatrix:
    d = A.dim
    entries = {}
    for col in range(d ** (n + 1)):
        a = _decode(d, n, col)
        for u, c in enumerate(A.unit):
            if c != 0:
                entries[(_encode(d, a[: j + 1] + [u] + a[j + 1 :]), col)] = c
    return ExactMatrix(A.base, d ** (n + 2), d ** (n + 1), entries)


def cyclic(A: Algebra, n: int) -> ExactMatrix:
    base, d = A.base, A.dim
    size = d ** (n + 1)
    sign = base.coerce(1 if n % 2 == 0 else -1)
    entries = {}
    for col in range(size):
        a = _decode(d, n, col)
        entries[(_encode(d, [a[n]] + a[:n]), col)] = sign
    return ExactMatrix(base, size, size, entries)


def norm(A: Algebra, n: int) -> ExactMatrix:
    t = cyclic(A, n)
    acc = ExactMatrix.identity(A.base, A.dim ** (n + 1))
    out = acc
    for _ in range(n):
        acc = t.mul(acc)
        out = out.add(acc)
    return out


# -- the normalized module: slot 0 in 0..d-1, slots 1..n in 1..d-1


def _ndecode(d: int, n: int, code: int) -> list[int]:
    tail = []
    for _ in range(n):
        tail.append(code % (d - 1) + 1)
        code //= d - 1
    tail.append(code)
    tail.reverse()
    return tail


def _nencode(d: int, digits) -> int:
    code = digits[0]
    for x in digits[1:]:
        code = code * (d - 1) + (x - 1)
    return code


def _nrank(d: int, n: int) -> int:
    return d * (d - 1) ** n


def normalized_boundary(A: Algebra, n: int) -> ExactMatrix:
    """b-bar : X-bar_n -> X-bar_{n-1} for n >= 1; A has its unit as basis 0."""
    base, d = A.base, A.dim
    entries = {}
    for col in range(_nrank(d, n)):
        a = _ndecode(d, n, col)
        for i in range(n + 1):
            sign = base.coerce(1 if i % 2 == 0 else -1)
            if i < n:
                prod = A.basis_product(a[i], a[i + 1])
                head, tail = a[:i], a[i + 2 :]
            else:
                prod = A.basis_product(a[n], a[0])
                head, tail = [], a[1:n]
            for k, c in prod.items():
                digits = head + [k] + tail
                if any(x == 0 for x in digits[1:]):
                    continue
                row = _nencode(d, digits)
                v = base.add(entries.get((row, col), base.zero), base.mul(sign, c))
                if v == 0:
                    entries.pop((row, col), None)
                else:
                    entries[(row, col)] = v
    return ExactMatrix(base, _nrank(d, n - 1), _nrank(d, n), entries)


def normalized_connes(A: Algebra, n: int) -> ExactMatrix:
    """B-bar : X-bar_n -> X-bar_{n+1}; A has its unit as basis 0."""
    base, d = A.base, A.dim
    entries = {}
    for col in range(_nrank(d, n)):
        a = _ndecode(d, n, col)
        for i in range(n + 1):
            rotated = [0] + a[i:] + a[:i]
            if any(x == 0 for x in rotated[1:]):
                continue
            sign = base.coerce(1 if (n * i) % 2 == 0 else -1)
            row = _nencode(d, rotated)
            v = base.add(entries.get((row, col), base.zero), sign)
            if v == 0:
                entries.pop((row, col), None)
            else:
                entries[(row, col)] = v
    return ExactMatrix(base, _nrank(d, n + 1), _nrank(d, n), entries)


def inclusion(A: Algebra, n: int) -> ExactMatrix:
    d = A.dim
    entries = {}
    for col in range(_nrank(d, n)):
        entries[(_encode(d, _ndecode(d, n, col)), col)] = A.base.one
    return ExactMatrix(A.base, d ** (n + 1), _nrank(d, n), entries)


def projection(A: Algebra, n: int) -> ExactMatrix:
    d = A.dim
    entries = {}
    for col in range(d ** (n + 1)):
        digits = _decode(d, n, col)
        if any(x == 0 for x in digits[1:]):
            continue
        entries[(_nencode(d, digits), col)] = A.base.one
    return ExactMatrix(A.base, _nrank(d, n), d ** (n + 1), entries)
