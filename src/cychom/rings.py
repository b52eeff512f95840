"""Exact ground rings: the integers, the rationals, and prime fields.

Every computation in this package is exact.  Scalars are plain Python
ints (for Z and F_p, the latter kept reduced to 0..p-1) or
fractions.Fraction (for Q).  A BaseRing value is a small immutable tag
that knows how to do arithmetic on such scalars; it is hashable so it
can key memo tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class BaseRing:
    """Tag for one of the supported exact coefficient rings.

    kind is "Z", "Q" or "Fp"; p is the modulus and only present for
    prime fields.
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown base ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"prime-field modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"base ring {self.kind!r} takes no modulus")

    # -- basic structure -------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "Q" else 1

    def coerce(self, x: Scalar) -> Scalar:
        """Bring an int (or Fraction, over Q) into normal form."""
        if self.kind == "Fp":
            if not isinstance(x, int):
                raise TypeError(f"prime-field scalar must be int, got {type(x)}")
            return x % self.p
        if self.kind == "Q":
            return Fraction(x)
        if not isinstance(x, int):
            raise TypeError(f"integer scalar must be int, got {type(x)}")
        return x

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        c = a + b
        return c % self.p if self.kind == "Fp" else c

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        c = a - b
        return c % self.p if self.kind == "Fp" else c

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        c = a * b
        return c % self.p if self.kind == "Fp" else c

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_unit(self, a: Scalar) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def inv(self, a: Scalar) -> Scalar:
        """Multiplicative inverse; raises ZeroDivisionError/ValueError as appropriate."""
        if self.kind == "Fp":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero in prime field")
            return pow(a, -1, self.p)
        if self.kind == "Q":
            return Fraction(1) / Fraction(a)
        if a in (1, -1):
            return a
        raise ValueError(f"{a} is not a unit in Z")

    # -- misc ---------------------------------------------------------------

    def label(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


ZZ = BaseRing("Z")
QQ = BaseRing("Q")

_gf_cache: dict[int, BaseRing] = {}


def GF(p: int) -> BaseRing:
    """The prime field with p elements."""
    if p not in _gf_cache:
        _gf_cache[p] = BaseRing("Fp", p)
    return _gf_cache[p]


def ring_from_name(name: str, p: int | None = None) -> BaseRing:
    """Parse a base-ring name as used in CLI flags and JSON algebra files."""
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name == "Fp":
        if p is None:
            raise ValueError("base Fp requires a prime p")
        return GF(p)
    raise ValueError(f"unknown base ring name {name!r} (expected Z, Q or Fp)")
