"""Exact values on the rational circle group Q/Z.

A CircleValue with exponent p/q stands for exp(2*pi*i*p/q).  Restricting to
torsion values keeps every comparison exact; all constructions here only ever
produce roots of unity.  The exponent is held as a reduced pair of ints
(num, den) with 0 <= num < den, so products, comparison and hashing are
plain integer arithmetic; no Fraction or float is involved until a caller
asks for ``exponent``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CircleValue:
    """A root of unity, stored as its reduced exponent num/den in [0, 1).

    CircleValue(Fraction(p, q)) and CircleValue(p, q) build the same value;
    instances are immutable and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, exponent: Fraction | int = 0, den: int | None = None):
        self.__post_init__(exponent, den)

    def __post_init__(self, num, den) -> None:
        if den is None:
            try:
                num, den = num.numerator, num.denominator
            except AttributeError:
                raise TypeError(f"exponent must be rational, got {num!r}") from None
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        num %= den
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"CircleValue is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CircleValue is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return CircleValue, (self.num, self.den)

    @classmethod
    def one(cls) -> CircleValue:
        return cls(0, 1)

    @classmethod
    def minus_one(cls) -> CircleValue:
        return cls(1, 2)

    @classmethod
    def half_integer_exp(cls, doubled_sum: int) -> CircleValue:
        """exp(pi*i*s) for s = doubled_sum / 2, i.e. exponent doubled_sum/4."""
        return cls(doubled_sum, 4)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other: CircleValue) -> CircleValue:
        if not other.num:
            return self
        if not self.num:
            return other
        den = self.den
        if den == other.den:
            num = self.num + other.num
            if num == den:
                return ONE
            return CircleValue(num, den)
        return CircleValue(
            self.num * other.den + other.num * den, den * other.den
        )

    def inverse(self) -> CircleValue:
        return CircleValue(-self.num, self.den)

    def __pow__(self, n: int) -> CircleValue:
        return CircleValue(self.num * n, self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not CircleValue:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def order(self) -> int:
        return self.den

    def is_one(self) -> bool:
        return self.num == 0

    def is_sign(self) -> bool:
        """True for the values +1 and -1."""
        return self.den <= 2

    def as_sign(self) -> int:
        """Return +1 or -1; requires is_sign()."""
        if self.den == 1:
            return 1
        if self.den == 2:
            return -1
        raise ValueError(f"not a sign: {self}")

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"CircleValue(exponent={self.exponent!r})"


_set_num = CircleValue.__dict__["num"].__set__
_set_den = CircleValue.__dict__["den"].__set__

ONE = CircleValue.one()
MINUS_ONE = CircleValue.minus_one()
