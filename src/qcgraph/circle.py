"""Exact values on the rational circle group Q/Z.

A CircleValue with exponent p/q stands for exp(2*pi*i*p/q).  Restricting to
torsion values keeps every comparison exact; all constructions here only ever
produce roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CircleValue:
    """A root of unity, stored as its reduced exponent in [0, 1)."""

    exponent: Fraction

    def __post_init__(self):
        reduced = self.exponent % 1
        if reduced != self.exponent:
            object.__setattr__(self, "exponent", reduced)

    @classmethod
    def one(cls) -> CircleValue:
        return cls(Fraction(0))

    @classmethod
    def minus_one(cls) -> CircleValue:
        return cls(Fraction(1, 2))

    @classmethod
    def half_integer_exp(cls, doubled_sum: int) -> CircleValue:
        """exp(pi*i*s) for s = doubled_sum / 2, i.e. exponent doubled_sum/4."""
        return cls(Fraction(doubled_sum, 4))

    def __mul__(self, other: CircleValue) -> CircleValue:
        return CircleValue(self.exponent + other.exponent)

    def inverse(self) -> CircleValue:
        return CircleValue(-self.exponent)

    def __pow__(self, n: int) -> CircleValue:
        return CircleValue(self.exponent * n)

    @property
    def order(self) -> int:
        return self.exponent.denominator

    def is_one(self) -> bool:
        return self.exponent == 0

    def is_sign(self) -> bool:
        """True for the values +1 and -1."""
        return self.exponent.denominator <= 2

    def as_sign(self) -> int:
        """Return +1 or -1; requires is_sign()."""
        if self.exponent == 0:
            return 1
        if self.exponent == Fraction(1, 2):
            return -1
        raise ValueError(f"not a sign: {self}")

    def __str__(self) -> str:
        return f"{self.exponent.numerator}/{self.exponent.denominator}"


ONE = CircleValue.one()
MINUS_ONE = CircleValue.minus_one()
