"""Closed intervals with exact rational endpoints.

Ball-dependent quantities are reported as two-sided brackets.  Keeping the
endpoints as Fractions means interval arithmetic itself introduces no
rounding; floats appear only when callers ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import as_scalar


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "Interval":
        x = as_scalar(x)
        return Interval(x, x)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = as_scalar(x) if not isinstance(x, float) else Fraction(x)
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        prods = [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi]
        return Interval(min(prods), max(prods))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor straddles zero")
        quots = [self.lo / other.lo, self.lo / other.hi, self.hi / other.lo, self.hi / other.hi]
        return Interval(min(quots), max(quots))

    def as_floats(self) -> tuple[float, float]:
        return float(self.lo), float(self.hi)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"
