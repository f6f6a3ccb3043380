"""Slope arithmetic on the Stern-Brocot / Farey ladder.

Slopes are reduced non-negative fractions a/b written projectively, so the
point at infinity is the pair (1, 0).  Consecutive lines on a nodal surface
always carry unimodular-adjacent slopes, and every freshly blown-up line
carries the mediant of its two neighbours; this module is the bookkeeping
for exactly those two facts, plus the mediant descent that walks from the
ladder's top down to a prescribed slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSlope, NonTermination, OrderViolation, ParseError

__all__ = [
    "Slope",
    "INF",
    "ZERO",
    "mediant",
    "unimodular",
    "farey_path",
]


@dataclass(frozen=True, order=False)
class Slope:
    """A reduced slope a/b with b = 0 reserved for the infinite slope."""

    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if a < 0 or b < 0:
            raise InvalidSlope(f"negative slope components ({a}, {b})")
        if a == 0 and b == 0:
            raise InvalidSlope("slope (0, 0) is not a point of the ladder")
        g = math.gcd(a, b)
        if g != 1:
            object.__setattr__(self, "a", a // g)
            object.__setattr__(self, "b", b // g)

    # -- ordering by cross multiplication; (1, 0) is the maximum ------------

    def __lt__(self, other: "Slope") -> bool:
        return self.a * other.b < other.a * self.b

    def __le__(self, other: "Slope") -> bool:
        return self.a * other.b <= other.a * self.b

    def __gt__(self, other: "Slope") -> bool:
        return other < self

    def __ge__(self, other: "Slope") -> bool:
        return other <= self

    @property
    def is_infinite(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 1

    def floor(self) -> int:
        if self.is_infinite:
            raise InvalidSlope("floor of the infinite slope")
        return self.a // self.b

    def shift(self, k: int) -> "Slope":
        """Subtract the integer k, staying non-negative."""
        if self.is_infinite:
            return self
        if self.a - k * self.b < 0:
            raise InvalidSlope(f"shift by {k} makes {self} negative")
        return Slope(self.a - k * self.b, self.b)

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.b == 1:
            return str(self.a)
        return f"{self.a}/{self.b}"

    def __repr__(self) -> str:
        return f"Slope({self.a}, {self.b})"

    @staticmethod
    def parse(text: str) -> "Slope":
        text = text.strip()
        if text in ("inf", "oo"):
            return INF
        try:
            if "/" in text:
                num, den = text.split("/")
                return Slope(int(num), int(den))
            return Slope(int(text), 1)
        except (ValueError, InvalidSlope) as exc:
            raise ParseError(f"bad slope {text!r}") from exc


INF = Slope(1, 0)
ZERO = Slope(0, 1)


def mediant(left: Slope, right: Slope) -> Slope:
    """Componentwise sum of two slopes with left < right.

    For unimodular-adjacent inputs the sum is already reduced; the Slope
    constructor re-reduces anyway so callers never see an unreduced pair.
    """
    if not left < right:
        raise OrderViolation(f"mediant needs {left} < {right}")
    return Slope(left.a + right.a, left.b + right.b)


def unimodular(left: Slope, right: Slope) -> bool:
    """True when right.a * left.b - left.a * right.b equals one."""
    return right.a * left.b - left.a * right.b == 1


def farey_path(target: Slope) -> list[Slope]:
    """Mediant descent from [0, 1] down to ``target``.

    Starts with 0/1 and 1/1 and repeatedly inserts the mediant of the pair
    currently bracketing the target, recording every intermediate slope; the
    sequence stops exactly when the target itself appears.  Requires a finite
    target with 0 < target <= 1.
    """
    if target.is_infinite:
        raise InvalidSlope("farey_path requires a finite target")
    if not ZERO < target or not target <= Slope(1, 1):
        raise InvalidSlope(f"farey_path target {target} outside (0, 1]")

    lo, hi = ZERO, Slope(1, 1)
    path = [lo, hi]
    if target == hi:
        return path
    cap = 4 * (target.a + target.b)
    for _ in range(cap):
        mid = mediant(lo, hi)
        path.append(mid)
        if mid == target:
            return path
        if target < mid:
            hi = mid
        else:
            lo = mid
    raise NonTermination(f"farey_path({target}) exceeded {cap} iterations")
