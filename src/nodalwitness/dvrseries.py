"""Truncated power-series arithmetic over exact rationals.

The computable model of a one-dimensional henselian base: an element is
x^val times a unit series with nonzero constant term.  A series is either
*exact* (it IS the stored polynomial) or truncated, in which case only the
stored window of coefficients is known.  Any operation whose outcome the
window does not determine raises PrecisionExhausted instead of guessing;
equality is precision-relative and never raises.

Negative valuations are allowed internally (the fraction field is needed
for unit inversion and for Groebner runs over the generic fiber) but the
public ring model in `localring` keeps valuations non-negative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import (
    DivisionImpossible,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
)
from .polyring import power

DEFAULT_PREC = 16


class Series:
    """x^val * (c0 + c1 x + c2 x^2 + ...), c0 != 0; or the exact zero."""

    __slots__ = ("val", "coeffs", "exact")

    def __init__(self, val: int, coeffs: tuple, exact: bool):
        # Internal constructor; use Series.make for canonicalization.
        self.val = val
        self.coeffs = coeffs
        self.exact = exact

    # -- construction --------------------------------------------------------

    @staticmethod
    def zero() -> "Series":
        return _ZERO

    @staticmethod
    def make(val: int, coeffs, exact: bool) -> "Series":
        """Canonicalize: strip leading zeros, detect zero, trim exact tails."""
        coeffs = [Fraction(c) for c in coeffs]
        i = 0
        while i < len(coeffs) and coeffs[i] == 0:
            i += 1
        if i == len(coeffs):
            if exact:
                return _ZERO
            raise PrecisionExhausted(
                "series is zero to the tracked order; result undetermined"
            )
        val += i
        coeffs = coeffs[i:]
        if exact:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        return Series(val, tuple(coeffs), exact)

    @staticmethod
    def from_fraction(c) -> "Series":
        c = Fraction(c)
        if c == 0:
            return _ZERO
        return Series(0, (c,), True)

    @staticmethod
    def monomial(val: int, c=Fraction(1)) -> "Series":
        c = Fraction(c)
        if c == 0:
            return _ZERO
        return Series(val, (c,), True)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        return bool(self.coeffs) and self.val == 0

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1 and self.exact

    @property
    def rel_prec(self) -> Optional[int]:
        """Known coefficient count past the valuation; None means all."""
        if self.exact or self.is_zero():
            return None
        return len(self.coeffs)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k, when determined."""
        if self.is_zero():
            return Fraction(0)
        i = k - self.val
        if i < 0:
            return Fraction(0)
        if i < len(self.coeffs):
            return self.coeffs[i]
        if self.exact:
            return Fraction(0)
        raise PrecisionExhausted(f"coefficient of x^{k} beyond tracked window")

    def residue(self) -> Fraction:
        """Image in the residue field (the constant coefficient)."""
        if self.is_zero():
            return Fraction(0)
        if self.val < 0:
            raise PreconditionViolated("residue of a Laurent element")
        return self.coeffs[0] if self.val == 0 else Fraction(0)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.val, other.val)
        his = []
        if not self.exact:
            his.append(self.val + len(self.coeffs))
        if not other.exact:
            his.append(other.val + len(other.coeffs))
        if his:
            hi = min(his)
            exact = False
            if hi <= lo:
                raise PrecisionExhausted("windows of summands do not overlap")
        else:
            hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
            exact = True
        out = [self.coeff(k) + other.coeff(k) for k in range(lo, hi)]
        return Series.make(lo, out, exact)

    def __neg__(self) -> "Series":
        if self.is_zero():
            return self
        return Series(self.val, tuple(-c for c in self.coeffs), self.exact)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        if self.is_zero() or other.is_zero():
            return _ZERO
        if self.exact and other.exact:
            n = len(self.coeffs) + len(other.coeffs) - 1
            exact = True
        else:
            rels = [
                r for r in (self.rel_prec, other.rel_prec) if r is not None
            ]
            n = min(rels)
            exact = False
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if i >= n:
                break
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] += a * b
        return Series.make(self.val + other.val, out, exact)

    def inverse(self, prec: int = DEFAULT_PREC) -> "Series":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero series")
        c0 = self.coeffs[0]
        if self.is_monomial():
            return Series(-self.val, (1 / c0,), True)
        n = self.rel_prec if self.rel_prec is not None else prec
        inv = [1 / c0] + [Fraction(0)] * (n - 1)
        for k in range(1, n):
            s = Fraction(0)
            for j in range(1, k + 1):
                aj = self.coeffs[j] if j < len(self.coeffs) else Fraction(0)
                s += aj * inv[k - j]
            inv[k] = -s / c0
        return Series(-self.val, tuple(inv), False)

    def divide(self, other: "Series", prec: int = DEFAULT_PREC) -> "Series":
        """Field division; the result may have negative valuation."""
        return self * other.inverse(prec)

    def divide_in_ring(self, other: "Series", prec: int = DEFAULT_PREC) -> "Series":
        """Exact division within the ring (quotient valuation >= 0)."""
        q = self.divide(other, prec)
        if not q.is_zero() and q.val < 0:
            raise DivisionImpossible(
                f"valuation {self.val} element not divisible (divisor val {other.val})"
            )
        return q

    def __pow__(self, n: int) -> "Series":
        return power(self, n, Series.from_fraction(1))

    def nth_root_unit(self, n: int, prec: int = DEFAULT_PREC) -> "Series":
        """Hensel/Newton n-th root of a unit; rational-root residue required."""
        if not self.is_unit():
            raise PreconditionViolated("n-th root defined for units only")
        c0 = _rational_root(self.coeffs[0], n)
        if c0 is None:
            raise RootUnavailable(f"{self.coeffs[0]} has no rational {n}-th root")
        window = self.rel_prec if self.rel_prec is not None else prec
        g = [c0] + [Fraction(0)] * (window - 1)
        # lift order by order: given g correct mod x^k, fix coefficient k
        for k in range(1, window):
            # (g + e x^k)^n = g^n + n g0^{n-1} e x^k mod x^{k+1}
            gn = Series.make(0, g[: k + 1], False) ** n
            want = self.coeff(self.val + k)  # val is 0
            err = want - gn.coeff(k)
            g[k] = err / (n * c0 ** (n - 1))
        root = Series.make(0, g, False)
        if self.exact:
            cand = Series.make(0, g, True)
            if (cand**n) == self and (cand**n).exact:
                return cand
        return root

    def substitute_base(self, b: int) -> "Series":
        """Image under x -> x^b."""
        if self.is_zero():
            return self
        if b < 1:
            raise PreconditionViolated("substitution exponent must be >= 1")
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * b + 1)
        for i, c in enumerate(self.coeffs):
            out[i * b] = c
        return Series.make(self.val * b, out, self.exact)

    # -- comparison (precision-relative; never raises) ------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.val != other.val:
            return False
        if self.exact and other.exact:
            return self.coeffs == other.coeffs
        n = min(
            len(self.coeffs) if not self.exact else len(other.coeffs),
            len(other.coeffs) if not other.exact else len(self.coeffs),
        )
        return all(
            self.coeff(self.val + k) == other.coeff(self.val + k)
            for k in range(n)
        )

    def __hash__(self):
        if self.is_zero():
            return hash(("series", 0))
        return hash(("series", self.val, self.coeffs[0]))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Series(0)"
        tail = "" if self.exact else f" + O(x^{self.val + len(self.coeffs)})"
        body = " + ".join(
            f"{c}*x^{self.val + i}" for i, c in enumerate(self.coeffs) if c != 0
        )
        return f"Series({body}{tail})"


_ZERO = Series(0, (), True)


def _integer_nth_root(m: int, n: int) -> Optional[int]:
    if m < 0:
        if n % 2 == 0:
            return None
        r = _integer_nth_root(-m, n)
        return None if r is None else -r
    if m in (0, 1):
        return m
    lo, hi = 0, 1
    while hi**n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def _rational_root(c: Fraction, n: int) -> Optional[Fraction]:
    p = _integer_nth_root(c.numerator, n)
    q = _integer_nth_root(c.denominator, n)
    if p is None or q is None:
        return None
    return Fraction(p, q)


class LaurentField:
    """Coefficient-field adapter over truncated Laurent series.

    Used for Groebner runs over the generic fiber of the DVR base.  Zero
    tests inside a reduction can genuinely exhaust precision, in which case
    PrecisionExhausted propagates to the caller — an honest "don't know".
    """

    def __init__(self, prec: int = DEFAULT_PREC):
        self.prec = prec
        self.zero = _ZERO
        self.one = Series.from_fraction(1)

    @staticmethod
    def add(a: Series, b: Series) -> Series:
        return a + b

    @staticmethod
    def sub(a: Series, b: Series) -> Series:
        return a - b

    @staticmethod
    def mul(a: Series, b: Series) -> Series:
        return a * b

    def div(self, a: Series, b: Series) -> Series:
        return a.divide(b, self.prec)

    @staticmethod
    def neg(a: Series) -> Series:
        return -a

    @staticmethod
    def is_zero(a: Series) -> bool:
        return a.is_zero()
