"""Truncated power-series arithmetic over exact rationals.

The computable model of a one-dimensional henselian base: an element is
x^val times a unit series with nonzero constant term.  A series is either
*exact* (it IS the stored polynomial) or truncated, in which case only the
stored window of coefficients is known.  Any operation whose outcome the
window does not determine raises PrecisionExhausted instead of guessing;
equality is precision-relative and never raises.

A `Series` is the DVR model's `RingElement`.  Negative valuations are
allowed internally (the fraction field is needed for unit inversion), but
the ring's elements keep valuations non-negative.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import DivisionImpossible, PrecisionExhausted, PreconditionViolated
from .grammar import poly_to_text
from .polyring import Poly
from .ringelement import DEFAULT_PREC, RingElement, power_root


class Series(RingElement):
    """x^val * (c0 + c1 x + c2 x^2 + ...), c0 != 0; or the exact zero."""

    # the DVR model, and how the grammar reads one
    model = "dvr"
    variables = ["x"]
    allow_o = True
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
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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
        return Series.monomial(0, c)

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
        return self._plus(other, False)

    def __sub__(self, other: "Series") -> "Series":
        return self._plus(other, True)

    def _plus(self, other: "Series", negate: bool) -> "Series":
        """self + other, or self - other when `negate`.  The result keeps
        each term below the end of every truncated summand's window (all
        terms when both are exact).  One summand's stored coefficients are
        copied and the other's are added into them, so w - 1 for a unit w
        costs one Fraction operation."""
        self._match(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return -other if negate else other
        lo = min(self.val, other.val)
        his = []
        if not self.exact:
            his.append(self.val + len(self.coeffs))
        if not other.exact:
            his.append(other.val + len(other.coeffs))
        if his:
            # a truncated window ends past its summand's valuation, >= lo
            hi = min(his)
            exact = False
        else:
            hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
            exact = True
        # addition commutes, so a sum copies the longer window
        a, b = self, other
        if not negate and len(b.coeffs) > len(a.coeffs):
            a, b = b, a
        out = [_FZERO] * (hi - lo)
        kept = a.coeffs[: max(0, hi - a.val)]
        out[a.val - lo : a.val - lo + len(kept)] = kept
        for j, c in enumerate(b.coeffs[: max(0, hi - b.val)], b.val - lo):
            out[j] = out[j] - c if negate else out[j] + c
        return Series.make(lo, out, exact)

    def __neg__(self) -> "Series":
        if self.is_zero():
            return self
        return Series(self.val, tuple(-c for c in self.coeffs), self.exact)

    def __mul__(self, other: "Series") -> "Series":
        self._match(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        s, m = (other, self) if self.is_monomial() else (self, other)
        if m.is_monomial():
            # c*x^v scales and shifts s; a truncated s keeps its window
            c = m.coeffs[0]
            if m.val == 0 and c == 1:
                return s
            return Series(s.val + m.val, tuple(a * c for a in s.coeffs), s.exact)
        if self.exact and other.exact:
            n = len(self.coeffs) + len(other.coeffs) - 1
            exact = True
        else:
            rels = [
                r for r in (self.rel_prec, other.rel_prec) if r is not None
            ]
            n = min(rels)
            exact = False
        # convolve integer numerators over one denominator per operand
        a, da = _over_common_den(self.coeffs[:n])
        b, db = _over_common_den(other.coeffs[:n])
        out = [0] * n
        for i, ai in enumerate(a):
            for j, bj in enumerate(b[: n - i]):
                out[i + j] += ai * bj
        d = da * db
        return Series.make(self.val + other.val, [Fraction(c, d) for c in out], exact)

    def inverse(self, prec: int = DEFAULT_PREC) -> "Series":
        """1/self: the quotient `divide` gives for the exact numerator 1."""
        return _ONE.divide(self, prec)

    def divide(self, other: "Series", prec: int = DEFAULT_PREC) -> "Series":
        """Field division; the result may have negative valuation.  A monomial
        divisor scales and shifts; otherwise q_k = (a_k - sum_{1<=j<len b}
        b_j q_{k-j}) / b_0.  Exact operands with len a >= len b whose q_k
        vanish for len a - len b < k < len a have a polynomial quotient (every
        later q_k vanishes too), returned exact; all others get q_k for k
        below `prec` or a truncated operand's window."""
        if other.is_zero():
            raise DivisionImpossible("division by zero")
        if self.is_zero():
            return _ZERO
        a, b, val = self.coeffs, other.coeffs, self.val - other.val
        if other.is_monomial():
            if other.val == 0 and b[0] == 1:
                return self
            return Series(val, tuple(c / b[0] for c in a), self.exact)
        n = other.rel_prec or prec
        n = min(n, self.rel_prec or n)
        m = len(a) - len(b) + 1  # the quotient's length if b divides a
        stop = len(a) if self.exact and other.exact and m > 0 else 0
        q = []
        for k in range(max(n, stop)):
            s = a[k] if k < len(a) else 0
            for j in range(1, min(k + 1, len(b))):
                s -= b[j] * q[k - j]
            q.append(s / b[0])
            if k + 1 == stop and not any(q[m:]):
                return Series(val, tuple(q[:m]), True)
        return Series(val, tuple(q[:n]), False)

    def divide_in_ring(self, other: "Series", prec: int = DEFAULT_PREC) -> "Series":
        """`divide` within the ring: a zero divisor or a pole raises."""
        self._match(other)
        q = self.divide(other, prec)
        if not q.is_zero() and q.val < 0:
            raise DivisionImpossible(
                f"valuation {self.val} element not divisible (divisor val {other.val})"
            )
        return q

    def _unit_root(self, c0: Fraction, n: int, prec: int) -> "Series":
        """c0·g for g = (self/f_0)^(1/n), on the coefficients f of the unit
        self, to its window or prec."""
        f = self.coeffs
        window = self.rel_prec if self.rel_prec is not None else prec
        g = [c0 * c for c in power_root([c / f[0] for c in f], n, window, Fraction(1))]
        # exact exactly when the truncated root's n-th power is self
        return Series.make(0, g, self.exact and Series.make(0, g, True) ** n == self)

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

    # -- the model's rules, for nonzero operands: all read off valuations ------

    def divides(self, other: "Series") -> bool:
        """v(self) <= v(other): exact even for truncated operands (the
        leading term of a series is always known), with no precision."""
        return other.val >= self.val

    def powers_divide(self, m: int, other: "Series", n: int) -> tuple:
        """(self^m | other^n, other^n | self^m), with no powers built."""
        vm, vn = m * self.val, n * other.val
        return vm <= vn, vn <= vm

    @staticmethod
    def gcd(gens: list) -> "Series":
        return Series.monomial(min(g.val for g in gens))

    def in_ideal(self, gens: list) -> bool:
        return self.val >= min(g.val for g in gens)

    @staticmethod
    def radical(gens: list):
        """The test of membership in √(gens) for nonzero elements: the
        radical is the whole ring or the maximal ideal."""
        whole = min(g.val for g in gens) == 0
        return lambda f: whole or f.val >= 1

    def order(self) -> int:
        """Order of vanishing at the closed point, for self != 0."""
        return self.val

    @property
    def num(self) -> Poly:
        """The stored coefficients as a polynomial in x.  For an exact
        series of valuation >= 0 this is its value."""
        return Poly({(self.val + i,): c for i, c in enumerate(self.coeffs)}, 1)

    def polys(self) -> tuple[Poly, None]:
        """(num, den) as polynomials in x, the den None of the constant 1."""
        return self.num, None

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        body = poly_to_text(self.num, self.variables)
        if self.exact:
            return body
        return f"{body} + O(x^{self.val + len(self.coeffs)})"

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


def _over_common_den(coeffs) -> tuple[list, int]:
    """(ints, d) with coeffs[i] == ints[i] / d, d the least common
    denominator of the Fractions coeffs."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


_FZERO = Fraction(0)
_ZERO = Series(0, (), True)
_ONE = Series(0, (Fraction(1),), True)
