"""Parsing and printing of ring-element expressions.

One grammar serves every surface: the DVR model ("x^2*(1+3/2*x)",
optionally ending in "+ O(x^9)" for truncated tails), the bivariate model
("(u^2+v)/(1+u)"), and the S/T-extended polynomials carried by homotopy
witnesses.  Expressions evaluate to a raw rational function: a pair of
exact-rational polynomials plus an optional truncation order.  Model
validation (denominator a unit, O-tails only for series) happens in
`localring`, not here.

Grammar, informally:

    expr   := term (('+' | '-') term)*          O(x^k) legal only here
    term   := factor (('*' | '/') factor)*
    factor := '-'* atom ('^' integer)?
    atom   := integer | variable | '(' expr ')'
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import prod
from typing import Optional

from .errors import AnswerTooLarge, ParseError
from .polyring import Poly, mono_mul, power

# Input budgets, checked on the tokens before anything is built.  Every
# exponent, O(x^k) order and degree of a power is at most MAX_DEGREE.  A
# power of a polynomial with several terms is expanded by repeated squaring,
# whose cost grows with the square of the result's size; there the product
# of the result's degrees in each variable (its degree, in one variable) is
# at most MAX_EXPANDED_SIZE.  A k-th power's integers have at most k times
# its base's summed coefficient bits, a bound at most MAX_POWER_BITS.
MAX_DEGREE = 10_000
MAX_EXPANDED_SIZE = 500
MAX_POWER_BITS = 65_536

# One token: an integer, a name or a punctuation mark, all ASCII; any other
# visible character is caught by the second group.  Whitespace matches
# neither, so findall skips it.
_TOKEN = re.compile(r"([0-9]+|[A-Za-z][A-Za-z0-9]*|[-+*/^()])|(\S)")


def _tokenize(text: str) -> list[str]:
    pairs = _TOKEN.findall(text)
    toks = [tok for tok, _ in pairs]
    if "" in toks:
        bad = pairs[toks.index("")][1]
        # a stray character is never part of a token, so its first
        # occurrence is where it stands
        raise ParseError(f"unexpected character {bad!r} at position {text.index(bad)}")
    return toks


class _RF:
    """Rational function with an optional additive O(x^k) truncation.

    The parser keeps `den` either the constant 1 or a product of
    non-constant polynomials: constant denominators are folded into `num`.
    """

    __slots__ = ("num", "den", "otrunc")

    def __init__(self, num: Poly, den: Poly, otrunc: Optional[int] = None):
        self.num = num
        self.den = den
        self.otrunc = otrunc


def _is_one(p: Poly) -> bool:
    return len(p.terms) == 1 and p.terms.get((0,) * p.nvars) == 1


def _mul_polys(a: Poly, b: Poly) -> Poly:
    """a*b, never multiplying by the constant 1."""
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return a * b


def _degrees(p: Poly) -> list[int]:
    """The degree in each variable."""
    return [max(col) for col in zip(*p.terms)] or [0] * p.nvars


def _check_power_bits(coeffs, k: int) -> None:
    """Refuse a k-th power of these coefficients past MAX_POWER_BITS."""
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)
    if bits * k > MAX_POWER_BITS:
        raise ParseError(f"power of coefficient bits {bits}*{k} exceeds the cap {MAX_POWER_BITS}")


def _capped(tok: str, what: str) -> int:
    """A digit token's value, refused above MAX_DEGREE before it is read."""
    if len(tok.lstrip("0")) > len(str(MAX_DEGREE)) or int(tok) > MAX_DEGREE:
        clipped = tok if len(tok) <= 12 else f"{tok[:12]}..."
        raise ParseError(f"{what} {clipped} exceeds the cap {MAX_DEGREE}")
    return int(tok)


class _Parser:
    """Recursive descent over the tokens.  A factor, and a product of them,
    is kept as a monomial, a (coefficient, exponent tuple) pair, until it
    meets a parenthesized sum, an O-tail or a divisor with a variable; from
    there on it is an `_RF`."""

    def __init__(self, tokens: list[str], varnames: list[str], allow_o: bool):
        self.toks = tokens
        self.pos = 0
        self.vars = varnames
        self.allow_o = allow_o
        self.n = len(varnames)
        self.one = Poly.constant(1, self.n)
        self.const = (0,) * self.n  # the exponent tuple of a constant

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of expression")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    # -- combination helpers --------------------------------------------------

    @staticmethod
    def _over(t, den: int):
        """The monomial t with its coefficient divided by den; an `_RF` as
        it is (den is then 1)."""
        if den == 1:
            return t
        return (Fraction(t[0], den), t[1])

    def _rf(self, t) -> _RF:
        """A monomial as a rational function over 1; an `_RF` as it is."""
        if type(t) is tuple:
            return _RF(Poly({t[1]: t[0]}, self.n), self.one)
        return t

    @staticmethod
    def _no_o(*rfs: _RF) -> None:
        if any(rf.otrunc is not None for rf in rfs):
            raise ParseError("O(...) may only appear as a top-level summand")

    def _mul(self, a: _RF, b: _RF) -> _RF:
        self._no_o(a, b)
        return _RF(_mul_polys(a.num, b.num), _mul_polys(a.den, b.den))

    def _div(self, a: _RF, b: _RF) -> _RF:
        self._no_o(a, b)
        if b.num.is_zero():
            raise ParseError("division by zero")
        num, den = _mul_polys(a.num, b.den), _mul_polys(a.den, b.num)
        if den.is_constant() and not _is_one(den):
            # b.num is a constant: fold it into the numerator
            return _RF(num.scale(Fraction(1) / den.constant_coeff()), self.one)
        return _RF(num, den)

    def _power(self, rf: _RF, k: int) -> _RF:
        self._no_o(rf)
        degs = [max(a, b) for a, b in zip(_degrees(rf.num), _degrees(rf.den))]
        if sum(degs) * k > MAX_DEGREE:
            raise ParseError(f"power of degree {sum(degs)}*{k} exceeds the cap {MAX_DEGREE}")
        _check_power_bits([*rf.num.terms.values(), *rf.den.terms.values()], k)
        if len(rf.num.terms) == 1 and _is_one(rf.den):
            ((m, c),) = rf.num.terms.items()
            return _RF(Poly({tuple(d * k for d in m): c**k}, self.n), self.one)
        size = prod(max(1, d * k) for d in degs)
        if size > MAX_EXPANDED_SIZE:
            raise ParseError(
                f"expanded power of degrees {[d * k for d in degs]} "
                f"exceeds the size cap {MAX_EXPANDED_SIZE}"
            )
        return _RF(power(rf.num, k, self.one), power(rf.den, k, self.one))

    # -- grammar --------------------------------------------------------------

    def parse(self) -> _RF:
        rf = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return rf

    def expr(self) -> _RF:
        """Sum the terms into one coefficient dict over a running denominator.

        Monomials, and terms over the running denominator (most often 1),
        add their coefficients in place; only a different, non-constant
        denominator puts the sum over a common one.
        """
        acc: dict = {}
        den = self.one
        ot = None
        sign = 1
        while True:
            t = self.term()
            if type(t) is tuple and den is self.one:
                c, m = t
                c = c if sign > 0 else -c
                acc[m] = acc[m] + c if m in acc else c
            else:
                rf = self._rf(t)
                if rf.otrunc is not None:
                    ot = rf.otrunc if ot is None else min(ot, rf.otrunc)
                num = rf.num if sign > 0 else -rf.num
                if rf.den != den:
                    if _is_one(rf.den):
                        num = num * den
                    else:
                        # copied: _mul_polys may hand back rf.den's own dict
                        acc = dict(_mul_polys(Poly(acc, self.n), rf.den).terms)
                        num = _mul_polys(num, den)
                        den = _mul_polys(den, rf.den)
                for m, c in num.terms.items():
                    acc[m] = acc.get(m, 0) + c
            if self.peek() not in ("+", "-"):
                return _RF(Poly(acc, self.n), den, ot)
            sign = 1 if self.take() == "+" else -1

    def term(self):
        """A monomial while every factor is one and every divisor a nonzero
        integer, with its coefficient's denominator kept apart as an int
        until the end; otherwise an `_RF`."""
        t = self.factor()
        den = 1
        while self.peek() in ("*", "/"):
            op = self.take()
            f = self.factor()
            if type(t) is tuple and type(f) is tuple:
                if op == "*":
                    t = (t[0] * f[0], mono_mul(t[1], f[1]))
                    continue
                if f[1] == self.const:
                    if not f[0]:
                        raise ParseError("division by zero")
                    den *= f[0]
                    continue
            a, b = self._rf(self._over(t, den)), self._rf(f)
            den = 1
            t = self._mul(a, b) if op == "*" else self._div(a, b)
        return self._over(t, den)

    def factor(self):
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        f = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not e.isdigit():
                raise ParseError(f"exponent must be a non-negative integer, got {e!r}")
            k = _capped(e, "exponent")
            if type(f) is tuple:
                # an integer or one variable: its degree is at most 1
                c, m = f
                _check_power_bits([c], k)
                f = (c**k, tuple(d * k for d in m))
            else:
                f = self._power(f, k)
        if sign > 0:
            return f
        if type(f) is tuple:
            return (-f[0], f[1])
        if f.otrunc is not None and f.num.is_zero():
            return f  # -O(x^k) == O(x^k)
        return _RF(-f.num, f.den, f.otrunc)

    def atom(self):
        t = self.take()
        if t.isdigit():
            try:
                c = int(t)
            except ValueError as exc:  # beyond the interpreter's digit limit
                raise ParseError(f"integer of {len(t)} digits is too long") from exc
            return (c, self.const)
        if t == "(":
            rf = self.expr()
            self._no_o(rf)
            self.expect(")")
            return rf
        if t == "O":
            if not self.allow_o:
                raise ParseError("O(...) tails are only meaningful for series elements")
            self.expect("(")
            v = self.take()
            if v != self.vars[0]:
                raise ParseError(f"O(...) expects the series variable {self.vars[0]!r}")
            k = 1
            if self.peek() == "^":
                self.take()
                e = self.take()
                if not e.isdigit() or not e.strip("0"):
                    raise ParseError("O(...) order must be a positive integer")
                k = _capped(e, "O(...) order")
            self.expect(")")
            return _RF(Poly.zero(self.n), self.one, k)
        if t in self.vars:
            i = self.vars.index(t)
            return (1, self.const[:i] + (1,) + self.const[i + 1 :])
        raise ParseError(f"unknown symbol {t!r}")


def parse_rational_function(
    text: str, varnames: list[str], allow_o: bool = False
) -> tuple[Poly, Poly, Optional[int]]:
    """Parse to (numerator, denominator, optional truncation order)."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    rf = _Parser(_tokenize(text), varnames, allow_o).parse()
    return rf.num, rf.den, rf.otrunc


def _frac_text(c: Fraction) -> str:
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError as exc:  # beyond the interpreter's digit limit, as in `atom`
        raise AnswerTooLarge(
            f"an integer in the answer has more than {sys.get_int_max_str_digits()} "
            "digits, the cap on integers the element grammar reads back"
        ) from exc


def mono_text(m: tuple, varnames: list[str]) -> str:
    bits = []
    for e, v in zip(m, varnames):
        if e == 1:
            bits.append(v)
        elif e:  # negative exponents only in Laurent reprs
            bits.append(f"{v}^{e}")
    return "*".join(bits)


def poly_to_text(p: Poly, varnames: list[str]) -> str:
    """Canonical, re-parseable rendering with sign-aware joining."""
    if p.is_zero():
        return "0"
    monos = sorted(p.terms, key=lambda m: (sum(m), m))
    bits = []
    for m in monos:
        c = p.terms[m]
        mono = mono_text(m, varnames)
        mag = _frac_text(abs(c))
        if not mono:
            body = mag
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)
