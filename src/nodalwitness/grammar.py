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

from fractions import Fraction
from math import prod
from typing import Optional

from .errors import ParseError
from .polyring import Poly, power

# Input budgets, checked on the tokens before anything is built.  Every
# exponent, O(x^k) order and degree of a power is at most MAX_DEGREE.  A
# power of a polynomial with several terms is expanded by repeated squaring,
# whose cost grows with the square of the result's size; there the product
# of the result's degrees in each variable (its degree, in one variable) is
# at most MAX_EXPANDED_SIZE.
MAX_DEGREE = 10_000
MAX_EXPANDED_SIZE = 500

_PUNCT = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return out


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


def _capped(tok: str, what: str) -> int:
    """A digit token's value, refused above MAX_DEGREE before it is read."""
    if len(tok.lstrip("0")) > len(str(MAX_DEGREE)) or int(tok) > MAX_DEGREE:
        clipped = tok if len(tok) <= 12 else f"{tok[:12]}..."
        raise ParseError(f"{what} {clipped} exceeds the cap {MAX_DEGREE}")
    return int(tok)


class _Parser:
    def __init__(self, tokens: list[str], varnames: list[str], allow_o: bool):
        self.toks = tokens
        self.pos = 0
        self.vars = varnames
        self.allow_o = allow_o
        self.n = len(varnames)
        self.one = Poly.constant(1, self.n)

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

    # -- grammar --------------------------------------------------------------

    def parse(self) -> _RF:
        rf = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return rf

    def expr(self) -> _RF:
        """Sum the terms into one coefficient dict over a running denominator.

        Terms over the running denominator (most often 1) add their
        coefficients in place; only a different, non-constant denominator
        puts the sum over a common one.
        """
        acc: dict = {}
        den = self.one
        ot = None
        sign = 1
        while True:
            rf = self.term()
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

    def term(self) -> _RF:
        rf = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            rf = self._mul(rf, rhs) if op == "*" else self._div(rf, rhs)
        return rf

    def factor(self) -> _RF:
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        rf = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not e.isdigit():
                raise ParseError(f"exponent must be a non-negative integer, got {e!r}")
            k = _capped(e, "exponent")
            self._no_o(rf)
            degs = [max(a, b) for a, b in zip(_degrees(rf.num), _degrees(rf.den))]
            if sum(degs) * k > MAX_DEGREE:
                raise ParseError(
                    f"power of degree {sum(degs)}*{k} exceeds the cap {MAX_DEGREE}"
                )
            if len(rf.num.terms) == 1 and _is_one(rf.den):
                ((m, c),) = rf.num.terms.items()
                rf = _RF(Poly({tuple(d * k for d in m): c**k}, self.n), self.one)
            else:
                size = prod(max(1, d * k) for d in degs)
                if size > MAX_EXPANDED_SIZE:
                    raise ParseError(
                        f"expanded power of degrees {[d * k for d in degs]} "
                        f"exceeds the size cap {MAX_EXPANDED_SIZE}"
                    )
                rf = _RF(power(rf.num, k, self.one), power(rf.den, k, self.one))
        if sign < 0:
            if rf.otrunc is not None and rf.num.is_zero():
                return rf  # -O(x^k) == O(x^k)
            rf = _RF(-rf.num, rf.den, rf.otrunc)
        return rf

    def atom(self) -> _RF:
        t = self.take()
        if t.isdigit():
            try:
                c = int(t)
            except ValueError as exc:  # beyond the interpreter's digit limit
                raise ParseError(f"integer of {len(t)} digits is too long") from exc
            return _RF(Poly.constant(c, self.n), self.one)
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
            return _RF(Poly.variable(self.vars.index(t), self.n), self.one)
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
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_text(m: tuple, varnames: list[str]) -> str:
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
        mono = _mono_text(m, varnames)
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
