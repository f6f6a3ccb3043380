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
from typing import Optional

from .errors import ParseError
from .polyring import QQ, Poly

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
    """Rational function with an optional additive O(x^k) truncation."""

    __slots__ = ("num", "den", "otrunc")

    def __init__(self, num: Poly, den: Poly, otrunc: Optional[int] = None):
        self.num = num
        self.den = den
        self.otrunc = otrunc


class _Parser:
    def __init__(self, tokens: list[str], varnames: list[str], allow_o: bool):
        self.toks = tokens
        self.pos = 0
        self.vars = varnames
        self.allow_o = allow_o
        self.n = len(varnames)

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

    def _one(self) -> Poly:
        return Poly.constant(Fraction(1), QQ, self.n)

    def _mul(self, a: _RF, b: _RF) -> _RF:
        if a.otrunc is not None or b.otrunc is not None:
            raise ParseError("O(...) may only appear as a top-level summand")
        return _RF(a.num * b.num, a.den * b.den)

    def _div(self, a: _RF, b: _RF) -> _RF:
        if a.otrunc is not None or b.otrunc is not None:
            raise ParseError("O(...) may only appear as a top-level summand")
        if b.num.is_zero():
            raise ParseError("division by zero")
        return _RF(a.num * b.den, a.den * b.num)

    def _add(self, a: _RF, b: _RF, sign: int) -> _RF:
        num_b = b.num if sign > 0 else -b.num
        num = a.num * b.den + num_b * a.den
        ot = a.otrunc
        if b.otrunc is not None:
            ot = b.otrunc if ot is None else min(ot, b.otrunc)
        return _RF(num, a.den * b.den, ot)

    # -- grammar --------------------------------------------------------------

    def parse(self) -> _RF:
        rf = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return rf

    def expr(self) -> _RF:
        rf = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            rf = self._add(rf, rhs, 1 if op == "+" else -1)
        return rf

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
            k = int(e)
            if rf.otrunc is not None:
                raise ParseError("O(...) may only appear as a top-level summand")
            rf = _RF(rf.num**k, rf.den**k)
        if sign < 0:
            if rf.otrunc is not None and rf.num.is_zero():
                return rf  # -O(x^k) == O(x^k)
            rf = _RF(-rf.num, rf.den, rf.otrunc)
        return rf

    def atom(self) -> _RF:
        t = self.take()
        if t.isdigit():
            return _RF(
                Poly.constant(Fraction(int(t)), QQ, self.n), self._one()
            )
        if t == "(":
            rf = self.expr()
            if rf.otrunc is not None:
                raise ParseError("O(...) may only appear as a top-level summand")
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
                if not e.isdigit() or int(e) < 1:
                    raise ParseError("O(...) order must be a positive integer")
                k = int(e)
            self.expect(")")
            return _RF(Poly.zero(QQ, self.n), self._one(), k)
        if t in self.vars:
            return _RF(
                Poly.variable(self.vars.index(t), QQ, self.n), self._one()
            )
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
        elif e > 1:
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
