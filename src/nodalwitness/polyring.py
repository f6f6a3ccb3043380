"""Sparse multivariate polynomials over a pluggable coefficient field.

This is the small Groebner engine behind ideal-membership and radical
queries.  Coefficients are abstracted behind a field object (exact
rationals, or the truncated Laurent field from `dvrseries`), monomials are
exponent tuples, and bases are computed by plain Buchberger with an S-pair
budget.  Desk-scale inputs only; no homogenization, no F4-style batching.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Sequence

from .errors import DegreeCapExceeded, PreconditionViolated

Monomial = tuple[int, ...]

DEFAULT_SPAIR_CAP = 10_000

_spair_cap_override: int | None = None


def current_spair_cap() -> int:
    return (
        DEFAULT_SPAIR_CAP if _spair_cap_override is None else _spair_cap_override
    )


def set_spair_cap(cap: int | None) -> None:
    """Process-wide S-pair budget override; None restores the default."""
    global _spair_cap_override
    if cap is not None and cap <= 0:
        raise ValueError("S-pair budget must be positive")
    _spair_cap_override = cap


class RationalField:
    """Coefficient adapter for exact rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0


QQ = RationalField()


def power(x, n: int, one):
    """x**n by square-and-multiply, for any type with an associative `*`.

    Returns `one` for n == 0 and otherwise never multiplies by it.
    """
    if n < 0:
        raise PreconditionViolated(f"negative exponent {n}")
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return one if out is None else out


def _grevlex_greater(m1: Monomial, m2: Monomial) -> bool:
    d1, d2 = sum(m1), sum(m2)
    if d1 != d2:
        return d1 > d2
    # graded reverse lex: rightmost nonzero difference decides, reversed sign
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            return a < b
    return False


class Grevlex:
    """Degree-reverse-lexicographic order."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def greater(self, m1: Monomial, m2: Monomial) -> bool:
        return _grevlex_greater(m1, m2)


class BlockOrder:
    """Eliminate the first `nelim` variables: grevlex blockwise.

    Any monomial touching the first block beats every monomial that does
    not, so the basis elements free of those variables generate the
    elimination ideal.
    """

    def __init__(self, nelim: int, nvars: int):
        self.nelim = nelim
        self.nvars = nvars

    def greater(self, m1: Monomial, m2: Monomial) -> bool:
        h1, h2 = m1[: self.nelim], m2[: self.nelim]
        if h1 != h2:
            if _grevlex_greater(h1, h2):
                return True
            if _grevlex_greater(h2, h1):
                return False
        return _grevlex_greater(m1[self.nelim :], m2[self.nelim :])


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m1, m2))


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m1, m2))


def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


class Poly:
    """Immutable sparse polynomial: {monomial: nonzero coefficient}."""

    __slots__ = ("terms", "field", "nvars")

    def __init__(self, terms: dict, field, nvars: int):
        self.terms = {m: c for m, c in terms.items() if not field.is_zero(c)}
        self.field = field
        self.nvars = nvars

    @classmethod
    def zero(cls, field, nvars: int) -> "Poly":
        return cls({}, field, nvars)

    @classmethod
    def constant(cls, c, field, nvars: int) -> "Poly":
        return cls({(0,) * nvars: c}, field, nvars)

    @classmethod
    def variable(cls, i: int, field, nvars: int) -> "Poly":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls({m: field.one}, field, nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        F = self.field
        for m, c in other.terms.items():
            t[m] = F.add(t.get(m, F.zero), c)
        return Poly(t, F, self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        F = self.field
        for m, c in other.terms.items():
            t[m] = F.sub(t.get(m, F.zero), c)
        return Poly(t, F, self.nvars)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly({m: F.neg(c) for m, c in self.terms.items()}, F, self.nvars)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = F.mul(c1, c2)
                t[m] = F.add(t.get(m, F.zero), prod)
        return Poly(t, F, self.nvars)

    def scale(self, c) -> "Poly":
        F = self.field
        if F.is_zero(c):
            return Poly.zero(F, self.nvars)
        return Poly({m: F.mul(c, v) for m, v in self.terms.items()}, F, self.nvars)

    def __pow__(self, n: int) -> "Poly":
        return power(self, n, Poly.constant(self.field.one, self.field, self.nvars))

    def mul_term(self, m: Monomial, c) -> "Poly":
        F = self.field
        return Poly(
            {mono_mul(m, m0): F.mul(c, c0) for m0, c0 in self.terms.items()},
            F,
            self.nvars,
        )

    def leading(self, order) -> tuple[Monomial, Any]:
        lm = None
        for m in self.terms:
            if lm is None or order.greater(m, lm):
                lm = m
        return lm, self.terms[lm]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        F = self.field
        return all(
            F.is_zero(F.sub(c, other.terms[m])) for m, c in self.terms.items()
        )

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            bits.append(f"{self.terms[m]}*{m}")
        return "Poly(" + " + ".join(bits) + ")"


def reduce_poly(f: Poly, basis: Sequence[Poly], order) -> Poly:
    """Full multivariate division remainder of f by the basis."""
    F = f.field
    rem = Poly.zero(F, f.nvars)
    work = f
    lead = [(g,) + g.leading(order) for g in basis if not g.is_zero()]
    while not work.is_zero():
        lm, lc = work.leading(order)
        hit = False
        for g, gm, gc in lead:
            if mono_divides(gm, lm):
                q = F.div(lc, gc)
                work = work - g.mul_term(mono_div(lm, gm), q)
                hit = True
                break
        if not hit:
            rem = rem + Poly({lm: lc}, F, f.nvars)
            work = work - Poly({lm: lc}, F, f.nvars)
    return rem


def s_poly(f: Poly, g: Poly, order) -> Poly:
    F = f.field
    fm, fc = f.leading(order)
    gm, gc = g.leading(order)
    l = mono_lcm(fm, gm)
    return f.mul_term(mono_div(l, fm), F.div(F.one, fc)) - g.mul_term(
        mono_div(l, gm), F.div(F.one, gc)
    )


def buchberger(gens: Iterable[Poly], order) -> list[Poly]:
    """Reduced, monic Groebner basis of the ideal the generators span.

    Raises DegreeCapExceeded once more S-pairs than the process-wide budget
    (see set_spair_cap) have been processed; the tiny instances this package
    produces stay far below the default budget, so tripping the cap signals
    a malformed query.
    """
    cap = current_spair_cap()
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    F = basis[0].field
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    seen = 0
    while pairs:
        i, j = pairs.pop(0)
        seen += 1
        if seen > cap:
            raise DegreeCapExceeded(f"S-pair budget {cap} exhausted")
        fm, _ = basis[i].leading(order)
        gm, _ = basis[j].leading(order)
        # coprime leading monomials reduce to zero (Buchberger's criterion)
        if mono_lcm(fm, gm) == mono_mul(fm, gm):
            continue
        r = reduce_poly(s_poly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    # inter-reduce and normalize to a canonical reduced basis
    reduced: list[Poly] = []
    for i, g in enumerate(basis):
        gm, _ = g.leading(order)
        drop = False
        for j, h in enumerate(basis):
            if j == i or h.is_zero():
                continue
            hm, _ = h.leading(order)
            # equal leading monomials tie-break by index so duplicates
            # cannot eliminate each other
            if mono_divides(hm, gm) and (hm != gm or j < i):
                drop = True
                break
        if not drop:
            reduced.append(g)
    final = []
    for i, g in enumerate(reduced):
        others = reduced[:i] + reduced[i + 1 :]
        r = reduce_poly(g, others, order) if others else g
        if r.is_zero():
            continue
        _, lc = r.leading(order)
        final.append(r.scale(F.div(F.one, lc)))
    final.sort(key=lambda p: sorted(p.terms), reverse=True)
    return final


def eliminate(gens: Sequence[Poly], nelim: int) -> list[Poly]:
    """Basis of the ideal's intersection with the last-variables subring."""
    if not gens:
        return []
    nvars = gens[0].nvars
    gb = buchberger(gens, BlockOrder(nelim, nvars))
    return [
        p
        for p in gb
        if all(all(e == 0 for e in m[:nelim]) for m in p.terms)
    ]


def escapes_origin(polys: Sequence[Poly]) -> bool:
    """True if some polynomial has a nonzero constant term.

    For an ideal I of Q[u,v] given by any generating set, this is exactly
    the condition I ⊄ ⟨u, v⟩, i.e. I becomes the unit ideal in the local
    ring at the origin.
    """
    return any(not p.field.is_zero(p.constant_coeff()) for p in polys)
