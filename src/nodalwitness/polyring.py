"""Sparse multivariate polynomials over the rationals.

This is the small Groebner engine behind ideal-membership and radical
queries.  Monomials are exponent tuples and coefficients are `Fraction`s or
ints.  Bases are computed by Buchberger's algorithm with the pair criteria
of Gebauer and Möller, the normal selection strategy and a budget on the
S-pairs reduced.  The kernel computes in Z: `buchberger` clears each
generator's denominators once, S-polynomials and reductions are
fraction-free and reductions return primitive polynomials, and Q comes back
only at the end, where the reduced basis is made monic.  Desk-scale inputs
only; no homogenization, no F4-style batching.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Any, Iterable, Sequence

from .errors import DegreeCapExceeded, PreconditionViolated

Monomial = tuple[int, ...]

DEFAULT_SPAIR_CAP = 10_000

_spair_cap = DEFAULT_SPAIR_CAP

_ZERO = Fraction(0)
_ONE = Fraction(1)


def set_spair_cap(cap: int | None) -> None:
    """Set the process-wide S-pair budget of `buchberger`; None restores
    DEFAULT_SPAIR_CAP."""
    global _spair_cap
    if cap is not None and cap <= 0:
        raise ValueError("S-pair budget must be positive")
    _spair_cap = DEFAULT_SPAIR_CAP if cap is None else cap


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


class BlockOrder:
    """Eliminate the first `nelim` variables: grevlex blockwise.

    Any monomial touching the first block beats every monomial that does
    not, so the basis elements free of those variables generate the
    elimination ideal.
    """

    def __init__(self, nelim: int):
        self.nelim = nelim

    def key(self, m: Monomial) -> tuple:
        """Sort key putting greater monomials first: grevlex on the first
        block, ties broken by grevlex on the rest."""
        h, r = m[: self.nelim], m[self.nelim :]
        return (-sum(h), *h[::-1], -sum(r), *r[::-1])


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))


def mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(sub, m1, m2))


def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


class Poly:
    """Immutable sparse polynomial over Q: {monomial: nonzero Fraction or int}."""

    __slots__ = ("terms", "nvars", "_lead")

    def __init__(self, terms: dict, nvars: int):
        self.terms = {m: c for m, c in terms.items() if c}
        self.nvars = nvars
        self._lead = None  # (order, leading monomial) of the last `leading`

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "Poly":
        return cls({(0,) * nvars: c}, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls({m: 1}, nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * self.nvars, _ZERO)

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0) + c
        return Poly(t, self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0) - c
        return Poly(t, self.nvars)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.nvars)

    def __mul__(self, other: "Poly") -> "Poly":
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                t[m] = t.get(m, 0) + c1 * c2
        return Poly(t, self.nvars)

    def scale(self, c) -> "Poly":
        if not c:
            return Poly.zero(self.nvars)
        return Poly({m: c * v for m, v in self.terms.items()}, self.nvars)

    __rmul__ = scale  # c * p for a scalar c

    def __pow__(self, n: int) -> "Poly":
        return power(self, n, Poly.constant(_ONE, self.nvars))

    def leading(self, order) -> tuple[Monomial, Any]:
        """(monomial, coefficient) of the leading term; the monomial is
        cached for the last order object asked, so a Groebner run finds each
        basis element's once."""
        cached = self._lead
        if cached is None or cached[0] is not order:
            t = self.terms
            lm = next(iter(t)) if len(t) == 1 else min(t, key=order.key)
            cached = self._lead = (order, lm)
        lm = cached[1]
        return lm, self.terms[lm]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            bits.append(f"{self.terms[m]}*{m}")
        return "Poly(" + " + ".join(bits) + ")"


def _integral(terms: dict) -> dict:
    """The terms times the lcm of their denominators, as ints."""
    d = lcm(*[c.denominator for c in terms.values()])
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def _primitive(terms: dict) -> dict:
    """Integer terms divided by their (positive) content."""
    g = gcd(*terms.values())
    return terms if g == 1 else {m: c // g for m, c in terms.items()}


def reduce_poly(f: Poly, basis: Sequence[Poly], order) -> Poly:
    """Full multivariate division remainder of f by the basis, computed in Z.

    f and any reducer with `Fraction` coefficients are cleared to integers
    on entry, the reducers as plain dicts.  To cancel a leading term c·m by
    a reducer with leading coefficient gc, the working polynomial and the
    remainder are multiplied by gc/gcd(c, gc) instead of divided, and the
    result's integer content is divided out at the end.  So the remainder
    is a primitive integer polynomial, a nonzero rational multiple of the
    remainder over Q.  The next leading term comes off a heap of
    `order.key`s, pushed once for each monomial that enters the working
    dict.  Only the result is built as a Poly.
    """
    key = order.key
    lead = []
    for g in basis:
        if g.terms:
            gm = g.leading(order)[0]
            t = g.terms
            if any(type(c) is not int for c in t.values()):
                t = _integral(t)
            lead.append((t, gm, t[gm]))
    work = _integral(f.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    rem: dict = {}
    while heap:
        lm = heappop(heap)[1]
        lc = work[lm]
        if lc:
            for g, gm, gc in lead:
                if mono_divides(gm, lm):
                    k = gcd(lc, gc) if gc > 0 else -gcd(lc, gc)
                    a, b = gc // k, lc // k  # a > 0 and a*lc == b*gc
                    if a != 1:
                        work = {m: a * c for m, c in work.items()}
                        rem = {m: a * c for m, c in rem.items()}
                    shift = mono_div(lm, gm)
                    for m0, c0 in g.items():
                        m = mono_mul(shift, m0)
                        c = work.get(m)
                        if c is None:
                            heappush(heap, (key(m), m))
                            work[m] = -b * c0
                        else:
                            work[m] = c - b * c0
                    break
            else:
                rem[lm] = lc
        del work[lm]
    return Poly(_primitive(rem), f.nvars)


def s_poly(f: Poly, g: Poly, order) -> Poly:
    """S-polynomial of two integer polynomials, computed in Z.

    With leading coefficients fc and gc and k = gcd(fc, gc), the cofactors
    are gc/k and fc/k, so the result is fc·gc/k times the S-polynomial over
    Q and nothing is divided.
    """
    fm, fc = f.leading(order)
    gm, gc = g.leading(order)
    k = gcd(fc, gc)
    a, b = gc // k, fc // k
    l = mono_lcm(fm, gm)
    sf, sg = mono_div(l, fm), mono_div(l, gm)
    t = {mono_mul(sf, m): a * c for m, c in f.terms.items()}
    for m, c in g.terms.items():
        m = mono_mul(sg, m)
        t[m] = t.get(m, 0) - b * c
    return Poly(t, f.nvars)


def buchberger(gens: Iterable[Poly], order, stop=None) -> list[Poly]:
    """Reduced, monic Groebner basis of the ideal the generators span.

    Each polynomial joining the basis updates the pair set by the criteria
    of Gebauer and Möller (J. Symb. Comput. 6, 1988): of its new pairs, one
    whose lcm is a multiple of another's goes (chain criterion), then those
    with coprime leading monomials (Buchberger's first criterion); an old
    pair goes when the new leading monomial divides its lcm without sharing
    it with either new pair; and the reducer set drops every element whose
    leading monomial the new one divides.  The pair with the smallest lcm
    goes next (normal strategy; ties in insertion order).  A constant
    generator or remainder answers [1] at once.  The generators enter as
    primitive integer polynomials and the run stays in Z; the final
    inter-reduction makes each element monic over Q, so the basis is the
    one a computation over Q returns.

    `stop`, a predicate, ends the run at the first primitive integer
    remainder p it accepts, and the answer is [p]: an element of the ideal,
    for a caller that needs only one such element, not a basis.

    Raises DegreeCapExceeded once more S-pairs than the process-wide budget
    (see set_spair_cap) have been reduced; pairs the criteria drop cost
    nothing.  The tiny instances this package produces stay far below the
    default budget, so tripping the cap signals a malformed query.
    """
    cap = _spair_cap
    polys = [g for g in gens if g.terms]
    if not polys:
        return []
    nvars = polys[0].nvars
    unit = (0,) * nvars
    lms = [g.leading(order)[0] for g in polys]
    if unit in lms:
        return [Poly.constant(_ONE, nvars)]
    polys = [Poly(_primitive(_integral(g.terms)), nvars) for g in polys]
    key = order.key
    active: list[int] = []  # indices of the reducers
    pairs: list = []  # (key of the lcm, lcm, i, j), in insertion order

    def update(k: int) -> None:
        hm = lms[k]
        new = [(mono_lcm(lms[g], hm), g) for g in active]
        keep = [True] * len(new)
        for a, (la, ga) in enumerate(new):
            if la != mono_mul(lms[ga], hm):
                keep[a] = not any(
                    keep[b] and b != a and mono_divides(lb, la)
                    for b, (lb, _) in enumerate(new)
                )
        pairs[:] = [
            (s, l, i, j)
            for s, l, i, j in pairs
            if not mono_divides(hm, l)
            or l == mono_lcm(lms[i], hm)
            or l == mono_lcm(lms[j], hm)
        ]
        pairs.extend(
            (key(l), l, g, k)
            for (l, g), kept in zip(new, keep)
            if kept and l != mono_mul(lms[g], hm)
        )
        active[:] = [g for g in active if not mono_divides(hm, lms[g])]
        active.append(k)

    for k in range(len(polys)):
        update(k)
    reduced = 0
    while pairs:
        # keys put greater monomials first: the smallest lcm has the largest
        best = max(range(len(pairs)), key=lambda p: pairs[p][0])
        _, _, i, j = pairs.pop(best)
        reduced += 1
        if reduced > cap:
            raise DegreeCapExceeded(f"S-pair budget {cap} exhausted")
        r = reduce_poly(
            s_poly(polys[i], polys[j], order), [polys[g] for g in active], order
        )
        if r.is_zero():
            continue
        rm = r.leading(order)[0]
        if rm == unit:
            return [Poly.constant(_ONE, nvars)]
        if stop is not None and stop(r):
            return [r]
        polys.append(r)
        lms.append(rm)
        update(len(polys) - 1)

    # drop the inputs whose leading monomial another reducer's divides (no
    # two reducers share one), then inter-reduce and make monic: the
    # canonical reduced basis
    minimal = [
        g
        for g in active
        if not any(h != g and mono_divides(lms[h], lms[g]) for h in active)
    ]
    final = []
    for g in minimal:
        others = [polys[h] for h in minimal if h != g]
        r = reduce_poly(polys[g], others, order) if others else polys[g]
        _, lc = r.leading(order)
        final.append(r.scale(Fraction(1, lc)))
    final.sort(key=lambda p: sorted(p.terms), reverse=True)
    return final


def eliminate(gens: Sequence[Poly], nelim: int, stop=None) -> list[Poly]:
    """Basis of the ideal's intersection with the last-variables subring.

    The block order puts every monomial touching the first nelim variables
    before every other, so a polynomial whose leading monomial is free of
    them lies in that subring.  With a predicate `stop`, the first remainder
    in the subring that it accepts ends the Groebner run, and the answer is
    that one element of the intersection.
    """
    if not gens:
        return []
    order = BlockOrder(nelim)

    def in_subring(p: Poly) -> bool:
        return not any(p.leading(order)[0][:nelim])

    found = None if stop is None else (lambda p: in_subring(p) and stop(p))
    return [p for p in buchberger(gens, order, found) if in_subring(p)]


def escapes_origin(polys: Sequence[Poly]) -> bool:
    """True if some polynomial has a nonzero constant term.

    For an ideal I of Q[u,v] given by any generating set, this is exactly
    the condition I ⊄ ⟨u, v⟩, i.e. I becomes the unit ideal in the local
    ring at the origin.
    """
    return any(p.constant_coeff() for p in polys)
