"""Two exact models of the smooth henselian local base ring.

DVR model: truncated power series in one parameter x (see `dvrseries`);
the computable stand-in for a one-dimensional henselian local ring.

BIVARIATE model: fractions p/q of integer polynomials in u, v with
q(0,0) != 0 — the local ring of a smooth surface germ, where interesting
non-principal ideals exist.  Its arithmetic runs on Python ints; `gcd2`,
`divides` and `radical` split off each monomial factor u^a·v^b first.

Elements of both models are `RingElement`s (see `ringelement`): a
`Series` or a `BiFrac`, each class holding its model's arithmetic and
rules (`divides`, `powers_divide`, `gcd`, `order`, `in_ideal`,
`radical`, `nth_root_unit`, ...).  This module adds the element-level
predicates, ideals (`IdealHandle`), the S/T-polynomial extension used by
homotopy witnesses (`PolyExt`), and the membership tests.  Radical
membership in the base ring is read from its structure: valuations in the
DVR model, a gcd in the bivariate one.  The other queries reduce to plain
polynomial computations in two ways: an ideal-quotient escaping the
maximal ideal, or an elimination ideal escaping the origin (a localized
Rabinowitsch trick), which stops at the first member that escapes.  An
extended query J over R[S, T] is first put to the base ring, with B the
values of its S/T-free generators (see `_ext_query`): (1) B and one S/T
generator h span (1) iff h(0,0) is a unit and h's other coefficients lie
in √(B), as a polynomial over the local ring R/(B) is a unit iff its
constant term is and the rest are nilpotent (√(0) = 0 for B empty); (2)
an f with coefficients in √(B) lies in √(B)·R[S, T] ⊆ √J; (3) an f equal
to a generator lies in J (between exact coefficients in the DVR model).
What they leave open is one elimination in both models, the base
variables (x, or u and v) kept last.  The DVR model asks the residue
fiber over the rationals first, and abstains (PrecisionExhausted) on a
truncated coefficient that neither this check, a base constant nor (1)
settles.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import grammar
from .dvrseries import DEFAULT_PREC, Series
from .errors import (
    DivisionImpossible,
    ModelMismatch,
    ParseError,
    PrecisionExhausted,
    PreconditionViolated,
)
from .polyring import Poly, eliminate, escapes_origin, power
from .ringelement import RingElement, model_class, power_root

MODEL_DVR = Series.model
MODEL_BIVARIATE = "bivariate"


# ---------------------------------------------------------------------------
# exact gcd and division in Z[u][v]
# ---------------------------------------------------------------------------
# A polynomial here is a list over v-degree of rows, each row a list of
# Python ints over u-degree (an element of Z[u]); zero is [] at both levels.
# `BiFrac` stores its numerator and denominator in this form, so gcd2 and
# divide_exact_p2 take and return it; `_cleared` and `_poly` convert at the
# parser and at the Groebner engine.


def _trim(a: list) -> list:
    """Pop trailing zeros: zero coefficients, or the empty rows of a
    recursive representation."""
    while a and not a[-1]:
        a.pop()
    return a


def _u_mul(a: list, b: list) -> list:
    """Product in Z[u]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _u_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _u_sub(a: list, b: list) -> list:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _u_quo(a: list, b: list) -> Optional[list]:
    """a/b in Z[u], or None when b does not divide a there."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while a:
        k = len(a) - len(b)
        if k < 0 or a[-1] % b[-1]:
            return None
        q[k] = c = a[-1] // b[-1]
        for i, y in enumerate(b, k):
            a[i] -= c * y
        _trim(a)
    return _trim(q)


def _z_gcd(a: list, b: list) -> list:
    """gcd in Z[u], leading coefficient positive: the gcd of the integer
    contents times Euclid's algorithm on primitive pseudo-remainders."""
    if not a or not b:
        a = a or b
        return [-x for x in a] if a and a[-1] < 0 else a
    ka, kb = gcd(*a), gcd(*b)
    a, b = [x // ka for x in a], [x // kb for x in b]
    while len(b) > 1:
        r = a
        while len(r) >= len(b):
            s = gcd(r[-1], b[-1])
            c, r = r[-1] // s, [x * (b[-1] // s) for x in r]
            for i, y in enumerate(b, len(r) - len(b)):
                r[i] -= c * y
            _trim(r)
        a, b = b, [x // gcd(*r) for x in r] if r else r
    k = gcd(ka, kb)
    if b:  # a nonzero constant: the primitive parts are coprime
        return [k]
    return [x * k if a[-1] > 0 else -x * k for x in a]


def _primitive(f: list) -> tuple[list, list]:
    """(content in Z[u], primitive part) of f in Z[u][v]."""
    c: list = []
    for row in f:
        c = _z_gcd(c, row)
        if c == [1]:
            return c, f
    return c, [_u_quo(row, c) for row in f]


def _rec_add(f: list, g: list) -> list:
    """Sum in Z[u][v]."""
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    for i, row in enumerate(g):
        out[i] = _u_add(out[i], row)
    return _trim(out)


def _rec_mul(f: list, g: list) -> list:
    """Product in Z[u][v], accumulated in rows as wide as the widest product."""
    if not f or not g:
        return []
    width = max(map(len, f)) + max(map(len, g)) - 1
    out = [[0] * width for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g, i):
            row = out[j]
            for k, x in enumerate(a):
                if x:
                    for l, y in enumerate(b, k):
                        row[l] += x * y
    return [_trim(row) for row in out]


def _rec_neg(f: list) -> list:
    return [[-x for x in row] for row in f]


def _rec_prem(f: list, g: list) -> list:
    """Pseudo-remainder of f by g as polynomials in v over Z[u]."""
    dg, lg = len(g) - 1, g[-1]
    while len(f) > dg:
        lf, shift = f[-1], len(f) - 1 - dg
        f = [_u_mul(row, lg) for row in f]
        for i, row in enumerate(g, shift):
            f[i] = _u_sub(f[i], _u_mul(row, lf))
        _trim(f)
    return f


def _rec_quo(f: list, g: list) -> Optional[list]:
    """f/g in Z[u][v], or None when g does not divide f there."""
    f, q = list(f), [[]] * max(len(f) - len(g) + 1, 0)
    while f:
        k = len(f) - len(g)
        c = _u_quo(f[-1], g[-1]) if k >= 0 else None
        if c is None:
            return None
        q[k] = c
        for i, row in enumerate(g, k):
            f[i] = _u_sub(f[i], _u_mul(row, c))
        _trim(f)
    return q


_ONE2 = [[1]]  # shared: rows are never mutated once built


def _is_constant(f: list) -> bool:
    return len(f) <= 1 and all(len(row) <= 1 for row in f)


def _is_nonzero_constant(f: list) -> bool:
    return len(f) == 1 and len(f[0]) == 1


def _order(f: list) -> int:
    """Order of vanishing at the origin (lowest total degree) of f != 0."""
    return min(ev + eu for ev, row in enumerate(f) for eu, c in enumerate(row) if c)


def _monomial_split(f: list) -> tuple[int, int, list]:
    """(a, b, g) with f = u^a·v^b·g and g divisible by neither u nor v,
    for f != 0."""
    b = 0
    while not f[b]:
        b += 1
    a = min(next(i for i, c in enumerate(row) if c) for row in f[b:] if row)
    if a == b == 0:
        return 0, 0, f
    return a, b, [row[a:] for row in f[b:]]


def gcd2(p: list, q: list) -> list:
    """A gcd in Q[u,v] of p and q in Z[u][v], itself in Z[u][v].

    A nonzero constant argument answers 1 at once: most denominators in
    sight are constants.  Otherwise u^a·v^b is split off each operand, and
    the gcd is u^min(a)·v^min(b) times the parts' gcd.  That is exact in
    the UFD Z[u][v]: u and v are primes dividing neither part.  Most values
    are monomials times units, so a part is often constant and the parts'
    gcd 1, with no remainder sequence.  Otherwise the primitive
    pseudo-remainder sequence runs on the parts, each remainder divided by
    its content in Z[u], and their gcd is the product of the two contents'
    gcd and the last primitive remainder: by Gauss's lemma, their gcd in
    Z[u][v] up to sign.  So the result divides p and q there
    (divide_exact_p2 finds the cofactors), and is a gcd over Q up to a
    rational factor.  Its leading coefficient is positive.
    """
    if _is_nonzero_constant(p) or _is_nonzero_constant(q):
        return _ONE2
    if not p or not q:
        return p or q
    (a1, b1, p), (a2, b2, q) = _monomial_split(p), _monomial_split(q)
    if _is_nonzero_constant(p) or _is_nonzero_constant(q):
        g = _ONE2
    else:
        (c1, f1), (c2, f2) = _primitive(p), _primitive(q)
        while f2:
            f1, f2 = f2, _primitive(_rec_prem(f1, f2))[1]
        c = _z_gcd(c1, c2)
        if f1[-1][-1] < 0:
            c = [-x for x in c]
        g = [_u_mul(row, c) for row in f1]
    a, b = min(a1, a2), min(b1, b2)
    if a == b == 0:
        return g
    return [[]] * b + [[0] * a + row if row else row for row in g]


def divide_exact_p2(p: list, d: list) -> Optional[list]:
    """Exact quotient p/d in Z[u][v], or None when d does not divide p there.

    For a d that is primitive in Z (a gcd2 result dividing p, or a
    polynomial with its integer content removed) this is divisibility in
    Q[u,v] too, by Gauss's lemma.
    """
    if not p:
        return p
    if not d:
        return None
    return _rec_quo(p, d)


def _cleared(*polys: Poly) -> list:
    """Each polynomial of Q[u,v] times the lcm of all their coefficients'
    denominators, in Z[u][v]: the integer form of a fraction's two
    polynomials, which leaves their quotient unchanged."""
    m = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    out = []
    for p in polys:
        rows: list = [[] for _ in range(1 + max((ev for _, ev in p.terms), default=-1))]
        for (eu, ev), c in p.terms.items():
            row = rows[ev]
            row.extend([0] * (eu + 1 - len(row)))
            row[eu] = c.numerator * (m // c.denominator)
        out.append(rows)
    return out


def _poly(f: list, pad: tuple = (), scale: int = 1) -> Poly:
    """f/scale as a Poly in u, v, after the variables whose exponents pad
    gives (the t of `in_ideal`)."""
    terms = {pad + (eu, ev): c for ev, row in enumerate(f) for eu, c in enumerate(row) if c}
    if scale != 1:
        terms = {m: Fraction(c, scale) for m, c in terms.items()}
    return Poly(terms, len(pad) + 2)


# ---------------------------------------------------------------------------
# bivariate elements
# ---------------------------------------------------------------------------


def _strip_vars(p: Poly, keep_from: int) -> Poly:
    terms = {m[keep_from:]: c for m, c in p.terms.items()}
    return Poly(terms, p.nvars - keep_from)


def _unit_query(polys: list, nelim: int, fs: Sequence[Poly]) -> bool:
    """Whether the ideal, eliminated to its last variables, escapes the origin.

    With fs = [f_1, ..., f_m] nonempty, the generator 1 - Σ t_i·f_i is
    appended (t_1, ..., t_m are the first variables), so the answer is
    whether every f_i lies in the radical: modulo a prime p it is a unit
    when every f_i lies in p, and otherwise a non-constant linear
    polynomial over the residue field of p, which has a zero (Rabinowitsch's
    trick, one variable per element).  With nelim equal to the number of
    variables the block order is grevlex and the question is whether the
    ideal is the unit ideal.  The elimination stops at its first member
    with a nonzero constant term, which answers yes; only a no takes the
    whole basis.
    """
    if fs:
        rab = Poly.constant(Fraction(1), fs[0].nvars)
        for i, f in enumerate(fs):
            rab = rab - Poly.variable(i, f.nvars) * f
        polys = polys + [rab]
    return escapes_origin(eliminate(polys, nelim, Poly.constant_coeff))


def _cofactor(p: list, g: list) -> list:
    """p/g for a gcd2 result g that divides p."""
    return p if _is_constant(g) else divide_exact_p2(p, g)


def _constant(f: list) -> int:
    """f(0,0)."""
    return f[0][0] if f and f[0] else 0


def _divides(a: list, b: list) -> bool:
    """Whether a | b in R, for nonzero a, b in Z[u][v].  A unit a divides,
    and ord(a) > ord(b) does not (orders at the origin add, and are zero
    exactly on units).  Else, with a = u^i·v^j·a' and b = u^k·v^l·b'
    (`_monomial_split`), a | b iff i <= k, j <= l and a' | b', as u and v
    are primes of the UFD R dividing neither part: a unit a' divides, and
    else iff ord(gcd2(a', b')) == ord(a').  No quotient is built."""
    if _constant(a) != 0:
        return True
    if _order(a) > _order(b):
        return False
    (i, j, a), (k, l, b) = _monomial_split(a), _monomial_split(b)
    if i > k or j > l:
        return False
    return _constant(a) != 0 or _order(gcd2(a, b)) == _order(a)


def _content(*fs: list) -> int:
    """The gcd of all the integer coefficients of the fs."""
    return gcd(*(gcd(*row) for f in fs for row in f))


class BiFrac(RingElement):
    """Fraction num/den of two polynomials in Z[u][v], in lowest terms.

    num and den are rows (see gcd2) of Python ints, in the one form that
    makes each element unique: num and den are coprime over Q, the integer
    content of their coefficients taken together is 1, and den(0,0) > 0
    (zero is 0/1).  So equality and hashing compare rows.  `make` reduces
    raw polynomials by one full gcd2.  The arithmetic keeps the form with
    Henrici's cross-gcd rule, as `fractions.Fraction` does: operands are
    already reduced, so a product can only cancel a numerator against the
    other operand's denominator, and a sum only by a factor of gcd2 of the
    two denominators; `_canonical` then divides out the joint content, so
    integers do not grow.  Fractions appear only where a rational leaves:
    `residue`, `to_text` (which divides by den(0,0), the text of the
    element's den(0,0) = 1 form) and `nth_root_unit`, whose `_unit_root`
    runs the recurrence both models share on homogeneous parts over Q.
    """

    model = MODEL_BIVARIATE
    variables = ["u", "v"]
    allow_o = False
    exact = True  # no element of this model is truncated
    __slots__ = ("num", "den")

    def __init__(self, num: list, den: list):
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "BiFrac":
        return BiFrac([], _ONE2)

    @staticmethod
    def from_fraction(c) -> "BiFrac":
        """c, an int or a Fraction (whose denominator is positive)."""
        return BiFrac([[c.numerator]] if c else [], [[c.denominator]])

    @staticmethod
    def make(num: list, den: list) -> "BiFrac":
        if not den:
            raise DivisionImpossible("zero denominator")
        if not num:
            return BiFrac.zero()
        g = gcd2(num, den)
        return BiFrac._canonical(_cofactor(num, g), _cofactor(den, g))

    @staticmethod
    def _canonical(num: list, den: list) -> "BiFrac":
        """Coprime num/den, divided by their joint integer content and
        signed so that den(0,0) > 0."""
        c = _constant(den)
        if c == 0:
            raise DivisionImpossible("denominator vanishes at the origin")
        k = _content(num, den)
        if c < 0:
            k = -k
        if k == 1:
            return BiFrac(num, den)
        return BiFrac([[x // k for x in row] for row in num],
                      [[x // k for x in row] for row in den])

    def is_zero(self) -> bool:
        return not self.num

    def is_unit(self) -> bool:
        return _constant(self.num) != 0

    def residue(self) -> Fraction:
        return Fraction(_constant(self.num), self.den[0][0])

    def order(self) -> int:
        """Order of vanishing at the closed point, for self != 0."""
        return _order(self.num)

    def _plus(self, n2: list, d2: list) -> "BiFrac":
        """self + n2/d2, for coprime n2 and d2."""
        n1, d1 = self.num, self.den
        g = gcd2(d1, d2)
        if _is_constant(g):
            t, den = _rec_add(_rec_mul(n1, d2), _rec_mul(n2, d1)), _rec_mul(d1, d2)
        else:
            s = divide_exact_p2(d1, g)
            t = _rec_add(_rec_mul(n1, divide_exact_p2(d2, g)), _rec_mul(n2, s))
            g2 = gcd2(t, g)
            t, den = _cofactor(t, g2), _rec_mul(s, _cofactor(d2, g2))
        if not t:
            return BiFrac.zero()
        return BiFrac._canonical(t, den)

    def _times(self, n2: list, d2: list) -> "BiFrac":
        """self * n2/d2, for coprime n2 and d2.  A factor 1 (num = den =
        [[1]]) costs no gcd; when self is 1, `_canonical` still checks and
        signs n2/d2, which may be a reciprocal."""
        if not self.num or not n2:
            return BiFrac.zero()
        if n2 == d2 == _ONE2:
            return self
        if self.num == self.den == _ONE2:
            return BiFrac._canonical(n2, d2)
        g1 = gcd2(self.num, d2)
        g2 = gcd2(n2, self.den)
        return BiFrac._canonical(
            _rec_mul(_cofactor(self.num, g1), _cofactor(n2, g2)),
            _rec_mul(_cofactor(self.den, g2), _cofactor(d2, g1)),
        )

    def __add__(self, o: "BiFrac") -> "BiFrac":
        self._match(o)
        return self._plus(o.num, o.den)

    def __sub__(self, o: "BiFrac") -> "BiFrac":
        self._match(o)
        return self._plus(_rec_neg(o.num), o.den)

    def __neg__(self) -> "BiFrac":
        return BiFrac(_rec_neg(self.num), self.den)

    def __mul__(self, o: "BiFrac") -> "BiFrac":
        self._match(o)
        return self._times(o.num, o.den)

    def divide_in_ring(self, o: "BiFrac", prec: int = DEFAULT_PREC) -> "BiFrac":
        self._match(o)
        if o.is_zero():
            raise DivisionImpossible("division by zero")
        return self._times(o.den, o.num)

    def __eq__(self, o) -> bool:
        if not isinstance(o, BiFrac):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((tuple(map(tuple, self.num)), tuple(map(tuple, self.den))))

    # -- the model's rules, for nonzero operands ------------------------------

    def divides(self, o: "BiFrac") -> bool:
        """Denominators are units, so the numerators decide (`_divides`)."""
        return _divides(self.num, o.num)

    def powers_divide(self, m: int, o: "BiFrac", n: int) -> tuple:
        """(self^m | o^n, o^n | self^m), on the numerators of both powers."""
        p, q = (self ** m).num, (o ** n).num
        return _divides(p, q), _divides(q, p)

    @staticmethod
    def gcd(gens: list) -> "BiFrac":
        acc = gens[0].num
        for g in gens[1:]:
            acc = gcd2(acc, g.num)
        return BiFrac._canonical(acc, _ONE2)

    def polys(self) -> tuple[Poly, Optional[Poly]]:
        """num and den as integer polynomials in u, v; den None when it is 1."""
        return _poly(self.num), None if self.den == _ONE2 else _poly(self.den)

    def in_ideal(self, gens: list) -> bool:
        """self in I·R_m  iff  (I : self) escapes <u, v>; (I : self) is
        computed as (I ∩ <self>)/self via the t-trick in Q[t, u, v].  Each
        quotient is taken in Z[u][v], by the primitive part of self.num, and
        the elimination stops at the first member whose quotient escapes."""
        p = self.num
        gens3 = [_poly(g.num, (1,)) for g in gens]
        gens3.append(_poly(p, (0,)) - _poly(p, (1,)))
        k = _content(p)
        p = [[c // k for c in row] for row in p]

        def escapes(q3: Poly) -> bool:
            qq = divide_exact_p2(_cleared(_strip_vars(q3, 1))[0], p)
            assert qq is not None, "intersection member must be divisible"
            return _constant(qq) != 0

        return any(map(escapes, eliminate(gens3, 1, escapes)))

    @staticmethod
    def radical(gens: list):
        """The test of membership in √(gens) for nonzero elements, by gcd,
        with no Groebner run.  R is a two-dimensional regular local ring,
        hence a UFD (Auslander–Buchsbaum), so J = h·J' with h the gcd of
        the generators and J' m-primary or the unit ideal.  So √J is R when
        a generator is a unit, m when h is one, and √h otherwise.  With
        h = u^a·v^b·h' (`_monomial_split`), √h is generated by
        u^[a>0]·v^[b>0]·rad(h'), where rad(h') is h' itself for a unit h',
        and else h' / gcd(h', ∂h'/∂u, ∂h'/∂v) in characteristic 0 (Yun,
        SYMSAC 1976): no gcd is taken for a monomial times a unit."""
        if any(_constant(g.num) for g in gens):
            return lambda f: True
        h = BiFrac.gcd(gens).num
        if _constant(h):
            return lambda f: _constant(f.num) == 0
        a, b, h = _monomial_split(h)
        if not _constant(h):
            h_u = _trim([[i * c for i, c in enumerate(row)][1:] for row in h])
            h_v = [[j * c for c in row] for j, row in enumerate(h)][1:]
            h = _cofactor(h, gcd2(gcd2(h, h_u), h_v))
        rad = [[]] * min(b, 1) + [[0] * min(a, 1) + row if row else row for row in h]
        return lambda f: _divides(rad, f.num)

    def _unit_root(self, c0: Fraction, n: int, prec: int) -> Optional["BiFrac"]:
        """c0·r(num)/r(den), where r(f) is the root that `power_root` gives
        on the homogeneous parts of p = f/f(0,0), to degree ⌊deg p / n⌋;
        None unless r(f)^n == p for both.  Nothing is missed: if self is
        (c0·P/Q)^n with P, Q coprime and P(0,0) = Q(0,0) = 1, unique
        factorization makes the two p's P^n and Q^n."""
        roots = []
        for f in (self.num, self.den):
            p = _poly(f, scale=_constant(f))
            parts: list = [{} for _ in range(1 + max(map(sum, p.terms)))]
            for m, c in p.terms.items():
                parts[sum(m)][m] = c
            parts = [Poly(t, 2) for t in parts]
            g = power_root(parts, n, (len(parts) - 1) // n + 1, parts[0])
            root = sum(g[1:], g[0])
            if root**n != p:
                return None
            roots.append(root)
        return BiFrac.make(*_cleared(c0 * roots[0], roots[1]))

    def to_text(self) -> str:
        c = self.den[0][0]
        num = grammar.poly_to_text(_poly(self.num, scale=c), self.variables)
        if _is_constant(self.den):
            return num
        den = grammar.poly_to_text(_poly(self.den, scale=c), self.variables)
        return f"({num})/({den})"


# element-level predicates ----------------------------------------------------


def divides(a: RingElement, b: RingElement) -> bool:
    """Whether b/a lies in the ring.  Requires a != 0; the model answers."""
    a._match(b)
    if a.is_zero():
        raise PreconditionViolated("divisibility by zero is undefined")
    if b.is_zero():
        return True
    return a.divides(b)


def unit_multiple(
    a: RingElement, b: RingElement, prec: int = DEFAULT_PREC
) -> Optional[RingElement]:
    """The unit w with b = w*a, when a and b generate the same ideal.
    In both models orders add and a unit's is 0: unequal orders give None."""
    a._match(b)
    if a.is_zero() or b.is_zero():
        raise PreconditionViolated("unit_multiple needs nonzero arguments")
    if a.order() != b.order():
        return None
    try:
        w = b.divide_in_ring(a, prec)
    except DivisionImpossible:
        return None
    return w if w.is_unit() else None


def pair_principal(f: RingElement, g: RingElement) -> Optional[RingElement]:
    """A generator of <f, g> when that ideal is principal.

    In a local domain a two-generated ideal is principal exactly when one
    generator divides the other, so this is a divisibility dispatch.
    """
    f._match(g)
    if f.is_zero() and g.is_zero():
        raise PreconditionViolated("pair_principal needs a nonzero generator")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if divides(f, g):
        return f
    if divides(g, f):
        return g
    return None


def _one_model(gens: Sequence[RingElement]) -> None:
    """ModelMismatch unless all elements, zeros included, share one model."""
    for g in gens[1:]:
        gens[0]._match(g)


def elements_gcd(gens: Sequence[RingElement]) -> RingElement:
    """A gcd of the generators (both models are UFD stand-ins), up to unit."""
    _one_model(gens)
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return RingElement.zero(gens[0].model)
    return live[0].gcd(live)


nth_root_unit = RingElement.nth_root_unit


def substitute_base(e: RingElement, b: int) -> RingElement:
    if e.model != MODEL_DVR:
        raise ModelMismatch("base substitution x -> x^b needs the DVR model")
    return e.substitute_base(b)


# ---------------------------------------------------------------------------
# ideals of the base ring
# ---------------------------------------------------------------------------


class IdealHandle:
    """Finitely generated ideal of R, with localized membership tests."""

    __slots__ = ("model", "gens")

    def __init__(self, gens: Iterable[RingElement], model: Optional[str] = None):
        gens = list(gens)
        live = [g for g in gens if not g.is_zero()]
        if model is None:
            if not live:
                raise PreconditionViolated("ideal of unknown model")
            model = live[0].model
        for g in gens:  # zeros included: they still name a model
            if g.model != model:
                raise ModelMismatch("ideal generators from different models")
        self.model = model
        self.gens = tuple(live)

    def __repr__(self) -> str:
        inner = ", ".join(element_to_text(g) for g in self.gens)
        return f"IdealHandle<{inner or '0'}>"


def _ideal_query(f: RingElement, ideal: IdealHandle, rule) -> bool:
    """The model check and the zero cases, then the model's rule."""
    if f.model != ideal.model:
        raise ModelMismatch("element and ideal from different models")
    if f.is_zero():
        return True
    return bool(ideal.gens) and rule(f, ideal.gens)


def ideal_membership(f: RingElement, ideal: IdealHandle) -> bool:
    """f in I·R_loc."""
    return _ideal_query(f, ideal, type(f).in_ideal)


def radical_membership(f: RingElement, ideal: IdealHandle) -> bool:
    """f in sqrt(I·R_loc), by the test the model's `radical` rule builds."""
    return _ideal_query(f, ideal, lambda e, gens: type(e).radical(gens)(e))


# ---------------------------------------------------------------------------
# S/T-polynomial extension
# ---------------------------------------------------------------------------


class PolyExt:
    """Polynomial in the homotopy parameters S, T over RingElement coefficients."""

    __slots__ = ("model", "terms")

    def __init__(self, model: str, terms: dict, checked: bool = False):
        """checked: the coefficients come from this model's arithmetic."""
        self.model = model
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}
        if not checked:
            for v in self.terms.values():
                if v.model != model:
                    raise ModelMismatch("mixed coefficient models in PolyExt")

    @staticmethod
    def constant(e: RingElement) -> "PolyExt":
        return PolyExt(e.model, {(0, 0): e})

    @staticmethod
    def variable(name: str, model: str) -> "PolyExt":
        key = (1, 0) if name == "S" else (0, 1)
        return PolyExt(model, {key: RingElement.one(model)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_st_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def constant_part(self) -> RingElement:
        return self.terms.get((0, 0), RingElement.zero(self.model))

    def __add__(self, o: "PolyExt") -> "PolyExt":
        if o.model != self.model:
            raise ModelMismatch("mixed coefficient models in PolyExt")
        t = dict(self.terms)
        for k, v in o.terms.items():
            t[k] = t[k] + v if k in t else v
        return PolyExt(self.model, t, checked=True)

    def __sub__(self, o: "PolyExt") -> "PolyExt":
        return self + (-o)

    def __neg__(self) -> "PolyExt":
        return PolyExt(self.model, {k: -v for k, v in self.terms.items()}, checked=True)

    def __mul__(self, o: "PolyExt") -> "PolyExt":
        t: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                k = (i1 + i2, j1 + j2)
                prod = c1 * c2
                t[k] = t[k] + prod if k in t else prod
        return PolyExt(self.model, t, checked=True)

    def __pow__(self, n: int) -> "PolyExt":
        one = PolyExt.constant(RingElement.one(self.model)) if n == 0 else None
        return power(self, n, one)  # never multiplies by one, needed for n = 0 only

    def scale(self, e: RingElement) -> "PolyExt":
        return PolyExt(self.model, {k: v * e for k, v in self.terms.items()}, checked=True)

    def subs(
        self,
        s: Optional[RingElement] = None,
        t: Optional[RingElement] = None,
    ) -> "PolyExt":
        """Substitute ring elements for S and/or T."""
        out: dict = {}
        for (i, j), e in self.terms.items():
            if s is not None and i:
                e, i = e * s**i, 0
            if t is not None and j:
                e, j = e * t**j, 0
            k = (i, j)
            out[k] = out[k] + e if k in out else e
        return PolyExt(self.model, out, checked=True)

    def eval_st(self, s: RingElement, t: RingElement) -> RingElement:
        return self.subs(s, t).constant_part()

    def __eq__(self, o) -> bool:
        if not isinstance(o, PolyExt):
            return NotImplemented
        return self.model == o.model and self.terms == o.terms

    def __repr__(self) -> str:
        return f"PolyExt({polyext_to_json(self, element_to_text)!r})"


# conversions for the extension engine ---------------------------------------


def _polyext_clear(g: PolyExt, nvars: int, st_offset: int, base_offset: int) -> Poly:
    """Clear the coefficients' denominators and embed g into Q[...], with S
    and T at st_offset and the base variables (x, or u and v) from
    base_offset.  A denominator 1 multiplies nothing; a DVR coefficient,
    which must be exact, always has that one."""
    parts = [c.polys() for c in g.terms.values()]
    terms = {}  # the S/T exponents keep the buckets' monomials apart
    for idx, ((i, j), (contrib, _)) in enumerate(zip(g.terms, parts)):
        for k, (_, d) in enumerate(parts):
            if k != idx and d is not None:
                contrib = contrib * d
        for mono, coeff in contrib.terms.items():
            mm = [0] * nvars
            mm[base_offset : base_offset + len(mono)] = mono
            mm[st_offset], mm[st_offset + 1] = i, j
            terms[tuple(mm)] = coeff
    return Poly(terms, nvars)


def _fibre_query(gens: Sequence[PolyExt], fs: Sequence[PolyExt]) -> bool:
    """`_ext_query` on the DVR residue fiber: over Q, in the variables
    t_1, ..., t_m, S, T, with each coefficient replaced by its residue."""
    pad = (0,) * len(fs)  # the exponents of the t's

    def placed(g: PolyExt) -> Poly:
        return Poly({pad + k: c.residue() for k, c in g.terms.items()}, len(pad) + 2)

    return _unit_query([placed(g) for g in gens], len(pad) + 2, [placed(f) for f in fs])


def _same(f: PolyExt, g: PolyExt) -> bool:
    """f = g, not only to the tracked order (`Series` equality is relative)."""
    return f == g and all(c.exact for p in (f, g) for c in p.terms.values())


def _ext_query(gens: Sequence[PolyExt], fs: Sequence[PolyExt]) -> bool:
    """Whether 1 (fs empty) or every f in fs (radically) lies in <gens> of
    R_loc[S, T].

    A generator free of S and T with a unit value answers yes at once: it
    is a unit of R[S, T].  With B the other such values, √(B) (the model's
    `radical` rule) then settles what the base ring can:
    1. with one S/T generator h, J = (1) iff h(0,0) is a unit and h's
       other coefficients lie in √(B): a polynomial over R/(B), a local
       ring, is a unit iff its constant term is a unit and its other
       coefficients are nilpotent (Atiyah–Macdonald, Ch. 1, Ex. 2).  With
       B empty, √(0) = 0 (R is a domain), so the answer is no.  A no
       settles only a unit-ideal query;
    2. an f with every coefficient in √(B) lies in √(B)·R[S, T] ⊆ √J;
    3. an f equal to a generator lies in J (see `_same`).
    Settled f's leave the set, and an emptied set answers yes.

    The rest, with exact coefficients, both models: clear denominators,
    embed into Q[t, S, T, x] or Q[t, S, T, u, v], eliminate t, S and T and
    ask whether the resulting ideal of Q[x] or Q[u,v] escapes the origin.
    This is exact: for generators J with polynomial coefficients,
    J·R[S,T] = (1) iff J ∩ Q[base] ⊄ (base variables), since clearing the
    denominators of 1 = Σ aᵢgᵢ gives such an element, and the polynomial
    ring localized at the origin maps faithfully flatly to R.  A radical
    query puts one Rabinowitsch variable per f in front of S and T (see
    `_unit_query`), so a set of m elements is one elimination, not m.

    The DVR model asks the residue fiber (coefficients replaced by
    residues, over Q) first, which must answer yes; a nonzero S/T-constant
    generator then settles the query, being a unit on the generic fiber.
    Every prime of R[S,T] lives on one of the two fibers.  The elimination
    decides the generic one only from exact coefficients, so a truncated
    coefficient that gets this far raises PrecisionExhausted.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    base = [g.constant_part() for g in gens if g.is_st_constant()]
    if any(b.is_unit() for b in base):
        return True
    rest = [g for g in gens if not g.is_st_constant()]
    in_rad = type(base[0]).radical(base) if base else (lambda c: False)
    if len(rest) == 1:
        h = rest[0]
        unit = h.constant_part().is_unit() and all(
            in_rad(c) for k, c in h.terms.items() if k != (0, 0))
        if unit or not fs:
            return unit
    if fs:
        fs = [f for f in fs if not all(map(in_rad, f.terms.values()))
              and not any(_same(f, g) for g in gens)]
        if not fs:
            return True
    model = gens[0].model
    if model == MODEL_DVR:
        if not _fibre_query(gens, fs):
            return False
        if base:
            return True  # a nonzero base constant is a generic-fiber unit
        if not all(c.exact for g in [*gens, *fs] for c in g.terms.values()):
            raise PrecisionExhausted("truncated coefficient past the residue fiber")
    off = len(fs)
    n = off + 2 + len(model_class(model).variables)  # t's, S, T, base variables
    polys = [_polyext_clear(g, n, off, off + 2) for g in gens]
    return _unit_query(polys, off + 2, [_polyext_clear(f, n, off, off + 2) for f in fs])


def ext_unit_ideal(gens: Sequence[PolyExt]) -> bool:
    """Whether the generators span the unit ideal of R_loc[S, T]."""
    return _ext_query(gens, ())


def ext_radical_membership(fs: Sequence[PolyExt], gens: Sequence[PolyExt]) -> bool:
    """Whether every f in fs lies in the radical of the generators' ideal in
    R_loc[S, T]: one query for the whole set, with one Rabinowitsch variable
    per nonzero f.  An empty set, or one of zeros only, lies in every
    radical."""
    fs = [f for f in fs if not f.is_zero()]
    return not fs or _ext_query(gens, fs)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def _series_from_raw(nums: list, den: Poly, otrunc: Optional[int], prec: int) -> list:
    """The series n/den [+ O(x^otrunc)] for each n in nums, each the
    `Series.divide` quotient: exact when the polynomial den divides n."""
    def poly1_to_series(p: Poly) -> Series:
        if not p.terms:
            return Series.zero()
        lo, hi = min(p.terms)[0], max(p.terms)[0]
        return Series.make(lo, [p.terms.get((k,), 0) for k in range(lo, hi + 1)], True)

    sd = poly1_to_series(den)
    if sd.is_zero():
        raise ParseError("zero denominator")
    out = []
    for num in nums:
        q = poly1_to_series(num).divide(sd, prec)
        if not q.is_zero() and q.val < 0:
            raise ParseError("element has a pole at the origin (negative valuation)")
        if otrunc is not None:
            if q.is_zero() or q.val >= otrunc:
                raise ParseError(
                    f"O(x^{otrunc}) leaves no determined leading coefficient"
                )
            known = list(q.coeffs[: otrunc - q.val])
            if q.exact:
                known += [0] * (otrunc - q.val - len(known))
            q = Series.make(q.val, known, False)
        out.append(q)
    return out


def _from_raw(
    model: str, nums: list, den: Poly, otrunc: Optional[int], prec: int
) -> list:
    """The elements n/den [+ O(x^otrunc)] of parsed rational functions that
    share the denominator den, one per numerator n in nums."""
    if model == MODEL_DVR:
        return _series_from_raw(nums, den, otrunc, prec)
    try:
        return [BiFrac.make(*_cleared(n, den)) for n in nums]
    except DivisionImpossible as exc:
        raise ParseError(str(exc)) from exc


def parse_element(text: str, model: str, prec: int = DEFAULT_PREC) -> RingElement:
    """Parse the element grammar into the requested model."""
    if not isinstance(text, str):
        raise ParseError(f"an element is written as text, got {type(text).__name__}")
    cls = model_class(model)
    num, den, otrunc = grammar.parse_rational_function(text, cls.variables, cls.allow_o)
    return _from_raw(model, [num], den, otrunc, prec)[0]


def element_to_text(e: RingElement) -> str:
    """Canonical, re-parseable rendering."""
    return e.to_text()


_ST = ["S", "T"]
_ST_FACTOR = re.compile(r"([ST])(?:\^([0-9]+))?")


def _st_key_parse(key: str) -> tuple[int, int]:
    """(i, j) of a key S^i*T^j as `polyext_to_json` writes it: "1", or factors
    S, T, S^n, T^n (n a digit string) joined by "*", each variable once."""
    if key == "1":
        return (0, 0)
    exps: dict = {}
    for part in key.split("*"):
        m = _ST_FACTOR.fullmatch(part)
        if m is None or m[1] in exps:
            raise ParseError(f"bad S/T monomial key {key!r}")
        exps[m[1]] = int(m[2] or 1)
    return exps.get("S", 0), exps.get("T", 0)


def polyext_to_json(p: PolyExt, text) -> dict:
    """{"S^i*T^j": text(coefficient)} with deterministic key order; `text`
    prints an element, as `element_to_text` does."""
    out = {}
    for (i, j) in sorted(p.terms):
        out[grammar.mono_text((i, j), _ST) or "1"] = text(p.terms[(i, j)])
    return out


def polyext_from_json(d: dict, model: str, read) -> PolyExt:
    """The inverse of `polyext_to_json`; `read` turns a coefficient text
    into an element of model, as `parse_element` does."""
    if not isinstance(d, dict):
        raise ParseError(f"an S/T polynomial is a JSON object, got {type(d).__name__}")
    terms, keys = {}, {}
    for key, text in d.items():
        st = _st_key_parse(key)
        if st in keys:
            raise ParseError(f"S/T keys {keys[st]!r} and {key!r} name one monomial")
        keys[st] = key
        terms[st] = read(text)
    return PolyExt(model, terms)


def parse_polyext(text: str, model: str, prec: int = DEFAULT_PREC) -> PolyExt:
    """Parse a single expression that may mention S and T.

    The benchmark and the acceptance criteria build witness corruptions
    with it; witness JSON uses the per-monomial dictionary form instead so
    that truncated coefficients survive a round trip.
    """
    base = model_class(model).variables
    num, den, _ = grammar.parse_rational_function(text, base + ["S", "T"], allow_o=False)
    nbase = len(base)
    # denominator must not involve S or T
    for m in den.terms:
        if any(m[nbase:]):
            raise ParseError("denominator may not involve S or T")
    buckets: dict = {}
    for m, c in num.terms.items():
        st = (m[nbase], m[nbase + 1])
        key_terms = buckets.setdefault(st, {})
        key_terms[m[:nbase]] = key_terms.get(m[:nbase], Fraction(0)) + c
    den_base = Poly({m[:nbase]: c for m, c in den.terms.items()}, nbase)
    nums = [Poly(terms, nbase) for terms in buckets.values()]
    elements = _from_raw(model, nums, den_base, None, prec)
    return PolyExt(model, dict(zip(buckets, elements)))
