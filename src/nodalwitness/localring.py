"""Two exact models of the smooth henselian local base ring.

DVR model: truncated power series in one parameter x (see `dvrseries`);
the computable stand-in for a one-dimensional henselian local ring.

BIVARIATE model: fractions p/q of exact-rational polynomials in u, v with
q(0,0) != 0 — the local ring of a smooth surface germ, where interesting
non-principal ideals exist.

Both models sit behind one `RingElement` facade with ideal arithmetic
(`IdealHandle`), the S/T-polynomial extension used by homotopy witnesses
(`PolyExt`), and the Groebner-backed membership tests.  Membership in the
localized ring reduces to plain polynomial computations in two ways: an
ideal-quotient escaping the maximal ideal, or an elimination ideal escaping
the origin (a localized Rabinowitsch trick).  The DVR model instead splits
every extended query into a residue-fiber check over the rationals and a
generic-fiber check over truncated Laurent coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import grammar
from .dvrseries import DEFAULT_PREC, LaurentField, Series, _rational_root
from .errors import (
    DivisionImpossible,
    ModelMismatch,
    ParseError,
    PreconditionViolated,
    RootUnavailable,
)
from .polyring import (
    Grevlex,
    Poly,
    QQ,
    eliminate,
    escapes_origin,
    mono_div,
    mono_divides,
    power,
)

MODEL_DVR = "dvr"
MODEL_BIVARIATE = "bivariate"

_UVARS = ["u", "v"]
_XVAR = ["x"]


# ---------------------------------------------------------------------------
# exact gcd machinery for Q[u,v] (dense recursive representation)
# ---------------------------------------------------------------------------


def _u_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _u_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _u_trim(out)


def _u_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _u_trim(out)


def _u_scale(a: list, c: Fraction) -> list:
    return _u_trim([x * c for x in a]) if c else []


def _u_divmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and _u_trim(r):
        if len(r) < len(b):
            break
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[i + k] -= c * y
        _u_trim(r)
    return _u_trim(q), _u_trim(r)


def _u_gcd(a: list, b: list) -> list:
    a, b = list(a), list(b)
    while b:
        _, r = _u_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _p2_to_rec(p: Poly) -> list:
    """Poly in (u, v) -> list over v-degree of u-coefficient lists."""
    if p.is_zero():
        return []
    dv = max(m[1] for m in p.terms)
    rec: list = [[] for _ in range(dv + 1)]
    for (eu, ev), c in p.terms.items():
        row = rec[ev]
        if len(row) <= eu:
            row.extend([Fraction(0)] * (eu + 1 - len(row)))
        row[eu] = c
    return [_u_trim(row) for row in rec]


def _rec_to_p2(rec: list) -> Poly:
    terms = {}
    for ev, row in enumerate(rec):
        for eu, c in enumerate(row):
            if c:
                terms[(eu, ev)] = c
    return Poly(terms, QQ, 2)


def _rec_trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _rec_content(f: list) -> list:
    g: list = []
    for row in f:
        g = _u_gcd(g, row)
    return g


def _rec_div_content(f: list, c: list) -> list:
    out = []
    for row in f:
        q, r = _u_divmod(row, c)
        assert not r, "content division must be exact"
        out.append(q)
    return out


def _rec_prem(f: list, g: list) -> list:
    """Pseudo-remainder of f by g as polynomials in v over Q[u]."""
    f = [list(r) for r in f]
    dg = len(g) - 1
    lg = g[-1]
    while _rec_trim(f) and len(f) - 1 >= dg:
        df = len(f) - 1
        lf = f[-1]
        f = [_u_mul(row, lg) for row in f]
        shift = df - dg
        for i, row in enumerate(g):
            f[i + shift] = _u_add(f[i + shift], _u_scale(_u_mul(row, lf), Fraction(-1)))
        _rec_trim(f)
    return f


def gcd2(p: Poly, q: Poly) -> Poly:
    """Monic-normalized gcd in the UFD Q[u,v]."""
    if p.is_zero():
        g = q
    elif q.is_zero():
        g = p
    else:
        f1, f2 = _p2_to_rec(p), _p2_to_rec(q)
        c1, c2 = _rec_content(f1), _rec_content(f2)
        f1, f2 = _rec_div_content(f1, c1), _rec_div_content(f2, c2)
        while _rec_trim(list(f2)):
            r = _rec_prem(f1, f2)
            f1, f2 = f2, _rec_trim(r)
        cont = _rec_content(f1)
        prim = _rec_div_content(f1, cont)
        g = _rec_to_p2(
            [_u_mul(row, _u_gcd(c1, c2)) for row in prim]
        )
    if g.is_zero():
        return g
    _, lc = g.leading(Grevlex(2))
    return g.scale(Fraction(1) / lc)


def divide_exact_p2(p: Poly, d: Poly) -> Optional[Poly]:
    """Exact quotient p/d in Q[u,v], or None."""
    if p.is_zero():
        return p
    if d.is_zero():
        return None
    order = Grevlex(2)
    dm, dc = d.leading(order)
    q = Poly.zero(QQ, 2)
    work = p
    while not work.is_zero():
        wm, wc = work.leading(order)
        if not mono_divides(dm, wm):
            return None
        t = Poly({mono_div(wm, dm): wc / dc}, QQ, 2)
        q = q + t
        work = work - t * d
    return q


def _poly_nth_root(p: Poly, n: int) -> Optional[Poly]:
    """Greedy leading-term n-th root extraction in Q[u,v]."""
    if p.is_zero():
        return p
    if n == 1:
        return p
    order = Grevlex(2)
    lm, lc = p.leading(order)
    if any(e % n for e in lm):
        return None
    c0 = _rational_root(lc, n)
    if c0 is None:
        return None
    g = Poly({tuple(e // n for e in lm): c0}, QQ, 2)
    for _ in range(len(p.terms) * n + 8):
        r = p - g**n
        if r.is_zero():
            return g
        rm, rc = r.leading(order)
        gl = g**(n - 1)
        glm, glc = gl.leading(order)
        if not mono_divides(glm, rm):
            return None
        t = Poly({mono_div(rm, glm): rc / (n * glc)}, QQ, 2)
        if order.greater(t.leading(order)[0], g.leading(order)[0]):
            return None
        g = g + t
    return None


class RatFuncField:
    """The exact field Q(x), elements (num, den) as coefficient tuples.

    Used for generic-fiber Groebner runs whenever every series coefficient
    in sight is exact; truncated coefficients fall back to `LaurentField`,
    whose honest answer to catastrophic cancellation is PrecisionExhausted.
    """

    def __init__(self):
        self.zero = ((), (Fraction(1),))
        self.one = ((Fraction(1),), (Fraction(1),))

    @staticmethod
    def _norm(num: list, den: list):
        num, den = _u_trim(list(num)), _u_trim(list(den))
        if not den:
            raise ZeroDivisionError
        if not num:
            return ((), (Fraction(1),))
        g = _u_gcd(num, den)
        if len(g) > 1:
            num, _ = _u_divmod(num, g)
            den, _ = _u_divmod(den, g)
        lead = den[-1]
        if lead != 1:
            den = [c / lead for c in den]
            num = [c / lead for c in num]
        return (tuple(num), tuple(den))

    def add(self, a, b):
        return self._norm(
            _u_add(_u_mul(list(a[0]), list(b[1])), _u_mul(list(b[0]), list(a[1]))),
            _u_mul(list(a[1]), list(b[1])),
        )

    def neg(self, a):
        return (tuple(-c for c in a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._norm(_u_mul(list(a[0]), list(b[0])), _u_mul(list(a[1]), list(b[1])))

    def div(self, a, b):
        if not b[0]:
            raise ZeroDivisionError
        return self._norm(_u_mul(list(a[0]), list(b[1])), _u_mul(list(a[1]), list(b[0])))

    def is_zero(self, a) -> bool:
        return not a[0]

    @staticmethod
    def from_series(s: Series):
        if s.is_zero():
            return ((), (Fraction(1),))
        if s.val >= 0:
            return RatFuncField._norm(
                [Fraction(0)] * s.val + list(s.coeffs), [Fraction(1)]
            )
        return RatFuncField._norm(
            list(s.coeffs), [Fraction(0)] * (-s.val) + [Fraction(1)]
        )


# ---------------------------------------------------------------------------
# bivariate payload
# ---------------------------------------------------------------------------


class BiFrac:
    """Reduced fraction num/den in Q[u,v] with den(0,0) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    @staticmethod
    def make(num: Poly, den: Poly) -> "BiFrac":
        if den.is_zero():
            raise DivisionImpossible("zero denominator")
        if num.is_zero():
            return BiFrac(num, Poly.constant(Fraction(1), QQ, 2))
        g = gcd2(num, den)
        if not g.is_constant():
            num = divide_exact_p2(num, g)
            den = divide_exact_p2(den, g)
        c = den.constant_coeff()
        if c == 0:
            raise DivisionImpossible("denominator vanishes at the origin")
        s = Fraction(1) / c
        return BiFrac(num.scale(s), den.scale(s))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_unit(self) -> bool:
        return self.num.constant_coeff() != 0

    def residue(self) -> Fraction:
        return self.num.constant_coeff()

    def __add__(self, o: "BiFrac") -> "BiFrac":
        return BiFrac.make(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "BiFrac") -> "BiFrac":
        return BiFrac.make(self.num * o.den - o.num * self.den, self.den * o.den)

    def __neg__(self) -> "BiFrac":
        return BiFrac(-self.num, self.den)

    def __mul__(self, o: "BiFrac") -> "BiFrac":
        return BiFrac.make(self.num * o.num, self.den * o.den)

    def divide(self, o: "BiFrac") -> "BiFrac":
        if o.is_zero():
            raise DivisionImpossible("division by zero")
        return BiFrac.make(self.num * o.den, self.den * o.num)

    def __eq__(self, o) -> bool:
        if not isinstance(o, BiFrac):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------


class RingElement:
    """An element of the chosen base-ring model."""

    __slots__ = ("model", "payload")

    def __init__(self, model: str, payload):
        self.model = model
        self.payload = payload

    # construction

    @staticmethod
    def from_series(s: Series) -> "RingElement":
        return RingElement(MODEL_DVR, s)

    @staticmethod
    def from_bifrac(b: BiFrac) -> "RingElement":
        return RingElement(MODEL_BIVARIATE, b)

    @staticmethod
    def zero(model: str) -> "RingElement":
        if model == MODEL_DVR:
            return RingElement(model, Series.zero())
        return RingElement(model, BiFrac(Poly.zero(QQ, 2), Poly.constant(Fraction(1), QQ, 2)))

    @staticmethod
    def from_fraction(c, model: str) -> "RingElement":
        c = Fraction(c)
        if model == MODEL_DVR:
            return RingElement(model, Series.from_fraction(c))
        return RingElement(
            model,
            BiFrac(Poly.constant(c, QQ, 2), Poly.constant(Fraction(1), QQ, 2)),
        )

    @staticmethod
    def one(model: str) -> "RingElement":
        return RingElement.from_fraction(1, model)

    def _match(self, other: "RingElement") -> None:
        if self.model != other.model:
            raise ModelMismatch(f"cannot mix {self.model} and {other.model} elements")

    # predicates

    def is_zero(self) -> bool:
        return self.payload.is_zero()

    def is_unit(self) -> bool:
        return self.payload.is_unit()

    def residue(self) -> Fraction:
        return self.payload.residue()

    def valuation(self) -> Optional[int]:
        """DVR order of vanishing; None for the zero element."""
        if self.model != MODEL_DVR:
            raise ModelMismatch("valuation is a DVR-model notion")
        return None if self.payload.is_zero() else self.payload.val

    # arithmetic

    def __add__(self, other: "RingElement") -> "RingElement":
        self._match(other)
        return RingElement(self.model, self.payload + other.payload)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._match(other)
        return RingElement(self.model, self.payload - other.payload)

    def __neg__(self) -> "RingElement":
        return RingElement(self.model, -self.payload)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._match(other)
        return RingElement(self.model, self.payload * other.payload)

    def __pow__(self, n: int) -> "RingElement":
        return power(self, n, RingElement.one(self.model))

    def divide_in_ring(self, other: "RingElement", prec: int = DEFAULT_PREC) -> "RingElement":
        """Exact quotient self/other inside the ring; DivisionImpossible else."""
        self._match(other)
        if other.is_zero():
            raise DivisionImpossible("division by zero")
        if self.is_zero():
            return RingElement.zero(self.model)
        if self.model == MODEL_DVR:
            return RingElement(self.model, self.payload.divide_in_ring(other.payload, prec))
        return RingElement(self.model, self.payload.divide(other.payload))

    def substitute_base(self, b: int) -> "RingElement":
        if self.model != MODEL_DVR:
            raise ModelMismatch("base substitution x -> x^b needs the DVR model")
        return RingElement(self.model, self.payload.substitute_base(b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.model == other.model and self.payload == other.payload

    def __hash__(self):
        return hash((self.model, self.payload))

    def __repr__(self) -> str:
        return f"RingElement({self.model}, {element_to_text(self)!r})"


# element-level predicates ----------------------------------------------------


def divides(a: RingElement, b: RingElement) -> bool:
    """Whether b/a lies in the ring.  Requires a != 0.

    DVR model: answered from the valuations, v(a) <= v(b), which is exact
    even for truncated operands (the leading term of a series is always
    known).  Bivariate model: answered by exact `BiFrac` division.  Neither
    model depends on a series precision.
    """
    if a.is_zero():
        raise PreconditionViolated("divisibility by zero is undefined")
    if b.is_zero():
        return True
    a._match(b)
    if a.model == MODEL_DVR:
        return b.payload.val >= a.payload.val
    try:
        b.divide_in_ring(a)
        return True
    except DivisionImpossible:
        return False


def unit_multiple(
    a: RingElement, b: RingElement, prec: int = DEFAULT_PREC
) -> Optional[RingElement]:
    """The unit w with b = w*a, when a and b generate the same ideal."""
    if a.is_zero() or b.is_zero():
        raise PreconditionViolated("unit_multiple needs nonzero arguments")
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


def gens_principal(gens: Sequence[RingElement]) -> Optional[RingElement]:
    """Fold pair_principal over any number of generators."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return RingElement.zero(gens[0].model) if gens else None
    acc = live[0]
    for g in live[1:]:
        nxt = pair_principal(acc, g)
        if nxt is None:
            return None
        acc = nxt
    return acc


def elements_gcd(gens: Sequence[RingElement]) -> RingElement:
    """A gcd of the generators (both models are UFD stand-ins), up to unit."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return RingElement.zero(gens[0].model)
    model = live[0].model
    if model == MODEL_DVR:
        m = min(g.payload.val for g in live)
        return RingElement.from_series(Series.monomial(m))
    acc = live[0].payload.num
    for g in live[1:]:
        acc = gcd2(acc, g.payload.num)
    return RingElement.from_bifrac(BiFrac.make(acc, Poly.constant(Fraction(1), QQ, 2)))


def nth_root_unit(
    e: RingElement, n: int, prec: int = DEFAULT_PREC
) -> Optional[RingElement]:
    """g with g^n = e, for unit e.

    Raises RootUnavailable when the residue (a rational) has no rational
    n-th root — the price of an exact residue field.  In the bivariate
    model only constants and exact perfect powers are recognized; anything
    else returns None.
    """
    if n < 1:
        raise PreconditionViolated("root index must be positive")
    if not e.is_unit():
        raise PreconditionViolated("n-th roots are extracted from units only")
    if e.model == MODEL_DVR:
        return RingElement.from_series(e.payload.nth_root_unit(n, prec))
    res = _rational_root(e.residue(), n)
    if res is None:
        raise RootUnavailable(f"residue {e.residue()} has no rational {n}-th root")
    b: BiFrac = e.payload
    if b.num.is_constant() and b.den.is_constant():
        return RingElement.from_fraction(res, MODEL_BIVARIATE)
    rn = _poly_nth_root(b.num, n)
    rd = _poly_nth_root(b.den, n)
    if rn is None or rd is None:
        return None
    g = RingElement.from_bifrac(BiFrac.make(rn, rd))
    if g**n == e:
        return g
    if (-g) ** n == e:
        return -g
    return None


def substitute_base(e: RingElement, b: int) -> RingElement:
    return e.substitute_base(b)


# ---------------------------------------------------------------------------
# ideals of the base ring
# ---------------------------------------------------------------------------


class IdealHandle:
    """Finitely generated ideal of R, with localized membership tests."""

    __slots__ = ("model", "gens")

    def __init__(self, gens: Iterable[RingElement], model: Optional[str] = None):
        gens = [g for g in gens if not g.is_zero()]
        if model is None:
            if not gens:
                raise PreconditionViolated("ideal of unknown model")
            model = gens[0].model
        for g in gens:
            if g.model != model:
                raise ModelMismatch("ideal generators from different models")
        self.model = model
        self.gens = tuple(gens)

    def __repr__(self) -> str:
        inner = ", ".join(element_to_text(g) for g in self.gens)
        return f"IdealHandle<{inner or '0'}>"


def _embed(p: Poly, nvars: int, offset: int) -> Poly:
    terms = {}
    for m, c in p.terms.items():
        mm = [0] * nvars
        for i, e in enumerate(m):
            mm[offset + i] = e
        terms[tuple(mm)] = c
    return Poly(terms, QQ, nvars)


def _strip_vars(p: Poly, keep_from: int) -> Poly:
    terms = {m[keep_from:]: c for m, c in p.terms.items()}
    return Poly(terms, QQ, p.nvars - keep_from)


def _unit_query(polys: list, nelim: int, f: Optional[Poly]) -> bool:
    """Whether the ideal, eliminated to its last variables, escapes the origin.

    With `f` given, the Rabinowitsch generator 1 - t*f is appended first (t
    is the first variable), so the answer is radical membership of f.  With
    nelim equal to the number of variables the block order is grevlex and
    the question is whether the ideal is the unit ideal.
    """
    if f is not None:
        F, n = f.field, f.nvars
        polys = polys + [Poly.constant(F.one, F, n) - Poly.variable(0, F, n) * f]
    return escapes_origin(eliminate(polys, nelim))


def ideal_membership(f: RingElement, ideal: IdealHandle) -> bool:
    """f in I·R_loc."""
    if f.model != ideal.model:
        raise ModelMismatch("element and ideal from different models")
    if f.is_zero():
        return True
    if not ideal.gens:
        return False
    if ideal.model == MODEL_DVR:
        m = min(g.payload.val for g in ideal.gens)
        return f.payload.val >= m
    # bivariate: f in I·R_m  iff  (I : f) escapes <u, v>; compute (I : f)
    # as (I ∩ <f>)/f via the t-trick in Q[t, u, v].
    p = f.payload.num
    n = 3
    t = Poly.variable(0, QQ, n)
    one = Poly.constant(Fraction(1), QQ, n)
    gens3 = [t * _embed(g.payload.num, n, 1) for g in ideal.gens]
    gens3.append((one - t) * _embed(p, n, 1))
    inter = eliminate(gens3, 1)
    quotient = []
    for q3 in inter:
        q2 = _strip_vars(q3, 1)
        qq = divide_exact_p2(q2, p)
        assert qq is not None, "intersection member must be divisible"
        quotient.append(qq)
    return escapes_origin(quotient)


def radical_membership(f: RingElement, ideal: IdealHandle) -> bool:
    """f in sqrt(I·R_loc)."""
    if f.model != ideal.model:
        raise ModelMismatch("element and ideal from different models")
    if f.is_zero():
        return True
    if not ideal.gens:
        return False
    if ideal.model == MODEL_DVR:
        m = min(g.payload.val for g in ideal.gens)
        if m == 0:
            return True
        return f.payload.val >= 1
    # Rabinowitsch, localized, in Q[t, u, v]
    gens3 = [_embed(g.payload.num, 3, 1) for g in ideal.gens]
    return _unit_query(gens3, 1, _embed(f.payload.num, 3, 1))


# ---------------------------------------------------------------------------
# S/T-polynomial extension
# ---------------------------------------------------------------------------


class PolyExt:
    """Polynomial in the homotopy parameters S, T over RingElement coefficients."""

    __slots__ = ("model", "terms")

    def __init__(self, model: str, terms: dict):
        self.model = model
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}
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
        t = dict(self.terms)
        for k, v in o.terms.items():
            t[k] = t[k] + v if k in t else v
        return PolyExt(self.model, t)

    def __sub__(self, o: "PolyExt") -> "PolyExt":
        return self + (-o)

    def __neg__(self) -> "PolyExt":
        return PolyExt(self.model, {k: -v for k, v in self.terms.items()})

    def __mul__(self, o: "PolyExt") -> "PolyExt":
        t: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                k = (i1 + i2, j1 + j2)
                prod = c1 * c2
                t[k] = t[k] + prod if k in t else prod
        return PolyExt(self.model, t)

    def __pow__(self, n: int) -> "PolyExt":
        return power(self, n, PolyExt.constant(RingElement.one(self.model)))

    def scale(self, e: RingElement) -> "PolyExt":
        return PolyExt(self.model, {k: v * e for k, v in self.terms.items()})

    def subs(
        self,
        s: Optional[RingElement] = None,
        t: Optional[RingElement] = None,
    ) -> "PolyExt":
        """Substitute ring elements for S and/or T."""
        out: dict = {}
        for (i, j), c in self.terms.items():
            e = c
            ii, jj = i, j
            if s is not None:
                e = e * s**i
                ii = 0
            if t is not None:
                e = e * t**j
                jj = 0
            k = (ii, jj)
            out[k] = out[k] + e if k in out else e
        return PolyExt(self.model, out)

    def eval_st(self, s: RingElement, t: RingElement) -> RingElement:
        return self.subs(s, t).constant_part()

    def __eq__(self, o) -> bool:
        if not isinstance(o, PolyExt):
            return NotImplemented
        return self.model == o.model and self.terms == o.terms

    def __repr__(self) -> str:
        return f"PolyExt({polyext_to_text(self)!r})"


# conversions for the extension engine ---------------------------------------


def _polyext_clear(g: PolyExt, nvars: int, st_offset: int, uv_offset: int) -> Poly:
    """Clear bivariate denominators and embed into Q[...]; DVR unsupported."""
    dens = [c.payload.den for c in g.terms.values()]
    out = Poly.zero(QQ, nvars)
    for idx, ((i, j), c) in enumerate(g.terms.items()):
        contrib = c.payload.num
        for k, d in enumerate(dens):
            if k != idx:
                contrib = contrib * d
        shifted = {}
        for mono, coeff in _embed(contrib, nvars, uv_offset).terms.items():
            mm = list(mono)
            mm[st_offset] += i
            mm[st_offset + 1] += j
            shifted[tuple(mm)] = coeff
        out = out + Poly(shifted, QQ, nvars)
    return out


def _polyext_residue(g: PolyExt, nvars: int, st_offset: int) -> Poly:
    terms = {}
    for (i, j), c in g.terms.items():
        r = c.residue()
        if r == 0:
            continue
        m = [0] * nvars
        m[st_offset] = i
        m[st_offset + 1] = j
        key = tuple(m)
        terms[key] = terms.get(key, Fraction(0)) + r
    return Poly(terms, QQ, nvars)


def _generic_field(exts: Sequence[PolyExt], prec: int):
    """Coefficient field for generic-fiber runs: exact Q(x) when possible."""
    for g in exts:
        for c in g.terms.values():
            if not c.payload.exact:
                return LaurentField(prec)
    return RatFuncField()


def _polyext_generic(g: PolyExt, field, nvars: int, st_offset: int) -> Poly:
    exact = isinstance(field, RatFuncField)
    terms = {}
    for (i, j), c in g.terms.items():
        m = [0] * nvars
        m[st_offset] = i
        m[st_offset + 1] = j
        terms[tuple(m)] = (
            RatFuncField.from_series(c.payload) if exact else c.payload
        )
    return Poly(terms, field, nvars)


def _ext_query(gens: Sequence[PolyExt], f: Optional[PolyExt], prec: int) -> bool:
    """Whether 1 (f None) or f (radically) lies in <gens> of R_loc[S, T].

    DVR model: the answer is yes iff it is yes on both the residue fiber
    (coefficients replaced by residues, over Q) and the generic fiber (over
    Q(x), or the Laurent field once a coefficient is truncated) — every
    prime of R[S,T] lives on one of the two fibers.  Bivariate model: clear
    denominators, eliminate S and T and ask whether the resulting ideal of
    Q[u,v] escapes the origin.  A radical query puts the Rabinowitsch
    variable t in front of S and T.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    off = 0 if f is None else 1
    if gens[0].model == MODEL_BIVARIATE:
        n = off + 4  # [t,] S, T, u, v
        polys = [_polyext_clear(g, n, off, off + 2) for g in gens]
        fp = None if f is None else _polyext_clear(f, n, off, off + 2)
        return _unit_query(polys, off + 2, fp)
    n = off + 2  # [t,] S, T
    res = [_polyext_residue(g, n, off) for g in gens]
    fres = None if f is None else _polyext_residue(f, n, off)
    if not _unit_query(res, n, fres):
        return False
    for g in gens:
        if g.is_st_constant() and not g.constant_part().is_zero():
            return True  # a nonzero base constant is a generic-fiber unit
    field = _generic_field(gens if f is None else gens + [f], prec)
    lau = [_polyext_generic(g, field, n, off) for g in gens]
    flau = None if f is None else _polyext_generic(f, field, n, off)
    return _unit_query(lau, n, flau)


def ext_unit_ideal(gens: Sequence[PolyExt], prec: int = DEFAULT_PREC) -> bool:
    """Whether the generators span the unit ideal of R_loc[S, T]."""
    return _ext_query(gens, None, prec)


def ext_radical_membership(
    f: PolyExt, gens: Sequence[PolyExt], prec: int = DEFAULT_PREC
) -> bool:
    """Whether f lies in the radical of the generators' ideal in R_loc[S, T]."""
    return f.is_zero() or _ext_query(gens, f, prec)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def _series_from_raw(num: Poly, den: Poly, otrunc: Optional[int], prec: int) -> Series:
    def poly1_to_series(p: Poly) -> Series:
        if p.is_zero():
            return Series.zero()
        top = max(m[0] for m in p.terms)
        coeffs = [Fraction(0)] * (top + 1)
        for (k,), c in p.terms.items():
            coeffs[k] = c
        return Series.make(0, coeffs, True)

    sn, sd = poly1_to_series(num), poly1_to_series(den)
    if sd.is_zero():
        raise ParseError("zero denominator")
    q = sn.divide(sd, prec) if not sn.is_zero() else Series.zero()
    if not q.is_zero() and q.val < 0:
        raise ParseError("element has a pole at the origin (negative valuation)")
    if otrunc is not None:
        if q.is_zero() or q.val >= otrunc:
            raise ParseError(
                f"O(x^{otrunc}) leaves no determined leading coefficient"
            )
        rel = otrunc - q.val
        known = list(q.coeffs[:rel])
        if len(known) < rel and not q.exact:
            rel = len(known)
        known = known + [Fraction(0)] * (rel - len(known))
        return Series.make(q.val, known, False)
    return q


def parse_element(text: str, model: str, prec: int = DEFAULT_PREC) -> RingElement:
    """Parse the element grammar into the requested model."""
    if model == MODEL_DVR:
        num, den, otrunc = grammar.parse_rational_function(text, _XVAR, allow_o=True)
        return RingElement.from_series(_series_from_raw(num, den, otrunc, prec))
    if model == MODEL_BIVARIATE:
        num, den, _ = grammar.parse_rational_function(text, _UVARS, allow_o=False)
        try:
            return RingElement.from_bifrac(BiFrac.make(num, den))
        except DivisionImpossible as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown ring model {model!r}")


def element_to_text(e: RingElement) -> str:
    """Canonical, re-parseable rendering."""
    if e.model == MODEL_DVR:
        s: Series = e.payload
        if s.is_zero():
            return "0"
        terms = {(s.val + i,): c for i, c in enumerate(s.coeffs) if c != 0}
        body = grammar.poly_to_text(Poly(terms, QQ, 1), _XVAR)
        if s.exact:
            return body
        return f"{body} + O(x^{s.val + len(s.coeffs)})"
    b: BiFrac = e.payload
    num = grammar.poly_to_text(b.num, _UVARS)
    if b.den.is_constant():
        return num
    return f"({num})/({grammar.poly_to_text(b.den, _UVARS)})"


def _st_key_text(i: int, j: int) -> str:
    bits = []
    if i == 1:
        bits.append("S")
    elif i > 1:
        bits.append(f"S^{i}")
    if j == 1:
        bits.append("T")
    elif j > 1:
        bits.append(f"T^{j}")
    return "*".join(bits) if bits else "1"


def _st_key_parse(key: str) -> tuple[int, int]:
    i = j = 0
    key = key.strip()
    if key == "1":
        return (0, 0)
    for part in key.split("*"):
        part = part.strip()
        if part.startswith("S"):
            i = int(part[2:]) if part.startswith("S^") else 1
        elif part.startswith("T"):
            j = int(part[2:]) if part.startswith("T^") else 1
        else:
            raise ParseError(f"bad S/T monomial key {part!r}")
    return (i, j)


def polyext_to_json(p: PolyExt) -> dict:
    """{"S^i*T^j": coefficient-text} with deterministic key order."""
    out = {}
    for (i, j) in sorted(p.terms):
        out[_st_key_text(i, j)] = element_to_text(p.terms[(i, j)])
    return out


def polyext_from_json(d: dict, model: str, prec: int = DEFAULT_PREC) -> PolyExt:
    terms = {}
    for key, text in d.items():
        terms[_st_key_parse(key)] = parse_element(text, model, prec)
    return PolyExt(model, terms)


def parse_polyext(text: str, model: str, prec: int = DEFAULT_PREC) -> PolyExt:
    """Parse a single expression that may mention S and T.

    Handy for tests and CLI one-liners; witness JSON uses the per-monomial
    dictionary form instead so that truncated coefficients survive a round
    trip.
    """
    base = _XVAR if model == MODEL_DVR else _UVARS
    names = base + ["S", "T"]
    num, den, _ = grammar.parse_rational_function(text, names, allow_o=False)
    nbase = len(base)
    # denominator must not involve S or T
    for m in den.terms:
        if any(m[nbase:]):
            raise ParseError("denominator may not involve S or T")
    buckets: dict = {}
    for m, c in num.terms.items():
        st = (m[nbase], m[nbase + 1]) if nbase == 1 else (m[2], m[3])
        key_terms = buckets.setdefault(st, {})
        key_terms[m[:nbase]] = key_terms.get(m[:nbase], Fraction(0)) + c
    den_base = Poly({m[:nbase]: c for m, c in den.terms.items()}, QQ, nbase)
    out = {}
    for st, terms in buckets.items():
        num_base = Poly(terms, QQ, nbase)
        if model == MODEL_DVR:
            out[st] = RingElement.from_series(
                _series_from_raw(num_base, den_base, None, prec)
            )
        else:
            out[st] = RingElement.from_bifrac(BiFrac.make(num_base, den_base))
    return PolyExt(model, out)


def polyext_to_text(p: PolyExt) -> str:
    """One-line display form (not the JSON transport form)."""
    if p.is_zero():
        return "0"
    bits = []
    for (i, j) in sorted(p.terms):
        coeff = element_to_text(p.terms[(i, j)])
        mono = _st_key_text(i, j)
        if mono == "1":
            bits.append(coeff)
        elif coeff == "1":
            bits.append(mono)
        else:
            bits.append(f"({coeff})*{mono}")
    return " + ".join(bits)
