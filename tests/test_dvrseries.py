"""The DVR series kernel: quotients, inverses and unit roots against
sympy's series."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nodalwitness.dvrseries import Series
from nodalwitness.errors import PrecisionExhausted

small_q = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3
)
nonzero_q = small_q.filter(lambda c: c != 0)


def coefficients(sympy, expr, x, n):
    """The first n coefficients of expr's expansion at x = 0."""
    s = sympy.series(expr, x, 0, n).removeO()
    return [Fraction(str(s.coeff(x, k))) for k in range(n)]


def polynomial(sympy, coeffs, x):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs)),
        sympy.Integer(0),
    )


def window(s: Series, prec: int) -> int:
    """How many coefficients an inverse, root or quotient by s carries when
    it is not exact."""
    return prec if s.exact else len(s.coeffs)


class TestAgainstSympy:
    @given(
        val=st.integers(0, 3),
        c0=nonzero_q,
        tail=st.lists(small_q, max_size=5),
        exact=st.booleans(),
        prec=st.integers(4, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, val, c0, tail, exact, prec):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        s = Series.make(val, [c0] + tail, exact)
        inv = s.inverse(prec)
        assert inv.val == -val
        if s.is_monomial():
            assert inv.exact and inv.coeffs == (1 / c0,)
            return
        n = window(s, prec)
        assert not inv.exact and len(inv.coeffs) == n
        # a truncated operand's unknown tail cannot reach the first n terms
        expect = coefficients(sympy, 1 / polynomial(sympy, s.coeffs, x), x, n)
        assert list(inv.coeffs) == expect, (s, inv)

    @given(
        a_shape=st.sampled_from(["exact", "truncated", "zero"]),
        a_val=st.integers(0, 3),
        a=st.lists(small_q, min_size=1, max_size=6).filter(lambda c: c[0] != 0),
        b_val=st.integers(0, 3),
        b=st.lists(small_q, min_size=1, max_size=11).filter(lambda c: c[0] != 0),
        b_exact=st.booleans(),
        prec=st.integers(2, 8),
    )
    # a monomial divisor, a negative valuation, a divisor longer than prec,
    # a zero numerator, an exact quotient, an exact quotient of negative
    # valuation, an exact numerator shorter than the divisor
    @example(a_shape="truncated", a_val=1, a=[2, 1], b_val=0, b=[3], b_exact=True, prec=4)
    @example(a_shape="exact", a_val=0, a=[1, -1], b_val=2, b=[1, 1], b_exact=True, prec=5)
    @example(a_shape="exact", a_val=1, a=[1], b_val=0, b=[1] * 9, b_exact=True, prec=3)
    @example(a_shape="zero", a_val=0, a=[1], b_val=1, b=[1, 2], b_exact=False, prec=4)
    @example(a_shape="exact", a_val=0, a=[1, 2, 1], b_val=0, b=[1, 1], b_exact=True, prec=4)
    @example(a_shape="exact", a_val=1, a=[1, 2, 1], b_val=2, b=[1, 1], b_exact=True, prec=4)
    @example(a_shape="exact", a_val=0, a=[1, 1], b_val=0, b=[1, 2, 1], b_exact=True, prec=4)
    @settings(max_examples=40, deadline=None)
    def test_divide(self, a_shape, a_val, a, b_val, b, b_exact, prec):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        num = (
            Series.zero() if a_shape == "zero"
            else Series.make(a_val, a, a_shape == "exact")
        )
        den = Series.make(b_val, b, b_exact)
        q = num.divide(den, prec)
        if num.is_zero():
            assert q.is_zero() and q.exact
            return
        assert q.val == a_val - b_val
        top = polynomial(sympy, num.coeffs, x)
        bottom = polynomial(sympy, den.coeffs, x)
        if den.is_monomial():
            n = len(num.coeffs)
            assert q.exact == num.exact
        else:
            # exact exactly when both operands are and the polynomials divide
            quotient, remainder = sympy.div(top, bottom, x)
            assert q.exact == (num.exact and den.exact and remainder == 0)
            if q.exact:
                expect = sympy.Poly(quotient, x).all_coeffs()[::-1]
                assert list(q.coeffs) == [Fraction(str(c)) for c in expect]
                return
            n = window(den, prec)
            if not num.exact:
                n = min(n, len(num.coeffs))
        assert len(q.coeffs) == n
        # a truncated operand's unknown tail cannot reach the first n terms
        expect = coefficients(sympy, top / bottom, x, n)
        assert list(q.coeffs) == expect, (num, den, q)

    @given(
        n=st.integers(2, 3),
        r=nonzero_q,
        tail=st.lists(small_q, max_size=5),
        root=st.lists(small_q, min_size=1, max_size=2),
        shape=st.sampled_from(["truncated", "exact", "exact power"]),
        prec=st.integers(4, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_nth_root_unit(self, n, r, tail, root, shape, prec):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        if n % 2 == 0:
            r = abs(r)  # an even root needs a positive residue
        if shape == "exact power":
            h = polynomial(sympy, [r] + root, x)
            coeffs = [Fraction(str(c)) for c in reversed(sympy.Poly(h**n, x).all_coeffs())]
        else:
            coeffs = [r**n] + tail
        s = Series.make(0, coeffs, shape != "truncated")
        g = s.nth_root_unit(n, prec)
        w = window(s, prec)
        # the real root with residue r: -(-P)^(1/n) when r < 0 (n odd)
        sign = 1 if r > 0 else -1
        P = polynomial(sympy, s.coeffs, x)
        expect = [sign * c for c in coefficients(sympy, (sign * P) ** sympy.Rational(1, n), x, w)]
        assert [g.coeff(k) for k in range(w)] == expect, (s, n, g)
        # exact exactly when s is the n-th power of that truncation
        trunc = polynomial(sympy, expect, x)
        assert g.exact == (s.exact and sympy.expand(trunc**n - P) == 0), (s, n, g)
        if not g.exact:
            assert g.val == 0 and len(g.coeffs) == w


def convolution(s: Series, t: Series) -> Series:
    """s*t as the full convolution of the stored windows, canonicalized by
    `Series.make`: the general product, the reference for monomial factors."""
    if s.is_zero() or t.is_zero():
        return Series.zero()
    if s.exact and t.exact:
        n, exact = len(s.coeffs) + len(t.coeffs) - 1, True
    else:
        n, exact = min(len(u.coeffs) for u in (s, t) if not u.exact), False
    out = [Fraction(0)] * n
    for i, a in enumerate(s.coeffs[:n]):
        for j, b in enumerate(t.coeffs[: n - i]):
            out[i + j] += a * b
    return Series.make(s.val + t.val, out, exact)


class TestMonomialProduct:
    @given(
        val=st.integers(0, 3),
        coeffs=st.lists(small_q, min_size=1, max_size=6).filter(lambda c: c[0] != 0),
        exact=st.booleans(),
        m_val=st.integers(0, 3),
        c=nonzero_q,
    )
    # the exact 1 against an exact and a truncated operand; c != 1 at val 0;
    # a truncated window ending in a zero; both operands monomials
    @example(val=1, coeffs=[2, -1, 3], exact=True, m_val=0, c=1)
    @example(val=0, coeffs=[1, 0, 2], exact=False, m_val=0, c=1)
    @example(val=2, coeffs=[Fraction(1, 3), 1], exact=True, m_val=0, c=Fraction(-3, 2))
    @example(val=0, coeffs=[1, 2, 0], exact=False, m_val=2, c=Fraction(2, 3))
    @example(val=3, coeffs=[-2], exact=True, m_val=1, c=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_convolution(self, val, coeffs, exact, m_val, c):
        s = Series.make(val, coeffs, exact)
        m = Series.monomial(m_val, c)
        want = convolution(s, m)
        if not exact:
            assert len(want.coeffs) == len(s.coeffs)  # the window is kept
        for got in (s * m, m * s):
            assert (got.val, got.coeffs, got.exact) == (want.val, want.coeffs, want.exact)


leading_terms = st.lists(small_q, min_size=1, max_size=6).filter(lambda c: c[0] != 0)


class TestGeneralProduct:
    @given(
        shapes=st.sampled_from([(True, True), (True, False), (False, False)]),
        s_val=st.integers(0, 3),
        s_coeffs=leading_terms,
        t_val=st.integers(0, 3),
        t_coeffs=leading_terms,
    )
    # a middle coefficient cancels: (1 + x)(1 - x); the last known one
    # cancels and stays in the window: (1 - x)(1 + x + O(x^2)); a window
    # of two against an operand of five, with negative leading terms
    @example(shapes=(True, True), s_val=0, s_coeffs=[1, 1], t_val=0, t_coeffs=[1, -1])
    @example(shapes=(True, False), s_val=0, s_coeffs=[1, -1], t_val=0, t_coeffs=[1, 1])
    @example(
        shapes=(True, False), s_val=1, s_coeffs=[-2, 1, 0, Fraction(1, 3), 3],
        t_val=0, t_coeffs=[Fraction(-2, 3), Fraction(1, 2)],
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_convolution(self, shapes, s_val, s_coeffs, t_val, t_coeffs):
        s = Series.make(s_val, s_coeffs, shapes[0])
        t = Series.make(t_val, t_coeffs, shapes[1])
        assume(not s.is_monomial() and not t.is_monomial())
        want = convolution(s, t)
        for got in (s * t, t * s):
            assert (got.val, got.coeffs, got.exact) == (want.val, want.coeffs, want.exact)


def coefficientwise(s: Series, t: Series, sign: int):
    """s + sign*t, term by term on Fractions: (val, coeffs, exact), or
    "zero", or "undetermined" when every known term cancels.  A term is
    known below the end of each truncated operand's window."""
    ends = [u.val + len(u.coeffs) for u in (s, t) if not u.exact]
    terms: dict = {}
    for u, f in ((s, 1), (t, sign)):
        for i, c in enumerate(u.coeffs):
            terms[u.val + i] = terms.get(u.val + i, Fraction(0)) + f * c
    if ends:
        terms = {k: c for k, c in terms.items() if k < min(ends)}
    live = sorted(k for k, c in terms.items() if c != 0)
    if not live:
        return "undetermined" if ends else "zero"
    top = min(ends) if ends else live[-1] + 1
    return live[0], tuple(terms.get(k, Fraction(0)) for k in range(live[0], top)), not ends


@st.composite
def sum_operands(draw):
    """The zero series, a monomial, or a series of valuation -3..3 with up
    to six stored coefficients, exact or truncated."""
    kind = draw(st.sampled_from(["zero", "monomial", "series", "series"]))
    if kind == "zero":
        return Series.zero()
    val = draw(st.integers(-3, 3))
    if kind == "monomial":
        return Series.monomial(val, draw(nonzero_q))
    return Series.make(val, draw(leading_terms), draw(st.booleans()))


def outcome(f):
    try:
        got = f()
    except PrecisionExhausted:
        return "undetermined"
    return "zero" if got.is_zero() else (got.val, got.coeffs, got.exact)


class TestSum:
    @given(s=sum_operands(), t=sum_operands())
    # w - 1 with residue 1: the leading term cancels, and with it the
    # whole window of 1 + O(x); a monomial below, inside and beyond a
    # truncated window; exact cancellation to zero; negative valuations
    @example(s=Series.make(0, [1, 2, 3], False), t=Series.monomial(0, 1))
    @example(s=Series.make(0, [1], False), t=Series.monomial(0, 1))
    @example(s=Series.make(1, [2, 1], False), t=Series.monomial(0, 3))
    @example(s=Series.make(0, [2, 1, 1], False), t=Series.monomial(1, 1))
    @example(s=Series.make(0, [2, 1], False), t=Series.monomial(3, 1))
    @example(s=Series.make(-2, [1, 0, 1], True), t=Series.make(-2, [1, 0, 1], True))
    @example(s=Series.make(-3, [1, 2], True), t=Series.make(-1, [5, 1], False))
    @settings(max_examples=300, deadline=None)
    def test_sum_and_difference_term_by_term(self, s, t):
        for f, g, sign in ((s, t, 1), (t, s, 1), (s, t, -1), (t, s, -1)):
            op = (lambda: f + g) if sign == 1 else (lambda: f - g)
            assert outcome(op) == coefficientwise(f, g, sign), (f, g, sign)
