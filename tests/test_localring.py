"""Ring-model facade: divisibility, ideals, roots, and the S/T extension."""

import operator
import re
import time
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nodalwitness import grammar, localring, polyring
from nodalwitness.dvrseries import Series
from nodalwitness.errors import (
    DegreeCapExceeded,
    DivisionImpossible,
    ModelMismatch,
    ParseError,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
)
from nodalwitness.localring import (
    MODEL_BIVARIATE,
    MODEL_DVR,
    BiFrac,
    IdealHandle,
    PolyExt,
    RingElement,
    divide_exact_p2,
    divides,
    element_to_text,
    elements_gcd,
    ext_radical_membership,
    ext_unit_ideal,
    gcd2,
    ideal_membership,
    nth_root_unit,
    pair_principal,
    parse_element,
    parse_polyext,
    polyext_from_json,
    polyext_to_json,
    radical_membership,
    substitute_base,
    unit_multiple,
)
from nodalwitness.polyring import Poly, eliminate, escapes_origin, set_spair_cap
from nodalwitness.ringelement import rational_root

MODELS = [MODEL_DVR, MODEL_BIVARIATE]


def dvr(text):
    return parse_element(text, MODEL_DVR)


def biv(text):
    return parse_element(text, MODEL_BIVARIATE)


# --- strategies -------------------------------------------------------------

small_q = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@st.composite
def dvr_elements(draw, min_val=0, max_val=3, allow_zero=True):
    if allow_zero and draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return RingElement.zero(MODEL_DVR)
    val = draw(st.integers(min_val, max_val))
    lead = draw(small_q.filter(lambda c: c != 0))
    tail = draw(st.lists(small_q, max_size=3))
    return Series.make(val, [lead] + tail, True)


@st.composite
def biv_elements(draw, allow_zero=True):
    texts = ["1", "u", "v", "u+v", "1+u", "2+v", "u*v", "1+u*v", "3", "u^2+v"]
    e = biv(draw(st.sampled_from(texts)))
    scale = draw(small_q.filter(lambda c: c != 0))
    e = e * RingElement.from_fraction(scale, MODEL_BIVARIATE)
    if allow_zero and draw(st.integers(0, 9)) == 0:
        return RingElement.zero(MODEL_BIVARIATE)
    return e


def p2(terms) -> Poly:
    return Poly({m: Fraction(c) for m, c in terms.items()}, 2)


# nonzero polynomials in Q[u, v] of total degree <= 2, constants included
nonzero_uv_polys = st.dictionaries(
    st.sampled_from([(i, j) for i in range(3) for j in range(3 - i)]),
    small_q.filter(lambda c: c != 0),
    min_size=1,
    max_size=4,
).map(lambda terms: Poly(terms, 2))


@st.composite
def large_height_polys(draw, min_size=0):
    """Polynomials in Q[u, v] of total degree <= 2 whose coefficients have
    denominators up to 10^6 and numerators beyond 2^64."""
    monos = st.sampled_from([(i, j) for i in range(3) for j in range(3 - i)])
    coeffs = st.builds(
        Fraction, st.integers(-(2**80), 2**80), st.integers(1, 10**6)
    ).filter(lambda c: c != 0)
    terms = draw(st.dictionaries(monos, coeffs, min_size=min_size, max_size=4))
    return Poly(terms, 2)


def int_rows(p: Poly, m: int) -> list:
    """m·p in the row form BiFrac stores (a list over v-degree of lists of
    ints over u-degree), for m a multiple of every denominator of p."""
    rows: list = [[] for _ in range(1 + max((ev for _, ev in p.terms), default=-1))]
    for (eu, ev), c in p.terms.items():
        rows[ev] += [0] * (eu + 1 - len(rows[ev]))
        rows[ev][eu] = int(c * m)
    return rows


def z_rows(p: Poly) -> tuple:
    """(rows, s) with p = s·rows and rows primitive in Z[u][v]."""
    m = lcm(*(c.denominator for c in p.terms.values()))
    k = gcd(*(int(c * m) for c in p.terms.values())) or 1
    return int_rows(p, Fraction(m, k)), Fraction(k, m)


def rows_poly(rows) -> Poly:
    return Poly({(eu, ev): Fraction(c) for ev, row in enumerate(rows)
                 for eu, c in enumerate(row) if c}, 2)


def constant_of(rows) -> int:
    return rows[0][0] if rows and rows[0] else 0


def sympy_ring_uv(sympy):
    """sympy's QQ[u, v] and a converter from Poly into it."""
    R, _, _ = sympy.polys.rings.ring("u,v", sympy.QQ)

    def to_sympy(p):
        return R({m: sympy.QQ(c.numerator, c.denominator) for m, c in p.terms.items()})

    return R, to_sympy


@st.composite
def drawn_series(draw):
    """DVR series, exact or truncated, of valuation 0-6 with 1-16 stored
    coefficients (a truncated window may end in zeros)."""
    q = st.fractions(min_value=Fraction(-100), max_value=Fraction(100),
                     max_denominator=60)
    lead = draw(q.filter(lambda c: c != 0))
    tail = draw(st.lists(q, max_size=15))
    return Series.make(draw(st.integers(0, 6)), [lead] + tail, draw(st.booleans()))


def elements_for(model, **kw):
    return dvr_elements(**kw) if model == MODEL_DVR else biv_elements(
        allow_zero=kw.get("allow_zero", True)
    )


@st.composite
def any_elements(draw, model):
    """Like elements_for, but DVR elements may also be truncated."""
    e = draw(elements_for(model))
    if model == MODEL_BIVARIATE or e.is_zero() or not draw(st.booleans()):
        return e
    known = draw(st.integers(1, len(e.coeffs) + 2))
    padded = list(e.coeffs) + [Fraction(0)] * known
    return Series.make(e.val, padded[:known], False)


# --- parsing / printing ------------------------------------------------------


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "x", "x^2", "1+x", "2*x - x^3", "x*(1+x)", "(1+x)^2", "x/2"],
    )
    def test_dvr_roundtrip(self, text):
        e = dvr(text)
        assert parse_element(element_to_text(e), MODEL_DVR) == e

    @pytest.mark.parametrize(
        "text",
        ["0", "u", "v", "u+v", "(u+v)/(1+u)", "u*v - 3", "2/3", "(1-u)^3"],
    )
    def test_biv_roundtrip(self, text):
        e = biv(text)
        assert parse_element(element_to_text(e), MODEL_BIVARIATE) == e

    def test_truncated_tail(self):
        e = dvr("x + O(x^5)")
        assert not e.exact
        assert e.val == 1
        # and the O-tail survives the round trip
        again = parse_element(element_to_text(e), MODEL_DVR)
        assert again == e and not again.exact

    def test_rational_division_is_exact(self):
        assert dvr("x/(1-x)") == dvr("x + x^2 + x^3 + x^4 + O(x^5)")

    def test_pole_rejected(self):
        with pytest.raises(ParseError):
            dvr("1/x")

    def test_origin_pole_rejected(self):
        with pytest.raises(ParseError):
            biv("1/u")

    def test_origin_pole_rejected_with_s_and_t(self):
        with pytest.raises(ParseError):
            parse_polyext("S/u", MODEL_BIVARIATE)

    @pytest.mark.parametrize(
        "coeffs, den",
        [
            (["1", "1", "1", "1", "1", "1"], "1+x"),
            (["x", "2*x - x^2", "x^2", "-3*x", "1/2*x + x^3", "x"], "x + x^2/3"),
        ],
    )
    def test_polyext_divides_each_coefficient_once(self, monkeypatch, coeffs, den):
        keys = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        text = " + ".join(
            f"({c})*S^{i}*T^{j}" for c, (i, j) in zip(coeffs, keys)
        )
        calls = {"inverse": 0, "divide": 0}
        inverse, divide = Series.inverse, Series.divide

        def counting_inverse(s, prec):
            calls["inverse"] += 1
            return inverse(s, prec)

        def counting_divide(s, other, prec):
            calls["divide"] += 1
            return divide(s, other, prec)

        monkeypatch.setattr(Series, "inverse", counting_inverse)
        monkeypatch.setattr(Series, "divide", counting_divide)
        got = parse_polyext(f"({text})/({den})", MODEL_DVR)
        assert calls == {"inverse": 0, "divide": len(keys)}
        monkeypatch.undo()
        # each S/T bucket's quotient is what parsing that coefficient alone gives
        assert got.terms == {
            k: dvr(f"({c})/({den})") for c, k in zip(coeffs, keys)
        }

    @pytest.mark.parametrize(
        "d, first, second",
        [
            ({"S": "x", "S^1": "2*x"}, "S", "S^1"),
            ({"1": "5", "T": "x", "S^0": "3"}, "1", "S^0"),
            ({"S*T": "x", "T^1*S^1": "x"}, "S*T", "T^1*S^1"),
        ],
    )
    def test_two_keys_naming_one_monomial_are_refused(self, d, first, second):
        with pytest.raises(ParseError, match=f"'{re.escape(first)}' and "
                           f"'{re.escape(second)}'"):
            polyext_from_json(d, MODEL_DVR, dvr)

    def test_unit_denominator_ok(self):
        e = biv("v/(1+u)")
        assert not e.is_unit() and not e.is_zero()

    def test_wrong_variable_rejected(self):
        with pytest.raises(ParseError):
            dvr("u + 1")
        with pytest.raises(ParseError):
            biv("x + 1")

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: parse_element("1", m),
            RingElement.zero,
            RingElement.one,
            lambda m: RingElement.from_fraction(2, m),
            lambda m: PolyExt.variable("S", m),
        ],
    )
    def test_unknown_model_rejected(self, build):
        with pytest.raises(ParseError, match="unknown ring model 'dvr '"):
            build("dvr ")

    def test_vacuous_o_tail_rejected(self):
        with pytest.raises(ParseError):
            dvr("x^3 + O(x^2)")

    @given(dvr_elements())
    def test_dvr_print_parse(self, e):
        assert parse_element(element_to_text(e), MODEL_DVR) == e

    @given(biv_elements())
    def test_biv_print_parse(self, e):
        assert parse_element(element_to_text(e), MODEL_BIVARIATE) == e

    @given(drawn_series())
    def test_printed_series_parse_back_identically(self, s):
        # identical, not only equal to the shorter window as == allows
        got = parse_element(element_to_text(s), MODEL_DVR)
        assert (got.val, got.coeffs, got.exact) == (s.val, s.coeffs, s.exact)

    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           drawn_series(), max_size=4))
    def test_polyext_json_round_trip(self, terms):
        p = PolyExt(MODEL_DVR, terms)
        got = polyext_from_json(polyext_to_json(p, element_to_text), MODEL_DVR, dvr)
        assert got.terms.keys() == p.terms.keys()
        for k, s in p.terms.items():
            g = got.terms[k]
            assert (g.val, g.coeffs, g.exact) == (s.val, s.coeffs, s.exact)


# operations that take two elements, each of which must refuse an element
# of the other model, zero or not, before any shortcut
MIXING_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "divide_in_ring": lambda a, b: a.divide_in_ring(b),
    "unit_multiple": unit_multiple,
    "pair_principal": pair_principal,
}
# (DVR text, bivariate text); unit_multiple's zero cases are in
# TestUnitMultiple
MIXING_CASES = [
    (op, pair, swap)
    for op in MIXING_OPS
    for pair in [("x", "u"), ("x", "0"), ("0", "u")]
    if op != "unit_multiple" or "0" not in pair
    for swap in (False, True)
]


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,pair,swap", MIXING_CASES,
        ids=[f"{op}-{'|'.join(p[::-1] if w else p)}" for op, p, w in MIXING_CASES],
    )
    def test_model_mixing_raises(self, op, pair, swap):
        a, b = dvr(pair[0]), biv(pair[1])
        with pytest.raises(ModelMismatch):
            MIXING_OPS[op](*((b, a) if swap else (a, b)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: divides(dvr("x"), RingElement.zero(MODEL_BIVARIATE)),
            lambda: pair_principal(dvr("x"), RingElement.zero(MODEL_BIVARIATE)),
            lambda: elements_gcd([dvr("x"), biv("u")]),
            lambda: IdealHandle([dvr("x"), RingElement.zero(MODEL_BIVARIATE)]),
        ],
        ids=["divides", "pair_principal", "elements_gcd", "IdealHandle"],
    )
    def test_model_mixing_raises_before_zero_shortcuts(self, call):
        with pytest.raises(ModelMismatch):
            call()

    @pytest.mark.parametrize("model", MODELS)
    def test_ring_axioms_spotcheck(self, model):
        a = parse_element("1" if model == MODEL_DVR else "1", model)
        z = RingElement.zero(model)
        assert a + z == a and a * z == z and a - a == z

    @given(st.data())
    @settings(max_examples=60)
    def test_mul_commutes(self, data):
        model = data.draw(st.sampled_from(MODELS))
        a = data.draw(elements_for(model))
        b = data.draw(elements_for(model))
        assert a * b == b * a

    def test_pow(self):
        assert biv("1+u") ** 3 == biv("(1+u)^3")
        assert dvr("x") ** 4 == dvr("x^4")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pow_is_the_repeated_product(self, data):
        model = data.draw(st.sampled_from(MODELS))
        x = data.draw(any_elements(model))
        one = RingElement.one(model)
        if data.draw(st.booleans()):
            b = data.draw(any_elements(model))
            x = PolyExt.constant(x) + PolyExt.variable("S", model).scale(b)
            one = PolyExt.constant(one)
        n = data.draw(st.integers(0, 9))
        # repr is exact: it shows every coefficient and the O(x^k) window
        assert repr(x**n) == repr(reduce(operator.mul, [x] * n, one))

    def test_negative_pow_rejected(self):
        for x in (dvr("1+x"), biv("u"), Poly.variable(0, 2)):
            with pytest.raises(PreconditionViolated):
                x**-1


# --- divisibility and principality -------------------------------------------


class TestDivides:
    def test_dvr_examples(self):
        assert divides(dvr("x"), dvr("x^2"))
        assert not divides(dvr("x^2"), dvr("x"))
        assert divides(dvr("x"), dvr("2*x + x^2"))

    def test_biv_examples(self):
        assert not divides(biv("u"), biv("v"))
        assert divides(biv("u"), biv("u*v"))
        assert divides(biv("1+u"), biv("v"))  # denominators with unit value are fine

    def test_zero_divisor_rejected(self):
        with pytest.raises(PreconditionViolated):
            divides(RingElement.zero(MODEL_DVR), dvr("x"))

    def test_anything_divides_zero(self):
        assert divides(biv("u"), RingElement.zero(MODEL_BIVARIATE))

    @given(st.data())
    @settings(max_examples=60)
    def test_divides_transitive(self, data):
        model = data.draw(st.sampled_from(MODELS))
        a = data.draw(elements_for(model, allow_zero=False))
        b = data.draw(elements_for(model, allow_zero=False))
        c = data.draw(elements_for(model, allow_zero=False))
        if divides(a, b) and divides(b, c):
            assert divides(a, c)

    @given(st.data())
    @settings(max_examples=80)
    def test_dvr_divides_agrees_with_ring_division(self, data):
        # the valuation answer must match the division-based one, for exact
        # and truncated operands alike (e.g. x^2 + O(x^5))
        def draw(allow_zero):
            e = data.draw(dvr_elements(max_val=4, allow_zero=allow_zero))
            if e.is_zero() or not data.draw(st.booleans()):
                return e
            known = data.draw(st.integers(1, len(e.coeffs) + 2))
            padded = list(e.coeffs) + [Fraction(0)] * known
            return Series.make(e.val, padded[:known], False)

        a, b = draw(allow_zero=False), draw(allow_zero=True)
        try:
            b.divide_in_ring(a)
            quotient_in_ring = True
        except DivisionImpossible:
            quotient_in_ring = False
        assert divides(a, b) == quotient_in_ring

    @given(st.data())
    @settings(max_examples=60)
    def test_product_always_divisible(self, data):
        model = data.draw(st.sampled_from(MODELS))
        a = data.draw(elements_for(model, allow_zero=False))
        b = data.draw(elements_for(model))
        assert divides(a, a * b)


    def test_order_reject_computes_no_gcd(self, monkeypatch):
        a, b, unit = biv("u^2 + u*v"), biv("(u + v^3)/(1 + v)"), biv("(2 + u)/(1 - v)")
        calls = []
        monkeypatch.setattr(localring, "gcd2", lambda p, q: calls.append((p, q)))
        assert not divides(a, b)  # order 2 against order 1
        assert divides(unit, b)  # a unit divides everything
        assert calls == []

    @staticmethod
    def record_gcd2(monkeypatch) -> list:
        calls = []
        real = localring.gcd2

        def recording(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(localring, "gcd2", recording)
        return calls

    def test_monomial_split_answers_with_no_gcd(self, monkeypatch):
        # u·v against u^2·v·(1+u): the exponents decide, and the part of
        # u·v left after the split is 1, a unit
        a, b = biv("u*v"), biv("u^2*v*(1+u)")
        u, c = biv("u"), biv("v*(1+u)")
        calls = self.record_gcd2(monkeypatch)
        assert divides(a, b)
        assert not divides(u, c)  # u's exponent 1 exceeds c's 0
        assert radical_membership(a, IdealHandle([b]))
        assert calls == []

    def test_patched_gcd2_is_reached(self, monkeypatch):
        # positive control for the guards above: the same patch sees one
        # gcd2 per parse, and one in divides, where u + v^2 is left after
        # the split, a non-unit; the radical of <(u + v^2)^2·(1+u)> takes
        # two gcd2 in Yun's rule and one in its divides
        calls = self.record_gcd2(monkeypatch)
        assert divides(biv("u + v^2"), biv("(u + v^2)*(u + v)"))
        assert len(calls) == 3
        a, b = biv("u + v^2"), biv("(u + v^2)^2*(1 + u)")
        del calls[:]
        assert radical_membership(a, IdealHandle([b]))
        assert len(calls) == 3


class TestExactDivision:
    @given(dvr_elements(), dvr_elements(allow_zero=False))
    @settings(max_examples=80)
    def test_exact_quotient_of_exact_product(self, a, b):
        q = (a * b).divide_in_ring(b)
        assert q.exact and q == a

    def test_polynomial_quotient_stays_exact(self):
        q = dvr("x^3 + x^4").divide_in_ring(dvr("x^2 + x^3"))
        assert q.exact and q == dvr("x")

    @given(dvr_elements(), dvr_elements(allow_zero=False))
    @settings(max_examples=80)
    def test_parsed_quotient_that_divides_stays_exact(self, p, q):
        # the grammar's p/q follows divide_in_ring's rule: (p*q)/q is p
        text = f"({element_to_text(p * q)})/({element_to_text(q)})"
        got = parse_element(text, MODEL_DVR)
        assert got.exact and got == p

    def test_remainder_falls_back_to_series(self):
        q = dvr("1 + x").divide_in_ring(dvr("1 + x + x^2"))
        assert not q.exact and q == dvr("(1+x)/(1+x+x^2)")

    def test_valuation_still_refused(self):
        with pytest.raises(DivisionImpossible):
            dvr("x + x^2").divide_in_ring(dvr("x^2"))


class TestUnitMultiple:
    def test_example(self):
        w = unit_multiple(dvr("x"), dvr("2*x + x^2"))
        assert w == dvr("2 + x")

    def test_none_when_not_associate(self):
        assert unit_multiple(dvr("x"), dvr("x^2")) is None
        assert unit_multiple(biv("u"), biv("v")) is None

    @pytest.mark.parametrize("a,b", [("x^2", "u"), ("x", "0"), ("0", "u")])
    def test_mixed_models_raise_before_orders_or_zeros(self, a, b):
        # the orders 2 and 1 used to answer None for a mixed pair, and a
        # zero operand raised PreconditionViolated
        for args in [(dvr(a), biv(b)), (biv(b), dvr(a))]:
            with pytest.raises(ModelMismatch):
                unit_multiple(*args)

    @given(st.data())
    @settings(max_examples=60)
    def test_mutual_divisibility(self, data):
        model = data.draw(st.sampled_from(MODELS))
        a = data.draw(elements_for(model, allow_zero=False))
        b = data.draw(elements_for(model, allow_zero=False))
        w = unit_multiple(a, b)
        if w is None:
            assert not (divides(a, b) and divides(b, a))
        else:
            assert w.is_unit()
            assert w * a == b


class TestPrincipal:
    def test_dvr_pairs(self):
        assert pair_principal(dvr("x"), dvr("x^2")) == dvr("x")
        assert pair_principal(dvr("x^3"), dvr("x")) == dvr("x")

    def test_biv_non_principal(self):
        assert pair_principal(biv("u"), biv("v")) is None

    def test_biv_principal(self):
        g = pair_principal(biv("u*v"), biv("u"))
        assert g == biv("u")

    def test_zero_edge(self):
        assert pair_principal(RingElement.zero(MODEL_BIVARIATE), biv("u")) == biv("u")
        with pytest.raises(PreconditionViolated):
            pair_principal(
                RingElement.zero(MODEL_DVR), RingElement.zero(MODEL_DVR)
            )

    @given(st.data())
    @settings(max_examples=40)
    def test_generator_divides_both(self, data):
        model = data.draw(st.sampled_from(MODELS))
        f = data.draw(elements_for(model, allow_zero=False))
        g = data.draw(elements_for(model, allow_zero=False))
        gen = pair_principal(f, g)
        if gen is not None:
            assert divides(gen, f) and divides(gen, g)


class TestGcd:
    def test_dvr(self):
        g = elements_gcd([dvr("x^2"), dvr("x^3 + x^5")])
        assert unit_multiple(g, dvr("x^2")) is not None

    def test_biv(self):
        g = elements_gcd([biv("u*v + u^2"), biv("u*v")])
        assert unit_multiple(g, biv("u")) is not None
        g2 = elements_gcd([biv("u"), biv("v")])
        assert g2.is_unit()

    @given(st.data())
    @settings(max_examples=40)
    def test_gcd_divides(self, data):
        model = data.draw(st.sampled_from(MODELS))
        f = data.draw(elements_for(model, allow_zero=False))
        g = data.draw(elements_for(model, allow_zero=False))
        d = elements_gcd([f, g])
        assert divides(d, f) and divides(d, g)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_gcd2_agrees_with_sympy(self, data):
        sympy = pytest.importorskip("sympy")
        u, v = sympy.symbols("u v")

        monos = st.sampled_from([(i, j) for i in range(3) for j in range(3 - i)])

        def draw_poly():
            return Poly(data.draw(st.dictionaries(monos, small_q, max_size=4)), 2)

        def to_sympy(p):
            return sum(
                (sympy.Rational(c.numerator, c.denominator) * u**i * v**j
                 for (i, j), c in p.terms.items()),
                sympy.Integer(0),
            )

        # a shared factor makes the gcd nontrivial; empty dicts give zeros;
        # integer multiples of primitive rows give gcd2 integer contents
        common = draw_poly()
        p, q = draw_poly() * common, draw_poly() * common
        kp, kq = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        rp, rq = (
            [[c * k for c in row] for row in z_rows(x)[0]] for x, k in ((p, kp), (q, kq))
        )
        expect = sympy.gcd(to_sympy(p), to_sympy(q))
        g = gcd2(rp, rq)
        got = to_sympy(rows_poly(g))
        if expect == 0:
            assert got == 0
        else:
            ratio = sympy.cancel(got / expect)
            assert ratio.is_Rational and ratio != 0, (p, q, got, expect)
            # the cofactors BiFrac takes are exact in Z[u][v]
            assert divide_exact_p2(rp, g) is not None
            assert divide_exact_p2(rq, g) is not None


    def test_gcd2_with_a_constant_skips_the_remainder_sequence(self, monkeypatch):
        def no_prem(f, g):
            raise AssertionError("pseudo-remainder sequence entered")

        monkeypatch.setattr(localring, "_rec_prem", no_prem)
        p = biv("u^2 + 3*u*v - v").num
        three = [[3]]
        for x, y in [(p, three), (three, p), ([], three)]:
            assert gcd2(x, y) == [[1]]

    def test_gcd2_of_a_shared_factor_enters_the_remainder_sequence(self, monkeypatch):
        # positive control for the guard above: the same patch is reached
        # by a non-constant pair, so that guard cannot pass vacuously
        def no_prem(f, g):
            raise AssertionError("pseudo-remainder sequence entered")

        monkeypatch.setattr(localring, "_rec_prem", no_prem)
        p = biv("(u^2 + 3*u*v - v)*(1 + u + v)").num
        q = biv("(2*u - v^2)*(1 + u + v)").num
        with pytest.raises(AssertionError, match="pseudo-remainder sequence entered"):
            gcd2(p, q)

    @given(
        st.tuples(*[st.integers(0, 4)] * 4),
        nonzero_uv_polys,
        nonzero_uv_polys,
        nonzero_uv_polys,
    )
    @settings(max_examples=80, deadline=None)
    @example((1, 2, 2, 2), p2({(0, 0): 1}), p2({(0, 0): 1}), p2({(0, 0): 1}))
    @example((2, 1, 1, 3), p2({(0, 0): 3}), p2({(0, 0): 1, (1, 0): 1}), p2({(0, 0): 1}))
    def test_gcd2_splits_monomial_content(self, exps, p, q, common):
        # gcd2(u^a·v^b·P·C, u^c·v^d·Q·C), P and Q possibly constant
        sympy = pytest.importorskip("sympy")
        R, to_sympy = sympy_ring_uv(sympy)
        a, b, c, d = exps
        x = z_rows(p2({(a, b): 1}) * p * common)[0]
        y = z_rows(p2({(c, d): 1}) * q * common)[0]
        g = gcd2(x, y)
        got = to_sympy(rows_poly(g))
        expect = to_sympy(rows_poly(x)).gcd(to_sympy(rows_poly(y)))
        assert got.quo_ground(got.LC) == expect.quo_ground(expect.LC), (x, y, g)
        assert divide_exact_p2(x, g) is not None
        assert divide_exact_p2(y, g) is not None

    def test_gcd2_of_monomial_multiples_skips_the_remainder_sequence(self, monkeypatch):
        def no_prem(f, g):
            raise AssertionError("pseudo-remainder sequence entered")

        monkeypatch.setattr(localring, "_rec_prem", no_prem)
        p, q = biv("3*u^2*v").num, biv("u*v^3*(1 + u)").num
        assert gcd2(p, q) == biv("u*v").num
        assert gcd2(q, p) == biv("u*v").num

    def test_gcd2_of_monomial_multiples_sharing_a_unit_enters_it(self, monkeypatch):
        # positive control for the guard above: after the split both parts
        # are 1 + u + v, so the remainder sequence is reached
        def no_prem(f, g):
            raise AssertionError("pseudo-remainder sequence entered")

        monkeypatch.setattr(localring, "_rec_prem", no_prem)
        p, q = biv("3*u^2*v*(1 + u + v)").num, biv("u*v^3*(1 + u + v)").num
        with pytest.raises(AssertionError, match="pseudo-remainder sequence entered"):
            gcd2(p, q)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_gcd2_agrees_with_sympy_on_large_coefficients(self, data):
        sympy = pytest.importorskip("sympy")
        R, to_sympy = sympy_ring_uv(sympy)
        common = data.draw(large_height_polys())
        p = data.draw(large_height_polys()) * common
        q = data.draw(large_height_polys()) * common
        got = to_sympy(rows_poly(gcd2(z_rows(p)[0], z_rows(q)[0])))
        expect = to_sympy(p).gcd(to_sympy(q))
        if expect == 0:
            assert got == 0
        else:
            assert got.quo_ground(got.LC) == expect.quo_ground(expect.LC), (p, q)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_divide_exact_p2_agrees_with_sympy(self, data):
        sympy = pytest.importorskip("sympy")
        R, to_sympy = sympy_ring_uv(sympy)
        d = data.draw(large_height_polys(min_size=1))
        p = data.draw(large_height_polys()) * d
        kind = data.draw(st.sampled_from(["product", "perturbed", "independent"]))
        if kind == "perturbed":
            p = p + data.draw(large_height_polys(min_size=1))
        elif kind == "independent":
            p = data.draw(large_height_polys())
        q, r = divmod(to_sympy(p), to_sympy(d))
        # p = s·P and d = t·D with D primitive, so Z[u][v] answers as Q[u,v]
        (P, s), (D, t) = z_rows(p), z_rows(d)
        got = divide_exact_p2(P, D)
        if r:
            assert got is None, (p, d)
        else:
            assert got is not None, (p, d)
            assert to_sympy(rows_poly(got).scale(s / t)) == q, (p, d)

    def test_primitive_remainders_keep_u_degrees_small(self, monkeypatch):
        # without removing each remainder's content in Q[u], the largest
        # u-degree met in this sequence is 47
        degrees = []
        u_mul = localring._u_mul

        def recording(a, b):
            out = u_mul(a, b)
            degrees.append(len(out) - 1)
            return out

        monkeypatch.setattr(localring, "_u_mul", recording)
        p = biv("(1 + u*v^2 + u^2*v^3 + v^4)*(1 + u + v^2)").num
        q = biv("(u + v^3 + u^3*v)*(1 + u + v^2)").num
        assert gcd2(p, q) == biv("1 + u + v^2").num
        assert max(degrees) <= 24


# --- the bivariate ring against sympy -------------------------------------------

# factors shared between the operands of one example; the first four are units
BIV_FACTORS = [
    {(0, 0): 1, (1, 0): 1},
    {(0, 0): 2, (0, 1): -1},
    {(0, 0): 1, (1, 1): 1},
    {(0, 0): 3, (1, 0): 1, (0, 1): 1},
    {(1, 0): 1},
    {(0, 1): 1},
    {(1, 0): 1, (0, 1): 1},
    {(2, 0): 1, (0, 1): 1},
    {(1, 0): 1, (0, 1): -2, (1, 1): 1},
]
N_UNIT_FACTORS = 4


@st.composite
def shared_factor_fractions(draw):
    """(num, den): products of shared factors, a common factor that the
    reduction must cancel, a small free part, and a unit denominator."""
    factor = st.sampled_from(range(len(BIV_FACTORS)))
    unit = st.sampled_from(range(N_UNIT_FACTORS))
    monos = st.sampled_from([(i, j) for i in range(3) for j in range(3 - i)])
    num = p2(draw(st.dictionaries(monos, small_q, max_size=3)) or {(0, 0): 1})
    for k in draw(st.lists(factor, max_size=2)):
        num = num * p2(BIV_FACTORS[k])
    den = Poly.constant(draw(small_q.filter(lambda c: c != 0)), 2)
    for k in draw(st.lists(unit, max_size=2)):
        den = den * p2(BIV_FACTORS[k])
    if draw(st.booleans()):
        common = p2(BIV_FACTORS[draw(factor)])
        num, den = num * common, den * common
    return num, den


def int_fraction(n: Poly, d: Poly) -> RingElement:
    """n/d through BiFrac.make, from integer rows over a common denominator."""
    m = lcm(*(c.denominator for e in (n, d) for c in e.terms.values()))
    return BiFrac.make(int_rows(n, m), int_rows(d, m))


class TestBivariateAgainstSympy:
    @given(shared_factor_fractions(), shared_factor_fractions())
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, fa, fb):
        sympy = pytest.importorskip("sympy")
        R, _, _ = sympy.polys.rings.ring("u,v", sympy.QQ)

        def to_sympy(p):
            return R({m: sympy.QQ(c.numerator, c.denominator) for m, c in p.terms.items()})

        def reduced(n, d):
            """sympy's lowest terms of n/d as integer rows, jointly primitive
            with den(0,0) > 0; None off the ring."""
            n, d = n.cancel(d)
            c = d.get((0, 0), 0)
            if c == 0:
                return None
            polys = [Poly({m: Fraction(int(x.numerator), int(x.denominator))
                           for m, x in e.quo_ground(c).items()}, 2) for e in (n, d)]
            coeffs = [x for e in polys for x in e.terms.values()]
            m = lcm(*(x.denominator for x in coeffs))
            return [int_rows(e, Fraction(m, gcd(*(int(x * m) for x in coeffs))))
                    for e in polys]

        def check(b: BiFrac, expect):
            assert [b.num, b.den] == expect
            # canonical: integer rows, coprime (sympy's gcd, the faster of
            # the two), jointly primitive, and den(0,0) > 0
            ints = [x for f in (b.num, b.den) for row in f for x in row]
            assert all(type(x) is int for x in ints)
            assert to_sympy(rows_poly(b.num)).gcd(to_sympy(rows_poly(b.den))).is_ground
            assert gcd(*ints) == 1 and constant_of(b.den) > 0

        a, b = (int_fraction(*f) for f in (fa, fb))
        (na, da), (nb, db) = ((to_sympy(n), to_sympy(d)) for n, d in (fa, fb))
        check(a, reduced(na, da))
        check(a + b, reduced(na * db + nb * da, da * db))
        check(a - b, reduced(na * db - nb * da, da * db))
        check(a * b, reduced(na * nb, da * db))
        # undoing a sum cancels a factor of the shared denominator
        check((a + b) - b, reduced(na, da))
        if b.is_zero():
            return
        check((a * b).divide_in_ring(b), reduced(na, da))
        quotient = reduced(na * db, da * nb)
        try:
            check(a.divide_in_ring(b), quotient)
        except DivisionImpossible:
            assert quotient is None
        if a.is_zero():
            return
        # divides(b, a) asks whether a/b lies in the ring
        assert divides(b, a) == (quotient is not None)
        w = unit_multiple(b, a)
        if quotient is None or constant_of(quotient[0]) == 0:
            assert w is None
        else:
            check(w, quotient)


class TestBivariateStaysIntegral:
    """Every stored coefficient is an int, so no `1 / c` meets a float, and
    a residue leaves as a Fraction."""

    @given(shared_factor_fractions(), biv_elements())
    @settings(max_examples=100, deadline=None)
    def test_operations_store_ints(self, fa, b):
        a = int_fraction(*fa)
        got = [a, b, a + b, a - b, a * b, -a]
        if not b.is_zero():
            try:
                got.append(a.divide_in_ring(b))
            except DivisionImpossible:
                pass
        for e in got:
            again = parse_element(element_to_text(e), MODEL_BIVARIATE)
            assert again == e
            for x in (e, again):
                assert all(type(c) is int for rows in (x.num, x.den)
                           for row in rows for c in row), x
                assert type(x.residue()) is Fraction


# --- bivariate radical membership: the gcd rule against Groebner ---------------


@st.composite
def radical_queries(draw):
    """(f, gens) over shared and repeated factors: one or two non-unit
    BIV_FACTORS make a core, each of one to three generators is the core
    (now and then a core of its own) with every factor raised to a power
    from 1 to 3, times 1, a unit factor or a small free part in the
    maximal ideal, or else a unit generator; f is a product of core
    factors, each at most once, times a unit, and sometimes one more
    factor."""
    factor = st.sampled_from(range(len(BIV_FACTORS)))
    nonunit = range(N_UNIT_FACTORS, len(BIV_FACTORS))
    cores = st.lists(st.sampled_from(nonunit), min_size=1, max_size=2, unique=True)
    core = draw(cores)
    monos = st.sampled_from([(i, j) for i in range(3) for j in range(3 - i) if i + j])
    extras = st.one_of(
        st.sampled_from(BIV_FACTORS[:N_UNIT_FACTORS] + [{(0, 0): 1}]),
        st.dictionaries(monos, small_q.filter(lambda c: c != 0), min_size=1, max_size=2),
    )

    def product(ks, extra):
        out = p2(extra)
        for k in ks:
            out = out * p2(BIV_FACTORS[k])
        return out

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 9)) == 0:
            gens.append(product([], draw(st.sampled_from(BIV_FACTORS[:N_UNIT_FACTORS]))))
        else:
            own = draw(cores) if draw(st.integers(0, 3)) == 0 else core
            ks = [k for k in own for _ in range(draw(st.integers(1, 3)))]
            gens.append(product(ks, draw(extras)))
    ks = [k for k in core if draw(st.booleans())] + draw(st.lists(factor, max_size=1))
    f = product(ks, draw(st.sampled_from(BIV_FACTORS[:N_UNIT_FACTORS])))
    one = p2({(0, 0): 1})
    return int_fraction(f, one), [int_fraction(g, one) for g in gens]


def rabinowitsch_in_radical(f: RingElement, gens: list) -> bool:
    """f in the radical of <gens> by the localized Rabinowitsch query that
    `BiFrac.in_radical` made before its gcd rule: 1 - t*f joins the
    generators in Q[t, u, v], the whole reduced basis eliminates t, and the
    answer is whether the result escapes the origin."""
    def with_t(e):
        return Poly({(0,) + m: c for m, c in e.polys()[0].terms.items()}, 3)

    one = Poly.constant(Fraction(1), 3)
    rabinowitsch = one - Poly.variable(0, 3) * with_t(f)
    return escapes_origin(eliminate([with_t(g) for g in gens] + [rabinowitsch], 1))


def sympy_in_radical(sympy, f: RingElement, gens: list) -> bool:
    """The same Rabinowitsch ideal, eliminated by sympy's lex basis."""
    t, u, v = sympy.symbols("t u v")

    def expr(e):
        return sum((sympy.Rational(c) * u**i * v**j
                    for (i, j), c in e.polys()[0].terms.items()), sympy.Integer(0))

    basis = sympy.groebner([expr(g) for g in gens] + [1 - t * expr(f)], t, u, v,
                           order="lex", domain=sympy.QQ)
    return any(
        sympy.Poly(e, u, v).as_dict().get((0, 0), 0) != 0
        for e in basis.exprs if t not in e.free_symbols
    )


# monomial-free non-units: u + v^2, then u + v, u^2 + v and u - 2v + uv
MONOMIAL_FREE = [{(1, 0): 1, (0, 2): 1}] + BIV_FACTORS[N_UNIT_FACTORS + 2 :]
UNITS = BIV_FACTORS[:N_UNIT_FACTORS] + [{(0, 0): 1}]


@st.composite
def split_elements(draw):
    """u^a·v^b·P^e·U/W: a, b from 0 to 3, P a monomial-free non-unit with
    e from 0 to 2, U and W units, and a nonzero scale, negative about half
    of the time."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    num = p2({(a, b): draw(small_q.filter(lambda c: c != 0))})
    num = num * p2(draw(st.sampled_from(MONOMIAL_FREE))) ** draw(st.integers(0, 2))
    units = st.sampled_from(UNITS)
    return int_fraction(num * p2(draw(units)), p2(draw(units)))


@st.composite
def monomial_radical_queries(draw):
    """(f, gens) with gcd(gens) = u^a·v^b·U, or u^a·v^b·U·P^2 for a
    monomial-free non-unit P: one or two generators, each u^a·v^b, times
    u, v or 1, times P^2 or not, times a unit; f is u^c·v^d times a unit,
    with c and d from 0 to 2, times P or another monomial-free factor now
    and then."""
    a, b = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any))
    p = p2(draw(st.sampled_from(MONOMIAL_FREE)))
    repeated = p ** draw(st.sampled_from([0, 2]))
    units = st.sampled_from(UNITS)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        da, db = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        gens.append(p2({(a + da, b + db): 1}) * repeated * p2(draw(units)))
    c, d = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    one = p2({(0, 0): 1})
    extra = draw(st.sampled_from([one, one, p] + [p2(t) for t in MONOMIAL_FREE]))
    f = p2({(c, d): 1}) * p2(draw(units)) * extra
    return int_fraction(f, one), [int_fraction(g, one) for g in gens]


class TestRadicalByGcd:
    @given(radical_queries())
    @settings(max_examples=150, deadline=None)
    def test_gcd_rule_agrees_with_rabinowitsch_and_sympy(self, query):
        sympy = pytest.importorskip("sympy")
        f, gens = query
        got = radical_membership(f, IdealHandle(gens))
        assert got == rabinowitsch_in_radical(f, gens), query
        assert got == sympy_in_radical(sympy, f, gens), query

    def test_repeated_factor_needs_its_radical(self):
        # h = u^2*v^3, so rad(h) = u*v: u*v times a unit lies in the
        # radical, and neither u nor v^3 does
        ideal = IdealHandle([biv("u^2*v^3*(1+u)"), biv("u^3*v^4")])
        assert radical_membership(biv("u*v*(2+v)"), ideal)
        assert not radical_membership(biv("u"), ideal)
        assert not radical_membership(biv("v^3"), ideal)

    def test_radical_query_runs_no_groebner(self, monkeypatch):
        runs = []
        monkeypatch.setattr(localring, "eliminate", lambda *a: runs.append(a))
        ideal = IdealHandle([biv("u^2*(u+v)"), biv("u*(u+v)^3")])
        assert radical_membership(biv("u^2 + u*v"), ideal)
        assert not radical_membership(biv("u^2"), ideal)
        assert radical_membership(biv("u + v^2"), IdealHandle([biv("u"), biv("v")]))
        assert not runs

    @given(monomial_radical_queries())
    @settings(max_examples=100, deadline=None)
    def test_monomial_gcd_agrees_with_rabinowitsch_and_sympy(self, query):
        sympy = pytest.importorskip("sympy")
        f, gens = query
        got = radical_membership(f, IdealHandle(gens))
        assert got == rabinowitsch_in_radical(f, gens), query
        assert got == sympy_in_radical(sympy, f, gens), query


class TestDividesAgainstSympy:
    @given(split_elements(), split_elements(), st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(biv("u*v"), biv("u^2*v*(1+u)"), False)
    @example(biv("u"), biv("v*(1+u)"), False)
    @example(biv("u+v^2"), biv("v*(u+v^2)*(1+u)"), False)
    def test_divides_agrees_with_sympy(self, a, b, multiply):
        # a | b iff b/a, reduced by sympy's cancel in QQ[u, v], has a
        # denominator that does not vanish at the origin
        sympy = pytest.importorskip("sympy")
        R, to_sympy = sympy_ring_uv(sympy)
        if multiply:
            b = a * b

        def num_den(e):
            num, den = e.polys()
            return to_sympy(num), R.one if den is None else to_sympy(den)

        (na, da), (nb, db) = num_den(a), num_den(b)
        _, den = (nb * da).cancel(db * na)
        assert divides(a, b) == (den.coeff(1) != 0), (a.to_text(), b.to_text())


# --- ideals -------------------------------------------------------------------


class TestIdeals:
    def test_dvr_membership(self):
        proper = IdealHandle([dvr("x^2"), dvr("x^3")])
        assert ideal_membership(dvr("x^2"), proper)
        assert ideal_membership(dvr("x^5"), proper)
        assert not ideal_membership(dvr("x"), proper)
        assert ideal_membership(RingElement.zero(MODEL_DVR), proper)

    def test_dvr_radical(self):
        proper = IdealHandle([dvr("x^3")])
        assert radical_membership(dvr("x"), proper)
        assert not radical_membership(dvr("1+x"), proper)
        unit = IdealHandle([dvr("1+x")])
        assert radical_membership(dvr("1"), unit)

    def test_biv_membership(self):
        m = IdealHandle([biv("u"), biv("v")])
        assert ideal_membership(biv("u + 3*v"), m)
        assert ideal_membership(biv("u*v"), m)
        assert not ideal_membership(biv("1+u"), m)

    def test_biv_membership_with_unit_factor(self):
        # (1+u)v lies in <v> even though v does not literally divide
        # the numerator times a polynomial unit seen locally only
        i = IdealHandle([biv("v*(1+u)")])
        assert ideal_membership(biv("v"), i)

    def test_biv_radical(self):
        i = IdealHandle([biv("u^2"), biv("v^3")])
        assert radical_membership(biv("u"), i)
        assert radical_membership(biv("v"), i)
        assert radical_membership(biv("u+v"), i)
        assert not radical_membership(biv("1"), i)
        assert not radical_membership(biv("1+u"), i)

    def test_biv_radical_principal(self):
        i = IdealHandle([biv("u^2*v")])
        assert radical_membership(biv("u*v"), i)
        assert not radical_membership(biv("u"), i)
        assert not radical_membership(biv("v"), i)

    def test_empty_ideal(self):
        z = IdealHandle([], model=MODEL_DVR)
        assert ideal_membership(RingElement.zero(MODEL_DVR), z)
        assert not ideal_membership(dvr("x"), z)
        assert not radical_membership(dvr("x"), z)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_membership_implies_radical(self, data):
        model = data.draw(st.sampled_from(MODELS))
        f = data.draw(elements_for(model))
        g1 = data.draw(elements_for(model, allow_zero=False))
        g2 = data.draw(elements_for(model, allow_zero=False))
        ideal = IdealHandle([g1, g2], model=model)
        if ideal_membership(f, ideal):
            assert radical_membership(f, ideal)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_radical_membership_agrees_with_the_extension_engine(self, data):
        # the same question asked in Q[t, u, v] and in Q[t, S, T, u, v]
        model = data.draw(st.sampled_from(MODELS))
        f = data.draw(any_elements(model))
        gens = data.draw(st.lists(any_elements(model), max_size=3))
        expect = radical_membership(f, IdealHandle(gens, model=model))
        got = ext_radical_membership(
            [PolyExt.constant(f)], [PolyExt.constant(g) for g in gens]
        )
        assert got == expect

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_power_in_ideal_implies_radical(self, data):
        model = data.draw(st.sampled_from(MODELS))
        g1 = data.draw(elements_for(model, allow_zero=False))
        f = data.draw(elements_for(model, allow_zero=False))
        k = data.draw(st.integers(1, 3))
        ideal = IdealHandle([f**k, g1], model=model)
        assert radical_membership(f, ideal)


def membership_s_pairs(f, gens, whole=False):
    """(ideal_membership(f, <gens>), the S-pairs it reduced); with whole,
    its elimination ignores the stop and returns the whole basis."""
    pairs = []
    s_poly, full = polyring.s_poly, localring.eliminate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "s_poly", lambda *a: pairs.append(0) or s_poly(*a))
        if whole:
            mp.setattr(localring, "eliminate", lambda polys, nelim, stop=None: full(polys, nelim))
        got = ideal_membership(f, IdealHandle(gens))
    return got, len(pairs)


@st.composite
def biv_products(draw):
    """A product of one or two nonzero drawn bivariate elements."""
    factors = draw(st.lists(biv_elements(allow_zero=False), min_size=1, max_size=2))
    return reduce(operator.mul, factors)


class TestIdealMembershipStops:
    """`BiFrac.in_ideal` stops its elimination at the first member of
    I ∩ (f) whose quotient by f has a nonzero constant term.  The whole
    basis, which it asked for before, is the oracle."""

    ORACLE_SPAIR_CAP = 100

    def test_stop_saves_s_pairs(self):
        # u*v is itself a member of I ∩ (u*v) with quotient 1: the first
        # remainder answers, where the whole basis reduces 4 S-pairs
        f, gens = biv("u*v"), [biv("u^2 + v^3"), biv("u*v")]
        assert membership_s_pairs(f, gens) == (True, 1)
        assert membership_s_pairs(f, gens, whole=True) == (True, 4)

    @given(f=biv_products(), gens=st.lists(biv_products(), min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_drawn_memberships_answer_as_the_whole_basis(self, f, gens):
        set_spair_cap(self.ORACLE_SPAIR_CAP)
        try:
            expect = membership_s_pairs(f, gens, whole=True)[0]
        except DegreeCapExceeded:
            assume(False)
        finally:
            set_spair_cap(None)
        assert membership_s_pairs(f, gens)[0] == expect, (f, gens)


# --- roots ---------------------------------------------------------------------


class TestRoots:
    def test_dvr_square_root(self):
        r = nth_root_unit(dvr("1 + x"), 2)
        assert r is not None and r * r == dvr("1 + x")

    def test_dvr_exact_square(self):
        r = nth_root_unit(dvr("1 + 2*x + x^2"), 2)
        assert r == dvr("1 + x")
        assert r.exact

    def test_residue_obstruction(self):
        with pytest.raises(RootUnavailable):
            nth_root_unit(dvr("2 + x"), 2)

    def test_negative_residue_odd_root(self):
        r = nth_root_unit(dvr("-8 + x"), 3)
        assert r is not None and r**3 == dvr("-8 + x")

    @pytest.mark.parametrize("call", ["public", "method"])
    @pytest.mark.parametrize(
        "model, text, n",
        [
            (MODEL_DVR, "x", 2),
            (MODEL_BIVARIATE, "u^2", 2),
            (MODEL_DVR, "4 + x", 0),
            (MODEL_DVR, "4 + x", -1),
            (MODEL_BIVARIATE, "4 + u", 0),
            (MODEL_BIVARIATE, "4 + u", -1),
        ],
    )
    def test_non_unit_rejected(self, call, model, text, n):
        e = parse_element(text, model)
        with pytest.raises(PreconditionViolated):
            if call == "public":
                nth_root_unit(e, n)
            else:
                e.nth_root_unit(n)

    def test_biv_constant(self):
        assert nth_root_unit(biv("9"), 2) in (biv("3"), biv("-3"))

    def test_biv_perfect_power(self):
        r = nth_root_unit(biv("(1+u)^2"), 2)
        assert r is not None and r * r == biv("(1+u)^2")

    def test_biv_unrecognized(self):
        assert nth_root_unit(biv("1 + u"), 2) is None

    @given(st.data())
    @settings(max_examples=40)
    def test_root_verifies(self, data):
        e = data.draw(dvr_elements(allow_zero=False))
        if not e.is_unit():
            e = e + RingElement.from_fraction(1, MODEL_DVR)
        if e.is_zero() or not e.is_unit():
            return
        n = data.draw(st.integers(2, 3))
        try:
            r = nth_root_unit(e, n)
        except RootUnavailable:
            return
        assert r**n == e

    @given(
        q=st.lists(small_q, min_size=1, max_size=3).filter(lambda q: q[0] != 0),
        n=st.sampled_from([2, 3, 4]),
    )
    @example(q=[1, -1], n=2)
    @example(q=[2, 0, -1], n=4)
    @settings(max_examples=30, deadline=None)
    def test_models_agree(self, q, n):
        """The root of q^n reads the same in both models under x -> u, and
        its residue is the rational root of the residue in each."""
        s = Series.make(0, q, True)
        e_dvr, e_biv = s**n, biv(s.to_text().replace("x", "u")) ** n
        r_dvr, r_biv = nth_root_unit(e_dvr, n), nth_root_unit(e_biv, n)
        assert r_dvr.exact and r_biv is not None
        assert r_dvr.to_text().replace("x", "u") == r_biv.to_text()
        for e, r in ((e_dvr, r_dvr), (e_biv, r_biv)):
            assert r.residue() == rational_root(e.residue(), n)

    @given(
        c=small_q.filter(lambda c: c != 0),
        pq=st.lists(
            st.fixed_dictionaries(
                {(0, 0): small_q.filter(lambda c: c != 0)},
                optional={m: small_q for m in [(1, 0), (0, 1), (1, 1), (0, 2)]},
            ),
            min_size=2,
            max_size=2,
        ),
        n=st.sampled_from([2, 3, 4]),
        k=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_biv_power_recognized(self, c, pq, n, k):
        """c^n·p^n/q^n has a root whose n-th power it is; times (1+u+v)^k,
        0 < k < n, it has none, as 1+u+v is irreducible."""
        p, q = (biv(grammar.poly_to_text(Poly(t, 2), ["u", "v"])) for t in pq)
        e = (RingElement.from_fraction(c, MODEL_BIVARIATE) * p.divide_in_ring(q)) ** n
        r = nth_root_unit(e, n)
        assert r is not None and r**n == e
        if k < n:
            assert nth_root_unit(e * biv("1 + u + v") ** k, n) is None


class TestSubstituteBase:
    def test_example(self):
        assert substitute_base(dvr("x + x^2"), 2) == dvr("x^2 + x^4")

    def test_units_stay_units(self):
        e = substitute_base(dvr("1 + x"), 3)
        assert e.is_unit() and e == dvr("1 + x^3")

    def test_biv_rejected(self):
        with pytest.raises(ModelMismatch):
            substitute_base(biv("u"), 2)

    @given(dvr_elements(), st.integers(1, 3))
    @settings(max_examples=40)
    def test_multiplicative(self, e, b):
        f = e * e
        assert substitute_base(f, b) == substitute_base(e, b) * substitute_base(e, b)

    @given(dvr_elements(allow_zero=False), st.integers(1, 3))
    @settings(max_examples=40)
    def test_valuation_scales(self, e, b):
        assert substitute_base(e, b).order() == b * e.order()


# --- S/T extension --------------------------------------------------------------


def pe(text, model=MODEL_DVR):
    return parse_polyext(text, model)


class TestPolyExt:
    def test_parse_and_eval(self):
        p = pe("x + (1+x)*S*T")
        one = RingElement.one(MODEL_DVR)
        zero = RingElement.zero(MODEL_DVR)
        assert p.eval_st(zero, zero) == dvr("x")
        assert p.eval_st(one, one) == dvr("1 + 2*x")

    def test_st_denominator_rejected(self):
        with pytest.raises(ParseError):
            pe("1/(1+S)")

    def test_json_roundtrip(self):
        p = pe("u + 3*S + u*v*S^2*T", MODEL_BIVARIATE)
        blob = polyext_to_json(p, element_to_text)
        assert polyext_from_json(blob, MODEL_BIVARIATE, biv) == p

    def test_json_roundtrip_truncated(self):
        delta = dvr("x/(1-x)")
        p = PolyExt(MODEL_DVR, {(0, 0): RingElement.one(MODEL_DVR), (1, 0): delta})
        blob = polyext_to_json(p, element_to_text)
        assert polyext_from_json(blob, MODEL_DVR, dvr) == p

    def test_mixed_models_raise(self):
        # arithmetic results skip the per-coefficient check, so a sum of
        # disjoint terms checks the two models itself
        with pytest.raises(ModelMismatch):
            PolyExt(MODEL_DVR, {(0, 0): biv("u")})
        with pytest.raises(ModelMismatch):
            pe("x*S") + pe("u*T", MODEL_BIVARIATE)

    def test_algebra(self):
        s = PolyExt.variable("S", MODEL_DVR)
        t = PolyExt.variable("T", MODEL_DVR)
        lhs = (s + t) * (s - t)
        rhs = s * s - t * t
        assert lhs == rhs


@st.composite
def polyexts(draw, model):
    keys = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
    return PolyExt(model, draw(st.dictionaries(keys, any_elements(model), max_size=3)))


@st.composite
def scalars(draw, model):
    """0, the exact 1, a drawn element, or in the DVR model 1 + O(x^k)."""
    kinds = ["zero", "one", "drawn"] + (["truncated one"] if model == MODEL_DVR else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return RingElement.zero(model)
    if kind == "one":
        return RingElement.one(model)
    if kind == "drawn":
        return draw(any_elements(model))
    return Series.make(0, [1] + [0] * draw(st.integers(0, 2)), False)


def term_keys(f):
    """The result of f(), a PolyExt, as exact term keys, or the exception it
    raised.  A series is compared by (val, coeffs, exact), not by `==`,
    which is precision-relative: 1 + O(x^3) == 1."""
    try:
        p = f()
    except PrecisionExhausted as exc:
        return str(exc)
    return {
        k: (c.val, c.coeffs, c.exact) if c.model == MODEL_DVR else (c.num, c.den)
        for k, c in p.terms.items()
    }


class TestZeroAndOnePaths:
    """Products by 0 and by the exact 1 do no ring work; each must still
    equal the term-by-term product."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_scale_subs_and_powers_match_term_by_term(self, data):
        model = data.draw(st.sampled_from(MODELS))
        p, e = data.draw(polyexts(model)), data.draw(scalars(model))

        def substituted(at):  # put e in for S (at = 0) or T (at = 1)
            out = PolyExt(model, {})
            for k, c in p.terms.items():
                rest = (0, k[1]) if at == 0 else (k[0], 0)
                if k[at]:
                    c = c * e ** k[at]
                out = out + PolyExt(model, {rest: c})
            return out

        assert term_keys(lambda: p.scale(e)) == term_keys(
            lambda: PolyExt(model, {k: c * e for k, c in p.terms.items()}))
        assert term_keys(lambda: p.subs(s=e)) == term_keys(lambda: substituted(0))
        assert term_keys(lambda: p.subs(t=e)) == term_keys(lambda: substituted(1))
        one = PolyExt.constant(RingElement.one(model))
        for n in range(4):
            assert term_keys(lambda: p**n) == term_keys(
                lambda: reduce(operator.mul, [p] * n, one))

    @given(biv_elements())
    @settings(max_examples=40)
    def test_biv_product_by_one_is_the_other_factor(self, x):
        one = RingElement.one(MODEL_BIVARIATE)
        assert x * one == x and one * x == x
        assert x.divide_in_ring(one) == x

    def test_biv_one_over_an_element_is_still_canonical(self):
        one = RingElement.one(MODEL_BIVARIATE)
        half = one.divide_in_ring(biv("-2"))
        assert half == biv("-1/2") and half.den == [[2]]
        r = one.divide_in_ring(biv("(1 + u)/(v - 3)"))
        assert r == biv("(v - 3)/(1 + u)") and r.den[0][0] > 0
        with pytest.raises(DivisionImpossible):
            one.divide_in_ring(biv("u"))


class TestExtEngine:
    def test_unit_ideal_dvr(self):
        # 1 + x*S alone is NOT the unit ideal: the would-be inverse is an
        # infinite series in S.  A sufficiently deep power of x repairs it,
        # via (1 + x*S)(1 - x*S) + S^2 * x^2 = 1.
        assert not ext_unit_ideal([pe("1 + x*S")])
        assert ext_unit_ideal([pe("x^2"), pe("1 + x*S")])
        assert not ext_unit_ideal([pe("S")])
        # S together with 1 - S*T works: (1 - S*T) + T*S = 1
        assert ext_unit_ideal([pe("S"), pe("1 - S*T")])

    def test_unit_ideal_needs_both_fibers(self):
        # x is a generic-fiber unit but dies on the residue fiber
        assert not ext_unit_ideal([pe("x")])
        # 1 + S has a residue-fiber zero at S = -1
        assert not ext_unit_ideal([pe("x"), pe("1 + S")])
        # 1 + x*S is residue-trivial and x is generically invertible
        assert ext_unit_ideal([pe("x"), pe("1 + x*S")])

    def test_unit_ideal_biv(self):
        assert not ext_unit_ideal([pe("1 + u*S", MODEL_BIVARIATE)])
        assert not ext_unit_ideal([pe("u", MODEL_BIVARIATE), pe("v*S", MODEL_BIVARIATE)])
        assert ext_unit_ideal([pe("u", MODEL_BIVARIATE), pe("1 + u*S", MODEL_BIVARIATE)])
        assert ext_unit_ideal([pe("S", MODEL_BIVARIATE), pe("1 - S*T", MODEL_BIVARIATE)])

    def test_cover_pattern(self):
        # the two-chart covering condition: <r-hat, excluded> = (1)
        assert ext_unit_ideal([pe("x"), pe("x^2"), pe("1 + x*S")])
        assert not ext_unit_ideal([pe("x"), pe("x^2"), pe("1 + S")])

    def test_radical_dvr(self):
        assert ext_radical_membership([pe("x*S")], [pe("x^2*S^2")])
        assert not ext_radical_membership([pe("S")], [pe("x*S")])
        assert not ext_radical_membership([pe("T")], [pe("S^2"), pe("x*T")])
        assert ext_radical_membership([pe("S*T")], [pe("S^2")])

    def test_radical_biv(self):
        assert ext_radical_membership(
            [pe("u*S", MODEL_BIVARIATE)], [pe("u^2*S^2", MODEL_BIVARIATE)]
        )
        assert not ext_radical_membership(
            [pe("u", MODEL_BIVARIATE)], [pe("v*S", MODEL_BIVARIATE)]
        )

    def test_zero_member(self):
        assert ext_radical_membership(
            [PolyExt(MODEL_DVR, {})], [pe("S")]
        )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_unit_with_linear_certificate(self, data):
        # <g, 1 + g*S> always contains (1 + g*S) - S*g = 1
        model = data.draw(st.sampled_from(MODELS))
        g = data.draw(elements_for(model))
        p = PolyExt.constant(RingElement.one(model)) + PolyExt.variable(
            "S", model
        ).scale(g)
        gens = [p] if g.is_zero() else [p, PolyExt.constant(g)]
        assert ext_unit_ideal(gens)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_member_implies_radical_member(self, data):
        model = data.draw(st.sampled_from(MODELS))
        a = data.draw(elements_for(model, allow_zero=False))
        b = data.draw(elements_for(model, allow_zero=False))
        s = PolyExt.variable("S", model)
        t = PolyExt.variable("T", model)
        g1 = s.scale(a)
        g2 = t.scale(b) + PolyExt.constant(a)
        f = g1 * g2  # manifestly in the ideal
        assert ext_radical_membership([f], [g1, g2])


# --- the DVR extension engine against sympy ---------------------------------------

ST_MONOS = [(1, 0), (0, 1), (1, 1)]
x_coeffs = st.lists(small_q, min_size=1, max_size=2).filter(any)  # of 1 and x


def dvr_coeff(coeffs) -> RingElement:
    return Series.make(0, coeffs, True)


@st.composite
def exact_st_polys(draw, residues=st.sampled_from([None, Fraction(0), Fraction(1)])):
    """A nonzero exact DVR polynomial in S, T of S/T-degree at least 1.

    No such generator is a nonzero S/T-constant, so a query built from
    them skips the base-constant shortcut.  `residues` draws the residue
    of the constant term (None: no constant term); a generator with
    residue 1 lets the residue-fibre check pass, so that the query reaches
    the generic fibre.
    """
    terms = {k: dvr_coeff(c) for k, c in draw(
        st.dictionaries(st.sampled_from(ST_MONOS), x_coeffs, min_size=1, max_size=2)
    ).items()}
    lead = draw(residues)
    if lead is not None:
        terms[(0, 0)] = dvr_coeff([lead] + draw(st.lists(small_q, max_size=1)))
    return PolyExt(MODEL_DVR, terms)


@st.composite
def generic_fibre_queries(draw):
    """(f, gens) for a radical query, f None for a unit-ideal query; the
    first generator's residue is mostly 1 and f is often a multiple of x."""
    first = draw(exact_st_polys(st.sampled_from([Fraction(1), Fraction(1), None])))
    gens = [first] + draw(st.lists(exact_st_polys(), max_size=2))
    if draw(st.booleans()):
        return None, gens
    f = draw(exact_st_polys())
    if draw(st.booleans()):
        f = f.scale(dvr("x"))
    return f, gens[:2]


def to_sympy_st(sympy, g: PolyExt):
    x, S, T = sympy.symbols("x S T")
    return sum(
        (
            sympy.Rational(a.numerator, a.denominator) * x**(c.val + k) * S**i * T**j
            for (i, j), c in g.terms.items()
            for k, a in enumerate(c.coeffs)
        ),
        sympy.Integer(0),
    )


def sympy_ext_answer(sympy, gens, f):
    """Unit ideal (f None) or radical membership of f in <gens>·R[S, T],
    decided fibre by fibre: over Q at x = 0 and over the field Q(x)."""
    x, S, T, t = sympy.symbols("x S T t")
    fibres = []
    for at_zero in (True, False):
        polys = [to_sympy_st(sympy, g) for g in gens]
        if f is not None:
            polys.append(1 - t * to_sympy_st(sympy, f))
        if at_zero:
            polys = [p.subs(x, 0) for p in polys]
        polys = [p for p in polys if p != 0]
        variables = (S, T) if f is None else (t, S, T)
        domain = "QQ" if at_zero else "QQ(x)"
        fibres.append(
            bool(polys)
            and list(sympy.groebner(polys, *variables, domain=domain).exprs) == [1]
        )
    return all(fibres)


class TestExtEngineAgainstSympy:
    @given(generic_fibre_queries())
    @settings(max_examples=80, deadline=None)
    def test_exact_queries(self, query):
        sympy = pytest.importorskip("sympy")
        f, gens = query
        got = ext_unit_ideal(gens) if f is None else ext_radical_membership([f], gens)
        assert got == sympy_ext_answer(sympy, gens, f), query


@st.composite
def biv_ext_queries(draw):
    """(f, gens) for a bivariate radical query, f None for a unit-ideal
    query: biv_elements coefficients on 1, S, T and S*T."""
    keys = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])

    def st_poly():
        terms = draw(st.dictionaries(keys, biv_elements(allow_zero=False),
                                     min_size=1, max_size=3))
        return PolyExt(MODEL_BIVARIATE, terms)

    gens = [st_poly() for _ in range(draw(st.integers(1, 3)))]
    return (st_poly() if draw(st.booleans()) else None), gens


class TestEarlyExit:
    """An elimination behind `_unit_query` stops at its first member with a
    nonzero constant term; it must answer as the whole reduced basis does."""

    # The whole basis is only the oracle, and a rare draw makes it explode:
    # at --hypothesis-seed=77 a bivariate radical query stops after 29
    # S-pairs in 0.02 s, while its whole basis takes 4.2 s to reduce 110
    # and more than 30 s to reduce 115.  A draw whose oracle trips this
    # budget is assumed away: 21 of 4,821 draws at seeds 1-60.
    ORACLE_SPAIR_CAP = 100

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_answers_as_the_full_elimination(self, data):
        model = data.draw(st.sampled_from(MODELS))
        queries = generic_fibre_queries() if model == MODEL_DVR else biv_ext_queries()
        f, gens = data.draw(queries)
        seen = []
        full = localring.eliminate

        def recording(polys, nelim, stop=None):
            seen.append((polys, nelim, stop))
            return full(polys, nelim, stop)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localring, "eliminate", recording)
            ext_unit_ideal(gens) if f is None else ext_radical_membership([f], gens)
        for polys, nelim, stop in seen:
            assert stop is not None
            set_spair_cap(self.ORACLE_SPAIR_CAP)
            try:
                expect = escapes_origin(full(polys, nelim))
            except DegreeCapExceeded:
                assume(False)
            finally:
                set_spair_cap(None)
            assert escapes_origin(full(polys, nelim, stop)) == expect, (f, gens)

    def test_stop_saves_s_pairs(self, monkeypatch):
        # the third S-pair leaves a remainder in u and v alone with constant
        # term -1, which answers; the whole basis takes 39
        gens = [pe(g, MODEL_BIVARIATE)
                for g in ("1 + u - T + (u - 1)*S*T", "T^2", "u + (1 + v)*S*T")]
        full = localring.eliminate
        pairs = []
        s_poly = polyring.s_poly
        monkeypatch.setattr(polyring, "s_poly", lambda *a: pairs.append(0) or s_poly(*a))
        assert ext_unit_ideal(gens)
        assert len(pairs) == 3
        pairs.clear()
        monkeypatch.setattr(localring, "eliminate", lambda polys, nelim, stop: full(polys, nelim))
        assert ext_unit_ideal(gens)
        assert len(pairs) == 39


def sympy_biv_ext_answer(sympy, gens, f):
    """Radical membership of f in <gens>·R[S, T] in the bivariate model, by
    one Rabinowitsch variable: 1 - t*f joins the generators, each times a
    unit that clears its denominators, in Q[t, S, T, u, v]; sympy's lex
    basis eliminates t, S and T, and f is a member exactly when a basis
    element free of them has a nonzero constant term."""
    t, S, T, u, v = sympy.symbols("t S T u v")

    def poly(p):
        return sum((sympy.Rational(c) * u**i * v**j for (i, j), c in p.terms.items()),
                   sympy.Integer(0))

    def expr(g):
        total = sympy.Integer(0)
        for (i, j), c in g.terms.items():
            num, den = c.polys()
            total += poly(num) / (1 if den is None else poly(den)) * S**i * T**j
        return sympy.fraction(sympy.together(total))[0]

    basis = sympy.groebner([expr(g) for g in gens] + [1 - t * expr(f)],
                           t, S, T, u, v, order="lex", domain=sympy.QQ)
    return any(
        sympy.Poly(e, u, v).as_dict().get((0, 0), 0) != 0
        for e in basis.exprs if not e.free_symbols & {t, S, T}
    )


@st.composite
def two_element_queries(draw):
    """(fs, gens) for a radical query of two elements in either model, with
    at most two generators.  Half the time the first is the sum of the
    generators, in the ideal by construction, so that only the second can
    leave the radical."""
    model = draw(st.sampled_from(MODELS))
    queries = generic_fibre_queries() if model == MODEL_DVR else biv_ext_queries()
    queries = queries.filter(lambda q: q[0] is not None)
    f2, gens = draw(queries)
    gens = gens[:2]
    f1 = gens[0] + gens[-1] if draw(st.booleans()) else draw(queries)[0]
    return [f1, f2], gens


class TestOneQueryPerSet:
    """E ⊆ √J is one query, J + (1 - Σ tᵢeᵢ) = (1) with one variable per
    element, where the verifier used to ask once per element."""

    @given(two_element_queries())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_multi_t_query_agrees_with_one_query_per_element_and_sympy(self, query):
        sympy = pytest.importorskip("sympy")
        fs, gens = query
        each = [ext_radical_membership([f], gens) for f in fs]
        assert ext_radical_membership(fs, gens) == all(each), query
        oracle = sympy_ext_answer if gens[0].model == MODEL_DVR else sympy_biv_ext_answer
        assert each == [oracle(sympy, gens, f) for f in fs], query

    @pytest.mark.parametrize("model, gens, inside, outside", [
        (MODEL_DVR, ["S^2"], "S*T", "T"),
        (MODEL_DVR, ["x*S", "x^2*T"], "x*S*T", "S"),
        (MODEL_BIVARIATE, ["u*S"], "u^2*S*T", "S"),
        (MODEL_BIVARIATE, ["u*v*S", "v*T"], "v*S*T", "u*S"),
    ])
    def test_only_the_second_element_leaves_the_radical(self, model, gens, inside, outside):
        gens = [pe(g, model) for g in gens]
        inside, outside = pe(inside, model), pe(outside, model)
        assert ext_radical_membership([inside], gens)
        assert not ext_radical_membership([outside], gens)
        assert not ext_radical_membership([inside, outside], gens)
        assert not ext_radical_membership([outside, inside], gens)
        assert ext_radical_membership([inside, inside * inside], gens)

    @pytest.mark.parametrize("model", MODELS)
    def test_a_set_is_one_elimination(self, model, monkeypatch):
        # the DVR model also asks its residue fibre, one more elimination;
        # {var}*T is a generator, so it leaves the set before either, and
        # the two others take one Rabinowitsch variable each (2 + S, T)
        runs = []
        full = localring.eliminate
        monkeypatch.setattr(localring, "eliminate",
                            lambda *a: runs.append(a[1]) or full(*a))
        var = "x" if model == MODEL_DVR else "u"
        gens = [pe(f"{var}^2*S^2", model), pe(f"{var}*T", model)]
        fs = [pe(f"{var}*S", model), pe(f"{var}*T", model), pe(f"{var}*S*T", model)]
        assert ext_radical_membership(fs, gens)
        assert runs == ([4, 4] if model == MODEL_DVR else [4])

    @pytest.mark.parametrize("model", MODELS)
    def test_a_unit_base_generator_answers_without_elimination(self, model, monkeypatch):
        monkeypatch.setattr(localring, "eliminate", lambda *a: pytest.fail("eliminated"))
        var = "x" if model == MODEL_DVR else "u"
        gens = [pe(f"{var}*S", model), pe(f"1 + {var}", model)]
        assert ext_radical_membership([pe("S", model), pe("T", model)], gens)
        assert ext_unit_ideal(gens)

    def test_empty_and_zero_sets_lie_in_every_radical(self, monkeypatch):
        monkeypatch.setattr(localring, "eliminate", lambda *a: pytest.fail("eliminated"))
        assert ext_radical_membership([], [pe("S")])
        assert ext_radical_membership([PolyExt(MODEL_DVR, {})], [pe("S")])


@st.composite
def base_rule_queries(draw, model):
    """(fs, gens) for a query the base-ring rules of `_ext_query` meet: 1-2
    non-unit S/T-free generators B = [r^e, ...] and 1-2 S/T generators;
    fs is None for a unit-ideal query, else 1-2 elements, each a generator,
    a polynomial with coefficients in r·R ⊆ √(B), or any polynomial."""
    if model == MODEL_DVR:
        element = st.builds(dvr_coeff, x_coeffs)
        non_unit = st.builds(lambda c: dvr_coeff([Fraction(0)] + c), x_coeffs)
    else:
        element = biv_elements(allow_zero=False)
        non_unit = element.filter(lambda e: not e.is_unit())
    r = draw(non_unit)
    base = [r ** draw(st.integers(1, 2))] + draw(st.lists(non_unit, max_size=1))
    coeff = st.one_of(element, element.map(lambda c: c * r), st.just(RingElement.one(model)))

    def poly(coeff):
        terms = draw(st.dictionaries(st.sampled_from(ST_MONOS), coeff, min_size=1, max_size=2))
        if draw(st.booleans()):
            terms[(0, 0)] = draw(coeff)
        return PolyExt(model, terms)

    gens = draw(st.permutations(
        [PolyExt.constant(b) for b in base] + [poly(coeff) for _ in range(draw(st.integers(1, 2)))]
    ))
    if draw(st.booleans()):
        return None, gens

    def member():
        how = draw(st.sampled_from(["generator", "in √(B)", "any"]))
        if how == "generator":
            return draw(st.sampled_from(gens))
        return poly(element.map(lambda c: c * r) if how == "in √(B)" else coeff)

    fs = [member() for _ in range(draw(st.integers(1, 2)))]
    return fs, gens


class TestBaseRingRules:
    """`_ext_query` answers from the base ring before any elimination: (1)
    B + (h) = (1) by h's coefficients, (2) an f with coefficients in √(B),
    (3) an f equal to a generator.  The elimination is the fallback, so the
    answers are the oracles'.  Broken rules this class fails on: rule 1
    without the unit-constant check, rule 1 applied with two S/T
    generators, and rule 3 on precision-relative equality."""

    @pytest.mark.parametrize("model", MODELS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_answers_as_sympy(self, model, data):
        sympy = pytest.importorskip("sympy")
        fs, gens = data.draw(base_rule_queries(model))
        if model == MODEL_DVR:
            def oracle(f):
                return sympy_ext_answer(sympy, gens, f)
        else:
            def oracle(f):
                one = PolyExt.constant(RingElement.one(model))
                return sympy_biv_ext_answer(sympy, gens, one if f is None else f)
        if fs is None:
            assert ext_unit_ideal(gens) == oracle(None), gens
        else:
            got = ext_radical_membership(fs, gens)
            assert got == all(oracle(f) for f in fs), (fs, gens)

    @pytest.fixture
    def no_elimination(self, monkeypatch):
        monkeypatch.setattr(localring, "eliminate", lambda *a: pytest.fail("eliminated"))

    @pytest.mark.parametrize("model", MODELS)
    def test_rule_one_yes(self, model, no_elimination):
        var = "x" if model == MODEL_DVR else "u"
        gens = [pe(f"{var}^2", model), pe(f"1 + {var}*S + 2*{var}*S*T", model)]
        assert ext_unit_ideal(gens)
        assert ext_radical_membership([pe("S", model), pe("T", model)], gens)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("h", ["1 + S", "{var} + {var}*S"])
    def test_rule_one_no(self, model, h, no_elimination):
        # a coefficient outside √(B), or a constant term that is no unit
        var = "x" if model == MODEL_DVR else "u"
        assert not ext_unit_ideal([pe(f"{var}^2", model), pe(h.format(var=var), model)])

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("h", ["1 + {var}*S", "1 + S*T", "{var} + T"])
    def test_rule_one_with_no_base_constant(self, model, h, no_elimination):
        # B empty: √(0) = 0, so a single S/T generator spans no unit ideal
        var = "x" if model == MODEL_DVR else "u"
        assert not ext_unit_ideal([pe(h.format(var=var), model)])

    @pytest.mark.parametrize("model", MODELS)
    def test_rule_one_needs_a_single_st_generator(self, model):
        # neither S nor 1 - S*T passes rule 1, but together they span (1)
        var = "x" if model == MODEL_DVR else "u"
        gens = [pe(var, model), pe("S", model), pe("1 - S*T", model)]
        assert ext_unit_ideal(gens)

    @pytest.mark.parametrize("model, base, f", [
        (MODEL_DVR, "x^2", "x*S*T + 3*x^2*T^2"),
        (MODEL_BIVARIATE, "u^2*v", "u*v*S*T + 3*u*v^2*T^2"),  # u*v ∈ √(u^2*v)
    ])
    def test_rule_two_yes(self, model, base, f, no_elimination):
        gens = [pe(base, model), pe("S + T", model)]
        assert ext_radical_membership([pe(f, model)], gens)

    @pytest.mark.parametrize("model", MODELS)
    def test_rule_three_yes(self, model, no_elimination):
        var = "x" if model == MODEL_DVR else "u"
        gens = [pe(f"{var}*S + T", model), pe(f"{var}*T^2", model)]
        assert ext_radical_membership([pe(f"T + {var}*S", model)], gens)

    def test_rule_three_skips_a_truncated_equal(self):
        # x + O(x^2) equals x to its tracked order, yet may be x + x^2: f
        # is no generator, and past the residue fibre the query abstains
        gens = [pe("x*S + T")]
        f = polyext_from_json({"S": "x + O(x^2)", "T": "1"}, MODEL_DVR, dvr)
        assert f == gens[0]
        with pytest.raises(PrecisionExhausted):
            ext_radical_membership([f], gens)


# An exact DVR radical query of S/T-degree 2: its elimination in Q[t, S, T, x]
# makes 125 reductions, with remainder coefficients of up to 439 bits.
STRETCH_F = "-x*T^2 + (2/3*x - 1/3*x^2 + 4*x^3)*S*T + (4*x - x^2)*S^2"
STRETCH_GENS = (
    "(1 - x - 1/3*x^2)*T^2 + (7/2 - x - 2/3*x^2)*S + (3 - 3*x)*S*T",
    "1 + 2/3*x - 1/3*x^2 - T^2 + (2/3 - 1/3*x + 4*x^2)*S*T + (2/3 - 1/3*x)*S^2",
)
# 1.5-1.8 s with the integer Groebner kernel, 20-23 s when S-pairs and
# reductions were computed with Fractions (2-core x86-64 VM, Python 3.11.7)
STRETCH_BUDGET_S = 5.0


def stretch_query():
    return pe(STRETCH_F), [pe(g) for g in STRETCH_GENS]


class TestDegreeTwoExactQuery:
    def test_answers_false_within_its_budget(self):
        f, gens = stretch_query()
        start = time.perf_counter()
        got = ext_radical_membership([f], gens)
        elapsed = time.perf_counter() - start
        assert got is False
        assert elapsed < STRETCH_BUDGET_S, elapsed

    def test_sympy_agrees(self):
        sympy = pytest.importorskip("sympy")
        f, gens = stretch_query()
        assert sympy_ext_answer(sympy, gens, f) is False


def truncated_copy(draw, g: PolyExt) -> PolyExt:
    """g with each coefficient c read back as c + O(x^k), k past deg c."""
    blob = {}
    for key, text in polyext_to_json(g, element_to_text).items():
        c = parse_element(text, MODEL_DVR)
        k = c.val + len(c.coeffs) + draw(st.integers(0, 2))
        blob[key] = f"{text} + O(x^{k})"
    return polyext_from_json(blob, MODEL_DVR, dvr)


class TestTruncatedCoefficients:
    """A DVR extension query with a truncated coefficient answers only where
    the residue fibre or a nonzero base constant settles it, or a unit-ideal
    query has a single S/T generator and no base constant (base-ring rule 1
    with B empty: no), and then as the exact query does.  Past these it
    abstains with PrecisionExhausted: the elimination decides the generic
    fibre only from exact coefficients."""

    @given(generic_fibre_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_flips_the_answer(self, query, data):
        f, gens = query
        tgens = [truncated_copy(data.draw, g) for g in gens]
        tf = None if f is None else truncated_copy(data.draw, f)
        exact = ext_unit_ideal(gens) if f is None else ext_radical_membership([f], gens)
        try:
            got = ext_unit_ideal(tgens) if f is None else ext_radical_membership([tf], tgens)
        except PrecisionExhausted:
            return
        assert got == exact, (tf, tgens)

    @given(generic_fibre_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_abstains_exactly_when_fibre_and_base_constant_leave_it_open(
        self, query, data
    ):
        f, gens = query
        base = data.draw(st.none() | x_coeffs)
        if base is not None:  # a nonzero multiple of x: a base constant
            gens = gens + [PolyExt(MODEL_DVR, {(0, 0): dvr_coeff([Fraction(0)] + base)})]
        tgens = [truncated_copy(data.draw, g) for g in gens]
        tf = None if f is None else truncated_copy(data.draw, f)
        one_st_generator = f is None and sum(not g.is_st_constant() for g in gens) == 1
        open_past_both = localring._fibre_query(gens, [] if f is None else [f]) and not any(
            g.is_st_constant() and not g.constant_part().is_zero() for g in gens
        ) and not one_st_generator
        try:
            got = ext_unit_ideal(tgens) if f is None else ext_radical_membership([tf], tgens)
        except PrecisionExhausted:
            assert open_past_both, (tf, tgens)
            return
        assert not open_past_both, (tf, tgens)
        exact = ext_unit_ideal(gens) if f is None else ext_radical_membership([f], gens)
        assert got == exact, (tf, tgens)

    # Fixed inputs for the rule: a truncated query raises only after the
    # residue fibre and the base-constant shortcut have both left it open.

    def test_truncated_query_past_the_residue_fibre_abstains(self):
        # two S/T generators: no base-ring rule settles the query
        g = polyext_from_json({"1": "1 + O(x)", "S": "x + O(x^2)"}, MODEL_DVR, dvr)
        t = polyext_from_json({"T": "x + O(x^2)"}, MODEL_DVR, dvr)
        with pytest.raises(PrecisionExhausted):
            ext_unit_ideal([g, t])

    def test_a_single_truncated_st_generator_answers_exactly(self):
        # rule 1 with B empty: R is a domain, so h is a unit of R[S, T]
        # only if it is S/T-free
        g = polyext_from_json({"1": "1 + O(x)", "S": "x + O(x^2)"}, MODEL_DVR, dvr)
        assert ext_unit_ideal([g]) is False

    def test_truncated_query_refused_by_the_residue_fibre_answers(self):
        g = polyext_from_json({"S": "1 + x + O(x^2)"}, MODEL_DVR, dvr)
        assert not ext_unit_ideal([g])
        assert not ext_radical_membership([parse_polyext("1", MODEL_DVR)], [g])

    def test_truncated_query_with_a_base_constant_answers(self):
        gens = [
            polyext_from_json({"1": "x + O(x^2)"}, MODEL_DVR, dvr),
            polyext_from_json({"1": "1 + O(x)", "S": "x + O(x^2)"}, MODEL_DVR, dvr),
        ]
        assert ext_unit_ideal(gens)
