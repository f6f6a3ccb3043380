"""Ring-model facade: divisibility, ideals, roots, and the S/T extension."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from nodalwitness.dvrseries import Series
from nodalwitness.errors import (
    DivisionImpossible,
    ModelMismatch,
    ParseError,
    PreconditionViolated,
    RootUnavailable,
)
from nodalwitness.localring import (
    MODEL_BIVARIATE,
    MODEL_DVR,
    IdealHandle,
    PolyExt,
    RingElement,
    divides,
    element_to_text,
    elements_gcd,
    ext_radical_membership,
    ext_unit_ideal,
    gcd2,
    gens_principal,
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
from nodalwitness.polyring import QQ, Poly

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
    return RingElement.from_series(Series.make(val, [lead] + tail, True))


@st.composite
def biv_elements(draw, allow_zero=True):
    texts = ["1", "u", "v", "u+v", "1+u", "2+v", "u*v", "1+u*v", "3", "u^2+v"]
    e = biv(draw(st.sampled_from(texts)))
    scale = draw(small_q.filter(lambda c: c != 0))
    e = e * RingElement.from_fraction(scale, MODEL_BIVARIATE)
    if allow_zero and draw(st.integers(0, 9)) == 0:
        return RingElement.zero(MODEL_BIVARIATE)
    return e


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
    s = e.payload
    known = draw(st.integers(1, len(s.coeffs) + 2))
    padded = list(s.coeffs) + [Fraction(0)] * known
    return RingElement.from_series(Series.make(s.val, padded[:known], False))


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
        assert not e.payload.exact
        assert e.payload.val == 1
        # and the O-tail survives the round trip
        again = parse_element(element_to_text(e), MODEL_DVR)
        assert again == e and not again.payload.exact

    def test_rational_division_is_exact(self):
        assert dvr("x/(1-x)") == dvr("x + x^2 + x^3 + x^4 + O(x^5)")

    def test_pole_rejected(self):
        with pytest.raises(ParseError):
            dvr("1/x")

    def test_origin_pole_rejected(self):
        with pytest.raises(ParseError):
            biv("1/u")

    def test_unit_denominator_ok(self):
        e = biv("v/(1+u)")
        assert not e.is_unit() and not e.is_zero()

    def test_wrong_variable_rejected(self):
        with pytest.raises(ParseError):
            dvr("u + 1")
        with pytest.raises(ParseError):
            biv("x + 1")

    def test_vacuous_o_tail_rejected(self):
        with pytest.raises(ParseError):
            dvr("x^3 + O(x^2)")

    @given(dvr_elements())
    def test_dvr_print_parse(self, e):
        assert parse_element(element_to_text(e), MODEL_DVR) == e

    @given(biv_elements())
    def test_biv_print_parse(self, e):
        assert parse_element(element_to_text(e), MODEL_BIVARIATE) == e


class TestArithmetic:
    def test_model_mixing_raises(self):
        with pytest.raises(ModelMismatch):
            dvr("x") + biv("u")

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
        for x in (dvr("1+x"), dvr("1+x").payload, biv("u"), Poly.variable(0, QQ, 2)):
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
            s = e.payload
            known = data.draw(st.integers(1, len(s.coeffs) + 2))
            padded = list(s.coeffs) + [Fraction(0)] * known
            return RingElement.from_series(Series.make(s.val, padded[:known], False))

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


class TestUnitMultiple:
    def test_example(self):
        w = unit_multiple(dvr("x"), dvr("2*x + x^2"))
        assert w == dvr("2 + x")

    def test_none_when_not_associate(self):
        assert unit_multiple(dvr("x"), dvr("x^2")) is None
        assert unit_multiple(biv("u"), biv("v")) is None

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

    def test_fold(self):
        gen = gens_principal([biv("u^2"), biv("u^2*v"), biv("u^2+u^3")])
        assert gen is not None and unit_multiple(gen, biv("u^2")) is not None
        assert gens_principal([biv("u"), biv("v"), biv("u*v")]) is None

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
            return Poly(data.draw(st.dictionaries(monos, small_q, max_size=4)), QQ, 2)

        def to_sympy(p):
            return sum(
                (sympy.Rational(c.numerator, c.denominator) * u**i * v**j
                 for (i, j), c in p.terms.items()),
                sympy.Integer(0),
            )

        # a shared factor makes the gcd nontrivial; empty dicts give zeros
        common = draw_poly()
        p, q = draw_poly() * common, draw_poly() * common
        expect = sympy.gcd(to_sympy(p), to_sympy(q))
        got = to_sympy(gcd2(p, q))
        if expect == 0:
            assert got == 0
        else:
            ratio = sympy.cancel(got / expect)
            assert ratio.is_Rational and ratio != 0, (p, q, got, expect)


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
            PolyExt.constant(f), [PolyExt.constant(g) for g in gens]
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


# --- roots ---------------------------------------------------------------------


class TestRoots:
    def test_dvr_square_root(self):
        r = nth_root_unit(dvr("1 + x"), 2)
        assert r is not None and r * r == dvr("1 + x")

    def test_dvr_exact_square(self):
        r = nth_root_unit(dvr("1 + 2*x + x^2"), 2)
        assert r == dvr("1 + x")
        assert r.payload.exact

    def test_residue_obstruction(self):
        with pytest.raises(RootUnavailable):
            nth_root_unit(dvr("2 + x"), 2)

    def test_negative_residue_odd_root(self):
        r = nth_root_unit(dvr("-8 + x"), 3)
        assert r is not None and r**3 == dvr("-8 + x")

    def test_non_unit_rejected(self):
        with pytest.raises(PreconditionViolated):
            nth_root_unit(dvr("x"), 2)

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
        assert substitute_base(e, b).valuation() == b * e.valuation()


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
        blob = polyext_to_json(p)
        assert polyext_from_json(blob, MODEL_BIVARIATE) == p

    def test_json_roundtrip_truncated(self):
        delta = dvr("x/(1-x)")
        p = PolyExt(MODEL_DVR, {(0, 0): RingElement.one(MODEL_DVR), (1, 0): delta})
        blob = polyext_to_json(p)
        assert polyext_from_json(blob, MODEL_DVR) == p

    def test_algebra(self):
        s = PolyExt.variable("S", MODEL_DVR)
        t = PolyExt.variable("T", MODEL_DVR)
        lhs = (s + t) * (s - t)
        rhs = s * s - t * t
        assert lhs == rhs


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
        assert ext_radical_membership(pe("x*S"), [pe("x^2*S^2")])
        assert not ext_radical_membership(pe("S"), [pe("x*S")])
        assert not ext_radical_membership(pe("T"), [pe("S^2"), pe("x*T")])
        assert ext_radical_membership(pe("S*T"), [pe("S^2")])

    def test_radical_biv(self):
        assert ext_radical_membership(
            pe("u*S", MODEL_BIVARIATE), [pe("u^2*S^2", MODEL_BIVARIATE)]
        )
        assert not ext_radical_membership(
            pe("u", MODEL_BIVARIATE), [pe("v*S", MODEL_BIVARIATE)]
        )

    def test_zero_member(self):
        assert ext_radical_membership(
            PolyExt(MODEL_DVR, {}), [pe("S")]
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
        assert ext_radical_membership(f, [g1, g2])
