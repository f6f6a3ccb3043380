"""The element grammar: parse results, linear cost and input budgets."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nodalwitness import cli, grammar, localring, polyring
from nodalwitness.errors import ParseError
from nodalwitness.grammar import (
    MAX_DEGREE,
    MAX_EXPANDED_SIZE,
    MAX_POWER_BITS,
    parse_rational_function,
    poly_to_text,
)
from nodalwitness.localring import MODEL_BIVARIATE, MODEL_DVR, parse_element
from nodalwitness.polyring import Poly
from test_cli import invoke


def one(nvars):
    return Poly.constant(Fraction(1), nvars)


def fraction_sum(n):
    """sum (i+1)/(i+2)*x^i over i < n."""
    return " + ".join(f"{i + 1}/{i + 2}*x^{i}" for i in range(n))


# --- round trip ---------------------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
).filter(lambda c: c != 0)


@st.composite
def sparse_polys(draw, nvars):
    monos = draw(
        st.lists(st.tuples(*[st.integers(0, 12)] * nvars), max_size=8, unique=True)
    )
    return Poly({m: draw(coeffs) for m in monos}, nvars)


@given(st.data())
def test_printed_polynomials_parse_back_over_one(data):
    names = data.draw(st.sampled_from([["x"], ["u", "v"]]))
    p = data.draw(sparse_polys(len(names)))
    num, den, otrunc = parse_rational_function(poly_to_text(p, names), names)
    assert num == p and den == one(len(names)) and otrunc is None


# --- differential check against sympy -------------------------------------------

NAMES = ["x", "u", "v"]

leaves = st.one_of(
    st.integers(0, 9).map(lambda c: ("const", c)),
    st.sampled_from(NAMES).map(lambda v: ("var", v)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 4)),
        st.tuples(st.just("neg"), children),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


def _render(t) -> str:
    """Text for the tree; every operand that is not a leaf is parenthesized."""

    def operand(c):
        return _render(c) if c[0] in ("const", "var") else f"({_render(c)})"

    if t[0] == "const":
        return str(t[1])
    if t[0] == "var":
        return t[1]
    if t[0] == "neg":
        return f"-{operand(t[1])}"
    if t[0] == "^":
        return f"{operand(t[1])}^{t[2]}"
    return f"{operand(t[1])} {t[0]} {operand(t[2])}"


def _sympy_value(sympy, t, syms):
    """The tree's value, or None when it divides by zero."""
    if t[0] == "const":
        return sympy.Integer(t[1])
    if t[0] == "var":
        return syms[t[1]]
    a = _sympy_value(sympy, t[1], syms)
    if a is None:
        return None
    if t[0] == "neg":
        return -a
    if t[0] == "^":
        return a ** t[2]
    b = _sympy_value(sympy, t[2], syms)
    if b is None:
        return None
    if t[0] == "/":
        return None if sympy.cancel(b) == 0 else a / b
    return {"+": a + b, "-": a - b, "*": a * b}[t[0]]


@given(trees)
@settings(max_examples=80, deadline=None)
def test_parse_agrees_with_sympy(tree):
    sympy = pytest.importorskip("sympy")
    syms = dict(zip(NAMES, sympy.symbols(NAMES)))
    value = _sympy_value(sympy, tree, syms)
    assume(value is not None)
    try:
        num, den, _ = parse_rational_function(_render(tree), NAMES)
    except ParseError as exc:
        assume("cap" not in str(exc))
        raise

    def to_sympy(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(syms[v] ** e for v, e in zip(NAMES, m)))
                for m, c in p.terms.items()
            )
        )

    want_num, want_den = sympy.fraction(sympy.cancel(sympy.together(value)))
    assert sympy.expand(to_sympy(num) * want_den - to_sympy(den) * want_num) == 0


# --- cost ---------------------------------------------------------------------


def test_sum_parsing_is_linear(monkeypatch):
    """Monomial products, not seconds: the count does not depend on the machine.

    Both places that multiply monomials are counted: `Poly` products, and
    the parser's fold of a term's factors into one monomial.  The first sum's
    terms fold into monomials; the second's stay rational functions over a
    shared denominator, so the sum runs through the cross-multiplying branch."""
    calls = 0
    real = polyring.mono_mul

    def counting(m1, m2):
        nonlocal calls
        calls += 1
        return real(m1, m2)

    monkeypatch.setattr(polyring, "mono_mul", counting)
    monkeypatch.setattr(grammar, "mono_mul", counting)

    def rational_sum(n):
        return " + ".join(f"({i + 1}+x)*x^{i}/(1+x)" for i in range(n))

    for text in (fraction_sum, rational_sum):

        def cost(n):
            nonlocal calls
            calls = 0
            parse_rational_function(text(n), ["x"])
            return calls

        c200, c400 = cost(200), cost(400)
        assert c200 > 0, text.__name__
        assert c400 <= 2.2 * c200, (text.__name__, c200, c400)


@pytest.mark.parametrize(
    "text, want",
    [
        ("1/2 + 1/3*x", "1/2 + 1/3*x"),
        ("x/(1+x) + 1/(1+x)", "1"),
        ("1/(1+x) + x/(1-x)", "(1 + x^2)/(1 - x^2)"),
        ("(2*x)^3/4", "2*x^3"),
        ("x^0 + 0^0", "2"),
    ],
)
def test_sums_over_denominators(text, want):
    assert parse_element(text, MODEL_DVR) == parse_element(want, MODEL_DVR)
    biv = text.replace("x", "u")
    assert parse_element(biv, MODEL_BIVARIATE) == parse_element(
        want.replace("x", "u"), MODEL_BIVARIATE
    )


# --- error messages -------------------------------------------------------------


@pytest.mark.parametrize(
    "text, model, message",
    [
        ("x $ 1", MODEL_DVR, "unexpected character '$' at position 2"),
        ("x^2.5", MODEL_DVR, "unexpected character '.' at position 3"),
        ("x x", MODEL_DVR, "trailing input at token 'x'"),
        ("x)", MODEL_DVR, "trailing input at token ')'"),
        ("x +", MODEL_DVR, "unexpected end of expression"),
        ("(x x", MODEL_DVR, "expected ')', got 'x'"),
        ("   ", MODEL_DVR, "empty expression"),
        ("x*O(x^3)", MODEL_DVR, "O(...) may only appear as a top-level summand"),
        ("O(x^2)/x", MODEL_DVR, "O(...) may only appear as a top-level summand"),
        ("x + O(x^0)", MODEL_DVR, "O(...) order must be a positive integer"),
        ("x + O(y)", MODEL_DVR, "O(...) expects the series variable 'x'"),
        ("x + O(x)", MODEL_DVR, "O(x^1) leaves no determined leading coefficient"),
        ("u + O(u^2)", MODEL_BIVARIATE,
         "O(...) tails are only meaningful for series elements"),
        ("x^y", MODEL_DVR, "exponent must be a non-negative integer, got 'y'"),
        ("x^-1", MODEL_DVR, "exponent must be a non-negative integer, got '-'"),
        ("x^10001", MODEL_DVR, "exponent 10001 exceeds the cap 10000"),
        ("x + O(x^10001)", MODEL_DVR, "O(...) order 10001 exceeds the cap 10000"),
        ("(x^2)^5001", MODEL_DVR, "power of degree 2*5001 exceeds the cap 10000"),
        ("(1+u+v)^23", MODEL_BIVARIATE,
         "expanded power of degrees [23, 23] exceeds the size cap 500"),
        ("x/0", MODEL_DVR, "division by zero"),
        ("x/(x-x)", MODEL_DVR, "division by zero"),
        ("1/x", MODEL_DVR, "element has a pole at the origin (negative valuation)"),
        ("y", MODEL_DVR, "unknown symbol 'y'"),
        ("2*x", MODEL_BIVARIATE, "unknown symbol 'x'"),
    ],
)
def test_parse_error_messages(text, model, message):
    with pytest.raises(ParseError) as info:
        parse_element(text, model)
    assert str(info.value) == message


# a digit is 0-9: superscripts and other scripts' digits are not read as numbers
NON_ASCII_DIGITS = [
    ("x^²", "unexpected character '²' at position 2"),
    ("O(x^²)", "unexpected character '²' at position 4"),
    ("²", "unexpected character '²' at position 0"),
    ("٣*x", "unexpected character '٣' at position 0"),
]


@pytest.mark.parametrize("text, message", NON_ASCII_DIGITS)
def test_non_ascii_digits_are_unexpected_characters(text, message):
    with pytest.raises(ParseError) as info:
        parse_element(text, MODEL_DVR)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", NON_ASCII_DIGITS)
def test_cli_names_a_non_ascii_digit(text, message):
    code, out, err = invoke(["decide", "nodal", "--r0", "x^2", "--s1", "x", "--s2", text])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["x - O(x^3)", "-O(x^3) + x"])
def test_a_negated_o_tail_is_the_same_tail(text):
    assert parse_element(text, MODEL_DVR) == parse_element("x + O(x^3)", MODEL_DVR)


def test_constant_denominators_fold_into_the_numerator():
    num, den, _ = parse_rational_function("x/2 - 2/3*x^2 + x/(4/3)", ["x"])
    assert den == one(1)
    assert num == Poly({(1,): Fraction(5, 4), (2,): Fraction(-2, 3)}, 1)


# --- input budgets ------------------------------------------------------------


@pytest.fixture
def no_series_built(monkeypatch):
    """Fail, rather than allocate, if input over a budget reaches the series model.

    Returns the list of calls let through, one `otrunc` per call.
    """
    real = localring._series_from_raw
    calls = []

    def guarded(nums, den, otrunc, prec):
        degrees = [sum(m) for p in (*nums, den) for m in p.terms]
        if max(degrees + [otrunc or 0, prec]) > MAX_DEGREE:
            raise AssertionError("input over a budget reached the series model")
        calls.append(otrunc)
        return real(nums, den, otrunc, prec)

    monkeypatch.setattr(localring, "_series_from_raw", guarded)
    return calls


def test_series_guard_is_reached(no_series_built):
    # positive control: without it, a parse that no longer went through the
    # patched global would pass the guards below without testing anything
    parse_element("x + O(x^5)", MODEL_DVR)
    assert no_series_built == [5]


@pytest.fixture
def no_power_expanded(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused power was expanded")

    monkeypatch.setattr(grammar, "power", refuse)


@pytest.mark.parametrize(
    "text, names",
    [
        ("x^1000000000", ["x"]),
        (f"x^{MAX_DEGREE + 1}", ["x"]),
        ("x^" + "9" * 5000, ["x"]),
        (f"(x^2)^{MAX_DEGREE // 2 + 1}", ["x"]),
        (f"(u*v)^{MAX_DEGREE // 2 + 1}", ["u", "v"]),
        (f"(1+x)^{MAX_EXPANDED_SIZE + 1}", ["x"]),
        (f"(1/(1+x))^{MAX_EXPANDED_SIZE + 1}", ["x"]),
        ("(1+u+v)^23", ["u", "v"]),
        ("(x^3+x^4)^200", ["x"]),
        ("(" + "9" * 1000 + "+x)^300", ["x"]),
        (f"16384^{MAX_POWER_BITS // 16 + 1}", ["x"]),
    ],
)
def test_refused_powers_are_never_built(no_power_expanded, text, names):
    with pytest.raises(ParseError, match="cap"):
        parse_rational_function(text, names)


@pytest.mark.parametrize("order", ["1000000000", str(MAX_DEGREE + 1), "9" * 5000])
def test_refused_o_orders(no_series_built, order):
    with pytest.raises(ParseError, match="cap"):
        parse_element(f"x + O(x^{order})", MODEL_DVR)


@pytest.mark.parametrize("digits", [1000, 4000])
def test_huge_coefficient_power_is_refused_fast(digits):
    # 1,000 nines to the 10,000 took 9 s to build, and 4,000 nines 80 s
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"cap {MAX_POWER_BITS}"):
        parse_element("9" * digits + "^10000*x", MODEL_DVR)
    assert time.perf_counter() - start < 1.0


def test_overlong_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="too long"):
        parse_element("1" * 5000, MODEL_DVR)


def test_budgets_admit_their_limits():
    assert parse_element(f"x^{MAX_DEGREE}", MODEL_DVR).order() == MAX_DEGREE
    assert parse_element(f"x^000{MAX_DEGREE}", MODEL_DVR) == parse_element(
        f"(x^{MAX_DEGREE // 2})^2", MODEL_DVR
    )
    tail = parse_element(f"x + O(x^{MAX_DEGREE})", MODEL_DVR)
    assert not tail.exact and len(tail.coeffs) == MAX_DEGREE - 1
    num, _, _ = parse_rational_function("(1+u+v)^22", ["u", "v"])
    assert num.terms[(11, 11)] == Fraction(705432)  # 22! / (11! 11!)
    # 16384 has 15 bits and denominator 1 has 1: 16 * 4096 is the bit cap
    num, _, _ = parse_rational_function(f"16384^{MAX_POWER_BITS // 16}", ["x"])
    assert num.constant_coeff() == 2 ** (14 * MAX_POWER_BITS // 16)


@pytest.mark.parametrize(
    "argv",
    [
        ["--trunc", "1000000000", "surface", "new"],
        ["--trunc", str(cli.MAX_TRUNC + 1), "surface", "new"],
        ["decide", "nodal", "--r0", "x^1000000000", "--s1", "x", "--s2", "x"],
        ["decide", "nodal", "--r0", "x^2", "--s1", "x + O(x^1000000000)", "--s2", "x"],
        ["classes", "--r0", "x^2", "x", "(1+x)^1000000000"],
        # ran past a two-minute timeout before the bit cap on powers
        ["decide", "nodal", "--r0", "x^2", "--s2", "x", "--s1", "(" + "9" * 1000 + "+x)^300"],
    ],
)
def test_cli_refuses_over_budget_fast(no_series_built, argv):
    t0 = time.perf_counter()
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert "error:" in err and ("cap" in err or "at most" in err)
    assert time.perf_counter() - t0 < 1.0
