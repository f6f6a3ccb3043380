"""The Groebner kernel: bases, elimination and remainders against sympy's."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from nodalwitness import polyring
from nodalwitness.errors import DegreeCapExceeded
from nodalwitness.localring import ext_radical_membership
from nodalwitness.polyring import (
    BlockOrder,
    Poly,
    buchberger,
    eliminate,
    escapes_origin,
    mono_divides,
    reduce_poly,
    set_spair_cap,
)
from test_localring import stretch_query

NAMES = ("t", "S", "T", "u", "v")

small_q = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
).filter(lambda c: c != 0)


def small_polys(nvars, first=0):
    """At most three terms of total degree <= 2 in the variables from `first` on."""
    monos = st.lists(st.integers(first, nvars - 1), max_size=2).map(
        lambda idx: tuple(idx.count(i) for i in range(nvars))
    )
    return st.dictionaries(monos, small_q, min_size=1, max_size=3).map(
        lambda t: Poly(t, nvars)
    )


def small_ideals(nvars, first=0):
    """One to three generators from `small_polys`."""
    return st.lists(small_polys(nvars, first), min_size=1, max_size=3)


@st.composite
def padded_ideals(draw, nvars):
    """A small ideal with one extra generator that adds nothing to a reduced
    basis: zero, a nonzero constant (the unit ideal), or a generator already
    in the ideal of the others, inserted anywhere."""
    gens = draw(small_ideals(nvars))
    kind = draw(st.sampled_from(["zero", "constant", "multiple", "combination"]))
    if kind == "zero":
        extra = Poly.zero(nvars)
    elif kind == "constant":
        extra = Poly.constant(draw(small_q), nvars)
    elif kind == "multiple":
        extra = draw(st.sampled_from(gens)) * draw(small_polys(nvars))
    else:
        extra = Poly.zero(nvars)
        for g in gens:
            extra = extra + g * draw(small_polys(nvars))
    gens.insert(draw(st.integers(0, len(gens))), extra)
    return gens


@st.composite
def rabinowitsch_queries(draw):
    """The engine's radical-membership shape: Q[t, (S,) T, u, v] with the
    generators free of t, plus 1 - t*f; eliminate all but u and v.  Half the
    time f is a multiple of a generator, so both answers occur."""
    nvars = draw(st.sampled_from([4, 5]))
    gens = draw(small_ideals(nvars, first=1))
    f = draw(small_polys(nvars, first=1))
    if draw(st.booleans()):
        f = f * draw(st.sampled_from(gens))
    one = Poly.constant(Fraction(1), nvars)
    return nvars - 2, gens + [one - Poly.variable(0, nvars) * f]


def to_sympy(sympy, p: Poly, syms):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*[x**e for x, e in zip(syms, m)])
         for m, c in p.terms.items()),
        sympy.Integer(0),
    )


def from_sympy(sympy, expr, syms) -> Poly:
    terms = sympy.Poly(expr, *syms, domain=sympy.QQ).as_dict()
    return Poly(
        {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in terms.items()},
        len(syms),
    )


def as_set(polys):
    return {frozenset(p.terms.items()) for p in polys}


def assert_sympys_reduced_grevlex_basis(sympy, gens, nvars):
    syms = sympy.symbols(NAMES[-nvars:])
    ours = buchberger(gens, BlockOrder(nvars))  # one block: grevlex
    theirs = sympy.groebner(
        [to_sympy(sympy, g, syms) for g in gens], *syms, order="grevlex", domain=sympy.QQ
    )
    expect = [from_sympy(sympy, e, syms) for e in theirs.exprs]
    # a reduced basis is unique once monic; sympy's over QQ is monic too
    assert as_set(ours) == as_set(expect), (gens, ours, expect)


def sympys_lex_elimination(sympy, gens, nelim, nvars):
    """Our elimination and sympy's (the lex basis elements free of the first
    nelim variables), after checking that the two span the same ideal."""
    syms = sympy.symbols(NAMES[-nvars:])
    ours = eliminate(gens, nelim)
    lex = sympy.groebner(
        [to_sympy(sympy, g, syms) for g in gens], *syms, order="lex", domain=sympy.QQ
    )
    theirs = [e for e in lex.exprs if not (e.free_symbols & set(syms[:nelim]))]
    if not theirs:
        assert not ours, (gens, ours)
        return ours, []
    order = BlockOrder(nelim)
    for e in theirs:
        assert reduce_poly(from_sympy(sympy, e, syms), ours, order).is_zero(), (gens, e)
    for p in ours:
        _, rem = sympy.reduced(to_sympy(sympy, p, syms), theirs, *syms,
                               order="lex", domain=sympy.QQ)
        assert rem == 0, (gens, p)
    return ours, [from_sympy(sympy, e, syms) for e in theirs]


class TestAgainstSympy:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduced_grevlex_basis(self, data):
        sympy = pytest.importorskip("sympy")
        nvars = data.draw(st.sampled_from([2, 3]))
        assert_sympys_reduced_grevlex_basis(sympy, data.draw(small_ideals(nvars)), nvars)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_constant_or_redundant_generator(self, data):
        sympy = pytest.importorskip("sympy")
        nvars = data.draw(st.sampled_from([2, 3]))
        assert_sympys_reduced_grevlex_basis(sympy, data.draw(padded_ideals(nvars)), nvars)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_elimination_spans_sympys_lex_elimination(self, data):
        sympy = pytest.importorskip("sympy")
        nvars = data.draw(st.sampled_from([2, 3]))
        nelim = data.draw(st.integers(1, nvars - 1))
        sympys_lex_elimination(sympy, data.draw(small_ideals(nvars)), nelim, nvars)

    @given(rabinowitsch_queries())
    @settings(max_examples=60, deadline=None)
    def test_rabinowitsch_elimination_in_four_and_five_variables(self, query):
        sympy = pytest.importorskip("sympy")
        nelim, gens = query
        ours, theirs = sympys_lex_elimination(sympy, gens, nelim, nelim + 2)
        assert escapes_origin(ours) == escapes_origin(theirs), gens


def integer_copy(p: Poly) -> Poly:
    """p with its denominators and content cleared: primitive, over Z."""
    d = lcm(*[c.denominator for c in p.terms.values()])
    ints = {m: c.numerator * (d // c.denominator) for m, c in p.terms.items()}
    g = gcd(*ints.values())
    return Poly({m: c // g for m, c in ints.items()}, p.nvars)


def is_rational_multiple(p: Poly, q: Poly) -> bool:
    """Whether p = λ·q for a nonzero rational λ; q is nonzero."""
    m, c = next(iter(q.terms.items()))
    lam = Fraction(p.terms.get(m, 0)) / c
    return bool(lam) and p.terms == {m: lam * c for m, c in q.terms.items()}


class TestFractionFreeReduction:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_remainder_is_a_rational_multiple_of_sympys(self, data):
        # the remainder by a Groebner basis is unique over Q; ours is a
        # primitive integer multiple of it, for Fraction reducers (as
        # buchberger returns them), for their primitive integer copies and
        # for integer multiples of those, whose larger leading coefficients
        # make more reduction steps scale the remainder
        sympy = pytest.importorskip("sympy")
        nvars = data.draw(st.sampled_from([2, 3]))
        syms = sympy.symbols(NAMES[-nvars:])
        order = BlockOrder(nvars)
        basis = buchberger(data.draw(small_ideals(nvars)), order)
        draw = lambda: data.draw(small_polys(nvars))  # noqa: E731
        f = draw() * draw() * draw() + draw()
        _, theirs = sympy.reduced(
            to_sympy(sympy, f, syms), [to_sympy(sympy, g, syms) for g in basis],
            *syms, order="grevlex", domain=sympy.QQ,
        )
        expect = from_sympy(sympy, theirs, syms)
        copies = [integer_copy(g) for g in basis]
        multiples = [g.scale(data.draw(st.integers(2, 6))) for g in copies]
        for reducers in (basis, copies, multiples):
            got = reduce_poly(f, reducers, order)
            if expect.is_zero():
                assert got.is_zero(), (f, reducers, got)
            else:
                assert is_rational_multiple(got, expect), (f, reducers, got, expect)


def record_coefficient_bits(monkeypatch) -> list:
    """The largest coefficient bit length of each reduce_poly result."""
    bits = []
    original = polyring.reduce_poly

    def recording(*args):
        r = original(*args)
        bits.append(max((abs(c).bit_length() for c in r.terms.values()), default=0))
        return r

    monkeypatch.setattr(polyring, "reduce_poly", recording)
    return bits


# Measured: at most 44 bits over 15,000 Rabinowitsch examples (at most 38
# over 3,000 without the content division, so only the stretch query tells
# the two apart), and 439 bits on the stretch query (12,034 without it).
RABINOWITSCH_BITS = 64
STRETCH_BITS = 512


class TestCoefficientGrowth:
    @given(rabinowitsch_queries())
    @settings(max_examples=60, deadline=None)
    def test_rabinowitsch_remainders_stay_small(self, query):
        nelim, gens = query
        with pytest.MonkeyPatch.context() as mp:
            bits = record_coefficient_bits(mp)
            eliminate(gens, nelim)
        assert max(bits, default=0) <= RABINOWITSCH_BITS, gens

    def test_stretch_query_remainders_stay_small(self, monkeypatch):
        f, gens = stretch_query()
        bits = record_coefficient_bits(monkeypatch)
        assert not ext_radical_membership([f], gens)
        assert max(bits) <= STRETCH_BITS

    def test_guard_trips_without_the_content_division(self, monkeypatch):
        # positive control for the guard above: the first 30 S-pairs of the
        # same query already reach 1,749 bits when remainders keep their content
        f, gens = stretch_query()
        bits = record_coefficient_bits(monkeypatch)
        monkeypatch.setattr(polyring, "_primitive", lambda terms: terms)
        set_spair_cap(30)
        try:
            with pytest.raises(DegreeCapExceeded):
                ext_radical_membership([f], gens)
        finally:
            set_spair_cap(None)
        assert max(bits) > STRETCH_BITS


class TestReductionCost:
    def test_reduction_builds_only_its_result(self, monkeypatch):
        order = BlockOrder(3)
        t, u, v = (Poly.variable(i, 3) for i in range(3))
        basis = buchberger([t * t - u * v, u * u * u - t * v + v], order)
        monos = sorted((m for m in product(range(5), repeat=3)
                        if sum(m) <= 4), reverse=True)[:30]
        f = Poly({m: Fraction(k + 1, k % 4 + 2) for k, m in enumerate(monos)}, 3)
        assert len(f.terms) == 30
        built = []
        init = Poly.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Poly, "__init__", counting_init)
        r = reduce_poly(f, basis, order)
        assert len(built) <= 2
        monkeypatch.undo()
        # a remainder term is divisible by no leading monomial of the basis
        leads = [g.leading(order)[0] for g in basis]
        assert r.terms and not any(mono_divides(lm, m) for m in r.terms for lm in leads)


def counting(monkeypatch, name):
    """Count the calls buchberger makes to the module-level `name`."""
    calls = []
    original = getattr(polyring, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyring, name, wrapper)
    return calls


class TestPairCriteria:
    @pytest.mark.parametrize(
        "gens, pairs",
        [
            ([{(0, 1, 2): -3, (0, 2, 0): -1, (2, 0, 2): -2},
              {(0, 0, 2): 1, (0, 1, 1): -3},
              {(2, 0, 0): 2, (2, 2, 0): 1}], 12),
            ([{(0, 0, 1): 1, (2, 2, 0): -3, (2, 2, 1): 2},
              {(0, 2, 0): 1, (1, 0, 1): -1, (1, 2, 1): 2},
              {(0, 1, 0): 2, (0, 1, 1): 3}], 12),
            ([{(2, 2, 0): 1, (2, 2, 2): 2},
              {(0, 0, 0): 1, (1, 1, 1): -3, (1, 2, 1): -3},
              {(0, 0, 2): -2, (0, 1, 2): -3}], 11),
            ([{(0, 1, 1): 1, (2, 1, 2): -3},
              {(2, 1, 1): 1, (2, 1, 2): -2},
              {(1, 0, 1): 1, (1, 0, 2): -2, (2, 0, 1): -2}], 5),
        ],
    )
    def test_normal_selection_fixes_the_pair_count(self, monkeypatch, gens, pairs):
        # the smallest lcm goes first; taking the largest first reduces
        # 15, 15, 30 and 7 S-pairs on these ideals instead
        polys = [Poly({m: Fraction(c) for m, c in g.items()}, 3) for g in gens]
        spolys = counting(monkeypatch, "s_poly")
        buchberger(polys, BlockOrder(3))
        assert len(spolys) == pairs

    def test_unit_ideal_with_redundant_inputs_reduces_nothing(self, monkeypatch):
        t = Poly.variable(0, 3)
        zero, one = Poly.zero(3), Poly.constant(Fraction(1), 3)
        reductions = counting(monkeypatch, "reduce_poly")
        assert buchberger([zero, one, one - t], BlockOrder(3)) == [one]
        assert not reductions

    def test_budget_counts_only_the_pairs_reduced(self, monkeypatch):
        # a Rabinowitsch query whose run skips pairs by the criteria
        t, u, v = (Poly.variable(i, 3) for i in range(3))
        one = Poly.constant(Fraction(1), 3)
        gens = [u * u * v - v, u * v * v + u, one - t * u]
        order = BlockOrder(1)
        spolys = counting(monkeypatch, "s_poly")
        basis = buchberger(gens, order)
        k = len(spolys)
        assert k > 1
        try:
            set_spair_cap(k)
            assert buchberger(gens, order) == basis
            set_spair_cap(k - 1)
            with pytest.raises(DegreeCapExceeded):
                buchberger(gens, order)
        finally:
            set_spair_cap(None)
