"""The Groebner kernel: bases and elimination against sympy's."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nodalwitness.polyring import (
    QQ,
    BlockOrder,
    Grevlex,
    Poly,
    buchberger,
    eliminate,
    mono_divides,
    reduce_poly,
)

NAMES = ("t", "u", "v")

small_q = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
).filter(lambda c: c != 0)


@st.composite
def small_ideals(draw, nvars):
    """One to three generators of at most three terms and total degree <= 2."""
    monos = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda m: sum(m) <= 2)
    gen = st.dictionaries(monos, small_q, min_size=1, max_size=3)
    return [Poly(t, QQ, nvars) for t in draw(st.lists(gen, min_size=1, max_size=3))]


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
        QQ,
        len(syms),
    )


def as_set(polys):
    return {frozenset(p.terms.items()) for p in polys}


class TestAgainstSympy:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduced_grevlex_basis(self, data):
        sympy = pytest.importorskip("sympy")
        nvars = data.draw(st.sampled_from([2, 3]))
        syms = sympy.symbols(NAMES[-nvars:])
        gens = data.draw(small_ideals(nvars))
        ours = buchberger(gens, Grevlex(nvars))
        theirs = sympy.groebner(
            [to_sympy(sympy, g, syms) for g in gens], *syms, order="grevlex", domain=sympy.QQ
        )
        expect = [from_sympy(sympy, e, syms) for e in theirs.exprs]
        # a reduced basis is unique once monic; sympy's over QQ is monic too
        assert as_set(ours) == as_set(expect), (gens, ours, expect)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_elimination_spans_sympys_lex_elimination(self, data):
        sympy = pytest.importorskip("sympy")
        nvars = data.draw(st.sampled_from([2, 3]))
        nelim = data.draw(st.integers(1, nvars - 1))
        syms = sympy.symbols(NAMES[-nvars:])
        gens = data.draw(small_ideals(nvars))
        ours = eliminate(gens, nelim)
        lex = sympy.groebner(
            [to_sympy(sympy, g, syms) for g in gens], *syms, order="lex", domain=sympy.QQ
        )
        # the lex basis elements free of the first nelim variables are a
        # basis of the elimination ideal
        theirs = [e for e in lex.exprs if not (e.free_symbols & set(syms[:nelim]))]
        if not theirs:
            assert not ours, (gens, ours)
            return
        order = BlockOrder(nelim, nvars)
        for e in theirs:
            assert reduce_poly(from_sympy(sympy, e, syms), ours, order).is_zero(), (gens, e)
        for p in ours:
            _, rem = sympy.reduced(to_sympy(sympy, p, syms), theirs, *syms,
                                   order="lex", domain=sympy.QQ)
            assert rem == 0, (gens, p)


class TestReductionCost:
    def test_reduction_builds_only_its_result(self, monkeypatch):
        order = Grevlex(3)
        t, u, v = (Poly.variable(i, QQ, 3) for i in range(3))
        basis = buchberger([t * t - u * v, u * u * u - t * v + v], order)
        monos = sorted((m for m in product(range(5), repeat=3)
                        if sum(m) <= 4), reverse=True)[:30]
        f = Poly({m: Fraction(k + 1, k % 4 + 2) for k, m in enumerate(monos)}, QQ, 3)
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
