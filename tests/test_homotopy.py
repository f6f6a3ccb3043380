"""Decision procedures and witness verification on the blown-up fiber."""

import dataclasses
import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nodalwitness.blowuptree import (
    NODE_LEFT,
    NODE_RIGHT,
    BasePoint,
    BlowupTree,
    FreePoint,
    LinePoint,
    NodePos,
    TreeVertex,
)
from nodalwitness.dvrseries import Series
from nodalwitness import homotopy, polyring, verify
from nodalwitness.errors import (
    ConsistencyFailure,
    DegreeCapExceeded,
    DivisionImpossible,
    LiftRequired,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
    UnsupportedSupport,
)
from nodalwitness.farey import INF, ZERO, Slope
from nodalwitness.homotopy import (
    CHART_FINITE,
    CHART_INFINITE,
    LEVEL_CHAIN,
    LEVEL_GHOST1,
    REGIME_CLOSED_TO_GENERIC,
    REGIME_DEGENERATE,
    REGIME_MAIN,
    AvoidIdeal,
    ChainWitness,
    GammaData,
    GhostWitness,
    Homotopic,
    Interior,
    NodeLoc,
    NotHomotopic,
    OffNodal,
    SectionData,
    StraightLine,
    Undecidable,
    YForm,
    build_ghost_witness,
    build_straightline,
    classify_gamma,
    closed_point_image,
    cover_transform,
    decide_general,
    decide_nodal,
    location_slopes,
    partition_classes,
    shift_section,
    verdict_to_json,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from nodalwitness.localring import (
    MODEL_BIVARIATE,
    MODEL_DVR,
    PolyExt,
    RingElement,
    pair_principal,
    parse_element,
    unit_multiple,
    parse_polyext,
    polyext_to_text,
)
from nodalwitness.surface import NodalSurface
from nodalwitness.verify import VerificationReport


def dvr(text):
    return parse_element(text, MODEL_DVR)


def biv(text):
    return parse_element(text, MODEL_BIVARIATE)


def pe(text, model=MODEL_DVR):
    return parse_polyext(text, model)


def chain_surface(*labels):
    return NodalSurface(tuple(Slope(a, 1) for a in labels) + (INF,))


def sec(g, text, chart=CHART_FINITE, model=MODEL_DVR):
    return SectionData(g, parse_element(text, model), chart)


X1 = chain_surface(0, 1)  # one blowup: lines l_0, l_1, l_inf
X2 = chain_surface(0, 1, 2)
G2 = GammaData(dvr("x^2"))
G3 = GammaData(dvr("x^3"))


def failing_names(report):
    return [c.name for c in report.failures()]


# --- strategies -------------------------------------------------------------

small_int = st.integers(-4, 4)


@st.composite
def dvr_units(draw, max_tail=3):
    lead = draw(small_int.filter(lambda c: c != 0))
    tail = draw(st.lists(small_int, max_size=max_tail))
    return Series.make(0, [Fraction(lead)] + [Fraction(c) for c in tail], True)


@st.composite
def dvr_sections(draw, g, min_val=1, max_val=3):
    v = draw(st.integers(min_val, max_val))
    u = draw(dvr_units())
    return SectionData(g, dvr(f"x^{v}") * u)


# r0 and its proper monomial divisors: values strictly inside its window
BIV_WINDOWS = [("u^2", ["u"]), ("u^3", ["u", "u^2"]), ("u^2*v", ["u", "v", "u*v", "u^2"])]


@st.composite
def node_window_pairs(draw):
    """Two sections strictly between 1 and r0: DVR x^v*unit, or bivariate
    divisors of r0 times units c + a*u + b*v.  Half the time the second is
    the first times a residue-1 unit, where the radical test decides."""
    coeff = st.integers(-1, 1)
    if draw(st.booleans()):
        v0 = draw(st.integers(2, 4))
        g = GammaData(dvr(f"x^{v0}"))
        values = dvr_sections(g, 1, v0 - 1)
        tail = dvr(f"1 + {draw(coeff)}*x + {draw(coeff)}*x^2")
    else:
        r0, divisors = draw(st.sampled_from(BIV_WINDOWS))
        g = GammaData(biv(r0))
        values = st.builds(
            lambda m, c, a, b: SectionData(g, biv(f"({m})*({c} + {a}*u + {b}*v)")),
            st.sampled_from(divisors), st.integers(1, 2), coeff, coeff,
        )
        tail = biv(f"1 + {draw(coeff)}*u + {draw(coeff)}*v")
    s1 = draw(values)
    if draw(st.booleans()):
        return s1, SectionData(g, s1.r * tail)
    return s1, draw(values)


@st.composite
def chains(draw, min_lines=1, max_lines=5):
    """A unimodular chain with min_lines to max_lines finite lines past l_0:
    the integer lines up to a top of at most 3, then blowups of nodes below
    it."""
    top = draw(st.integers(min_lines, min(3, max_lines)))
    X = chain_surface(*range(top + 1))
    n = draw(st.integers(top, max_lines)) if top else 0  # P^1 has no node below
    while len(X.lines) - 2 < n:
        X = X.blowup_node(draw(st.integers(0, X.node_count - 2)))
    return X


# primes of the bivariate base, all in its maximal ideal
BIV_PRIMES = ("u", "v", "u + v", "u - v^2")


BIV_UNITS = st.sampled_from(["1", "2", "1 + u", "1 - v", "3 + u*v"])


def biv_product(exps, unit):
    factors = [f"({p})^{e}" for p, e in zip(BIV_PRIMES, exps) if e]
    return biv("*".join(factors + [f"({unit})"]))


@st.composite
def biv_exponents(draw):
    """Exponents of BIV_PRIMES, of total degree at most 3."""
    exps = [0] * len(BIV_PRIMES)
    for _ in range(draw(st.integers(0, 3))):
        exps[draw(st.integers(0, len(BIV_PRIMES) - 1))] += 1
    return exps


@st.composite
def main_pairs(draw):
    """A chain X and two finite-chart sections over a main-regime r0 in one
    ring model.  r0 is a power b^j of one element, and most values are
    powers b^i strictly between 1 and the top of X, so that they compare
    with r0 on every line and land in the shift branches; half the time
    the second value is the first times a unit, in the same region."""
    X = draw(chains())
    top = X.lines[-2].a
    j = draw(st.integers(2, 3))  # so that values take fractional slopes

    def exponent():
        if draw(st.integers(0, 3)) == 0:
            return draw(st.integers(0, top * j))
        return draw(st.integers(1, max(1, top * j - 1)))

    if draw(st.booleans()):
        g = GammaData(dvr(f"x^{j}") * draw(dvr_units()))
        value = lambda: dvr(f"x^{exponent()}") * draw(dvr_units())
        unit = lambda: draw(dvr_units())
    else:
        base = draw(st.sampled_from(["u", "u + v", "u*v", "u - v^2"]))
        g = GammaData(biv(f"({base})^{j}*({draw(BIV_UNITS)})"))
        unit = lambda: biv(draw(BIV_UNITS))

        def value():
            if draw(st.integers(0, 3)) == 0:  # often incomparable with r0
                return biv_product(draw(biv_exponents()), draw(BIV_UNITS))
            return biv(f"({base})^{exponent()}*({draw(BIV_UNITS)})")

    s1 = SectionData(g, value())
    r2 = s1.r * unit() if draw(st.booleans()) else value()
    return X, (s1, SectionData(g, r2))


# --- regimes ---------------------------------------------------------------


class TestRegimes:
    def test_classification(self):
        assert classify_gamma(GammaData(dvr("0"))) == REGIME_DEGENERATE
        assert classify_gamma(GammaData(dvr("3"))) == REGIME_CLOSED_TO_GENERIC
        assert classify_gamma(GammaData(dvr("1 + x"))) == REGIME_CLOSED_TO_GENERIC
        assert classify_gamma(GammaData(dvr("x"))) == REGIME_MAIN
        assert classify_gamma(G2) == REGIME_MAIN

    def test_degenerate_always_connects(self):
        g = GammaData(dvr("0"))
        v = decide_nodal(X1, sec(g, "1 + x"), sec(g, "7"))
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert verify_witness(X1, g, v.witness, (sec(g, "1 + x"), sec(g, "7")))

    def test_unit_base_always_connects(self):
        g = GammaData(dvr("2"))
        s1, s2 = sec(g, "x"), sec(g, "5 + x^3")
        v = decide_nodal(X2, s1, s2)
        assert isinstance(v, Homotopic)
        assert verify_witness(X2, g, v.witness, (s1, s2))

    def test_nonmain_mixed_charts_route_through_height_one(self):
        g = GammaData(dvr("0"))
        s1 = sec(g, "x")
        s2 = sec(g, "x", CHART_INFINITE)
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v.witness, ChainWitness)
        assert len(v.witness.pieces) == 2
        assert verify_witness(X1, g, v.witness, (s1, s2))


# --- locations on the special fiber ----------------------------------------


class TestLocations:
    def test_unit_value_sits_on_the_zero_line(self):
        assert closed_point_image(X1, sec(G2, "1 + x")) == Interior(ZERO)

    def test_pole_chart_is_off_the_nodal_part(self):
        loc = closed_point_image(X1, sec(G2, "x", CHART_INFINITE))
        assert loc == OffNodal()
        assert location_slopes(loc) == frozenset({ZERO})

    def test_zero_section_runs_into_the_last_node(self):
        assert closed_point_image(X1, sec(G2, "0")) == NodeLoc(Slope(1, 1), INF)

    def test_interior_of_a_middle_line(self):
        # r = x^2 * unit and r0 = x^2: the section crosses l_1 away from nodes
        assert closed_point_image(X2, sec(G2, "x^2 + x^3")) == Interior(Slope(1, 1))

    def test_halfway_values_sit_at_the_node(self):
        # r = x * unit has slope 1/2 against r0 = x^2, between l_0 and l_1
        assert closed_point_image(X2, sec(G2, "x + x^2")) == NodeLoc(
            ZERO, Slope(1, 1)
        )

    def test_node_between_lines(self):
        g = G3
        # val 1 on the chain for x^3: below l_1... x divides x^3, x^3 not| x
        loc = closed_point_image(chain_surface(0, 1, 2, 3), sec(g, "x"))
        assert loc == NodeLoc(ZERO, Slope(1, 1))
        loc2 = closed_point_image(chain_surface(0, 1, 2, 3), sec(g, "x^2"))
        assert loc2 == NodeLoc(ZERO, Slope(1, 1)) or isinstance(loc2, Interior)

    def test_fractional_interior(self):
        # r0 = x^2, r = x: on the surface with l_{1/2} the section is interior
        X = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        assert closed_point_image(X, sec(G2, "x")) == Interior(Slope(1, 2))

    def test_top_node_when_value_is_much_deeper(self):
        assert closed_point_image(X1, sec(G2, "x^4")) == NodeLoc(Slope(1, 1), INF)

    def test_bivariate_node(self):
        g = GammaData(biv("u*v"))
        loc = closed_point_image(X1, SectionData(g, biv("u")))
        assert loc == NodeLoc(ZERO, Slope(1, 1))

    def test_bivariate_incomparable_needs_a_lift(self):
        g = GammaData(biv("u"))
        with pytest.raises(LiftRequired):
            closed_point_image(X1, SectionData(g, biv("v")))

    def test_location_strings(self):
        assert str(Interior(Slope(1, 2))) == "interior(l_1/2)"
        assert str(NodeLoc(ZERO, Slope(1, 1))) == "node(l_0, l_1)"
        assert str(OffNodal()) == "off-nodal-region"

    def test_slope_sets(self):
        assert location_slopes(Interior(Slope(1, 1))) == frozenset({Slope(1, 1)})
        assert location_slopes(NodeLoc(ZERO, Slope(1, 1))) == frozenset(
            {ZERO, Slope(1, 1)}
        )
        assert location_slopes(NodeLoc(Slope(2, 1), INF)) == frozenset(
            {Slope(2, 1)}
        )


def lifts(X, s) -> bool:
    """Whether closed_point_image locates s on X without LiftRequired."""
    try:
        closed_point_image(X, s)
    except LiftRequired:
        return False
    return True


class TestLifts:
    """closed_point_image raises LiftRequired exactly for a section that does
    not factor through X."""

    def test_monomial_sections_lift(self):
        assert closed_point_image(X1, sec(G2, "x")) == NodeLoc(ZERO, Slope(1, 1))
        assert closed_point_image(X1, sec(G2, "x^2 + x^5")) == Interior(Slope(1, 1))

    def test_pole_chart_always_lifts(self):
        g = GammaData(biv("u"))
        pole = SectionData(g, biv("v"), CHART_INFINITE)
        assert closed_point_image(X1, pole) == OffNodal()

    def test_bivariate_obstruction(self):
        g = GammaData(biv("u"))
        with pytest.raises(LiftRequired):
            closed_point_image(X1, SectionData(g, biv("v")))
        assert closed_point_image(X1, SectionData(g, biv("u + u*v"))) == Interior(
            Slope(1, 1)
        )

    @pytest.mark.parametrize("model", [MODEL_DVR, MODEL_BIVARIATE])
    def test_the_zero_ideal_is_principal(self, model):
        # r0 = r = 0: every node ideal is <0, 0>, generated by 0.  Locations
        # are defined in the main regime only, and outside it the decision
        # connects without one
        zero = parse_element("0", model)
        other = parse_element("x" if model == MODEL_DVR else "u", model)
        g = GammaData(zero)
        with pytest.raises(PreconditionViolated):
            closed_point_image(X2, SectionData(g, zero))
        verdict = decide_nodal(X2, SectionData(g, zero), SectionData(g, other))
        assert isinstance(verdict, Homotopic) and verdict.level == LEVEL_CHAIN

    @settings(max_examples=200, deadline=None)
    @given(case=main_pairs())
    def test_lifts_agrees_with_the_node_ideals(self, case):
        # the definition, kept here as the oracle: LiftRequired is raised
        # exactly when some <r0^a, r^b> on a line of X is not principal
        X, pair = case
        for s in pair:
            r, r0 = s.r, s.gamma.r0
            principal = all(
                pair_principal(r0**t.a, r**t.b) is not None for t in X.lines[1:-1]
            )
            assert lifts(X, s) == principal


class TestLocatedRegions:
    """What locating a pair settles, so the decision never checks it again."""

    @settings(max_examples=300, deadline=None)
    @given(case=main_pairs())
    def test_location_settles_every_later_comparison(self, case):
        X, pair = case
        try:
            regions = {location_slopes(closed_point_image(X, s)) for s in pair}
        except LiftRequired:
            return
        if len(regions) != 1:
            return
        (region,) = regions
        if region in ({ZERO}, {X.lines[-2]}):
            return  # the free regions shift nothing
        left = min(region)
        k = left.floor()
        shifted = [shift_section(s, k).r for s in pair]  # never DivisionImpossible
        r0 = pair[0].gamma.r0
        for w in shifted:
            assert pair_principal(r0, w) is not None
        if len(region) == 1 and left.is_integer:
            assert all(w.is_unit() for w in shifted)
            assert unit_multiple(*shifted).is_unit()


    @example(case=(chain_surface(0, 1, 2), (
        SectionData(GammaData(biv("u^2")), biv("u^2")),
        SectionData(GammaData(biv("u^2")), biv("u^2*(1 - v)")),
    )))
    @settings(max_examples=100, deadline=None)
    @given(case=main_pairs())
    def test_every_built_witness_verifies(self, case):
        # a bivariate pair on a middle integer line whose residues agree
        # only at the closed point (delta a nonunit outside sqrt(r0), as
        # r0 = u^2, values u^2 and u^2*(1 - v) on [0, 1, 2, inf]) used to
        # get a straight line that fails line-lift; it now abstains
        X, pair = case
        try:
            v = decide_nodal(X, *pair)
        except LiftRequired:
            return
        if isinstance(v, Homotopic):
            report = verify_witness(X, pair[0].gamma, v.witness, pair)
            assert report, (X.lines, [s.r for s in pair], str(report))


class TestShift:
    def test_single_shift(self):
        s = shift_section(sec(G2, "x^3 + x^4"), 1)
        assert s.r == dvr("x + x^2")

    def test_zero_shift_is_identity(self):
        s = sec(G2, "x^3")
        assert shift_section(s, 0) is s

    def test_shift_drops_the_location_slope(self):
        X = chain_surface(0, 1, 2, 3)
        s = sec(G3, "x^6 + x^7")
        before = closed_point_image(X, s)
        after = closed_point_image(X, shift_section(s, 1))
        assert isinstance(before, Interior) and isinstance(after, Interior)
        assert before.slope.a - after.slope.a == 1

    def test_impossible_shift(self):
        with pytest.raises(DivisionImpossible):
            shift_section(sec(G2, "x"), 1)

    def test_bad_arguments(self):
        with pytest.raises(PreconditionViolated):
            shift_section(sec(G2, "x^2"), -1)
        with pytest.raises(PreconditionViolated):
            shift_section(sec(G2, "x^2", CHART_INFINITE), 1)


# --- witness builders -------------------------------------------------------


class TestBuilders:
    def test_straightline_path(self):
        line = build_straightline(sec(G2, "x^2"), sec(G2, "x^2 + x^3"))
        assert polyext_to_text(line.path) == "x^2 + x^3 + (-x^3)*T"
        assert line.chart == CHART_FINITE

    def test_straightline_needs_divisible_values(self):
        with pytest.raises(PreconditionViolated):
            build_straightline(sec(G2, "x"), sec(G2, "x^2"))

    def test_straightline_needs_finite_charts(self):
        with pytest.raises(PreconditionViolated):
            build_straightline(sec(G2, "x^2"), sec(G2, "x", CHART_INFINITE))

    def test_ghost_fields(self):
        w = build_ghost_witness(sec(G2, "x"), sec(G2, "x + x^2"))
        assert w.shift == 0
        assert str(w.blown_center) == str(dvr("x"))
        assert w.blown_center == dvr("x") and w.v2_unit == dvr("x")
        assert polyext_to_text(w.h1) == "1 + (x)*S"
        assert [polyext_to_text(e) for e in w.excluded] == ["x", "1 + (x)*S"]
        assert polyext_to_text(w.h2) == "1"
        assert polyext_to_text(w.hw_num) == "1 + (x)*S*T"
        assert polyext_to_text(w.hw_den) == "1 + (x)*S"

    def test_ghost_degenerates_for_equal_values(self):
        # delta = 0: the sweep is constant and every clause is immediate
        s = sec(G2, "x")
        w = build_ghost_witness(s, s)
        assert polyext_to_text(w.h1) == "1"
        assert verify_witness(X1, G2, w, (s, s))

    def test_ghost_window_precondition(self):
        # r = r0: the blown center must be strictly between 1 and r0
        with pytest.raises(PreconditionViolated):
            build_ghost_witness(sec(G2, "x^2"), sec(G2, "x^2 + x^3"))
        with pytest.raises(PreconditionViolated):
            build_ghost_witness(sec(G2, "1 + x"), sec(G2, "1 + x"))

    def test_ghost_radical_precondition(self):
        # residues 1 and 2 differ: no sweep exists
        with pytest.raises(PreconditionViolated):
            build_ghost_witness(sec(G2, "x"), sec(G2, "2*x"))

    def test_ghost_rejects_non_unit_ratio(self):
        with pytest.raises(PreconditionViolated):
            build_ghost_witness(sec(G2, "x"), sec(G2, "x^2"))


# --- the verifier -----------------------------------------------------------


def fresh_ghost():
    s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
    v = decide_nodal(X1, s1, s2)
    assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
    return v.witness, s1, s2


class TestVerify:
    def test_accepts_the_built_ghost(self):
        w, s1, s2 = fresh_ghost()
        report = verify_witness(X1, G2, w, (s1, s2))
        assert report.ok and bool(report)
        assert {c.name for c in report.clauses} >= {
            "endpoints",
            "cover",
            "gluing",
            "avoidance",
        }

    def test_accepts_a_straight_line(self):
        s1, s2 = sec(G2, "x^2"), sec(G2, "x^2 + x^4")
        line = build_straightline(s1, s2)
        report = verify_witness(X1, G2, line, (s1, s2))
        assert report.ok
        assert "line-lift" in {c.name for c in report.clauses}

    def test_rejects_a_swapped_line(self):
        s1, s2 = sec(G2, "x^2"), sec(G2, "x^2 + x^4")
        line = build_straightline(s2, s1)
        report = verify_witness(X1, G2, line, (s1, s2))
        assert failing_names(report) == ["endpoints"]

    def test_line_lift_failure_is_caught(self):
        # the straight path from x to x(1+x) does lift; from x to 3x it
        # degenerates at T where 1+2T kills the unit, but stays principal,
        # so use incomparable bivariate values instead
        g = GammaData(biv("u^2"))
        s1 = SectionData(g, biv("u^2"))
        s2 = SectionData(g, biv("u^2 + u^2*v"))
        line = build_straightline(s1, s2)
        assert verify_witness(X1, g, line, (s1, s2))
        bad = StraightLine(pe("(u^2) + (u*v)*T", MODEL_BIVARIATE), CHART_FINITE)
        report = verify_witness(X1, g, bad, (s1, SectionData(g, biv("u^2 + u*v"))))
        assert "line-lift" in failing_names(report)

    # The four single-clause corruptions.  Each one leaves the other three
    # clauses intact, so the report must name exactly the broken clause.

    def test_mutation_endpoints(self):
        w, s1, s2 = fresh_ghost()
        h1m = w.h1 + pe("(x)*S")
        one = pe("1")
        m = dataclasses.replace(
            w, h1=h1m, hw_den=h1m, hw_num=one + (h1m - one) * pe("T")
        )
        assert failing_names(verify_witness(X1, G2, m, (s1, s2))) == ["endpoints"]

    def test_mutation_cover(self):
        w, s1, s2 = fresh_ghost()
        m = dataclasses.replace(w, excluded=(pe("(x) + (x^2)*S"),))
        assert failing_names(verify_witness(X1, G2, m, (s1, s2))) == ["cover"]

    def test_mutation_gluing(self):
        w, s1, s2 = fresh_ghost()
        m = dataclasses.replace(w, hw_num=pe("1 + (2*x)*S*T"))
        assert failing_names(verify_witness(X1, G2, m, (s1, s2))) == ["gluing"]

    def test_mutation_avoidance(self):
        # a detour sweep with the same ends that crosses the blown-up node
        # at interior parameter values; the gluing data is rebuilt so that
        # only the avoidance clause can object
        w, s1, s2 = fresh_ghost()
        h1m = w.h1 + pe("S^2") - pe("S")
        one = pe("1")
        m = dataclasses.replace(
            w, h1=h1m, hw_den=h1m, hw_num=one + (h1m - one) * pe("T")
        )
        report = verify_witness(X1, G2, m, (s1, s2))
        assert failing_names(report) == ["avoidance"]
        detail = next(c.detail for c in report.failures())
        assert "V1" in detail

    def test_unit_delta_witness_is_rejected(self):
        # replacing the sweep increment by a unit breaks the cover: the two
        # pieces no longer reach the whole closed fiber of the S-line
        w, s1, s2 = fresh_ghost()
        m = dataclasses.replace(
            w,
            h1=pe("1 + S"),
            excluded=(pe("x"), pe("1 + S")),
            hw_den=pe("1 + S"),
            hw_num=pe("1 + S*T"),
        )
        report = verify_witness(X1, G2, m, (s1, s2))
        assert not report
        assert "cover" in failing_names(report)

    def test_caller_avoid_entries(self):
        # an extra excluded point at y''=1 sits right under the sweep start,
        # while y''=3 is harmless
        w, s1, s2 = fresh_ghost()
        one = dvr("1")
        hit = AvoidIdeal(
            base=(G2.r0,), forms=(YForm(one, -one, 1),), label="unit point"
        )
        miss = AvoidIdeal(base=(G2.r0,), forms=(YForm(one, -dvr("3"), 1),))
        assert not verify_witness(X1, G2, w, (s1, s2), [hit])
        assert verify_witness(X1, G2, w, (s1, s2), [miss])

    def test_ghost_endpoints_must_be_in_the_finite_chart(self):
        w, s1, s2 = fresh_ghost()
        pole_side = SectionData(s2.gamma, s2.r, CHART_INFINITE)
        report = verify_witness(X1, G2, w, (s1, pole_side))
        assert [(c.name, c.detail) for c in report.failures()] == [
            ("endpoints", "ghost endpoints live in the finite chart")
        ]

    def test_unit_ideal_avoid_entry_obstructs_nothing(self):
        w, s1, s2 = fresh_ghost()
        entry = AvoidIdeal(base=(dvr("1"),), forms=())  # the empty locus
        assert verify_witness(X1, G2, w, (s1, s2), [entry])

    def test_chain_verification(self):
        g = GammaData(dvr("0"))
        s1 = sec(g, "x")
        s2 = sec(g, "x", CHART_INFINITE)
        v = decide_nodal(X1, s1, s2)
        report = verify_witness(X1, g, v.witness, (s1, s2))
        assert report.ok
        # break the joint: reverse the second piece
        w = v.witness
        flipped = ChainWitness((w.pieces[0], w.pieces[0]))
        report2 = verify_witness(X1, g, flipped, (s1, s2))
        assert not report2

    @pytest.mark.parametrize(
        "model, r0, s1, s2",
        [
            (MODEL_DVR, "x^2 + x^3", "x", "x + x^2"),
            (MODEL_BIVARIATE, "u^2 + u^2*v", "u", "u + u^2 + u^2*v"),
        ],
    )
    def test_huge_shift_is_refused_by_orders(self, model, r0, s1, s2):
        # 3000 * ord(r0) > ord(r): refused before r0^3000, which takes tens
        # of seconds to build in either model
        self.assert_huge_shift_refused_fast(model, r0, s1, s2, r0)

    @pytest.mark.parametrize(
        "model, r0, s1, s2, unit",
        [
            (MODEL_DVR, "x^2 + x^3", "x", "x + x^2", "1 + x"),
            (MODEL_BIVARIATE, "u^2 + u^2*v", "u", "u + u^2 + u^2*v", "1 + u"),
        ],
    )
    def test_huge_shift_over_a_unit_r0_is_refused(self, model, r0, s1, s2, unit):
        # orders refuse nothing when ord(r0) = 0, but ghosts live in the
        # main regime, where r0 is not a unit: the same ghost, checked
        # against a unit r0, is refused before r0^3000 is built
        self.assert_huge_shift_refused_fast(model, r0, s1, s2, unit)

    @staticmethod
    def assert_huge_shift_refused_fast(model, r0, s1, s2, verify_r0):
        """A ghost built over r0, with shift 3000, verified over verify_r0."""
        g = GammaData(parse_element(r0, model))
        w = dataclasses.replace(
            build_ghost_witness(sec(g, s1, model=model), sec(g, s2, model=model)),
            shift=3000,
        )
        g = GammaData(parse_element(verify_r0, model))
        sections = (sec(g, s1, model=model), sec(g, s2, model=model))
        start = time.perf_counter()
        report = verify_witness(X1, g, w, sections)
        assert time.perf_counter() - start < 2.0
        assert [(c.name, c.detail) for c in report.clauses] == [
            ("endpoints", "sections do not shift by the recorded k")
        ]

    @pytest.mark.parametrize(
        "model, r0, s1, s2",
        [
            (MODEL_DVR, "x^2 + x^3", "x", "x + x^2"),
            (MODEL_BIVARIATE, "u^2 + u^2*v", "u", "u + u^2 + u^2*v"),
        ],
    )
    def test_huge_shift_of_zero_values_builds_no_power(self, model, r0, s1, s2):
        # 0 / r0^k = 0, so zero section values shift at once: the report is
        # the one a shift of 100 gives, without r0^(10^6), which never
        # finishes in either model
        g = GammaData(parse_element(r0, model))
        ghost = build_ghost_witness(sec(g, s1, model=model), sec(g, s2, model=model))
        zeros = (sec(g, "0", model=model), sec(g, "0", model=model))
        small = verify_witness(X1, g, dataclasses.replace(ghost, shift=100), zeros)
        start = time.perf_counter()
        report = verify_witness(X1, g, dataclasses.replace(ghost, shift=10**6), zeros)
        assert time.perf_counter() - start < 2.0
        assert report.clauses == small.clauses
        assert failing_names(report) == ["endpoints"]

    def test_chain_rejects_non_line_pieces(self):
        w, s1, s2 = fresh_ghost()
        report = verify_witness(X1, G2, ChainWitness((w,)), (s1, s2))
        assert any(c.name.endswith("shape") for c in report.failures())

    def test_verifier_reports_instead_of_raising(self):
        w, s1, s2 = fresh_ghost()
        # a witness from the wrong ring model is well-formedness, not a crash
        alien = dataclasses.replace(
            w, h1=pe("1 + (u)*S", MODEL_BIVARIATE)
        )
        report = verify_witness(X1, G2, alien, (s1, s2))
        assert not report
        assert "well-formed" in failing_names(report)

    @settings(max_examples=40, deadline=None)
    @given(
        val=st.integers(1, 2),
        c1=small_int,
        c2=small_int,
    )
    def test_fuzzed_ghost_reports_never_raise(self, val, c1, c2):
        w, s1, s2 = fresh_ghost()
        noise = pe(f"({c1}) + ({c2}*x)*S") if (c1, c2) != (0, 0) else pe("x")
        m = dataclasses.replace(w, h1=w.h1 + noise.scale(dvr(f"x^{val}")))
        report = verify_witness(X1, G2, m, (s1, s2))
        assert isinstance(bool(report), bool)


def corrupted(model, r0, a, b, how):
    """Instance and witness decide_nodal builds on X1, the ghost's first
    piece optionally rerouted (how="h1") or its second piece bent
    (how="h2"); the overlap data follow the first piece."""
    g = GammaData(parse_element(r0, model))
    s1, s2 = sec(g, a, model=model), sec(g, b, model=model)
    w = decide_nodal(X1, s1, s2).witness
    one, S, T = (pe(t, model) for t in ("1", "S", "T"))
    if how == "h1":
        h1m = w.h1 + S * S - S
        w = dataclasses.replace(w, h1=h1m, hw_den=h1m, hw_num=one + (h1m - one) * T)
    elif how == "h2":
        w = dataclasses.replace(w, h2=w.h2 + S * S - S)
    return g, w, (s1, s2)


class TestAvoidanceDetail:
    """A witness that meets an excluded locus fails `avoidance` with a
    detail naming the piece and the entry's label, as when the clause
    asked once per complement generator."""

    @pytest.mark.parametrize("model, r0, a, b, how, points, detail", [
        (MODEL_DVR, "x^2", "x", "x + x^2", "h1", (),
         "V1 meets the excluded locus center <r0/r, Y0>"),
        (MODEL_DVR, "x^3", "x", "x*(1+x)", "h1", (),
         "V1 meets the excluded locus center <r0/r, Y0>"),
        (MODEL_DVR, "x^3", "x^2", "x^2*(1+2*x)", None,
         (("3", "miss"), ("1", "unit point")), "V1 meets the excluded locus unit point"),
        (MODEL_DVR, "x^2", "x", "x + x^2", None, (("1", None),),
         "V1 meets the excluded locus center"),
        (MODEL_BIVARIATE, "u^2", "u", "u*(1+u)", "h1", (),
         "V1 meets the excluded locus center <r0/r, Y0>"),
        (MODEL_BIVARIATE, "u*v", "u", "u*(1+v)", "h2", (),
         "V2 meets the excluded locus center <r0/r, Y0>"),
        (MODEL_BIVARIATE, "u*v", "u", "u*(1+v)", None,
         (("3", "miss"), ("1", "unit point")), "V1 meets the excluded locus miss"),
        (MODEL_BIVARIATE, "u^2", "u", "u*(1+u)", None,
         (("3", "miss"), ("1", "unit point")), "V1 meets the excluded locus unit point"),
        (MODEL_BIVARIATE, "u^2", "u^2", "u^2 + u^2*v", None, (("0", "zero section"),),
         "path meets the excluded locus zero section"),
    ])
    def test_detail_names_the_piece_and_the_entry(self, model, r0, a, b, how, points, detail):
        g, w, sections = corrupted(model, r0, a, b, how)
        one = RingElement.one(model)
        entries = [
            AvoidIdeal(base=(g.r0,), forms=(YForm(one, -parse_element(c, model), 1),),
                       label=label)
            for c, label in points
        ]
        report = verify_witness(X1, g, w, sections, entries)
        assert [c.detail for c in report.failures() if c.name == "avoidance"] == [detail]

    @pytest.mark.parametrize("model, r0, a, b", [
        (MODEL_DVR, "x^2", "x", "x + x^2"),
        (MODEL_BIVARIATE, "u*v", "u", "u*(1+v)"),
    ])
    def test_one_radical_query_per_piece_and_entry(self, model, r0, a, b, monkeypatch):
        # three pieces (V1, V2 and their overlap W) times the two centers
        calls = []
        query = verify.ext_radical_membership
        monkeypatch.setattr(verify, "ext_radical_membership",
                            lambda fs, gens: calls.append(len(fs)) or query(fs, gens))
        g, w, sections = corrupted(model, r0, a, b, None)
        assert verify_witness(X1, g, w, sections)
        assert len(calls) == 6 and max(calls) == len(w.excluded)


# --- the nodal decision -----------------------------------------------------


class TestDecideNodal:
    def test_ghost_example(self):
        s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert isinstance(v.witness, GhostWitness)
        assert verify_witness(X1, G2, v.witness, (s1, s2))

    def test_exact_values_agreeing_past_the_precision_are_decided(self):
        # the shifted values (x^2+x^3)*x/(x^2+x^3) stay exact, so the
        # x^20 difference is seen instead of exhausting the precision
        g = GammaData(dvr("x^2 + x^3"))
        s1 = sec(g, "(x^2+x^3)*x")
        s2 = sec(g, "(x^2+x^3)*x*(1+x^20)")
        v = decide_nodal(X2, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert verify_witness(X2, g, v.witness, (s1, s2))

    def test_distinct_residues_obstruct(self):
        v = decide_nodal(X1, sec(G2, "x"), sec(G2, "2*x"))
        assert isinstance(v, NotHomotopic)
        assert v.delta is not None and v.delta.is_unit()
        assert v.ideal is not None

    def test_matching_sections_connect_by_a_line(self):
        g = GammaData(dvr("x"))
        s1, s2 = sec(g, "x"), sec(g, "x")
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic)
        assert verify_witness(X1, g, v.witness, (s1, s2))

    @pytest.mark.parametrize(
        "t1, t2, chart2",
        [("x", "x^2", CHART_FINITE), ("x", "1 + x", CHART_FINITE),
         ("x", "x", CHART_INFINITE), ("0", "x", CHART_FINITE)],
    )
    def test_the_unblown_line_connects_everything(self, t1, t2, chart2):
        # P^1 has no node, so no section is pinned to a region
        X = NodalSurface.p1()
        s1, s2 = sec(G2, t1), sec(G2, t2, chart2)
        v = decide_nodal(X, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert verify_witness(X, G2, v.witness, (s1, s2))

    def test_location_mismatch(self):
        v = decide_nodal(X1, sec(G2, "x"), sec(G2, "1 + x"))
        assert isinstance(v, NotHomotopic)
        assert "different fiber regions" in v.reason

    def test_zero_line_region_is_free(self):
        s1 = sec(G2, "1 + x")
        s2 = sec(G2, "5")
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert v.witness.chart == CHART_INFINITE
        assert verify_witness(X1, G2, v.witness, (s1, s2))

    def test_zero_line_region_mixed_charts(self):
        s1 = sec(G2, "1 + x")
        s2 = sec(G2, "1", CHART_INFINITE)
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic)
        assert verify_witness(X1, G2, v.witness, (s1, s2))

    def test_top_region_is_free(self):
        # residues differ, but the top line carries no rigidity
        s1, s2 = sec(G2, "x^2"), sec(G2, "3*x^2 + x^3")
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert verify_witness(X1, G2, v.witness, (s1, s2))

    def test_middle_line_is_rigid(self):
        X = chain_surface(0, 1, 2)
        g = GammaData(dvr("x"))
        v = decide_nodal(X, sec(g, "x"), sec(g, "2*x"))
        assert isinstance(v, NotHomotopic)
        assert "rigid" in v.reason
        s1, s2 = sec(g, "x"), sec(g, "x + x^2")
        v2 = decide_nodal(X, s1, s2)
        assert isinstance(v2, Homotopic) and v2.level == LEVEL_CHAIN
        assert verify_witness(X, g, v2.witness, (s1, s2))

    def test_deeper_node_shifts_first(self):
        X = chain_surface(0, 1, 2, 3)
        s1, s2 = sec(G2, "x^3"), sec(G2, "x^3 + x^4")
        v = decide_nodal(X, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert v.witness.shift == 1
        assert verify_witness(X, G2, v.witness, (s1, s2))
        v2 = decide_nodal(X, s1, sec(G2, "2*x^3"))
        assert isinstance(v2, NotHomotopic)

    def test_fractional_interior_uses_the_window(self):
        X = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
        v = decide_nodal(X, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert verify_witness(X, G2, v.witness, (s1, s2))

    def test_non_lifting_section_raises(self):
        g = GammaData(biv("u"))
        with pytest.raises(LiftRequired):
            decide_nodal(X1, SectionData(g, biv("v")), SectionData(g, biv("u")))

    def test_bivariate_ghost(self):
        g = GammaData(biv("u^2"))
        s1 = SectionData(g, biv("u"))
        s2 = SectionData(g, biv("u + u^2 + u^2*v"))
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert verify_witness(X1, g, v.witness, (s1, s2))

    def test_bivariate_ghost_spends_few_s_pairs(self, monkeypatch):
        # the CLI's bivariate query, decided and verified: 28 S-polynomials
        # with first-in first-out pairs, 10 with the Gebauer-Moller criteria
        calls = []
        s_poly = polyring.s_poly

        def counting(*args):
            calls.append(args)
            return s_poly(*args)

        monkeypatch.setattr(polyring, "s_poly", counting)
        g = GammaData(biv("u^2"))
        s1 = SectionData(g, biv("u"))
        s2 = SectionData(g, biv("u + u^2 + u^2*v"))
        v = decide_nodal(X1, s1, s2)
        assert verify_witness(X1, g, v.witness, (s1, s2))
        assert len(calls) <= 10

    def test_cli_budget_pair_reduces_four_s_pairs(self, monkeypatch):
        # the premise of the --groebner-cap tests in test_cli: deciding
        # this pair (TREE_PUNCTURED there) runs no Groebner, its radical
        # query being a gcd; certifying the ghost witness against the
        # residual puncture runs it 3 times, the first run reducing 4
        # S-pairs and none more than 4 (the base-ring rules of
        # `localring._ext_query` settle the rest of its queries)
        runs = []
        buchberger, s_poly = polyring.buchberger, polyring.s_poly

        def counting_run(*args):
            runs.append(0)
            return buchberger(*args)

        def counting_pair(*args):
            runs[-1] += 1
            return s_poly(*args)

        monkeypatch.setattr(polyring, "buchberger", counting_run)
        monkeypatch.setattr(polyring, "s_poly", counting_pair)
        g = GammaData(biv("u*v"))
        s1 = SectionData(g, biv("u"))
        s2 = SectionData(g, biv("u*(1 + u)"))
        t = tower(ORIGIN, FreePoint(Fraction(2)))
        assert isinstance(decide_nodal(X1, s1, s2), Homotopic)
        assert runs == []
        assert isinstance(decide_general(t, s1, s2), Homotopic)
        assert runs == [4, 4, 1]

    def test_bivariate_radical_without_membership(self):
        # r0 = u^4, values u^2*unit: the blown-center ideal is <u^2> and
        # delta = u lies in its radical but not in the ideal itself
        g = GammaData(biv("u^4"))
        s1 = SectionData(g, biv("u^2"))
        s2 = SectionData(g, biv("u^2 + u^3"))
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert verify_witness(X1, g, v.witness, (s1, s2))

    def test_bivariate_radical_obstruction(self):
        # delta = v stays visible on the closed fiber: no sweep can exist
        g = GammaData(biv("u^2"))
        s1 = SectionData(g, biv("u"))
        s2 = SectionData(g, biv("u + u*v"))
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, NotHomotopic)
        assert v.ideal is not None and v.delta == biv("v")

    def test_verdict_is_symmetric(self):
        s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
        assert decide_nodal(X1, s1, s2).tag == decide_nodal(X1, s2, s1).tag
        s3 = sec(G2, "2*x")
        assert decide_nodal(X1, s1, s3).tag == decide_nodal(X1, s3, s1).tag

    def test_reflexive(self):
        for text in ("x", "x^2", "1 + x", "0"):
            s = sec(G2, text)
            assert decide_nodal(X1, s, s).tag == "homotopic"

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITE])
    def test_identical_truncated_sections_connect_by_the_constant_path(self, chart):
        # a truncated value minus itself is zero only to the tracked order,
        # so the path must not be built as a difference
        s = sec(G2, "x/(1+x)", chart)
        assert not s.r.exact
        v = decide_nodal(X2, s, s)
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert v.witness.path == pe("x/(1+x)") and v.witness.chart == chart
        assert verify_witness(X2, G2, v.witness, (s, s))

    def test_sections_equal_to_the_tracked_order_connect_outside_the_main_regime(
        self,
    ):
        # r0 = 1 skips the regions; the pair agrees to the tracked order, so
        # the path must not be built as their difference
        g = GammaData(dvr("1"))
        s1, s2 = sec(g, "x + O(x^3)"), sec(g, "x + x^5")
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert v.witness.path.terms == {(0, 0): s1.r}
        assert verify_witness(X1, g, v.witness, (s1, s2))

    @settings(max_examples=60, deadline=None)
    @given(u1=dvr_units(), u2=dvr_units())
    def test_node_criterion_matches_the_residue_oracle(self, u1, u2):
        # r0 = x^2, values x*u: the blown-center ideal is <x, x>, so the
        # verdict must be "same residue" exactly
        s1 = SectionData(G2, dvr("x") * u1)
        s2 = SectionData(G2, dvr("x") * u2)
        v = decide_nodal(X1, s1, s2)
        same_residue = (u1.residue() - u2.residue()) == 0
        if same_residue:
            assert isinstance(v, Homotopic)
            assert verify_witness(X1, G2, v.witness, (s1, s2))
        else:
            assert isinstance(v, NotHomotopic)

    @settings(max_examples=40, deadline=None)
    @given(u1=dvr_units(), u2=dvr_units(), scale=dvr_units())
    def test_unit_scaling_invariance(self, u1, u2, scale):
        # y -> scale*y is an automorphism over the base fixing every line
        s1 = SectionData(G2, dvr("x") * u1)
        s2 = SectionData(G2, dvr("x") * u2)
        t1 = SectionData(G2, s1.r * scale)
        t2 = SectionData(G2, s2.r * scale)
        assert decide_nodal(X1, s1, s2).tag == decide_nodal(X1, t1, t2).tag

    @settings(max_examples=40, deadline=None)
    @given(u1=dvr_units(), u2=dvr_units(), k=st.integers(0, 2))
    def test_shift_invariance(self, u1, u2, k):
        # deciding at the node after k elementary transformations agrees
        # with deciding the shifted sections on the short chain
        g = GammaData(dvr("x^2"))
        long_chain = chain_surface(*range(k + 2))
        s1 = SectionData(g, dvr(f"x^{2 * k + 1}") * u1)
        s2 = SectionData(g, dvr(f"x^{2 * k + 1}") * u2)
        v_long = decide_nodal(long_chain, s1, s2)
        v_short = decide_nodal(
            X1, shift_section(s1, k), shift_section(s2, k)
        )
        assert v_long.tag == v_short.tag

    @settings(max_examples=60, deadline=None)
    @given(X=chains(min_lines=0), data=st.data())
    def test_exact_polynomials_decide_alike_in_both_models(self, X, data):
        # x -> u maps the DVR base faithfully flatly into the bivariate one,
        # so exact polynomial input gets one verdict tag in both models,
        # and both witnesses verify
        def poly(min_val):
            v = data.draw(st.integers(min_val, 4))
            cs = data.draw(st.lists(st.integers(-3, 3), max_size=2))
            cs.insert(0, data.draw(st.sampled_from([-2, -1, 1, 3])))
            return f"x^{v}*(" + " + ".join(f"({c})*x^{i}" for i, c in enumerate(cs)) + ")"

        r0t, r1t = poly(1), poly(0)
        r2t = data.draw(st.sampled_from([poly(0), f"({r1t})*(1 + x)", f"2*({r1t})"]))
        verdicts = []
        for model, var in ((MODEL_DVR, "x"), (MODEL_BIVARIATE, "u")):
            el = lambda t: parse_element(t.replace("x", var), model)
            g = GammaData(el(r0t))
            ss = (SectionData(g, el(r1t)), SectionData(g, el(r2t)))
            v = decide_nodal(X, *ss)
            if isinstance(v, Homotopic):
                assert verify_witness(X, g, v.witness, ss), (model, r0t, r1t, r2t)
            verdicts.append(v.tag)
        assert verdicts[0] == verdicts[1] != "undecidable", (r0t, r1t, r2t)

    def test_cross_model_coherence(self):
        # the same decision data expressed in both ring models must agree,
        # clause outcomes included
        cases = [
            ("x^2", "x", "x + x^2"),
            ("x^2", "x", "2*x"),
            ("x^3", "x", "x + x^2"),
            ("x^2", "x^2", "3*x^2"),
        ]
        for r0t, r1t, r2t in cases:
            gd = GammaData(dvr(r0t))
            gb = GammaData(biv(r0t.replace("x", "u")))
            sd = (sec(gd, r1t), sec(gd, r2t))
            sb = (
                SectionData(gb, biv(r1t.replace("x", "u"))),
                SectionData(gb, biv(r2t.replace("x", "u"))),
            )
            vd = decide_nodal(X1, *sd)
            vb = decide_nodal(X1, *sb)
            assert vd.tag == vb.tag, (r0t, r1t, r2t)
            if isinstance(vd, Homotopic):
                rd = verify_witness(X1, gd, vd.witness, sd)
                rb = verify_witness(X1, gb, vb.witness, sb)
                assert [(c.name, c.ok) for c in rd.clauses] == [
                    (c.name, c.ok) for c in rb.clauses
                ]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_decision_agrees_with_the_ghost_builder(self, data):
        # r0^k times a pair from the node window of [0, 1, inf] sits in the
        # window of [k, k+1]: the builder succeeds on the shifted pair
        # exactly when the decision answers ghost1, with the same witness
        # apart from the recorded shift
        w1, w2 = data.draw(node_window_pairs())
        assume(w1.r != w2.r)  # equal values connect by the constant line
        k = data.draw(st.integers(0, 2))
        lift = w1.gamma.r0 ** k
        s1, s2 = (SectionData(w.gamma, lift * w.r) for w in (w1, w2))
        v = decide_nodal(chain_surface(0, 1, 2, 3), s1, s2)
        try:
            w = build_ghost_witness(shift_section(s1, k), shift_section(s2, k))
        except PreconditionViolated:
            assert isinstance(v, NotHomotopic)
            return
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert v.witness.shift == k and w.shift == 0
        assert witness_to_json(
            dataclasses.replace(v.witness, shift=0)
        ) == witness_to_json(w)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_node_branch_sees_only_nonzero_nonunit_values(self, data):
        # the builder's zero, unit and chart guards are off the decision
        # path: whatever the sections, the blown-center criterion only ever
        # receives nonzero non-unit shifted values
        g = data.draw(st.sampled_from([G2, G3]))
        v1 = data.draw(st.integers(-1, 7))  # -1 is the zero value
        chart1 = data.draw(st.sampled_from([CHART_FINITE, CHART_INFINITE]))

        def section():
            # mostly on the first section's valuation and chart, so that
            # the pair often shares a fiber region
            same = data.draw(st.integers(0, 3)) > 0
            v = v1 if same else data.draw(st.integers(-1, 7))
            r = dvr("0") if v < 0 else dvr(f"x^{v}") * data.draw(dvr_units())
            chart = chart1 if same else data.draw(
                st.sampled_from([CHART_FINITE, CHART_INFINITE])
            )
            return SectionData(g, r, chart)

        seen = []
        real = homotopy._blown_center_verdict

        def spy(r0, r1, r2, shift, prec):
            seen.append((r1, r2))
            return real(r0, r1, r2, shift, prec)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homotopy, "_blown_center_verdict", spy)
            try:
                decide_nodal(chain_surface(0, 1, 2, 3), section(), section())
            except (LiftRequired, PreconditionViolated):
                pass
        for r in (r for pair in seen for r in pair):
            assert not r.is_zero() and not r.is_unit()


# --- the general decision ---------------------------------------------------


def tower(*marks):
    """A one-root tree: BasePoint followed by a chain of child marks."""
    vertex = None
    for mark in reversed(marks[1:]):
        vertex = (TreeVertex(mark, (vertex,) if vertex else ()),)
        vertex = vertex[0]
    children = (vertex,) if vertex else ()
    return BlowupTree((TreeVertex(marks[0], children),))


ORIGIN = BasePoint(Fraction(0), Fraction(1))
AT_TWO = BasePoint(Fraction(2), Fraction(1))
POLE = BasePoint(Fraction(1), Fraction(0))


# node-left with free(5) below it, and free(2) on the root's own line
PUNCTURED_TOP = (
    TreeVertex(NodePos(NODE_LEFT), (TreeVertex(FreePoint(Fraction(5))),)),
    TreeVertex(FreePoint(Fraction(2))),
)


def in_model(text, model):
    """A DVR text in x, rewritten in u for the bivariate model."""
    return text.replace("x", "u") if model == MODEL_BIVARIATE else text


def model_sec(g, text, model, chart=CHART_FINITE):
    return sec(g, in_model(text, model), chart, model)


def puncture_entries(g, coords):
    """The loci a straight line in the y chart must miss for punctures at
    coords on l_1: a section y meets l_1 at the residue of r0/y, so the
    puncture at c is <r0, r0*Y1 - c*Y0>."""
    model = g.r0.model
    return [AvoidIdeal(base=(g.r0,), forms=(YForm(-RingElement.from_fraction(c, model), g.r0, 1),))
            for c in coords]


@st.composite
def punctured_tops(draw):
    """(tree, coords, s1, s2): a root at [0:1] whose 1-2 free children at
    coords puncture the top line l_1 of X1, and sections r0*U or r0^2*U
    over r0 in {x, u, u*v} with drawn units U; half the time the second is
    the first times a unit, so that delta often lies in m."""
    coords = draw(st.lists(st.sampled_from([Fraction(c) for c in (1, 2, -1, 3)] + [Fraction(1, 2)]),
                           min_size=1, max_size=2, unique=True))
    tree = BlowupTree((TreeVertex(ORIGIN, tuple(TreeVertex(FreePoint(c)) for c in coords)),))
    r0 = draw(st.sampled_from(["x", "u", "u*v"]))
    model = MODEL_DVR if r0 == "x" else MODEL_BIVARIATE
    texts = ["1", "2", "-1", "3"] + (["1 + x", "2 - x", "1 + x^2"] if r0 == "x"
                                     else ["1 + u", "1 + v", "2 - v", "3 + u*v"])
    unit = lambda: parse_element(draw(st.sampled_from(texts)), model)
    g = GammaData(parse_element(r0, model))
    value = lambda: g.r0 ** draw(st.integers(1, 2)) * unit()
    s1 = SectionData(g, value())
    r2 = s1.r * unit() if draw(st.booleans()) else value()
    return tree, coords, s1, SectionData(g, r2)


GENERAL_ROOTS = [ORIGIN, AT_TWO, POLE, BasePoint(Fraction(-1), Fraction(1)),
                 BasePoint(Fraction(1), Fraction(2))]


def closed_point(s):
    """Where the section meets the original fiber over the closed point."""
    c = s.r.residue()
    return BasePoint(c, 1) if s.chart == CHART_FINITE else BasePoint(1, c)


def root_entries(g, points):
    """The locus <r0, c1*Y0 - c0*Y1> of each blown-up point [c0:c1]."""
    el = lambda c: RingElement.from_fraction(c, g.r0.model)
    return [AvoidIdeal(base=(g.r0,), forms=(YForm(el(p.c1), el(-p.c0), 1),)) for p in points]


@st.composite
def general_forests(draw):
    """(tree, s1, s2): 1-3 roots from GENERAL_ROOTS, each bare or with one
    node-left child, over r0 in {x, x^2, u, u^2}.  Each section, in either
    chart, is a root's coordinate plus an r0-multiple, a unit, or (pole
    chart) an r0-multiple, which sits at [1:0]."""
    points = draw(st.lists(st.sampled_from(GENERAL_ROOTS), min_size=1, max_size=3, unique=True))
    node = (TreeVertex(NodePos(NODE_LEFT)),)
    tree = BlowupTree(tuple(TreeVertex(p, node if draw(st.booleans()) else ()) for p in points))
    r0 = draw(st.sampled_from(["x", "x^2", "u", "u^2"]))
    model = MODEL_DVR if "x" in r0 else MODEL_BIVARIATE
    g = GammaData(parse_element(r0, model))
    texts = ["1", "2", "-1", "3"] + (["1 + x", "2 - x", "3 + x^2"] if model == MODEL_DVR
                                     else ["1 + u", "2 - v", "1 + u*v"])
    unit = lambda: parse_element(draw(st.sampled_from(texts)), model)

    def section():
        chart = draw(st.sampled_from([CHART_FINITE, CHART_INFINITE]))
        kind = draw(st.sampled_from(["root", "unit", "pole"]))
        if kind == "unit":
            return SectionData(g, unit(), chart)
        multiple = g.r0 ** draw(st.integers(1, 2)) * unit()
        if kind == "pole":
            return SectionData(g, multiple, CHART_INFINITE)
        p = draw(st.sampled_from(points))
        # [1:0] is seen only by the pole chart, [0:1] only by the finite one
        if (p.c1 if chart == CHART_FINITE else p.c0) == 0:
            chart = CHART_INFINITE if chart == CHART_FINITE else CHART_FINITE
        c = p.c0 / p.c1 if chart == CHART_FINITE else p.c1 / p.c0
        return SectionData(g, RingElement.from_fraction(c, model) + multiple, chart)

    return tree, section(), section()


# Case I and tower probes of decide general, each run over r0 = x and x^2
# in both models (x read as u; truncated input in the DVR model only): the
# roots, a trailing "+" giving one node-left child, and both sections as
# (text, chart).  The [0:1] pole-chart pair and the [1:0] finite pair keep
# exact witnesses: moving a point whose Y0 is a unit into the finite chart
# would invert a unit twice and leave an O(x^16) tail
GENERAL_PROBES = [
    (("[2:1]",), ("1 + x", "f"), ("1 + x^3", "f")),
    (("[2:1]",), ("x", "i"), ("2*x", "i")),
    (("[2:1]",), ("x", "i"), ("1 + x", "f")),
    (("[2:1]",), ("1 + x", "i"), ("1 + x + x^2", "i")),
    (("[2:1]",), ("3 + x", "f"), ("1 + x", "i")),
    (("[2:1]", "[0:1]"), ("1 + x", "f"), ("1 + x^3", "f")),
    (("[2:1]", "[0:1]"), ("1 + x", "i"), ("1 + x + x^2", "i")),
    (("[0:1]", "[2:1]"), ("1 + x", "f"), ("1 + x^3", "f")),
    (("[0:1]",), ("1 + x", "i"), ("1 + 2*x", "i")),
    (("[0:1]",), ("1 + x", "f"), ("x", "i")),
    (("[1:0]",), ("1 + x", "f"), ("1 + x + x^2", "i")),
    (("[1:0]",), ("1 + x", "i"), ("1 + x + x^2", "i")),
    (("[1:0]",), ("1 + x", "f"), ("x", "f")),
    (("[1:0]", "[2:1]"), ("1 + x", "f"), ("1 + x^3", "f")),
    (("[-1:1]",), ("x", "i"), ("1 + x", "f")),
    (("[1:2]",), ("1 + x", "f"), ("1 + x + O(x^3)", "f")),
    (("[2:1]",), ("1 + x + O(x^4)", "i"), ("1 + x", "i")),
    (("[0:1]", "[1:0]"), ("1 + x", "f"), ("1 + x^5", "f")),
    (("[2:1]+",), ("2 + x", "f"), ("2 + x + x^2", "f")),
    (("[2:1]+",), ("2 + x", "f"), ("1/(2 + x + x^2)", "i")),
    (("[2:1]+",), ("1/(2 + x)", "i"), ("1/(2 + x + x^2)", "i")),
    (("[2:1]+",), ("2 + x", "f"), ("2 + 3*x", "f")),
    (("[1:0]+",), ("x", "i"), ("x + x^2", "i")),
    (("[1:0]+",), ("x", "i"), ("3*x", "i")),
    (("[2:1]+", "[0:1]"), ("2 + x^2", "f"), ("2 + x^2 + x^3", "f")),
    (("[-1:1]+",), ("-1 + x", "f"), ("1/(-1 + x)", "i")),
    (("[1:2]+",), ("1/2 + x", "f"), ("1/2 + x + x^2", "f")),
    (("[2:1]+",), ("2 + x + O(x^5)", "f"), ("1/(2 + x) + O(x^6)", "i")),
]
GENERAL_PROBES_PIN = "f0246050e61eee679b21fff97d0e04e9703f836f9c7a63d839df6bb8037fc507 106"


def probe_lines():
    """One line per probe run: the input and its verdict JSON, keys sorted."""
    charts = {"f": CHART_FINITE, "i": CHART_INFINITE}
    for model in (MODEL_DVR, MODEL_BIVARIATE):
        text = (lambda t: t.replace("x", "u")) if model == MODEL_BIVARIATE else str
        for r0 in ("x", "x^2"):
            g = GammaData(parse_element(text(r0), model))
            for roots, *pair in GENERAL_PROBES:
                if model == MODEL_BIVARIATE and any("O(" in t for t, _ in pair):
                    continue
                tree = BlowupTree(tuple(
                    TreeVertex(BasePoint.parse(r.rstrip("+")),
                               (TreeVertex(NodePos(NODE_LEFT)),) if r.endswith("+") else ())
                    for r in roots))
                s1, s2 = (SectionData(g, parse_element(text(t), model), charts[c]) for t, c in pair)
                v = verdict_to_json(decide_general(tree, s1, s2))
                yield f"{model} {r0} {roots} {pair}: {json.dumps(v, sort_keys=True)}"


class TestDecideGeneral:
    def test_empty_tree_connects_everything(self):
        v = decide_general(BlowupTree(()), sec(G2, "x"), sec(G2, "5"))
        assert isinstance(v, Homotopic)

    def test_case_one_same_avoided_point(self):
        t = tower(ORIGIN, NodePos(NODE_LEFT))
        s1, s2 = sec(G2, "1 + x"), sec(G2, "1 + x + x^2")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic)

    def test_case_one_multi_root_obstruction(self):
        t = BlowupTree(
            (TreeVertex(ORIGIN, ()), TreeVertex(POLE, ()))
        )
        v = decide_general(t, sec(G2, "1 + x"), sec(G2, "2"))
        assert isinstance(v, NotHomotopic)
        v2 = decide_general(t, sec(G2, "1 + x"), sec(G2, "1 + x^5"))
        assert isinstance(v2, Homotopic)

    def test_case_one_witness_dodges_the_towers(self):
        t = BlowupTree((TreeVertex(ORIGIN, ()), TreeVertex(AT_TWO, ())))
        s1, s2 = sec(G2, "1 + x"), sec(G2, "1 + x^3")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic)
        assert isinstance(v.witness, StraightLine)
        assert v.witness.chart == CHART_INFINITE

    def test_non_lifting_section_raises(self):
        g = GammaData(biv("u"))
        s = SectionData(g, biv("v"))
        with pytest.raises(LiftRequired, match="incomparable at line l_1/2"):
            decide_general(tower(ORIGIN, NodePos(NODE_LEFT)), s, s)

    def test_different_centers_never_connect(self):
        t = BlowupTree((TreeVertex(ORIGIN, ()), TreeVertex(AT_TWO, ())))
        v = decide_general(t, sec(G2, "x"), sec(G2, "2 + x"))
        assert isinstance(v, NotHomotopic)
        assert "different centers" in v.reason

    def test_one_section_hits_one_avoids(self):
        t = tower(ORIGIN)
        v = decide_general(t, sec(G2, "x"), sec(G2, "1 + x"))
        assert isinstance(v, NotHomotopic)

    @pytest.mark.parametrize("model, var", [(MODEL_DVR, "x"), (MODEL_BIVARIATE, "u")])
    def test_same_root_different_regions(self, model, var):
        # both sections hit [0:1], whose tower normalizes to [0, 1/2, 1, inf]:
        # r = r0^(1/2) lands in the interior of l_1/2, r = r0 in that of l_1
        g = GammaData(parse_element(f"{var}^2", model))
        s1, s2 = sec(g, var, model=model), sec(g, f"{var}^2", model=model)
        v = decide_general(tower(ORIGIN, NodePos(NODE_LEFT)), s1, s2)
        assert isinstance(v, NotHomotopic)
        assert v.reason == (
            "sections pass through different fiber regions: "
            "interior(l_1/2) vs interior(l_1)"
        )

    def test_distinguished_tower_ghost(self):
        t = tower(ORIGIN, NodePos(NODE_LEFT))
        s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1

    def test_translated_tower(self):
        # the tower sits over [2:1]; y -> y - 2 reduces to the previous case
        t = tower(AT_TWO, NodePos(NODE_LEFT))
        s1, s2 = sec(G2, "2 + x"), sec(G2, "2 + x + x^2")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        v2 = decide_general(t, s1, sec(G2, "2 + 2*x"))
        assert isinstance(v2, NotHomotopic)

    def test_flipped_tower_over_the_pole(self):
        t = tower(POLE, NodePos(NODE_LEFT))
        s1 = sec(G2, "x", CHART_INFINITE)
        s2 = sec(G2, "x + x^2", CHART_INFINITE)
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1

    def test_sections_on_a_residual_center_are_out_of_scope(self):
        # blow up the free point at coordinate 1 on l_1, then ask about
        # sections that pass straight through it
        t = tower(ORIGIN, NodePos(NODE_LEFT), FreePoint(Fraction(1)))
        v = decide_general(t, sec(G2, "x"), sec(G2, "x + x^2"))
        assert v.tag == "undecidable"
        assert v.reason == "unsupported-support"

    def test_residual_puncture_rigidifies_the_top(self):
        # the free point at 2 on l_1 punctures the region above the node,
        # so sections of height exactly 2 lose their freedom of movement
        t = tower(ORIGIN, FreePoint(Fraction(2)))
        s1, s2 = sec(G2, "x^2"), sec(G2, "x^2 + x^3")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic)
        assert verify_witness(X1, G2, v.witness, (s1, s2))
        v2 = decide_general(t, s1, sec(G2, "3*x^2"))
        assert isinstance(v2, NotHomotopic)
        assert "punctur" in v2.reason

    def test_node_sweep_clears_a_free_point_elsewhere(self):
        # the ghost sweep lives on the deeper exceptional line and never
        # meets the puncture sitting out on l_1
        t = tower(ORIGIN, FreePoint(Fraction(2)))
        s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1

    def test_section_through_the_puncture_is_out_of_scope(self):
        t = tower(ORIGIN, FreePoint(Fraction(2)))
        half = RingElement.from_fraction(Fraction(1, 2), MODEL_DVR)
        s_hit = SectionData(G2, half * dvr("x^2"))
        v = decide_general(t, s_hit, sec(G2, "x^2"))
        assert v.tag == "undecidable"
        assert v.reason == "unsupported-support"

    def test_line_point_roots_are_rejected(self):
        mark = LinePoint(Slope(1, 1), Fraction(1))
        t = BlowupTree((TreeVertex(mark, ()),))
        v = decide_general(t, sec(G2, "x"), sec(G2, "x"))
        assert v.tag == "undecidable"
        assert v.reason == "unsupported-support"

    def test_nonmain_regime_short_circuits(self):
        g = GammaData(dvr("1 + x"))
        t = tower(ORIGIN, NodePos(NODE_LEFT))
        v = decide_general(t, sec(g, "x"), sec(g, "9"))
        assert isinstance(v, Homotopic)

    def test_gamma_mismatch_is_rejected(self):
        with pytest.raises(PreconditionViolated):
            decide_general(tower(ORIGIN), sec(G2, "x"), sec(G3, "x"))

    @pytest.mark.parametrize("model", [MODEL_DVR, MODEL_BIVARIATE])
    def test_case_one_offset_chart_verifies_on_exact_input(self, model):
        # the chart anchored at [2:1] runs through 1/(y - 2), a truncated
        # series in the DVR model; the anchor's own form Y0 - 2*Y1 must
        # still pull back to an exact unit, not to zero at the tracked order
        g = GammaData(parse_element(in_model("x", model), model))
        s1, s2 = model_sec(g, "x", model), model_sec(g, "2*x", model)
        v = decide_general(tower(AT_TWO), s1, s2)
        assert isinstance(v, Homotopic)
        assert v.witness.chart == CHART_INFINITE and v.witness.offset.residue() == 2

    @pytest.mark.parametrize("model", [MODEL_DVR, MODEL_BIVARIATE])
    @pytest.mark.parametrize("chart1", [CHART_FINITE, CHART_INFINITE])
    def test_case_one_under_a_pole_tower_reads_pole_chart_values(self, model, chart1):
        # with only [1:0] blown up the witness is the plain y-line, so a
        # pole-chart section enters it as y = 1/w
        g = GammaData(parse_element(in_model("x^2", model), model))
        s1 = model_sec(g, "1 + x", model, chart1)
        s2 = model_sec(g, "1 + x + x^2", model, CHART_INFINITE)
        v = decide_general(tower(POLE), s1, s2)
        assert isinstance(v, Homotopic) and v.witness.chart == CHART_FINITE
        assert verify_witness(NodalSurface.p1(), g, v.witness, (s1, s2))

    @pytest.mark.parametrize("t", [BlowupTree(()), tower(ORIGIN)])
    def test_sections_equal_to_the_tracked_order_connect(self, t):
        # the empty forest and Case I both build a line between the values
        g = GammaData(dvr("x"))
        s1, s2 = sec(g, "1 + x + O(x^3)"), sec(g, "1 + x + x^5")
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
        assert verify_witness(NodalSurface.p1(), g, v.witness, (s1, s2))

    @pytest.mark.parametrize("model", [MODEL_DVR, MODEL_BIVARIATE])
    @pytest.mark.parametrize(
        "hit, chart, s1, s2, tag",
        [
            (AT_TWO, CHART_FINITE, "2 + x", "2 + x + x^2", "homotopic"),
            (AT_TWO, CHART_FINITE, "2 + x", "2 + 3*x", "not-homotopic"),
            (AT_TWO, CHART_FINITE, "2 + x^2", "2 + x^2 + x^3", "homotopic"),
            (AT_TWO, CHART_FINITE, "2 + x^2", "2 + 3*x^2", "not-homotopic"),
            (POLE, CHART_INFINITE, "x", "x + x^2", "homotopic"),
            (POLE, CHART_INFINITE, "x", "3*x", "not-homotopic"),
            (POLE, CHART_INFINITE, "x^3", "x^3 + x^4", "homotopic"),
        ],
    )
    def test_towers_over_other_points_do_not_change_the_verdict(
        self, model, hit, chart, s1, s2, tag
    ):
        # the hit tower decides alone: re-rooting it at [0:1] must give the
        # verdict of the forest holding only that tower
        children = PUNCTURED_TOP
        forest = BlowupTree(
            tuple(TreeVertex(p, children) for p in (ORIGIN, AT_TWO, POLE))
        )
        alone = BlowupTree((TreeVertex(hit, children),))
        g = GammaData(parse_element(in_model("x^2", model), model))
        pair = model_sec(g, s1, model, chart), model_sec(g, s2, model, chart)
        v = decide_general(forest, *pair)
        assert v.tag == tag
        assert verdict_to_json(v) == verdict_to_json(decide_general(alone, *pair))

    def test_residues_agreeing_only_at_the_closed_point_abstain(self):
        # the tower normalizes to [0, 1/2, 1, 3/2, 2, inf] with a puncture
        # on l_2 at 1; u and u*(1+v) sit on the interior of the middle line
        # l_1 with delta = v, outside sqrt(r0) = (u): the straight line
        # leaves the interior along u = 0 (its node ideal on l_3/2 is not
        # principal), so the decision abstains instead of building it
        # (it raised ConsistencyFailure), and so does decide nodal on the
        # normalized chain (it returned that line, which verify rejected)
        t = BlowupTree((TreeVertex(ORIGIN, (
            TreeVertex(NodePos(NODE_LEFT)),
            TreeVertex(NodePos(NODE_RIGHT), (
                TreeVertex(NodePos(NODE_LEFT)), TreeVertex(FreePoint(Fraction(1))),
            )),
        )),))
        g = GammaData(biv("u"))
        s1 = SectionData(g, biv("u"))
        X = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), Slope(3, 2), Slope(2, 1), INF))
        for s2 in ("u*(1+v)", "u*(1+v)*(1+u)", "u + 2*u*v"):
            pair = s1, SectionData(g, biv(s2))
            for v in (decide_general(t, *pair), decide_nodal(X, *pair)):
                assert isinstance(v, Undecidable), s2
                assert v.reason == "unsupported-support"
                assert "l_1" in v.detail
        # delta in sqrt(r0): the line certifies against the puncture, in
        # both models
        for model, r0, s2 in ((MODEL_BIVARIATE, "u", "u*(1+u)"),
                              (MODEL_BIVARIATE, "u", "u + u^2*v"),
                              (MODEL_DVR, "x", "x*(1+x)")):
            g = GammaData(parse_element(r0, model))
            pair = SectionData(g, parse_element(r0, model)), SectionData(g, parse_element(s2, model))
            v = decide_general(t, *pair)
            assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
            assert verify_witness(X, g, v.witness, pair)

    @pytest.mark.parametrize("model", [MODEL_DVR, MODEL_BIVARIATE])
    def test_punctured_top_with_a_residual_below(self, model):
        # free(2) punctures the top line l_1 and free(5) sits on l_1/2 below
        # it: the rigidity test refuses differing residues, and the line it
        # lets through is certified against both centers
        t = BlowupTree((TreeVertex(ORIGIN, PUNCTURED_TOP),))
        g = GammaData(parse_element(in_model("x^2", model), model))
        s1, s2 = model_sec(g, "x^2", model), model_sec(g, "x^2 + x^3", model)
        v = decide_general(t, s1, s2)
        assert isinstance(v, Homotopic)
        surface = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        assert verify_witness(surface, g, v.witness, (s1, s2))
        v2 = decide_general(t, s1, model_sec(g, "3*x^2", model))
        assert isinstance(v2, NotHomotopic)
        assert "punctur" in v2.reason

    @pytest.mark.parametrize("s1, s2", [("u", "u*(1+v)"), ("u*v", "2*u*v")])
    def test_punctured_top_agreeing_only_at_the_closed_point_abstains(self, s1, s2):
        # free(2) punctures the top line l_1 of X1.  Shifted by r0 = u the
        # values are 1 and 1 + v, or the corner values v and 2*v: delta = v
        # is a nonunit outside sqrt(r0) = (u), for which no witness is
        # built, so the punctured top abstains as a middle line does
        g = GammaData(biv("u"))
        pair = SectionData(g, biv(s1)), SectionData(g, biv(s2))
        v = decide_general(tower(ORIGIN, FreePoint(Fraction(2))), *pair)
        assert isinstance(v, Undecidable) and v.reason == "unsupported-support"
        assert "l_1" in v.detail

    @pytest.mark.parametrize("model, s1, s2, delta", [
        (MODEL_BIVARIATE, "u", "u*(1+u)", None),
        (MODEL_BIVARIATE, "u", "u*(2+v)", "1 + v"),
        (MODEL_BIVARIATE, "u*v", "u", "1 - v"),
        (MODEL_DVR, "x", "x*(1+x)", None),
        (MODEL_DVR, "x", "x*(2+x)", "1 + x"),
        (MODEL_DVR, "x^2", "x", "1 - x"),
        (MODEL_DVR, "x^2", "2*x^2", None),  # corner values x and 2*x
    ])
    def test_punctured_top_keeps_its_verdicts(self, model, s1, s2, delta):
        # delta in sqrt(r0) gives a line that misses the puncture; a unit
        # delta is NotHomotopic with the punctured region's reason
        g = GammaData(parse_element(in_model("x", model), model))
        pair = model_sec(g, s1, model), model_sec(g, s2, model)
        v = decide_general(tower(ORIGIN, FreePoint(Fraction(2))), *pair)
        if delta is None:
            assert isinstance(v, Homotopic) and v.level == LEVEL_CHAIN
            assert verify_witness(X1, g, v.witness, pair, puncture_entries(g, [2]))
        else:
            assert verdict_to_json(v)["obstruction"] == {
                "reason": "interior residues differ in a punctured free region "
                          "(1 puncture(s) on l_1)",
                "delta": delta,
            }

    @example(case=(tower(ORIGIN, FreePoint(Fraction(2))), [Fraction(2)],
                   SectionData(GammaData(biv("u")), biv("u")),
                   SectionData(GammaData(biv("u")), biv("u*(1+v)"))))
    @given(case=punctured_tops())
    @settings(max_examples=60, deadline=None)
    def test_punctured_top_never_fails_its_own_certification(self, case):
        # ConsistencyFailure propagates out of decide_general and fails here
        tree, coords, s1, s2 = case
        v = decide_general(tree, s1, s2)
        if isinstance(v, Homotopic):
            entries = puncture_entries(s1.gamma, coords)
            assert verify_witness(X1, s1.gamma, v.witness, (s1, s2), entries)

    def test_case_one_agreeing_only_at_the_closed_point_abstains(self):
        # P^1 minus [0:1] and [1:0] is rigid: 2 and 2 + v meet the fiber at
        # one point over the closed point only (delta = -v, outside (u)), so
        # the decision abstains; a unit delta is NotHomotopic
        t = BlowupTree((TreeVertex(ORIGIN, ()), TreeVertex(POLE, ())))
        g = GammaData(biv("u"))
        v = decide_general(t, SectionData(g, biv("2")), SectionData(g, biv("2 + v")))
        assert isinstance(v, Undecidable) and v.reason == "unsupported-support"
        assert "differ along r0 = 0" in v.detail
        v = decide_general(t, SectionData(g, biv("2")), SectionData(g, biv("3")))
        assert verdict_to_json(v)["obstruction"] == {
            "reason": "sections approach distinct avoided points of a multi-point center",
            "delta": "-1",
            "ideal": ["u"],
        }

    @pytest.mark.parametrize(
        "marks, s1, s2, site",
        [
            ((ORIGIN, NodePos(NODE_LEFT)), "1 + x", "1 + x + x^2", "tower avoidance"),
            ((ORIGIN, FreePoint(Fraction(2))), "x^2", "x^2 + x^3", "residual avoidance"),
            ((ORIGIN, FreePoint(Fraction(2))), "x", "x + x^2", "residual avoidance"),
        ],
    )
    def test_own_witness_failing_verification_raises(
        self, monkeypatch, marks, s1, s2, site
    ):
        # a witness the engine built and cannot verify is an engine bug:
        # it must surface as ConsistencyFailure, never as a verdict
        def failing(*args, **kwargs):
            rep = VerificationReport()
            rep.add("avoidance", False, "forced failure")
            return rep

        monkeypatch.setattr(homotopy, "verify_witness", failing)
        with pytest.raises(ConsistencyFailure, match=site) as info:
            decide_general(tower(*marks), sec(G2, s1), sec(G2, s2))
        assert "avoidance: forced failure" in str(info.value)

    @example(case=(tower(AT_TWO), sec(GammaData(dvr("x")), "x", CHART_INFINITE),
                   sec(GammaData(dvr("x")), "2*x", CHART_INFINITE)))
    @example(case=(tower(AT_TWO, NodePos(NODE_LEFT)), sec(G2, "2 + x"),
                   sec(G2, "1/(2 + x + x^2)", CHART_INFINITE)))
    @given(case=general_forests())
    @settings(max_examples=60, deadline=None)
    def test_drawn_forests_decide_and_certify_case_one(self, case):
        # any engine error but LiftRequired propagates and fails here; a
        # Case I line must miss every root's locus on P^1
        tree, s1, s2 = case
        try:
            v = decide_general(tree, s1, s2)
        except LiftRequired:
            return
        points = [r.position for r in tree.roots]
        if isinstance(v, Homotopic) and not {closed_point(s1), closed_point(s2)} & set(points):
            entries = root_entries(s1.gamma, points)
            assert verify_witness(NodalSurface.p1(), s1.gamma, v.witness, (s1, s2), entries)

    def test_witness_coordinates(self):
        # Case I writes its line in the original coordinate, here 1/(y - 2)
        # with offset 2, so it replays against the sections as given
        g = GammaData(dvr("x"))
        pair = sec(g, "1 + x"), sec(g, "1 + x^3")
        v = decide_general(tower(AT_TWO), *pair)
        assert v.witness.chart == CHART_INFINITE and v.witness.offset == dvr("2")
        assert verify_witness(NodalSurface.p1(), g, v.witness, pair, root_entries(g, [AT_TWO]))
        # a tower over [2:1] is decided on the moved sections y - 2 and on
        # the normalized tower's surface, and its witness is written there
        X = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        pair = sec(G2, "2 + x"), sec(G2, "2 + x + x^2")
        v = decide_general(tower(AT_TWO, NodePos(NODE_LEFT)), *pair)
        assert isinstance(v.witness, GhostWitness)
        assert not verify_witness(X, G2, v.witness, pair)
        assert verify_witness(X, G2, v.witness, (sec(G2, "x"), sec(G2, "x + x^2")))

    def test_probe_verdicts_match_the_pin(self):
        # hashed as tests/test_result_dump.py hashes the dump; print
        # probe_lines() to see each verdict
        lines = list(probe_lines())
        digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode())
        assert f"{digest.hexdigest()} {len(lines)}" == GENERAL_PROBES_PIN
        exact = [line for line in lines
                 if "('[0:1]',) [('1 + x', 'i'), ('1 + 2*x', 'i')]" in line
                 or "('[1:0]',) [('1 + x', 'f'), ('x', 'f')]" in line]
        assert len(exact) == 8 and not any("O(x" in line for line in exact)


DECISIONS = {
    "nodal": (decide_nodal, "_decide_tower", lambda: X1),
    "general": (decide_general, "_decide_general_core", lambda: tower(ORIGIN)),
}


class TestAbstentions:
    """The engine errors both decisions turn into Undecidable, by reason."""

    @pytest.mark.parametrize("which", DECISIONS)
    @pytest.mark.parametrize(
        "error, reason",
        [
            (RootUnavailable, "root-unavailable"),
            (UnsupportedSupport, "unsupported-support"),
            (DegreeCapExceeded, "degree-cap-exceeded"),
            (PrecisionExhausted, "precision-exhausted"),
        ],
    )
    def test_engine_error_abstains(self, monkeypatch, which, error, reason):
        decide, core, target = DECISIONS[which]

        def raising(*args):
            raise error("the engine stopped here")

        monkeypatch.setattr(homotopy, core, raising)
        v = decide(target(), sec(G2, "x"), sec(G2, "x + x^2"))
        assert isinstance(v, Undecidable)
        assert (v.reason, v.detail) == (reason, "the engine stopped here")

    @pytest.mark.parametrize("which", DECISIONS)
    def test_lift_required_propagates(self, monkeypatch, which):
        decide, core, target = DECISIONS[which]

        def raising(*args):
            raise LiftRequired("the section does not lift")

        monkeypatch.setattr(homotopy, core, raising)
        with pytest.raises(LiftRequired):
            decide(target(), sec(G2, "x"), sec(G2, "x + x^2"))


class TestCoverTransform:
    def test_square_root_cover(self):
        # location 1/2 for r0 = x^2, r = x: the cover needs sqrt(1) = 1
        g = G2
        s1 = sec(g, "x")
        g_up, x_up = cover_transform(g, s1, Slope(1, 2))
        assert g_up.r0 ** 2 == g.r0
        assert x_up.lines[0] == ZERO and x_up.lines[-1] == INF

    def test_verdict_agrees_through_the_cover(self):
        X = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        for s2_text in ("x + x^2", "2*x"):
            s1, s2 = sec(G2, "x"), sec(G2, s2_text)
            direct = decide_nodal(X, s1, s2)
            g_up, x_up = cover_transform(G2, s1, Slope(1, 2))
            up1 = SectionData(g_up, s1.r)
            up2 = SectionData(g_up, s2.r)
            lifted = decide_nodal(x_up, up1, up2)
            assert direct.tag == lifted.tag

    @pytest.mark.parametrize("model, var", [(MODEL_DVR, "x"), (MODEL_BIVARIATE, "u")])
    @pytest.mark.parametrize("e0, e, t", [(2, 3, Slope(3, 2)), (3, 2, Slope(2, 3))])
    def test_bezout_exponent_below_zero(self, model, var, e0, e, t):
        # r0 = var^e0 and r = var^e meet at slope e/e0; the Bezout pair of
        # 3/2 or 2/3 has a negative exponent, so the new base r0~ = var is
        # an exact quotient of two monomials
        g = GammaData(parse_element(f"{var}^{e0}", model))
        s = sec(g, f"{var}^{e}", model=model)
        g_up, x_up = cover_transform(g, s, t)
        assert g_up.r0 ** t.b == g.r0
        assert g_up.r0 == parse_element(var, model)
        integers = [Slope(i, 1) for i in range(1, t.a + 2)]
        assert list(x_up.lines) == [ZERO, *integers, INF]

    def test_missing_root_is_flagged(self):
        # sqrt(2) does not exist over the rationals
        g = GammaData(dvr("2*x^2"))
        s1 = sec(g, "x")
        v = decide_nodal(NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF)), s1, s1)
        # the decision itself never needs the root; calling the transform does
        from nodalwitness.errors import RootUnavailable

        with pytest.raises(RootUnavailable):
            cover_transform(g, s1, Slope(1, 2))
        assert v.tag == "homotopic"


# --- partitioning -----------------------------------------------------------


class TestPartition:
    def test_four_sections_two_classes(self):
        sections = [
            sec(G2, "x"),
            sec(G2, "2*x"),
            sec(G2, "x + x^2"),
            sec(G2, "2*x + 2*x^3"),
        ]
        result = partition_classes(X1, G2, sections)
        assert result.classes == [[0, 2], [1, 3]]
        assert result.undecided == []

    def test_partition_over_a_tree(self):
        t = tower(ORIGIN, NodePos(NODE_LEFT))
        sections = [sec(G2, "x"), sec(G2, "x + x^2"), sec(G2, "1 + x")]
        result = partition_classes(t, G2, sections)
        assert [0, 1] in result.classes
        assert [2] in result.classes

    def test_undecidable_pairs_are_reported_not_merged(self):
        t = tower(ORIGIN, NodePos(NODE_LEFT), FreePoint(Fraction(1)))
        sections = [sec(G2, "x"), sec(G2, "x + x^2")]
        result = partition_classes(t, G2, sections)
        assert result.classes == [[0], [1]]
        assert len(result.undecided) == 1
        i, j, reason = result.undecided[0]
        assert (i, j) == (0, 1) and "unsupported" in reason


# --- serialization ----------------------------------------------------------


class TestJson:
    def test_straightline_roundtrip(self):
        s1, s2 = sec(G2, "x^2"), sec(G2, "x^2 + x^3")
        line = build_straightline(s1, s2)
        blob = witness_to_json(line)
        assert blob["type"] == "straight-line"
        back = witness_from_json(blob, MODEL_DVR)
        assert verify_witness(X1, G2, back, (s1, s2))

    def test_ghost_roundtrip(self):
        w, s1, s2 = fresh_ghost()
        blob = witness_to_json(w)
        assert blob["type"] == "ghost"
        assert blob["shift"] == 0
        back = witness_from_json(blob, MODEL_DVR)
        assert back == w
        assert verify_witness(X1, G2, back, (s1, s2))

    def test_equal_elements_of_different_precision_keep_their_texts(self):
        # x and x + O(x^2) are equal and hash alike, but print differently
        exact, truncated = dvr("x"), dvr("x + O(x^2)")
        assert exact == truncated and hash(exact) == hash(truncated)
        path = PolyExt(MODEL_DVR, {(0, 0): exact, (1, 0): truncated})
        blob = witness_to_json(StraightLine(path, CHART_FINITE))
        assert blob["path"] == {"1": "x", "S": "x + O(x^2)"}
        back = witness_from_json(blob, MODEL_DVR).path.terms
        assert back[(0, 0)].exact and not back[(1, 0)].exact
        assert [back[k].to_text() for k in ((0, 0), (1, 0))] == ["x", "x + O(x^2)"]

    def test_repeated_malformed_text_is_reported_where_first_read(self):
        from nodalwitness.errors import ParseError

        blob = witness_to_json(fresh_ghost()[0])
        blob["h1"] = blob["hw_den"] = {"1": "x +"}
        with pytest.raises(ParseError) as info:
            witness_from_json(blob, MODEL_DVR)
        assert str(info.value) == "ghost witness field 'h1': unexpected end of expression"

    def test_chain_roundtrip(self):
        g = GammaData(dvr("0"))
        s1, s2 = sec(g, "x"), sec(g, "x", CHART_INFINITE)
        v = decide_nodal(X1, s1, s2)
        blob = witness_to_json(v.witness)
        back = witness_from_json(blob, MODEL_DVR)
        assert verify_witness(X1, g, back, (s1, s2))

    def test_verdict_json_shapes(self):
        v = decide_nodal(X1, sec(G2, "x"), sec(G2, "x + x^2"))
        d = verdict_to_json(v)
        assert d["verdict"] == "homotopic" and d["level"] == LEVEL_GHOST1
        n = verdict_to_json(decide_nodal(X1, sec(G2, "x"), sec(G2, "2*x")))
        assert n["verdict"] == "not-homotopic"
        assert "delta" in n["obstruction"]
        t = tower(ORIGIN, NodePos(NODE_LEFT), FreePoint(Fraction(1)))
        u = verdict_to_json(decide_general(t, sec(G2, "x"), sec(G2, "x + x^2")))
        assert u["verdict"] == "undecidable"
        assert u["reason"] == "unsupported-support"

    def test_malformed_witness_json(self):
        from nodalwitness.errors import ParseError

        with pytest.raises(ParseError):
            witness_from_json({"no": "type"}, MODEL_DVR)
        with pytest.raises(ParseError):
            witness_from_json(
                {"type": "straight-line", "chart": "sideways", "path": {}},
                MODEL_DVR,
            )
