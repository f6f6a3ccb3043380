"""Decision procedures and witness verification on the blown-up fiber."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nodalwitness.blowuptree import (
    NODE_LEFT,
    BasePoint,
    BlowupTree,
    FreePoint,
    LinePoint,
    NodePos,
    TreeVertex,
)
from nodalwitness.dvrseries import Series
from nodalwitness import homotopy
from nodalwitness.errors import (
    ConsistencyFailure,
    DivisionImpossible,
    LiftRequired,
    PreconditionViolated,
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
    VerificationReport,
    YForm,
    build_ghost_witness,
    build_straightline,
    classify_gamma,
    closed_point_image,
    cover_transform,
    decide_general,
    decide_nodal,
    lifts,
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
    IdealHandle,
    RingElement,
    parse_element,
    parse_polyext,
    polyext_to_text,
)
from nodalwitness.surface import NodalSurface


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
    return RingElement.from_series(
        Series.make(0, [Fraction(lead)] + [Fraction(c) for c in tail], True)
    )


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


class TestLifts:
    def test_monomial_sections_lift(self):
        assert lifts(X1, sec(G2, "x"))
        assert lifts(X1, sec(G2, "x^2 + x^5"))

    def test_pole_chart_always_lifts(self):
        g = GammaData(biv("u"))
        assert lifts(X1, SectionData(g, biv("v"), CHART_INFINITE))

    def test_bivariate_obstruction(self):
        g = GammaData(biv("u"))
        assert not lifts(X1, SectionData(g, biv("v")))
        assert lifts(X1, SectionData(g, biv("u + u*v")))


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
        assert str(w.blown_center.payload) == str(dvr("x").payload)
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

    def test_plain_ideal_handles_are_accepted_as_avoid_entries(self):
        w, s1, s2 = fresh_ghost()
        entry = IdealHandle([dvr("1")])  # the empty locus obstructs nothing
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


# --- the nodal decision -----------------------------------------------------


class TestDecideNodal:
    def test_ghost_example(self):
        s1, s2 = sec(G2, "x"), sec(G2, "x + x^2")
        v = decide_nodal(X1, s1, s2)
        assert isinstance(v, Homotopic) and v.level == LEVEL_GHOST1
        assert isinstance(v.witness, GhostWitness)
        assert verify_witness(X1, G2, v.witness, (s1, s2))

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

    def test_different_centers_never_connect(self):
        t = BlowupTree((TreeVertex(ORIGIN, ()), TreeVertex(AT_TWO, ())))
        v = decide_general(t, sec(G2, "x"), sec(G2, "2 + x"))
        assert isinstance(v, NotHomotopic)
        assert "different centers" in v.reason

    def test_one_section_hits_one_avoids(self):
        t = tower(ORIGIN)
        v = decide_general(t, sec(G2, "x"), sec(G2, "1 + x"))
        assert isinstance(v, NotHomotopic)

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

    @pytest.mark.parametrize(
        "marks, s1, s2, site",
        [
            ((ORIGIN, NodePos(NODE_LEFT)), "1 + x", "1 + x + x^2", "tower avoidance"),
            ((ORIGIN, FreePoint(Fraction(2))), "x^2", "x^2 + x^3", "its own avoidance"),
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


class TestCoverTransform:
    def test_square_root_cover(self):
        # location 1/2 for r0 = x^2, r = x: the cover needs sqrt(1) = 1
        g = G2
        s1, s2 = sec(g, "x"), sec(g, "x + x^2")
        g_up, x_up = cover_transform(g, s1, s2, Slope(1, 2))
        assert g_up.r0 ** 2 == g.r0
        assert x_up.lines[0] == ZERO and x_up.lines[-1] == INF

    def test_verdict_agrees_through_the_cover(self):
        X = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        for s2_text in ("x + x^2", "2*x"):
            s1, s2 = sec(G2, "x"), sec(G2, s2_text)
            direct = decide_nodal(X, s1, s2)
            g_up, x_up = cover_transform(G2, s1, s2, Slope(1, 2))
            up1 = SectionData(g_up, s1.r)
            up2 = SectionData(g_up, s2.r)
            lifted = decide_nodal(x_up, up1, up2)
            assert direct.tag == lifted.tag

    def test_missing_root_is_flagged(self):
        # sqrt(2) does not exist over the rationals
        g = GammaData(dvr("2*x^2"))
        s1 = sec(g, "x")
        v = decide_nodal(NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF)), s1, s1)
        # the decision itself never needs the root; calling the transform does
        from nodalwitness.errors import RootUnavailable

        with pytest.raises(RootUnavailable):
            cover_transform(g, s1, s1, Slope(1, 2))
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
