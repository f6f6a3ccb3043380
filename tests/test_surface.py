"""Surface combinatorics: blowups, divisor supports, cover degrees."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nodalwitness.errors import (
    IndexOutOfRange,
    InvalidSlope,
    ParseError,
    PreconditionViolated,
)
from nodalwitness.farey import INF, ZERO, Slope
from nodalwitness.surface import (
    NEG_INF_LABEL,
    NodalSurface,
    etale_cover_degree,
    line_label,
)


def surf(*entries):
    return NodalSurface(tuple(Slope.parse(e) for e in entries))


@st.composite
def blowup_surfaces(draw, max_blowups=6):
    x = NodalSurface.p1()
    for _ in range(draw(st.integers(0, max_blowups))):
        x = x.blowup_node(draw(st.integers(0, x.node_count - 1)))
    return x


def all_surfaces_upto(n_blowups):
    """Every surface reachable in at most n blowups, deduplicated."""
    frontier = {NodalSurface.p1().lines: NodalSurface.p1()}
    seen = dict(frontier)
    for _ in range(n_blowups):
        nxt = {}
        for x in frontier.values():
            for i in range(x.node_count):
                y = x.blowup_node(i)
                if y.lines not in seen:
                    nxt[y.lines] = y
        seen.update(nxt)
        frontier = nxt
    return list(seen.values())


class TestConstruction:
    def test_p1(self):
        x = NodalSurface.p1()
        assert x.lines == (ZERO, INF)
        assert x.node_count == 1
        assert x.is_in_Nprime()

    def test_first_blowup(self):
        x = NodalSurface.p1().blowup_node(0)
        assert x.lines == (ZERO, Slope(1, 1), INF)

    def test_mediant_insertion_at_each_node(self):
        x = surf("0", "1", "inf")
        assert x.blowup_node(0) == surf("0", "1/2", "1", "inf")
        assert x.blowup_node(1) == surf("0", "1", "2", "inf")

    def test_bad_index(self):
        x = NodalSurface.p1()
        with pytest.raises(IndexOutOfRange):
            x.blowup_node(1)
        with pytest.raises(IndexOutOfRange):
            x.blowup_node(-1)

    def test_invalid_chains_rejected(self):
        with pytest.raises(PreconditionViolated):
            surf("0", "1/2", "inf")  # 1/2 not unimodular with inf
        with pytest.raises(Exception):
            surf("0", "2/3", "1", "inf")  # 0 and 2/3 not unimodular
        with pytest.raises(PreconditionViolated):
            surf("0", "1")  # must end at inf

    @given(blowup_surfaces())
    @settings(max_examples=80)
    def test_blowups_preserve_invariants(self, x):
        # the constructor revalidates everything, so reconstruct
        assert NodalSurface(x.lines) == x
        assert x.lines[0] == ZERO and x.lines[-1] == INF
        assert x.lines[-2].is_integer

    @given(blowup_surfaces(), st.integers(0, 100))
    @settings(max_examples=60)
    def test_blowup_inserts_mediant(self, x, raw):
        i = raw % x.node_count
        y = x.blowup_node(i)
        assert len(y.lines) == len(x.lines) + 1
        inserted = y.lines[i + 1]
        assert inserted == Slope(
            x.lines[i].a + x.lines[i + 1].a, x.lines[i].b + x.lines[i + 1].b
        )


class TestDivisorSupport:
    def test_half_slope_supports(self):
        x = surf("0", "1/2", "1", "inf")
        assert x.divisor_support(Slope(1, 2), "zeros") == frozenset(
            {NEG_INF_LABEL, "l_0"}
        )
        assert x.divisor_support(Slope(1, 2), "poles") == frozenset({"l_inf", "l_1"})
        y = surf("0", "1", "inf")
        assert y.divisor_support(Slope(1, 1), "zeros") == frozenset(
            {NEG_INF_LABEL, "l_0"}
        )

    def test_hypothesis_enforced(self):
        x = surf("0", "1", "2", "inf")
        with pytest.raises(InvalidSlope):
            x.divisor_support(Slope(2, 1), "zeros")  # slope > 1
        with pytest.raises(InvalidSlope):
            x.divisor_support(Slope(1, 2), "zeros")  # line absent
        with pytest.raises(InvalidSlope):
            x.divisor_support(ZERO, "zeros")

    def test_bad_kind(self):
        with pytest.raises(PreconditionViolated):
            surf("0", "1", "inf").divisor_support(Slope(1, 1), "zeroes")

    def test_partition(self):
        for x in all_surfaces_upto(4):
            for s in x.lines:
                if not ZERO < s <= Slope(1, 1):
                    continue
                zeros = x.divisor_support(s, "zeros")
                poles = x.divisor_support(s, "poles")
                assert not zeros & poles
                everything = zeros | poles | {line_label(s)}
                expected = {line_label(t) for t in x.lines} | {NEG_INF_LABEL}
                assert everything == expected

    def test_against_order_tracking_oracle(self):
        # rebuild each surface by explicit blowups, tracking the vanishing
        # orders of x and y along every line; a line is a zero (pole) of
        # x^a/y^b exactly when a*ord(x) - b*ord(y) is positive (negative)
        def oracle(x, s):
            orders = {line_label(ZERO): (1, 0), line_label(INF): (0, 1)}
            orders[NEG_INF_LABEL] = (0, -1)
            chain = [ZERO, INF]
            # replay a blowup sequence that reproduces x.lines: repeatedly
            # insert the mediant wherever an adjacent pair of x.lines is
            # missing its intermediate line
            want = list(x.lines)
            while len(chain) < len(want):
                progressed = False
                for i, t in enumerate(want):
                    if t in chain:
                        continue
                    left = next(u for u in reversed(want[:i]) if u in chain)
                    right = next(u for u in want[i + 1 :] if u in chain)
                    # only a genuine node blowup may be replayed: t must be
                    # the mediant of its currently-present neighbors
                    if t.a != left.a + right.a or t.b != left.b + right.b:
                        continue
                    lo, ro = orders[line_label(left)], orders[line_label(right)]
                    orders[line_label(t)] = (lo[0] + ro[0], lo[1] + ro[1])
                    chain.insert(chain.index(right), t)
                    progressed = True
                    break
                assert progressed, "surface chain admits no blowup replay"
            zeros, poles = set(), set()
            for label, (ox, oy) in orders.items():
                o = s.a * ox - s.b * oy
                if o > 0:
                    zeros.add(label)
                elif o < 0:
                    poles.add(label)
            return frozenset(zeros), frozenset(poles)

        for x in all_surfaces_upto(3):  # every surface with <= 5 lines
            for s in x.lines:
                if not ZERO < s <= Slope(1, 1):
                    continue
                zeros, poles = oracle(x, s)
                assert x.divisor_support(s, "zeros") == zeros
                assert x.divisor_support(s, "poles") == poles


class TestNprime:
    def test_examples(self):
        assert surf("0", "1/2", "1", "inf").is_in_Nprime()
        assert not surf("0", "1", "2", "inf").is_in_Nprime()
        assert NodalSurface.p1().is_in_Nprime()


class TestSerialization:
    def test_json_roundtrip(self):
        x = surf("0", "1/2", "1", "inf")
        assert NodalSurface.from_json_dict(x.to_json_dict()) == x
        assert x.to_json_dict() == {"lines": [[0, 1], [1, 2], [1, 1], [1, 0]]}

    @pytest.mark.parametrize(
        "blob",
        [
            {},
            {"lines": "nope"},
            {"lines": [[0, 1], [1, 1]]},  # missing inf
            {"lines": [[0, 1], [2, 1], [1, 0]]},  # not unimodular
            {"lines": [[0, 1], [1, 1], [1, 0, 0]]},
            {"lines": [[0, 1], ["1", 1], [1, 0]]},
        ],
    )
    def test_bad_json(self, blob):
        with pytest.raises(ParseError):
            NodalSurface.from_json_dict(blob)

    def test_dot_shape(self):
        dot = NodalSurface.p1().to_dot()
        assert dot.count("--") == 1
        assert dot.count(";") == 3  # two vertices + one edge
        assert '"l_0" -- "l_inf"' in dot

    @given(blowup_surfaces())
    @settings(max_examples=40)
    def test_json_roundtrip_fuzzed(self, x):
        assert NodalSurface.from_json_dict(x.to_json_dict()) == x


class TestEtaleCover:
    @pytest.mark.parametrize(
        "s,deg", [("1/2", 2), ("1", 1), ("2/3", 3), ("5/3", 3), ("0", 1)]
    )
    def test_degrees(self, s, deg):
        assert etale_cover_degree(Slope.parse(s)) == deg

    def test_infinite_rejected(self):
        with pytest.raises(InvalidSlope):
            etale_cover_degree(INF)

