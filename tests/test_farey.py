import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nodalwitness.errors import InvalidSlope, OrderViolation, ParseError
from nodalwitness.farey import (
    INF,
    ZERO,
    Slope,
    farey_path,
    mediant,
    parse_rational,
    unimodular,
)


def frac_slopes(max_value: int = 60):
    """Strategy producing finite slopes with small components."""
    return st.builds(
        Slope,
        st.integers(min_value=0, max_value=max_value),
        st.integers(min_value=1, max_value=max_value),
    )


def targets():
    """Reduced slopes in (0, 1] — the valid farey_path inputs."""
    return (
        st.tuples(
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=1, max_value=40),
        )
        .filter(lambda ab: ab[0] <= ab[1])
        .map(lambda ab: Slope(*ab))
    )


class TestSlope:
    def test_reduction(self):
        assert Slope(4, 6) == Slope(2, 3)
        assert Slope(10, 5) == Slope(2, 1)

    def test_infinite(self):
        assert Slope(3, 0) == INF
        assert INF.is_infinite
        with pytest.raises(InvalidSlope):
            Slope(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidSlope):
            Slope(-1, 2)

    def test_ordering(self):
        assert Slope(1, 2) < Slope(2, 3) < Slope(1, 1) < Slope(3, 2) < INF
        assert not INF < INF

    def test_text_forms(self):
        assert str(Slope(0, 1)) == "0"
        assert str(Slope(7, 1)) == "7"
        assert str(Slope(2, 3)) == "2/3"
        assert str(INF) == "inf"

    @pytest.mark.parametrize("text", ["0", "7", "2/3", "inf", " 1/2 "])
    def test_parse_roundtrip(self, text):
        assert str(Slope.parse(text)) == text.strip()

    @pytest.mark.parametrize("text", ["", "a", "1/0/2", "-1/2", "1.5"])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            Slope.parse(text)

    def test_floor(self):
        assert Slope(7, 3).floor() == 2
        assert Slope(2, 1).floor() == 2
        with pytest.raises(InvalidSlope):
            INF.floor()


class TestParseRational:
    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("-7", -7), ("+3", 3), (" 2/4 ", Fraction(1, 2)),
         ("-0/5", 0), ("007/3", Fraction(7, 3)), ("9" * 4000, int("9" * 4000))],
    )
    def test_reads(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "/", "1/", "/2", "1/0", "1/-2", "- 1", "1 /2", "0.5", "1e3", "1_0",
         "\u0661/\u0662", "\uff11", "1/2/3", "9" * 5000],
    )
    def test_refuses(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)


class TestMediant:
    def test_basic(self):
        assert mediant(ZERO, Slope(1, 1)) == Slope(1, 2)
        assert mediant(Slope(1, 2), Slope(1, 1)) == Slope(2, 3)
        assert mediant(Slope(1, 1), INF) == Slope(2, 1)

    def test_order_enforced(self):
        with pytest.raises(OrderViolation):
            mediant(Slope(1, 1), Slope(1, 2))
        with pytest.raises(OrderViolation):
            mediant(Slope(1, 2), Slope(1, 2))

    @given(frac_slopes(), frac_slopes())
    def test_strictly_between(self, s, t):
        if not s < t:
            s, t = t, s
        if s == t:
            return
        m = mediant(s, t)
        assert s < m < t

    @given(frac_slopes(), st.integers(min_value=0, max_value=30))
    def test_mediant_with_infinity(self, s, _):
        m = mediant(s, INF)
        assert s < m
        assert not m.is_infinite


class TestUnimodular:
    def test_known_pairs(self):
        assert unimodular(ZERO, Slope(1, 1))
        assert unimodular(Slope(1, 2), Slope(1, 1))
        assert unimodular(Slope(1, 1), INF)
        assert unimodular(ZERO, INF)
        assert not unimodular(Slope(1, 1), ZERO)  # signed, order matters
        assert not unimodular(ZERO, Slope(2, 1))

    @given(frac_slopes(), frac_slopes())
    def test_mediant_preserves_adjacency(self, s, t):
        if not s < t:
            s, t = t, s
        if s == t or not unimodular(s, t):
            return
        m = mediant(s, t)
        assert unimodular(s, m)
        assert unimodular(m, t)


class TestFareyPath:
    def test_top(self):
        assert farey_path(Slope(1, 1)) == [ZERO, Slope(1, 1)]

    def test_one_half(self):
        assert farey_path(Slope(1, 2)) == [ZERO, Slope(1, 1), Slope(1, 2)]

    def test_two_thirds(self):
        assert farey_path(Slope(2, 3)) == [
            ZERO,
            Slope(1, 1),
            Slope(1, 2),
            Slope(2, 3),
        ]

    def test_rejects_bad_targets(self):
        with pytest.raises(InvalidSlope):
            farey_path(INF)
        with pytest.raises(InvalidSlope):
            farey_path(ZERO)
        with pytest.raises(InvalidSlope):
            farey_path(Slope(3, 2))

    @given(targets())
    def test_ends_at_target_exactly_once(self, t):
        path = farey_path(t)
        assert path[-1] == t
        assert t not in path[:-1]

    @given(targets())
    def test_consecutive_entries_unimodular(self, t):
        # Entries are appended in descent order, not sorted; adjacency is a
        # claim about the underlying unordered pair.
        path = farey_path(t)
        for s, u in zip(path, path[1:]):
            lo, hi = (s, u) if s < u else (u, s)
            assert unimodular(lo, hi)

    @given(targets())
    def test_each_step_is_a_mediant(self, t):
        path = farey_path(t)
        for i in range(2, len(path)):
            seen = path[:i]
            assert any(
                a < b and mediant(a, b) == path[i]
                for a in seen
                for b in seen
            )

    @given(targets())
    def test_length_bound(self, t):
        # Stern-Brocot depth of a/b is at most a + b.
        assert len(farey_path(t)) <= t.a + t.b + 2

    @given(targets())
    def test_denominators_coprime_along_path(self, t):
        for s in farey_path(t):
            assert math.gcd(s.a, s.b) == 1
