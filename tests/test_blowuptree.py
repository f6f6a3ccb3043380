"""Blowup forests: sizes, pure-node normalization, cover pullback, JSON."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nodalwitness.blowuptree import (
    BasePoint,
    BlowupTree,
    FreePoint,
    LinePoint,
    NODE_LEFT,
    NODE_RIGHT,
    NodePos,
    TreeVertex,
    normalize_pure_nodes,
    pullback_tree,
    tree_from_json,
    tree_to_json,
)
from nodalwitness.errors import ParseError, PreconditionViolated, UnsupportedSupport
from nodalwitness.farey import Slope


def root(pos="[0:1]", *children):
    return TreeVertex(BasePoint.parse(pos), tuple(children))


def node(side, *children):
    return TreeVertex(NodePos(side), tuple(children))


def free(c, *children):
    return TreeVertex(FreePoint(Fraction(c)), tuple(children))


@st.composite
def child_vertices(draw, depth):
    choices = [NodePos(NODE_LEFT), NodePos(NODE_RIGHT)] + [
        FreePoint(Fraction(k)) for k in (1, 2, 3)
    ]
    pos = draw(st.sampled_from(choices))
    kids = ()
    if depth > 0:
        kids = draw(
            st.lists(child_vertices(depth - 1), max_size=2).filter(_distinct_positions)
        )
    return TreeVertex(pos, tuple(kids))


def _distinct_positions(kids):
    marks = [
        (k.position.side if isinstance(k.position, NodePos) else k.position.coord)
        for k in kids
    ]
    return len(set(marks)) == len(marks)


@st.composite
def zero_rooted_trees(draw, max_depth=3):
    kids = draw(
        st.lists(child_vertices(max_depth - 1), max_size=3).filter(_distinct_positions)
    )
    return BlowupTree((TreeVertex(BasePoint.distinguished(), tuple(kids)),))


class TestBasics:
    def test_base_point_normalization(self):
        assert BasePoint(Fraction(2), Fraction(4)) == BasePoint.parse("[1/2:1]")
        assert BasePoint(Fraction(3), Fraction(0)) == BasePoint.parse("[1:0]")
        assert str(BasePoint.distinguished()) == "[0:1]"

    def test_zero_zero_rejected(self):
        with pytest.raises(PreconditionViolated):
            BasePoint(Fraction(0), Fraction(0))

    def test_free_point_nonzero(self):
        with pytest.raises(PreconditionViolated):
            FreePoint(Fraction(0))

    def test_sibling_clashes(self):
        with pytest.raises(PreconditionViolated):
            root("[0:1]", node(NODE_LEFT), node(NODE_LEFT))
        with pytest.raises(PreconditionViolated):
            root("[0:1]", free(1), free(1))
        # distinct positions are fine
        root("[0:1]", node(NODE_LEFT), node(NODE_RIGHT), free(1), free(2))

    def test_duplicate_roots(self):
        with pytest.raises(PreconditionViolated):
            BlowupTree((root(), root()))


class TestSize:
    def test_empty(self):
        assert BlowupTree().total_size() == 0

    def test_single_chain(self):
        t = BlowupTree((root("[0:1]", node(NODE_LEFT)),))
        assert t.roots[0].size() == t.total_size() == 2

    def test_sum_over_roots(self):
        t = BlowupTree(
            (
                root("[0:1]"),
                root("[1:0]", node(NODE_LEFT, node(NODE_LEFT))),
            )
        )
        assert [r.size() for r in t.roots] == [1, 3]
        assert t.total_size() == 4

    @given(zero_rooted_trees())
    @settings(max_examples=50)
    def test_monotone_under_extension(self, t):
        r = t.roots[0]
        extended = BlowupTree(
            (TreeVertex(r.position, r.children + (free(97),)),)
        )
        assert extended.total_size() == t.total_size() + 1


class TestNormalize:
    def test_pure_chain(self):
        t = BlowupTree((root("[0:1]", node(NODE_LEFT)),))
        x, residual = normalize_pure_nodes(t)
        assert len(x.lines) == 4  # two blowups: 0, 1/2, 1, inf
        assert residual.is_empty()

    def test_pure_chain_right(self):
        t = BlowupTree((root("[0:1]", node(NODE_RIGHT)),))
        x, residual = normalize_pure_nodes(t)
        assert [str(s) for s in x.lines] == ["0", "1", "2", "inf"]
        assert residual.is_empty()

    def test_free_child_becomes_residual(self):
        t = BlowupTree((root("[0:1]", free(2)),))
        x, residual = normalize_pure_nodes(t)
        assert [str(s) for s in x.lines] == ["0", "1", "inf"]
        assert len(residual.roots) == 1
        mark = residual.roots[0].position
        assert isinstance(mark, LinePoint)
        assert mark.slope == Slope(1, 1) and mark.coord == 2

    def test_residual_subtree_preserved(self):
        t = BlowupTree((root("[0:1]", free(2, node(NODE_LEFT))),))
        x, residual = normalize_pure_nodes(t)
        assert [str(s) for s in x.lines] == ["0", "1", "inf"]
        assert residual.total_size() == 2
        assert isinstance(residual.roots[0].children[0].position, NodePos)

    def test_mixed(self):
        t = BlowupTree(
            (
                root(
                    "[0:1]",
                    node(NODE_LEFT, free(3)),
                    node(NODE_RIGHT),
                    free(1, free(5)),
                ),
            )
        )
        x, residual = normalize_pure_nodes(t)
        # pure part: root, node-left child, node-right child = 3 blowups
        assert len(x.lines) == 5
        # residual: free(3) on the node-left exceptional, free(1)-subtree on l_1
        assert len(residual.roots) == 2
        slopes = sorted(str(r.position.slope) for r in residual.roots)
        assert slopes == ["1", "1/2"]

    def test_must_be_distinguished(self):
        with pytest.raises(UnsupportedSupport):
            normalize_pure_nodes(BlowupTree((root("[1:0]"),)))
        with pytest.raises(UnsupportedSupport):
            normalize_pure_nodes(BlowupTree((root(), root("[1:0]"))))
        with pytest.raises(UnsupportedSupport):
            normalize_pure_nodes(BlowupTree())

    @given(zero_rooted_trees())
    @settings(max_examples=60)
    def test_size_conserved(self, t):
        x, residual = normalize_pure_nodes(t)
        pure_blowups = len(x.lines) - 2
        assert pure_blowups + residual.total_size() == t.total_size()

    @given(zero_rooted_trees())
    @settings(max_examples=60)
    def test_residual_roots_interior(self, t):
        x, residual = normalize_pure_nodes(t)
        for r in residual.roots:
            assert isinstance(r.position, LinePoint)
            assert x.has_line(r.position.slope)
            assert r.position.coord != 0


class TestPullback:
    def test_empty(self):
        assert pullback_tree(BlowupTree(), 3).is_empty()

    def test_distinguished_persists(self):
        t = BlowupTree((root("[0:1]", node(NODE_LEFT)),))
        up = pullback_tree(t, 2)
        assert len(up.roots) == 1
        assert up.total_size() == t.total_size() == 2

    def test_square_preimages(self):
        t = BlowupTree((root("[4:1]", node(NODE_LEFT)),))
        up = pullback_tree(t, 2)
        coords = sorted(r.position.c0 for r in up.roots)
        assert coords == [-2, 2]
        for r in up.roots:
            assert r.size() == 2

    def test_no_rational_preimage(self):
        t = BlowupTree((root("[2:1]"),))
        assert pullback_tree(t, 2).is_empty()

    def test_infinity_fixed(self):
        t = BlowupTree((root("[1:0]"),))
        up = pullback_tree(t, 5)
        assert up.roots[0].position == BasePoint(Fraction(1), Fraction(0))

    def test_line_point_roots(self):
        t = BlowupTree((TreeVertex(LinePoint(Slope(1, 1), Fraction(9)), ()),))
        up = pullback_tree(t, 2)
        coords = sorted(r.position.coord for r in up.roots)
        assert coords == [-3, 3]

    @given(zero_rooted_trees(), st.integers(1, 3))
    @settings(max_examples=40)
    def test_size_preserved_per_copy(self, t, b):
        up = pullback_tree(t, b)
        # [0:1] always has exactly one preimage, with the same subtree
        assert [r.size() for r in up.roots] == [r.size() for r in t.roots]


class TestJson:
    def test_example_shape(self):
        t = BlowupTree((root("[0:1]", node(NODE_LEFT), free("3/2")),))
        blob = tree_to_json(t)
        assert blob == {
            "roots": [
                {
                    "base": "[0:1]",
                    "children": [
                        {"at": "node-left"},
                        {"at": {"free": "3/2"}},
                    ],
                }
            ]
        }
        assert tree_from_json(blob) == t

    def test_line_roots_roundtrip(self):
        t = BlowupTree(
            (TreeVertex(LinePoint(Slope(1, 2), Fraction(-3, 7)), (node(NODE_LEFT),)),)
        )
        assert tree_from_json(tree_to_json(t)) == t

    @pytest.mark.parametrize(
        "blob",
        [
            {},
            {"roots": "x"},
            {"roots": [{"at": "node-left"}]},
            {"roots": [{"base": "0:1"}]},
            {"roots": [{"base": "[0:1]", "children": [{"at": "node-center"}]}]},
            {"roots": [{"base": "[0:1]", "children": [{"at": {"free": "0"}}]}]},
            {"roots": [{"base": "[0:0]"}]},
        ],
    )
    def test_bad_json(self, blob):
        with pytest.raises(ParseError):
            tree_from_json(blob)

    @given(zero_rooted_trees())
    @settings(max_examples=40)
    def test_roundtrip_fuzzed(self, t):
        assert tree_from_json(tree_to_json(t)) == t
