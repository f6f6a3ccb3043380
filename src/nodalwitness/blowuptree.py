"""Iterated blowups at infinitely near points, as labelled forests.

Each root records a rational point of the closed fiber where blowing up
starts; each deeper vertex records where on its parent's exceptional line
the next center sits — at one of the two intersection points with older
curves ("node-left" toward the lower-slope neighbor, "node-right" toward
the higher), or at a free rational point of the line's interior.

The key operation splits a tree rooted at the distinguished point into a
maximal chain of node-only blowups — which assemble into a NodalSurface —
and a residual forest of everything that happened at free points.  The
residual roots then live on named lines of that surface, which is exactly
the data the general decision procedure needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, PreconditionViolated, UnsupportedSupport
from .farey import INF, ZERO, Slope, mediant, parse_rational
from .ringelement import rational_root
from .surface import NodalSurface

NODE_LEFT = "node-left"
NODE_RIGHT = "node-right"


@dataclass(frozen=True)
class BasePoint:
    """Rational point [c0 : c1] of the closed fiber, normalized."""

    c0: Fraction
    c1: Fraction

    def __post_init__(self):
        c0, c1 = Fraction(self.c0), Fraction(self.c1)
        if c0 == 0 and c1 == 0:
            raise PreconditionViolated("[0:0] is not a point")
        if c1 != 0:
            c0, c1 = c0 / c1, Fraction(1)
        else:
            c0 = Fraction(1)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    @staticmethod
    def distinguished() -> "BasePoint":
        return BasePoint(Fraction(0), Fraction(1))

    @staticmethod
    def parse(text: str) -> "BasePoint":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]") and ":" in body):
            raise ParseError(f"base point must look like [p:q], got {text!r}")
        left, _, right = body[1:-1].partition(":")
        return BasePoint(parse_rational(left), parse_rational(right))

    def is_distinguished(self) -> bool:
        return self.c0 == 0 and self.c1 == 1

    def __str__(self) -> str:
        return f"[{self.c0}:{self.c1}]"


@dataclass(frozen=True)
class LinePoint:
    """Interior point of the line with the given slope, by its canonical
    coordinate (the residue of the line's monomial parameter).  Nonzero,
    so it stays away from both nodes."""

    slope: Slope
    coord: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coord", Fraction(self.coord))
        if self.coord == 0:
            raise PreconditionViolated("interior coordinate must be nonzero")

    def __str__(self) -> str:
        return f"(l_{self.slope}, {self.coord})"


@dataclass(frozen=True)
class NodePos:
    side: str

    def __post_init__(self):
        if self.side not in (NODE_LEFT, NODE_RIGHT):
            raise PreconditionViolated(f"unknown node side {self.side!r}")

    def __str__(self) -> str:
        return self.side


@dataclass(frozen=True)
class FreePoint:
    coord: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coord", Fraction(self.coord))
        if self.coord == 0:
            raise PreconditionViolated(
                "free points must avoid the intersection positions"
            )

    def __str__(self) -> str:
        return f"free({self.coord})"


RootMark = Union[BasePoint, LinePoint]
ChildMark = Union[NodePos, FreePoint]


@dataclass(frozen=True)
class TreeVertex:
    position: Union[RootMark, ChildMark]
    children: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        _check_siblings(self.children)
        for c in self.children:
            if not isinstance(c.position, (NodePos, FreePoint)):
                raise PreconditionViolated(
                    "non-root vertices carry node or free positions"
                )

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


def _check_siblings(children) -> None:
    seen_sides = set()
    seen_coords = set()
    for c in children:
        pos = c.position
        if isinstance(pos, NodePos):
            if pos.side in seen_sides:
                raise PreconditionViolated(f"two children at {pos.side}")
            seen_sides.add(pos.side)
        elif isinstance(pos, FreePoint):
            if pos.coord in seen_coords:
                raise PreconditionViolated(
                    f"two children at free coordinate {pos.coord}"
                )
            seen_coords.add(pos.coord)


@dataclass(frozen=True)
class BlowupTree:
    """A forest; possibly empty."""

    roots: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(self.roots))
        marks = []
        for r in self.roots:
            if not isinstance(r.position, (BasePoint, LinePoint)):
                raise PreconditionViolated("roots carry base or line points")
            marks.append(r.position)
        if len(set(marks)) != len(marks):
            raise PreconditionViolated("duplicate root points")

    def is_empty(self) -> bool:
        return not self.roots

    def total_size(self) -> int:
        return sum(r.size() for r in self.roots)

    def __str__(self) -> str:
        return f"BlowupTree({self.total_size()} vertices, {len(self.roots)} roots)"


# --- pure-node normalization ---------------------------------------------------


def normalize_pure_nodes(t: BlowupTree):
    """Split a [0:1]-rooted tree into its nodal surface and free residue.

    A vertex is pure when every ancestor including itself sits at a node.
    The pure vertices, replayed parent-first, are exactly a sequence of
    nodal blowups and build a NodalSurface; every maximal impure subtree is
    re-rooted at the interior point of the exceptional line it actually
    sits on.  Blowups at disjoint corners commute, so the result does not
    depend on replay order.
    """
    if len(t.roots) != 1:
        raise UnsupportedSupport(
            "normalization expects a single root at the distinguished point"
        )
    root = t.roots[0]
    if not (isinstance(root.position, BasePoint) and root.position.is_distinguished()):
        raise UnsupportedSupport(f"root must be [0:1], got {root.position}")

    surface = NodalSurface.p1()
    residual_roots = []
    # queue of (vertex, corner) with corner = the pair of slopes whose node
    # this pure vertex blows up
    queue = [(root, (ZERO, INF))]
    while queue:
        vertex, (lo, hi) = queue.pop(0)
        exceptional = mediant(lo, hi)
        surface = surface.blowup_node(surface.line_index(lo))
        for child in vertex.children:
            pos = child.position
            if isinstance(pos, NodePos):
                corner = (lo, exceptional) if pos.side == NODE_LEFT else (
                    exceptional,
                    hi,
                )
                queue.append((child, corner))
            else:
                residual_roots.append(
                    TreeVertex(LinePoint(exceptional, pos.coord), child.children)
                )
    return surface, BlowupTree(tuple(residual_roots))


# --- cover pullback -------------------------------------------------------------


def _rational_nth_roots(c: Fraction, b: int):
    """All rational mu with mu^b = c, ascending."""
    r = rational_root(c, b)
    if r is None:
        return []
    return sorted({r, -r}) if b % 2 == 0 else [r]


def pullback_tree(t: BlowupTree, cover_degree: int) -> BlowupTree:
    """Pull the forest back along the degree-b fiber cover.

    Each root is replicated once per rational preimage of its point under
    the cover's coordinate law mu -> mu^b; subtree shapes are kept verbatim
    (the cover is etale, so nothing above the root changes).  Points with
    no rational preimage disappear from the pulled-back forest; callers
    that need to remember them for counting arguments must do so
    separately.  Line labels on any LinePoint roots are kept as-is — the
    caller owns the slope rebasing on the covering surface.
    """
    if cover_degree < 1:
        raise PreconditionViolated("cover degree must be positive")
    new_roots = []
    for r in t.roots:
        pos = r.position
        if isinstance(pos, BasePoint):
            if pos.c1 == 0:
                new_roots.append(r)  # [1:0] is fixed by the cover
                continue
            for rt in _rational_nth_roots(pos.c0, cover_degree):
                new_roots.append(
                    TreeVertex(BasePoint(rt, Fraction(1)), r.children)
                )
        else:
            for rt in _rational_nth_roots(pos.coord, cover_degree):
                new_roots.append(
                    TreeVertex(LinePoint(pos.slope, rt), r.children)
                )
    return BlowupTree(tuple(new_roots))


# --- JSON -----------------------------------------------------------------------


def _vertex_to_json(v: TreeVertex) -> dict:
    pos = v.position
    if isinstance(pos, BasePoint):
        out = {"base": str(pos)}
    elif isinstance(pos, LinePoint):
        out = {"line": str(pos.slope), "coord": str(pos.coord)}
    elif isinstance(pos, NodePos):
        out = {"at": pos.side}
    else:
        out = {"at": {"free": str(pos.coord)}}
    if v.children:
        out["children"] = [_vertex_to_json(c) for c in v.children]
    return out


def tree_to_json(t: BlowupTree) -> dict:
    return {"roots": [_vertex_to_json(r) for r in t.roots]}


def _text(blob: dict, key: str) -> str:
    """blob[key], which the format writes as a string."""
    value = blob[key]
    if not isinstance(value, str):
        raise ParseError(f"tree field {key!r} must be a string, got {value!r}")
    return value


def _children_from_json(blob: dict):
    kids = blob.get("children", [])
    if not isinstance(kids, list):
        raise ParseError("children must be a list")
    return tuple(_child_from_json(k) for k in kids)


def _child_from_json(blob) -> TreeVertex:
    if not isinstance(blob, dict) or "at" not in blob:
        raise ParseError('child vertices need an "at" position')
    at = blob["at"]
    if isinstance(at, str):
        if at not in (NODE_LEFT, NODE_RIGHT):
            raise ParseError(f"unknown node position {at!r}")
        pos = NodePos(at)
    elif isinstance(at, dict) and set(at) == {"free"}:
        pos = FreePoint(parse_rational(_text(at, "free")))
    else:
        raise ParseError(f"bad position {at!r}")
    return TreeVertex(pos, _children_from_json(blob))


def _root_from_json(blob) -> TreeVertex:
    if not isinstance(blob, dict):
        raise ParseError("root vertices must be objects")
    if "base" in blob:
        pos = BasePoint.parse(_text(blob, "base"))
    elif "line" in blob and "coord" in blob:
        line, coord = _text(blob, "line"), _text(blob, "coord")
        pos = LinePoint(Slope.parse(line), parse_rational(coord))
    else:
        raise ParseError('roots need "base" or "line"/"coord"')
    return TreeVertex(pos, _children_from_json(blob))


def tree_from_json(data) -> BlowupTree:
    if not isinstance(data, dict) or "roots" not in data:
        raise ParseError('tree JSON must be {"roots": [...]}')
    if not isinstance(data["roots"], list):
        raise ParseError("roots must be a list")
    try:  # a bad coordinate at any depth, as a ParseError
        return BlowupTree(tuple(_root_from_json(r) for r in data["roots"]))
    except PreconditionViolated as exc:
        raise ParseError(str(exc)) from exc
