"""Nodal blowups of the relative projective line over the base germ.

A surface here is remembered purely combinatorially: the ordered list of
slopes labelling its fiber lines.  Blowing up the node between two adjacent
lines inserts their mediant, so every surface reachable from the minimal one
is a finite Stern-Brocot excerpt bracketed by 0 and the formal slope
infinity.  Supports of monomial divisors and the degrees of the finite
etale covers that untwist fractional slopes both live on this ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InvalidSlope,
    OrderViolation,
    ParseError,
    PreconditionViolated,
)
from .farey import INF, ZERO, Slope, mediant, unimodular

#: display marker for the horizontal section where the fiber coordinate
#: has a pole; it is a pseudo-line for divisor bookkeeping only and never
#: takes part in node indexing.
NEG_INF_LABEL = "l_-inf"


def line_label(s: Slope) -> str:
    return f"l_{s}"


@dataclass(frozen=True)
class NodalSurface:
    """Immutable chain of fiber lines, [0/1, ..., 1/0]."""

    lines: tuple

    def __post_init__(self):
        lines = tuple(self.lines)
        object.__setattr__(self, "lines", lines)
        if len(lines) < 2:
            raise PreconditionViolated("a surface has at least two pseudo-lines")
        if lines[0] != ZERO or lines[-1] != INF:
            raise PreconditionViolated("lines must run from 0/1 to 1/0")
        for left, right in zip(lines, lines[1:]):
            if not left < right:
                raise OrderViolation(f"line slopes out of order: {left} !< {right}")
            if not unimodular(left, right):
                raise PreconditionViolated(
                    f"adjacent lines {left}, {right} are not unimodular"
                )
        # lines[-2] = a/b is unimodular with 1/0, so b = 1: an integer

    @staticmethod
    def p1() -> "NodalSurface":
        return NodalSurface((ZERO, INF))

    # --- nodes ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.lines) - 1

    def _check_node(self, i: int) -> None:
        if not isinstance(i, int) or not 0 <= i < self.node_count:
            raise IndexOutOfRange(
                f"node index {i} out of range 0..{self.node_count - 1}"
            )

    def blowup_node(self, i: int) -> "NodalSurface":
        """Insert the mediant line at node i (indexed by its left line)."""
        self._check_node(i)
        mid = mediant(self.lines[i], self.lines[i + 1])
        return NodalSurface(self.lines[: i + 1] + (mid,) + self.lines[i + 1 :])

    # --- lines ------------------------------------------------------------

    def line_index(self, s: Slope) -> int:
        try:
            return self.lines.index(s)
        except ValueError:
            raise IndexOutOfRange(f"no line with slope {s}") from None

    def divisor_support(self, s: Slope, which: str):
        """Pseudo-lines where x^a/y^b (s = a/b) vanishes or blows up.

        Zeros: the pole-section marker plus every line of smaller slope.
        Poles: the top line plus every finite line of larger slope.
        """
        if which not in ("zeros", "poles"):
            raise PreconditionViolated(f"which must be zeros|poles, got {which!r}")
        if not (ZERO < s <= Slope(1, 1)):
            raise InvalidSlope(f"divisor support needs 0 < s <= 1, got {s}")
        if s not in self.lines:
            raise InvalidSlope(f"line {s} is not on this surface")
        if which == "zeros":
            return frozenset(
                {NEG_INF_LABEL} | {line_label(t) for t in self.lines if t < s}
            )
        return frozenset({line_label(t) for t in self.lines if t > s})

    def is_in_Nprime(self) -> bool:
        return all(t <= Slope(1, 1) for t in self.lines[:-1])

    # --- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"lines": [[t.a, t.b] for t in self.lines]}

    @staticmethod
    def from_json_dict(data) -> "NodalSurface":
        if not isinstance(data, dict) or "lines" not in data:
            raise ParseError('surface JSON must be {"lines": [[a, b], ...]}')
        raw = data["lines"]
        if not isinstance(raw, list):
            raise ParseError("lines must be a list of [a, b] pairs")
        out = []
        try:
            for entry in raw:
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(type(c) is int for c in entry)
                ):
                    raise ParseError(f"bad line entry {entry!r}")
                out.append(Slope(entry[0], entry[1]))
            return NodalSurface(tuple(out))
        except (InvalidSlope, PreconditionViolated, OrderViolation) as exc:
            raise ParseError(str(exc)) from exc

    def to_dot(self) -> str:
        out = ["graph surface {"]
        for t in self.lines:
            out.append(f'  "{line_label(t)}";')
        for i in range(self.node_count):
            left, right = self.lines[i], self.lines[i + 1]
            out.append(f'  "{line_label(left)}" -- "{line_label(right)}";')
        out.append("}")
        return "\n".join(out) + "\n"

    def __str__(self) -> str:
        return "[" + ", ".join(str(t) for t in self.lines) + "]"


# --- etale covers -------------------------------------------------------------


def etale_cover_degree(s: Slope) -> int:
    """Sheet count of the finite etale cover untwisting slope a/b: exactly b."""
    if s.is_infinite:
        raise InvalidSlope("cover degree needs a finite slope")
    return s.b

