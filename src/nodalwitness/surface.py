"""Nodal blowups of the relative projective line over the base germ.

A surface here is remembered purely combinatorially: the ordered list of
slopes labelling its fiber lines.  Blowing up the node between two adjacent
lines inserts their mediant, so every surface reachable from the minimal one
is a finite Stern-Brocot excerpt bracketed by 0 and the formal slope
infinity.  Supports of monomial divisors, the distinguished open patches,
the integer-shift isomorphisms between them, and the degrees of the finite
etale covers that untwist fractional slopes all live on this ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InvalidSlope,
    OrderViolation,
    ParseError,
    PreconditionViolated,
    ShiftOutOfRange,
)
from .farey import INF, ZERO, Slope, mediant, unimodular

#: display marker for the horizontal section where the fiber coordinate
#: has a pole; it is a pseudo-line for divisor bookkeeping only and never
#: takes part in node indexing.
NEG_INF_LABEL = "l_-inf"


def line_label(s: Slope) -> str:
    return f"l_{s}"


PATCH_PLAIN = "U"
PATCH_TILDE = "U~"


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
        if not lines[-2].is_integer:
            raise PreconditionViolated("largest finite slope must be an integer")

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

    def node_between(self, i: int) -> tuple:
        self._check_node(i)
        return (self.lines[i], self.lines[i + 1])

    def blowup_node(self, i: int) -> "NodalSurface":
        """Insert the mediant line at node i (indexed by its left line)."""
        self._check_node(i)
        mid = mediant(self.lines[i], self.lines[i + 1])
        return NodalSurface(self.lines[: i + 1] + (mid,) + self.lines[i + 1 :])

    def node_ideal(self, i: int) -> tuple:
        """The two formal monomials cutting out node i."""
        left, right = self.node_between(i)
        return (_monomial_text(right.a, -right.b), _monomial_text(-left.a, left.b))

    # --- lines ------------------------------------------------------------

    def has_line(self, s: Slope) -> bool:
        return s in self.lines

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
        if not self.has_line(s):
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
        for entry in raw:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(c) is int for c in entry)
            ):
                raise ParseError(f"bad line entry {entry!r}")
            try:
                out.append(Slope(entry[0], entry[1]))
            except InvalidSlope as exc:
                raise ParseError(str(exc)) from exc
        try:
            return NodalSurface(tuple(out))
        except (PreconditionViolated, OrderViolation) as exc:
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


def _monomial_text(xexp: int, yexp: int) -> str:
    """x^xexp * y^yexp as a display fraction, e.g. (2, -1) -> "x^2/y"."""

    def var(name: str, e: int) -> str:
        return name if e == 1 else f"{name}^{e}"

    num = [var(n, e) for n, e in (("x", xexp), ("y", yexp)) if e > 0]
    den = [var(n, -e) for n, e in (("x", xexp), ("y", yexp)) if e < 0]
    top = "*".join(num) or "1"
    if not den:
        return top
    return f"{top}/{'*'.join(den)}"


# --- distinguished opens -----------------------------------------------------


@dataclass(frozen=True)
class OpenPatch:
    """A distinguished open of a nodal surface, named by slope parameters.

    One slope: the surface minus the support of div(x^a/y^b).  Two slopes
    r > s: the two-line neighborhood of the node between them, which forces
    r - s = 1/(b*d).  The tilde kinds are the infinite-chart variants.
    """

    kind: str
    slopes: tuple

    def __post_init__(self):
        if self.kind not in (PATCH_PLAIN, PATCH_TILDE):
            raise PreconditionViolated(f"unknown patch kind {self.kind!r}")
        slopes = tuple(self.slopes)
        object.__setattr__(self, "slopes", slopes)
        if len(slopes) not in (1, 2):
            raise PreconditionViolated("a patch has one or two slope parameters")
        for t in slopes:
            if t.is_infinite:
                raise PreconditionViolated("patch slopes must be finite")
        if len(slopes) == 2:
            r, s = slopes
            if not s < r:
                raise OrderViolation("two-slope patch needs r > s")
            if r.a * s.b - s.a * r.b != 1:
                raise PreconditionViolated(
                    f"patch slopes {r}, {s} do not satisfy r - s = 1/(b*d)"
                )

    def shift(self, k: int) -> "OpenPatch":
        if not isinstance(k, int) or k < 0:
            raise ShiftOutOfRange("shift amount must be a non-negative integer")
        moved = []
        for t in self.slopes:
            if t.a - k * t.b < 0:
                raise ShiftOutOfRange(f"slope {t} cannot shift down by {k}")
            moved.append(t.shift(k))
        return OpenPatch(self.kind, tuple(moved))

    def __str__(self) -> str:
        inner = ",".join(str(t) for t in self.slopes)
        return f"{self.kind}_{{{inner}}}"


# --- etale covers -------------------------------------------------------------


def etale_cover_degree(s: Slope) -> int:
    """Sheet count of the finite etale cover untwisting slope a/b: exactly b."""
    if s.is_infinite:
        raise InvalidSlope("cover degree needs a finite slope")
    return s.b


def etale_cover_target(s: Slope) -> OpenPatch:
    """The integer-slope patch the cover lands on (shiftable to U_0)."""
    if s.is_infinite:
        raise InvalidSlope("cover target needs a finite slope")
    return OpenPatch(PATCH_PLAIN, (Slope(s.a, 1),))
