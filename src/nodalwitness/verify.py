"""The witness verifier: replays a homotopy witness clause by clause.

It imports only the ring layer, never the decision that built the witness,
so what it accepts rests on this module and that layer alone.  It also
holds the data both sides share: gamma and section data, the witness types
and the avoid ideals a witness must miss.

Each clause `verify_witness` can report, when it holds, and what decides it:

  clause          holds when                                  decided by
  endpoints       the path (a chain's first piece, at T = 1)  element equality; a
                  meets the sections; a ghost's chart values  ghost's shift by orders
                  times its center, the shifted sections      and divide_in_ring
  endpoints-tail  a chain's last piece at T = 0 meets s2      element equality
  chain-joint-i   piece i+1 at T = 1 meets piece i at T = 0   element equality
  piece-i-*       piece i's own line-lift and avoidance       as those clauses
  line-lift       each node ideal <r0^a, path^b> of a         ext_unit_ideal
                  finite-chart path is the unit ideal
  cover           a ghost's pieces V1 and V2 cover the S-line ext_unit_ideal
  gluing          a ghost's overlap interpolation is h1 at    element equality
                  T = 0 and h2 at T = 1
  avoidance       each piece misses each avoided locus (a     ext_radical_membership;
                  ghost's also both centers, given r | r0)    r | r0 by divide_in_ring
  shape           a known witness type; chains of lines only  the witness's type
  determinism     fails when a precision or degree budget     the budget error
                  stopped the replay
  well-formed     fails when the data cannot be divided, mix  the error raised
                  ring models or break a precondition
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .dvrseries import DEFAULT_PREC
from .errors import (
    DegreeCapExceeded,
    DivisionImpossible,
    ModelMismatch,
    PrecisionExhausted,
    PreconditionViolated,
)
from .farey import ZERO
from .localring import (
    PolyExt,
    RingElement,
    elements_gcd,
    ext_radical_membership,
    ext_unit_ideal,
)
from .surface import NodalSurface

CHART_FINITE = "finite"
CHART_INFINITE = "infinite"

# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaData:
    """The base map, remembered through the pullback r0 of the uniformizer."""

    r0: RingElement


@dataclass(frozen=True)
class SectionData:
    gamma: GammaData
    r: RingElement
    chart: str = CHART_FINITE

    def __post_init__(self):
        if self.chart not in (CHART_FINITE, CHART_INFINITE):
            raise PreconditionViolated(f"unknown chart {self.chart!r}")
        if self.r.model != self.gamma.r0.model:
            raise ModelMismatch("section value and gamma use different ring models")

# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StraightLine:
    """A single-chart linear path; coordinate y, or 1/(y - offset)."""

    path: PolyExt  # polynomial in T
    chart: str = CHART_FINITE
    offset: Optional[RingElement] = None  # only for the infinite chart


@dataclass(frozen=True)
class GhostWitness:
    """Two-chart gluing datum over the S-line, after `shift` transformations.

    V1 is the affine S-line minus the zero locus of `excluded`; V2 is the
    locus where `v2_unit` is inverted; h1/h2 are the chart values of
    Y0/Y1 on the pieces and hw_num/hw_den the overlap interpolation of
    Y1/Y0 in S and T.
    """

    shift: int
    blown_center: RingElement
    v2_unit: RingElement
    excluded: tuple  # PolyExt generators of the removed locus on V1's side
    h1: PolyExt
    h2: PolyExt
    hw_num: PolyExt
    hw_den: PolyExt


@dataclass(frozen=True)
class ChainWitness:
    pieces: tuple


HomotopyWitness = Union[StraightLine, GhostWitness, ChainWitness]


@dataclass(frozen=True)
class YForm:
    """Homogeneous form c0*Y0^degree + c1*Y1^degree in the chart coordinates."""

    c0: RingElement
    c1: RingElement
    degree: int


@dataclass(frozen=True)
class AvoidIdeal:
    """Ideal <base..., forms...> whose zero locus a witness must avoid."""

    base: tuple  # RingElements
    forms: tuple  # YForms
    label: str = ""

# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseReport:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    clauses: list = field(default_factory=list)
    # the budget error behind a `determinism` clause, when one stopped the replay
    undetermined: Optional[Exception] = None

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.clauses.append(ClauseReport(name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self):
        return [c for c in self.clauses if not c.ok]

    def __str__(self) -> str:
        lines = []
        for c in self.clauses:
            mark = "ok" if c.ok else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name}: {mark}{suffix}")
        return "\n".join(lines)


def section_homogeneous(s: SectionData):
    """[Y0 : Y1] coordinates of the section's value."""
    one = RingElement.one(s.r.model)
    if s.chart == CHART_FINITE:
        return (s.r, one)
    return (one, s.r)


def _points_agree(p, q) -> bool:
    f1, g1 = p
    f2, g2 = q
    if (f1.is_zero() and g1.is_zero()) or (f2.is_zero() and g2.is_zero()):
        return False
    return f1 * g2 == f2 * g1


def _straightline_end(w: StraightLine, at_one: bool):
    """[Y0 : Y1] of the path at T = 1 (at_one) or T = 0."""
    zero = RingElement.zero(w.path.model)
    t = RingElement.one(w.path.model) if at_one else zero
    return tuple(p.eval_st(zero, t) for p in _straightline_map(w))


def _agrees_at_one(w: StraightLine, q) -> bool:
    """Whether the path is at the point q at T = 1.  That point sums the
    path's coefficients; truncated ones can cancel to an unknown sum
    (PrecisionExhausted) that still agrees with q to the tracked order, so
    then q's offset from the T = 0 point is compared with the change."""
    try:
        return _points_agree(_straightline_end(w, True), q)
    except PrecisionExhausted:
        zero, one = RingElement.zero(w.path.model), RingElement.one(w.path.model)
        maps = _straightline_map(w)
        f0, g0 = (p.constant_part() for p in maps)
        # each coordinate's change from T = 0 to T = 1: drop the constant
        moved = (PolyExt(p.model, {**p.terms, (0, 0): zero}) for p in maps)
        df, dg = (p.eval_st(zero, one) for p in moved)
        f, g = q
        return f0 * g - g0 * f == dg * f - df * g


def _clear_content(ps: list) -> list:
    """Divide out the common factor of all coefficients of all of ps.

    Homogeneous forms pulled back through a chart map y = x^k * c * (Y0/Y1)
    pick up a parasitic monomial factor that vanishes on the whole special
    fiber; the locus the form was built to cut is what remains after
    clearing it.
    """
    coeffs = [c for p in ps for c in p.terms.values()]
    if not coeffs:
        return ps
    d = elements_gcd(coeffs)
    if d.is_zero() or d.is_unit():
        return ps
    return [
        PolyExt(p.model, {k: c.divide_in_ring(d) for k, c in p.terms.items()})
        for p in ps
    ]


def _pullback_form_pe(form: YForm, phi0: PolyExt, phi1: PolyExt, offset=None):
    """The form at [phi0 : phi1].  A chart with an offset o has phi0 = o*phi1 + 1;
    there the form is first pulled back along [o*z + 1 : z] for a formal z,
    so that exact coefficients cancel exactly, and only then is z = phi1
    put in: a truncated path would cancel them only to its tracked order."""
    if offset is None:
        return (phi0**form.degree).scale(form.c0) + (phi1**form.degree).scale(form.c1)
    model = offset.model
    z = PolyExt.variable("T", model)
    one = PolyExt.constant(RingElement.one(model))
    in_z = _pullback_form_pe(form, z.scale(offset) + one, z)
    terms = [(phi1**j).scale(c) for (_, j), c in in_z.terms.items()]
    return sum(terms, PolyExt(model, {}))


def _avoid_clause(
    pieces,  # list of (piece_name, phi0, phi1, E_gens: list[PolyExt])
    entries,  # list of AvoidIdeal
    offset=None,  # the pole-side chart's offset, see _pullback_form_pe
) -> tuple:
    """Each piece misses each excluded locus: E ⊆ √J in R[S, T], with E the
    piece's complement generators and J the entry pulled back along the
    piece's map.  One radical query per (piece, entry) decides the whole
    of E (see `ext_radical_membership`); the first failing pair names the
    piece and the entry."""
    for name, phi0, phi1, e_gens in pieces:
        for entry in entries:
            j_gens = [PolyExt.constant(b) for b in entry.base]
            for form in entry.forms:
                pulled = _pullback_form_pe(form, phi0, phi1, offset)
                j_gens.extend(_clear_content([pulled]))
            if not ext_radical_membership(e_gens, j_gens):
                label = entry.label or "center"
                return False, f"{name} meets the excluded locus {label}"
    return True, ""


def _straightline_map(w: StraightLine):
    """Homogeneous [Y0 : Y1] coordinates of the path."""
    model = w.path.model
    one = PolyExt.constant(RingElement.one(model))
    if w.chart == CHART_FINITE:
        return (w.path, one)
    offset = w.offset if w.offset is not None else RingElement.zero(model)
    return (w.path.scale(offset) + one, w.path)


def _line_body_clauses(
    X: NodalSurface,
    g: GammaData,
    w: StraightLine,
    avoid,
    report: VerificationReport,
) -> None:
    """Per-piece clauses of a straight line: liftability and avoidance."""
    if w.chart == CHART_INFINITE:
        # the chart map is [offset*path + 1 : path]; offsets come from
        # residues away from the blown-up point, so the image misses every
        # center over it and there is nothing to lift
        report.add("line-lift", True, "pole-side chart avoids all centers")
    else:
        r0 = g.r0
        if r0.is_zero() or r0.is_unit() or w.path.is_zero():
            report.add("line-lift", True)
        else:
            ok = True
            detail = ""
            for t in X.lines[:-1]:
                if t == ZERO:
                    continue
                gens = [PolyExt.constant(r0 ** t.a), w.path ** t.b]
                if not ext_unit_ideal(_clear_content(gens)):
                    ok = False
                    detail = f"pulled-back node ideal at l_{t} is not principal"
                    break
            report.add("line-lift", ok, detail)

    if avoid:
        phi0, phi1 = _straightline_map(w)
        one = PolyExt.constant(RingElement.one(w.path.model))
        offset = w.offset if w.chart == CHART_INFINITE else None
        ok, detail = _avoid_clause([("path", phi0, phi1, [one])], avoid, offset)
        report.add("avoidance", ok, detail)


def _verify_straightline(
    X: NodalSurface,
    g: GammaData,
    w: StraightLine,
    s1: SectionData,
    s2: SectionData,
    avoid,
    report: VerificationReport,
) -> None:
    ok1 = _agrees_at_one(w, section_homogeneous(s1))
    ok0 = _points_agree(_straightline_end(w, False), section_homogeneous(s2))
    report.add(
        "endpoints",
        ok1 and ok0,
        "" if ok1 and ok0 else "path ends do not match the sections",
    )
    _line_body_clauses(X, g, w, avoid, report)


def _shifted_value(r0: RingElement, k: int, r: RingElement, prec: int) -> RingElement:
    """r / r0^k, or DivisionImpossible, refused before r0^k is built in two
    cases: a unit r0 (ghosts live in the main regime, where r0 is not a
    unit, so no shift over a unit is recorded), and k*ord(r0) > ord(r), by
    the orders of vanishing at the closed point.  A zero r over a nonzero r0
    is its own quotient, returned with no power built."""
    if k and r0.is_unit():
        raise DivisionImpossible(f"a shift by r0^{k} needs a non-unit r0")
    if k and not r0.is_zero():
        if r.is_zero():
            return r
        if k * r0.order() > r.order():
            raise DivisionImpossible(f"r0^{k} vanishes to a higher order than r")
    return r.divide_in_ring(r0 ** k, prec) if k else r


def _verify_ghost(
    X: NodalSurface,
    g: GammaData,
    w: GhostWitness,
    s1: SectionData,
    s2: SectionData,
    avoid,
    report: VerificationReport,
    prec: int,
) -> None:
    model = w.blown_center.model
    one = RingElement.one(model)
    zero = RingElement.zero(model)
    r0, r, k = g.r0, w.blown_center, w.shift

    # (i) endpoints, cross-multiplied in the shifted chart
    try:
        shifted = [_shifted_value(r0, k, s.r, prec) for s in (s1, s2)]
    except DivisionImpossible:
        report.add("endpoints", False, "sections do not shift by the recorded k")
        return
    if s1.chart != CHART_FINITE or s2.chart != CHART_FINITE:
        report.add("endpoints", False, "ghost endpoints live in the finite chart")
        return
    h10 = w.h1.eval_st(zero, zero)
    h11 = w.h1.eval_st(one, zero)
    ok = (h10 * r == shifted[0]) and (h11 * r == shifted[1])
    report.add(
        "endpoints", ok, "" if ok else "chart values disagree with the sections"
    )

    # (ii) the two pieces cover the S-line
    v2 = PolyExt.constant(w.v2_unit)
    gens = [v2] + list(w.excluded)
    ok = ext_unit_ideal(gens)
    report.add("cover", ok, "" if ok else "V1 and V2 do not cover the S-line")

    # (iii) overlap gluing
    num0 = w.hw_num.subs(t=zero)
    den0 = w.hw_den.subs(t=zero)
    num1 = w.hw_num.subs(t=one)
    den1 = w.hw_den.subs(t=one)
    ok_glue0 = num0 * w.h1 == den0
    ok_glue1 = num1 == w.h2 * den1
    report.add(
        "gluing",
        ok_glue0 and ok_glue1,
        "" if ok_glue0 and ok_glue1 else "overlap interpolation mismatch",
    )

    # (iv) avoidance: default centers plus any caller-provided loci
    one_pe = PolyExt.constant(one)
    pieces = [
        ("V1", w.h1, one_pe, list(w.excluded)),
        ("V2", w.h2, one_pe, [v2]),
        # the overlap sits inside both pieces, so its complement ideal is
        # the product of the two complements
        ("W", w.hw_den, w.hw_num, [v2 * e for e in w.excluded]),
    ]
    entries = list(avoid or [])
    try:
        r0_over_r = r0.divide_in_ring(r, prec)
    except DivisionImpossible:
        report.add("avoidance", False, "blown center does not divide r0")
        return
    entries.append(
        AvoidIdeal(base=(r,), forms=(YForm(zero, one, 1),), label="center <r, Y1>")
    )
    entries.append(
        AvoidIdeal(
            base=(r0_over_r,),
            forms=(YForm(one, zero, 1),),
            label="center <r0/r, Y0>",
        )
    )
    ok, detail = _avoid_clause(pieces, entries)
    report.add("avoidance", ok, detail)


def _verify_chain(
    X: NodalSurface,
    g: GammaData,
    w: ChainWitness,
    s1: SectionData,
    s2: SectionData,
    avoid,
    report: VerificationReport,
) -> None:
    if not w.pieces:
        ok = _points_agree(section_homogeneous(s1), section_homogeneous(s2))
        report.add("endpoints", ok, "" if ok else "empty chain with distinct ends")
        return
    if not all(isinstance(p, StraightLine) for p in w.pieces):
        report.add("shape", False, "chains are built from straight lines only")
        return
    ends = [_straightline_end(p, False) for p in w.pieces]
    ok = _agrees_at_one(w.pieces[0], section_homogeneous(s1))
    report.add("endpoints", ok, "" if ok else "first piece misses section 1")
    for i in range(len(ends) - 1):
        ok = _agrees_at_one(w.pieces[i + 1], ends[i])
        report.add(
            f"chain-joint-{i}",
            ok,
            "" if ok else "consecutive pieces do not meet",
        )
    ok = _points_agree(ends[-1], section_homogeneous(s2))
    report.add("endpoints-tail", ok, "" if ok else "last piece misses section 2")
    for i, piece in enumerate(w.pieces):
        sub = VerificationReport()
        # the joint checks above already pin the endpoints; only the
        # per-piece lift and avoidance clauses remain
        _line_body_clauses(X, g, piece, avoid, sub)
        for c in sub.clauses:
            report.add(f"piece-{i}-{c.name}", c.ok, c.detail)


def verify_witness(
    X: NodalSurface,
    g: GammaData,
    w: HomotopyWitness,
    endpoints,
    avoid=None,
    prec: int = DEFAULT_PREC,
) -> VerificationReport:
    """Independent clause-by-clause check of a homotopy witness, whose
    pieces must also miss each AvoidIdeal in `avoid`.

    Returns a truthy report when every clause holds; on well-formed input
    it records failures (including honest "could not be determined" ones)
    instead of raising.
    """
    s1, s2 = endpoints
    report = VerificationReport()
    try:
        if isinstance(w, StraightLine):
            _verify_straightline(X, g, w, s1, s2, avoid, report)
        elif isinstance(w, GhostWitness):
            _verify_ghost(X, g, w, s1, s2, avoid, report, prec)
        elif isinstance(w, ChainWitness):
            _verify_chain(X, g, w, s1, s2, avoid, report)
        else:
            report.add("shape", False, f"unknown witness type {type(w).__name__}")
    except (PrecisionExhausted, DegreeCapExceeded) as exc:
        report.add("determinism", False, f"undetermined: {exc}")
        report.undetermined = exc
    except (DivisionImpossible, ModelMismatch, PreconditionViolated) as exc:
        report.add("well-formed", False, str(exc))
    return report
