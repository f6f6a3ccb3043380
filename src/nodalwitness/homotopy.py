"""Homotopy decisions for sections of nodal blowups, with checkable witnesses.

Sections of the blown-up ruled surface land in one of a handful of regions
of the special fiber: the free region around the pole section (coordinate
1/y), the free region at the top of the chain, the multiplicative-group
interior of a middle line, or a node.  Two sections can only be connected
if they land in the same region; within a region the obstruction is either
nothing (free regions), a residue (middle lines), or a radical-membership
condition on the unit relating the two values (nodes and fractional
interiors) — and each positive answer is packaged as replayable data: a
straight-line path, or a two-chart gluing datum ("ghost" witness) whose
clauses an independent verifier checks one by one.

Verdicts never bluff: anything the engine cannot settle exactly surfaces
as an explicit Undecidable tag rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .blowuptree import (
    BasePoint,
    BlowupTree,
    LinePoint,
    TreeVertex,
    normalize_pure_nodes,
)
from .dvrseries import DEFAULT_PREC
from .errors import (
    ConsistencyFailure,
    DegreeCapExceeded,
    DivisionImpossible,
    EngineError,
    LiftRequired,
    ModelMismatch,
    ParseError,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
    UnsupportedSupport,
)
from .farey import INF, ZERO, Slope
from .localring import (
    MODEL_DVR,
    IdealHandle,
    PolyExt,
    RingElement,
    divides,
    element_to_text,
    elements_gcd,
    ext_radical_membership,
    ext_unit_ideal,
    nth_root_unit,
    pair_principal,
    parse_element,
    polyext_from_json,
    polyext_to_json,
    radical_membership,
    unit_multiple,
)
from .surface import NodalSurface

CHART_FINITE = "finite"
CHART_INFINITE = "infinite"

REGIME_DEGENERATE = "degenerate-to-closed-point"
REGIME_CLOSED_TO_GENERIC = "closed-to-generic"
REGIME_MAIN = "main"

LEVEL_CHAIN = "chain"
LEVEL_GHOST1 = "ghost1"

UNDECIDABLE_ROOT = "root-unavailable"
UNDECIDABLE_SUPPORT = "unsupported-support"
UNDECIDABLE_CAP = "degree-cap-exceeded"
UNDECIDABLE_PRECISION = "precision-exhausted"


# ---------------------------------------------------------------------------
# sections and regimes
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


def classify_gamma(g: GammaData) -> str:
    if g.r0.is_zero():
        return REGIME_DEGENERATE
    if g.r0.is_unit():
        return REGIME_CLOSED_TO_GENERIC
    return REGIME_MAIN


# ---------------------------------------------------------------------------
# locations on the special fiber
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interior:
    slope: Slope

    def __str__(self):
        return f"interior(l_{self.slope})"


@dataclass(frozen=True)
class NodeLoc:
    left: Slope
    right: Slope  # may be the formal slope infinity

    def __str__(self):
        return f"node(l_{self.left}, l_{self.right})"


@dataclass(frozen=True)
class OffNodal:
    def __str__(self):
        return "off-nodal-region"


Location = Union[Interior, NodeLoc, OffNodal]


def location_slopes(loc: Location) -> frozenset:
    """The set of finite line slopes a location pins the section to.

    Two sections can be connected only if these sets agree; the top corner
    shares its set with the top line's interior (one free region), and the
    off-nodal region behaves like the interior of the zero line.
    """
    if isinstance(loc, OffNodal):
        return frozenset({ZERO})
    if isinstance(loc, Interior):
        return frozenset({loc.slope})
    if loc.right == INF:
        return frozenset({loc.left})
    return frozenset({loc.left, loc.right})


def closed_point_image(X: NodalSurface, s: SectionData) -> Location:
    """Which line/node of the special fiber the section passes through."""
    g = s.gamma
    if classify_gamma(g) != REGIME_MAIN:
        raise PreconditionViolated("locations are defined in the main regime only")
    if s.chart == CHART_INFINITE:
        return OffNodal()
    r, r0 = s.r, g.r0
    if r.is_zero():
        return NodeLoc(X.lines[-2], INF)
    if r.is_unit():
        return Interior(ZERO)
    dvr = r.model == MODEL_DVR
    if dvr:
        v0, v = r0.valuation(), r.valuation()
    prev = ZERO
    for t in X.lines[:-1]:
        if t == ZERO:
            continue
        if dvr:
            # r0^a | r^b  <=>  a*v(r0) <= b*v(r): no powers, no precision
            down = t.a * v0 <= t.b * v  # section at slope >= t
            up = t.b * v <= t.a * v0  # section at slope <= t
        else:
            a_pow = r0 ** t.a
            b_pow = r ** t.b
            down = divides(a_pow, b_pow)  # section at slope >= t
            up = divides(b_pow, a_pow)  # section at slope <= t
        if down and up:
            return Interior(t)
        if down:
            prev = t
            continue
        if up:
            return NodeLoc(prev, t)
        raise LiftRequired(
            f"value and base are incomparable at line l_{t}; "
            "the section does not pass through a single point of the fiber"
        )
    return NodeLoc(X.lines[-2], INF)


def lifts(X: NodalSurface, s: SectionData) -> bool:
    """Whether the section factors through X: each node ideal pulls back
    principal, label by label."""
    if s.chart == CHART_INFINITE:
        return True  # the pole-side chart misses every blown-up center
    r, r0 = s.r, s.gamma.r0
    for t in X.lines[:-1]:
        if t == ZERO:
            continue
        if pair_principal(r0 ** t.a, r ** t.b) is None:
            return False
    return True


def shift_section(s: SectionData, k: int, prec: int = DEFAULT_PREC) -> SectionData:
    """Apply k elementary transformations: r -> r / r0^k.

    The testable contract: the location slope drops by exactly k.
    """
    if not isinstance(k, int) or k < 0:
        raise PreconditionViolated("shift amount must be a non-negative integer")
    if s.chart == CHART_INFINITE:
        raise PreconditionViolated("shifting acts on finite-chart sections")
    if k == 0:
        return s
    new_r = s.r.divide_in_ring(s.gamma.r0 ** k, prec)
    return SectionData(s.gamma, new_r, s.chart)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StraightLine:
    """A single-chart linear path; coordinate y, or 1/(y - offset)."""

    path: PolyExt  # polynomial in T
    chart: str = CHART_FINITE
    offset: Optional[RingElement] = None  # only for the infinite chart

    def model(self) -> str:
        return self.path.model


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

    def model(self) -> str:
        return self.blown_center.model


@dataclass(frozen=True)
class ChainWitness:
    pieces: tuple

    def model(self) -> str:
        return self.pieces[0].model()


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


# --- verdicts -------------------------------------------------------------


@dataclass(frozen=True)
class Homotopic:
    witness: HomotopyWitness
    level: str

    tag = "homotopic"


@dataclass(frozen=True)
class NotHomotopic:
    reason: str
    delta: Optional[RingElement] = None
    ideal: Optional[IdealHandle] = None

    tag = "not-homotopic"


@dataclass(frozen=True)
class Undecidable:
    reason: str
    detail: str = ""

    tag = "undecidable"


Verdict = Union[Homotopic, NotHomotopic, Undecidable]


def _undecidable_from(exc: EngineError) -> Undecidable:
    kind = {
        RootUnavailable: UNDECIDABLE_ROOT,
        UnsupportedSupport: UNDECIDABLE_SUPPORT,
        DegreeCapExceeded: UNDECIDABLE_CAP,
        PrecisionExhausted: UNDECIDABLE_PRECISION,
    }.get(type(exc))
    if kind is None:
        raise exc
    return Undecidable(kind, str(exc))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _const(e: RingElement) -> PolyExt:
    return PolyExt.constant(e)


def _t_var(model: str) -> PolyExt:
    return PolyExt.variable("T", model)


def _s_var(model: str) -> PolyExt:
    return PolyExt.variable("S", model)


def _line_path(v1: RingElement, v0: RingElement) -> PolyExt:
    """v1*T + v0*(1 - T): value v1 at T=1, v0 at T=0."""
    model = v1.model
    t = _t_var(model)
    one = _const(RingElement.one(model))
    return t.scale(v1) + (one - t).scale(v0)


def build_straightline(s1: SectionData, s2: SectionData) -> StraightLine:
    """The naive path y = r1*T + r2*(1-T), for sections both divisible by r0."""
    _require_shared_gamma(s1, s2)
    if s1.chart != CHART_FINITE or s2.chart != CHART_FINITE:
        raise PreconditionViolated("straight-line paths use the finite chart")
    r0 = s1.gamma.r0
    if r0.is_zero() or not r0.is_unit():
        for s in (s1, s2):
            if not r0.is_zero() and not s.r.is_zero() and not divides(r0, s.r):
                raise PreconditionViolated(
                    "straight-line construction needs r0 to divide both values"
                )
    return StraightLine(_line_path(s1.r, s2.r), CHART_FINITE)


def _infinite_line(w1: RingElement, w2: RingElement, offset=None) -> StraightLine:
    return StraightLine(_line_path(w1, w2), CHART_INFINITE, offset)


def build_ghost_witness(s1: SectionData, s2: SectionData) -> GhostWitness:
    """The two-chart datum of the blown-center construction.

    Expects values already moved into the small-slope window by
    shift_section; the witness records shift 0.  When the criterion fails,
    raises PreconditionViolated with the reason decide_nodal gives for the
    same shifted values.
    """
    _require_shared_gamma(s1, s2)
    if s1.chart != CHART_FINITE or s2.chart != CHART_FINITE:
        raise PreconditionViolated("ghost witnesses use the finite chart")
    r1, r2 = s1.r, s2.r
    if r1.is_zero() or r2.is_zero():
        raise PreconditionViolated("ghost construction needs nonzero values")
    if r1.is_unit() or r2.is_unit():
        raise PreconditionViolated(
            "ghost construction needs values inside the maximal ideal"
        )
    verdict = _blown_center_verdict(s1.gamma.r0, r1, r2, 0, DEFAULT_PREC)
    if isinstance(verdict, NotHomotopic):
        raise PreconditionViolated(verdict.reason)
    return verdict.witness


def _blown_center_verdict(
    r0: RingElement, r1: RingElement, r2: RingElement, shift: int, prec: int
) -> Verdict:
    """The blown-center criterion on values shifted into the window.

    r1 and r2 are connected exactly when r2 = w*r1 for a unit w, r1 | r0
    with r0 not| r1, and delta = w - 1 lies in the radical of <r1, r0/r1>;
    the positive answer carries the ghost witness.
    """
    w = unit_multiple(r1, r2, prec)
    if w is None:
        return NotHomotopic(
            "shifted values generate different ideals",
            ideal=IdealHandle([r1, r2]),
        )
    if not divides(r1, r0) or divides(r0, r1):
        return NotHomotopic(
            "shifted values sit outside the blown-center window",
            ideal=IdealHandle([r0, r1]),
        )
    model = r0.model
    one = RingElement.one(model)
    delta = w - one
    r0_over_r1 = r0.divide_in_ring(r1, prec)
    ideal = IdealHandle([r1, r0_over_r1])
    if not radical_membership(delta, ideal):
        return NotHomotopic(
            "delta is not in the radical of the blown-center ideal",
            delta=delta,
            ideal=ideal,
        )
    s = _s_var(model)
    one_pe = _const(one)
    one_plus_ds = one_pe + s.scale(delta)
    t = _t_var(model)
    witness = GhostWitness(
        shift=shift,
        blown_center=r1,
        v2_unit=r1,
        excluded=(_const(r0_over_r1), one_plus_ds),
        h1=one_plus_ds,
        h2=one_pe,
        hw_num=one_pe + (s * t).scale(delta),
        hw_den=one_plus_ds,
    )
    return Homotopic(witness, LEVEL_GHOST1)


def _require_shared_gamma(s1: SectionData, s2: SectionData) -> None:
    if s1.gamma != s2.gamma:
        raise PreconditionViolated("sections must share the same gamma data")


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


def _section_homogeneous(s: SectionData):
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
    model = w.path.model
    zero = RingElement.zero(model)
    one = RingElement.one(model)
    value = w.path.eval_st(zero, one if at_one else zero)
    if w.chart == CHART_FINITE:
        return (value, one)
    offset = w.offset if w.offset is not None else zero
    # coordinate z = 1/(y - offset): the point is [offset*z + 1 : z]
    return (offset * value + one, value)


def _ghost_end(w: GhostWitness, g: GammaData, at_one: bool):
    model = w.blown_center.model
    zero = RingElement.zero(model)
    one = RingElement.one(model)
    sval = one if at_one else zero
    h1val = w.h1.eval_st(sval, zero)
    y = g.r0 ** w.shift * w.blown_center * h1val
    return (y, one)


def _witness_ends(w: HomotopyWitness, g: GammaData):
    if isinstance(w, StraightLine):
        return (_straightline_end(w, True), _straightline_end(w, False))
    if isinstance(w, GhostWitness):
        return (_ghost_end(w, g, False), _ghost_end(w, g, True))
    ends = [_witness_ends(p, g) for p in w.pieces]
    return (ends[0][0], ends[-1][1])


def _const_one_like(p: PolyExt) -> PolyExt:
    return PolyExt.constant(RingElement.one(p.model))


def _clear_content(ps: list, prec: int) -> list:
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
        PolyExt(p.model, {k: c.divide_in_ring(d, prec) for k, c in p.terms.items()})
        for p in ps
    ]


def _pullback_form_pe(form: YForm, phi0: PolyExt, phi1: PolyExt) -> PolyExt:
    return (phi0**form.degree).scale(form.c0) + (phi1**form.degree).scale(form.c1)


def _coerce_avoid(entries) -> list:
    out = []
    for entry in entries or []:
        if isinstance(entry, IdealHandle):
            out.append(AvoidIdeal(base=tuple(entry.gens), forms=()))
        else:
            out.append(entry)
    return out


def _avoid_clause(
    pieces,  # list of (piece_name, phi0, phi1, E_gens: list[PolyExt])
    entries,  # list of AvoidIdeal
    prec: int,
) -> tuple:
    for name, phi0, phi1, e_gens in pieces:
        for entry in entries:
            j_gens = [_const(b) for b in entry.base]
            for form in entry.forms:
                pulled = _pullback_form_pe(form, phi0, phi1)
                j_gens.extend(_clear_content([pulled], prec))
            for e in e_gens:
                if not ext_radical_membership(e, j_gens, prec):
                    label = entry.label or "center"
                    return False, f"{name} meets the excluded locus {label}"
    return True, ""


def _straightline_map(w: StraightLine):
    """Homogeneous [Y0 : Y1] coordinates of the path."""
    model = w.path.model
    one = _const_one_like(w.path)
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
    prec: int,
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
                gens = [_const(r0 ** t.a), w.path ** t.b]
                if not ext_unit_ideal(_clear_content(gens, prec), prec):
                    ok = False
                    detail = f"pulled-back node ideal at l_{t} is not principal"
                    break
            report.add("line-lift", ok, detail)

    if avoid:
        phi0, phi1 = _straightline_map(w)
        ok, detail = _avoid_clause(
            [("path", phi0, phi1, [_const_one_like(w.path)])], avoid, prec
        )
        report.add("avoidance", ok, detail)


def _verify_straightline(
    X: NodalSurface,
    g: GammaData,
    w: StraightLine,
    s1: SectionData,
    s2: SectionData,
    avoid,
    report: VerificationReport,
    prec: int,
) -> None:
    end1, end0 = _witness_ends(w, g)
    ok1 = _points_agree(end1, _section_homogeneous(s1))
    ok0 = _points_agree(end0, _section_homogeneous(s2))
    report.add(
        "endpoints",
        ok1 and ok0,
        "" if ok1 and ok0 else "path ends do not match the sections",
    )
    _line_body_clauses(X, g, w, avoid, report, prec)


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
        shifted = [
            s.r.divide_in_ring(r0 ** k, prec) if k else s.r for s in (s1, s2)
        ]
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
    gens = [_const(w.v2_unit)] + list(w.excluded)
    ok = ext_unit_ideal(gens, prec)
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
    one_pe = _const(one)
    pieces = [
        ("V1", w.h1, one_pe, list(w.excluded)),
        ("V2", w.h2, one_pe, [_const(w.v2_unit)]),
        # the overlap sits inside both pieces, so its complement ideal is
        # the product of the two complements
        ("W", w.hw_den, w.hw_num, [_const(w.v2_unit) * e for e in w.excluded]),
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
    ok, detail = _avoid_clause(pieces, entries, prec)
    report.add("avoidance", ok, detail)


def _verify_chain(
    X: NodalSurface,
    g: GammaData,
    w: ChainWitness,
    s1: SectionData,
    s2: SectionData,
    avoid,
    report: VerificationReport,
    prec: int,
) -> None:
    if not w.pieces:
        ok = _points_agree(_section_homogeneous(s1), _section_homogeneous(s2))
        report.add("endpoints", ok, "" if ok else "empty chain with distinct ends")
        return
    ends = [_witness_ends(p, g) for p in w.pieces]
    ok = _points_agree(ends[0][0], _section_homogeneous(s1))
    report.add("endpoints", ok, "" if ok else "first piece misses section 1")
    for i in range(len(ends) - 1):
        ok = _points_agree(ends[i][1], ends[i + 1][0])
        report.add(
            f"chain-joint-{i}",
            ok,
            "" if ok else "consecutive pieces do not meet",
        )
    ok = _points_agree(ends[-1][1], _section_homogeneous(s2))
    report.add("endpoints-tail", ok, "" if ok else "last piece misses section 2")
    for i, piece in enumerate(w.pieces):
        sub = VerificationReport()
        if isinstance(piece, StraightLine):
            # the joint checks above already pin the endpoints; only the
            # per-piece lift and avoidance clauses remain
            _line_body_clauses(X, g, piece, avoid, sub, prec)
        else:
            sub.add("shape", False, "chains are built from straight lines only")
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
    """Independent clause-by-clause check of a homotopy witness.

    Returns a truthy report when every clause holds; on well-formed input
    it records failures (including honest "could not be determined" ones)
    instead of raising.
    """
    s1, s2 = endpoints
    avoid = _coerce_avoid(avoid)
    report = VerificationReport()
    try:
        if isinstance(w, StraightLine):
            _verify_straightline(X, g, w, s1, s2, avoid, report, prec)
        elif isinstance(w, GhostWitness):
            _verify_ghost(X, g, w, s1, s2, avoid, report, prec)
        elif isinstance(w, ChainWitness):
            _verify_chain(X, g, w, s1, s2, avoid, report, prec)
        else:
            report.add("shape", False, f"unknown witness type {type(w).__name__}")
    except (PrecisionExhausted, DegreeCapExceeded) as exc:
        report.add("determinism", False, f"undetermined: {exc}")
    except (DivisionImpossible, ModelMismatch, PreconditionViolated) as exc:
        report.add("well-formed", False, str(exc))
    return report


# ---------------------------------------------------------------------------
# the nodal decision procedure
# ---------------------------------------------------------------------------


def _wtilde_value(s: SectionData, prec: int) -> RingElement:
    """The pole-side coordinate 1/y of a section in the zero-slope region."""
    if s.chart == CHART_INFINITE:
        return s.r
    return RingElement.one(s.r.model).divide_in_ring(s.r, prec)


def _nonmain_chain(s1: SectionData, s2: SectionData) -> HomotopyWitness:
    """Connect two sections when no lifting constraint is active."""
    if s1.chart == s2.chart:
        return StraightLine(_line_path(s1.r, s2.r), s1.chart)
    # mixed charts: route through the section at height 1, which both
    # charts write as the value 1
    one = RingElement.one(s1.r.model)
    return ChainWitness(
        (
            StraightLine(_line_path(s1.r, one), s1.chart),
            StraightLine(_line_path(one, s2.r), s2.chart),
        )
    )


def _top_slope(X: NodalSurface) -> Slope:
    return X.lines[-2]


def decide_nodal(
    X: NodalSurface,
    s1: SectionData,
    s2: SectionData,
    prec: int = DEFAULT_PREC,
) -> Verdict:
    """Are the two sections connected on X, and by what witness?"""
    _require_shared_gamma(s1, s2)
    g = s1.gamma
    try:
        return _decide_nodal_core(X, s1, s2, g, prec)
    except (RootUnavailable, DegreeCapExceeded, PrecisionExhausted) as exc:
        return _undecidable_from(exc)


def _decide_nodal_core(X, s1, s2, g, prec) -> Verdict:
    regime = classify_gamma(g)
    if regime != REGIME_MAIN:
        return Homotopic(_nonmain_chain(s1, s2), LEVEL_CHAIN)

    loc1 = closed_point_image(X, s1)
    loc2 = closed_point_image(X, s2)
    set1, set2 = location_slopes(loc1), location_slopes(loc2)
    if set1 != set2:
        return NotHomotopic(
            f"sections pass through different fiber regions: {loc1} vs {loc2}"
        )

    # identical sections connect by the constant path; skipping the general
    # branches keeps unit values away from needless series inversion
    if s1.chart == s2.chart and s1.r == s2.r:
        return Homotopic(
            StraightLine(_line_path(s1.r, s2.r), s1.chart), LEVEL_CHAIN
        )

    top = _top_slope(X)

    # free region around the pole section: always connected
    if set1 == frozenset({ZERO}):
        w1 = _wtilde_value(s1, prec)
        w2 = _wtilde_value(s2, prec)
        return Homotopic(_infinite_line(w1, w2), LEVEL_CHAIN)

    # free region at the top of the chain: always connected
    if set1 == frozenset({top}):
        return Homotopic(
            StraightLine(_line_path(s1.r, s2.r), CHART_FINITE), LEVEL_CHAIN
        )

    # middle line with integer slope: the interior is a torsor under units,
    # so the residues must agree exactly
    if len(set1) == 1:
        (t,) = set1
        if t.is_integer:
            k = t.a
            w1 = s1.r.divide_in_ring(g.r0 ** k, prec)
            w2 = s2.r.divide_in_ring(g.r0 ** k, prec)
            u = unit_multiple(w1, w2, prec)
            if u is None:
                return NotHomotopic(
                    "values are not unit multiples over the middle line",
                    delta=w2 - w1,
                )
            delta = u - RingElement.one(u.model)
            if delta.is_zero() or not delta.is_unit():
                witness = StraightLine(_line_path(s1.r, s2.r), CHART_FINITE)
                return Homotopic(witness, LEVEL_CHAIN)
            return NotHomotopic(
                "interior residues differ on a middle line "
                "(the region is rigid there)",
                delta=delta,
            )

    # node or fractional interior: shift into the small-slope window and
    # run the radical criterion on the blown center
    left = min(set1)
    k = left.floor()
    try:
        sh1 = shift_section(s1, k, prec)
        sh2 = shift_section(s2, k, prec)
    except DivisionImpossible as exc:
        raise LiftRequired(f"sections do not shift by {k}: {exc}") from exc
    r0 = g.r0
    r1h, r2h = sh1.r, sh2.r
    p1 = pair_principal(r0, r1h)
    p2 = pair_principal(r0, r2h)
    if p1 is None or p2 is None:
        return NotHomotopic(
            "a section fails the principality requirement after shifting",
            ideal=IdealHandle([r0, r1h if p1 is None else r2h]),
        )
    return _blown_center_verdict(r0, r1h, r2h, k, prec)


# ---------------------------------------------------------------------------
# the general (blowup-tree) decision procedure
# ---------------------------------------------------------------------------


def _closed_point(s: SectionData) -> BasePoint:
    """Where on the original fiber the section lands at the closed point."""
    if s.chart == CHART_FINITE:
        return BasePoint(s.r.residue(), Fraction(1))
    res = s.r.residue()
    if res == 0:
        return BasePoint(Fraction(1), Fraction(0))
    return BasePoint(1 / res, Fraction(1))


def _mobius_delta(s1: SectionData, s2: SectionData) -> RingElement:
    """Cross-multiplied difference of the two section points."""
    f1, g1 = _section_homogeneous(s1)
    f2, g2 = _section_homogeneous(s2)
    return f1 * g2 - f2 * g1


def _caseI_witness(roots, s1, s2, prec) -> StraightLine:
    """A line avoiding all root towers, in a chart anchored at one root."""
    model = s1.r.model
    finite_coords = [
        rp.c0 for rp in roots if isinstance(rp, BasePoint) and rp.c1 != 0
    ]
    if not finite_coords:
        # only [1:0] is blown up; the plain y-line misses it
        return StraightLine(_line_path(s1.r, s2.r), CHART_FINITE)
    rho = RingElement.from_fraction(finite_coords[0], model)
    vals = []
    for s in (s1, s2):
        if s.chart == CHART_FINITE:
            z = RingElement.one(model).divide_in_ring(s.r - rho, prec)
        else:
            # y = 1/w, so 1/(y - rho) = w/(1 - rho*w)
            one = RingElement.one(model)
            z = s.r.divide_in_ring(one - rho * s.r, prec)
        vals.append(z)
    return StraightLine(_line_path(vals[0], vals[1]), CHART_INFINITE, rho)


def _root_avoid_entries(roots, g: GammaData) -> list:
    """One avoid-ideal per blown-up fiber point: <r0, point equation>."""
    out = []
    model = g.r0.model
    one = RingElement.one(model)
    zero = RingElement.zero(model)
    for rp in roots:
        if not isinstance(rp, BasePoint):
            continue
        if rp.c1 == 0:
            form = YForm(zero, one, 1)
            label = "tower over [1:0]"
        else:
            form = YForm(one, -RingElement.from_fraction(rp.c0, model), 1)
            label = f"tower over [{rp.c0}:1]"
        out.append(AvoidIdeal(base=(g.r0,), forms=(form,), label=label))
    return out


def _interior_coordinate(
    s: SectionData, t: Slope, prec: int
) -> Optional[Fraction]:
    """Residue of x^a/y^b along the section, when that ratio is a unit."""
    r0 = s.gamma.r0
    u = unit_multiple(s.r ** t.b, r0 ** t.a, prec)
    if u is None:
        return None
    return u.residue()


def _puncture_avoid_entry(
    root_mark: LinePoint, g: GammaData, shift_k: int, center: RingElement, prec: int
) -> AvoidIdeal:
    """Ideal cutting the puncture's fiber locus, in the witness chart.

    The witness chart writes y = r0^shift * center * (Y0/Y1); the puncture
    sits on line a/b at canonical coordinate lambda, i.e. on the locus
    x^a * Y1-part = lambda * y-part^b intersected with the closed fiber.
    """
    a, b = root_mark.slope.a, root_mark.slope.b
    lam = root_mark.coord
    model = g.r0.model
    A = g.r0 ** a
    B = (g.r0 ** shift_k * center) ** b
    d = elements_gcd([A, B])
    a_red = A.divide_in_ring(d, prec)
    b_red = B.divide_in_ring(d, prec)
    lam_el = RingElement.from_fraction(lam, model)
    form = YForm(-(lam_el * b_red), a_red, b)
    return AvoidIdeal(
        base=(g.r0,),
        forms=(form,),
        label=f"puncture on l_{root_mark.slope} at {lam}",
    )


def cover_transform(
    g: GammaData, s1: SectionData, s2: SectionData, t: Slope, prec: int = DEFAULT_PREC
):
    """Untwist a fractional-slope location a/b through the degree-b cover.

    Returns (new GammaData, X_up) where the new base pullback r0~ satisfies
    r0~^b = r0 exactly, section values are unchanged, and on the covering
    surface the sections sit at the integer slope a.  Raises RootUnavailable
    when the needed unit root does not exist in the residue field.
    """
    a, b = t.a, t.b
    r0, r = g.r0, s1.r
    w = unit_multiple(r ** b, r0 ** a, prec)
    if w is None:
        raise PreconditionViolated("section is not located at the given slope")
    rho = nth_root_unit(w, b, prec)
    if rho is None:
        raise RootUnavailable("unit root not expressible in this ring model")
    # Bezout: alpha*a + beta*b = 1; the signed monomial r^alpha rho^alpha
    # r0^beta lies in the ring even when an exponent is negative, so build
    # numerator and denominator separately and divide exactly
    alpha, beta = _bezout(a, b)
    num = RingElement.one(r0.model)
    den = RingElement.one(r0.model)
    for base_el, e in ((r, alpha), (rho, alpha), (r0, beta)):
        if e >= 0:
            num = num * base_el ** e
        else:
            den = den * base_el ** (-e)
    new_r0 = num.divide_in_ring(den, prec)
    if new_r0 ** b != r0:
        raise ConsistencyFailure("cover-transformed base fails its defining identity")
    lines = [ZERO] + [Slope(i, 1) for i in range(1, a + 2)] + [INF]
    x_up = NodalSurface(tuple(lines))
    return GammaData(new_r0), x_up


def _bezout(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    assert old_r == 1, "slope must be reduced"
    return old_s, old_t


def _recenter(t, s1, s2, target: BasePoint, prec):
    """Move a blown-up fiber point to [0:1] by a fiberwise automorphism.

    y -> y - mu for a finite target [mu:1], and y -> 1/y for [1:0].  The
    automorphism fixes the base, so gamma and every verdict transfer
    verbatim; top-level tree positions move with the point and subtrees
    ride along unchanged (the automorphism acts trivially on exceptional
    coordinates over the moved point).
    """
    model = s1.r.model
    one = RingElement.one(model)
    flip = target.c1 == 0

    def move_point(p: BasePoint) -> BasePoint:
        if flip:
            if p.c1 == 0:
                return BasePoint.distinguished()
            if p.c0 == 0:
                return BasePoint(Fraction(1), Fraction(0))
            return BasePoint(1 / p.c0, Fraction(1))
        if p.c1 == 0:
            return p
        return BasePoint(p.c0 - target.c0, Fraction(1))

    def move_section(s: SectionData) -> SectionData:
        if flip:
            # only pole-chart sections reach [1:0]; their recorded value is
            # exactly the flipped coordinate
            return SectionData(s.gamma, s.r, CHART_FINITE)
        if s.chart == CHART_INFINITE:
            # the section meets a finite point, so its pole-chart value is
            # a unit and the height coordinate is its inverse
            y = one.divide_in_ring(s.r, prec)
        else:
            y = s.r
        mu = RingElement.from_fraction(target.c0, model)
        return SectionData(s.gamma, y - mu, CHART_FINITE)

    roots = tuple(TreeVertex(move_point(r.position), r.children) for r in t.roots)
    return BlowupTree(roots), move_section(s1), move_section(s2)


def decide_general(
    t: BlowupTree, s1: SectionData, s2: SectionData, prec: int = DEFAULT_PREC
) -> Verdict:
    """Homotopy decision in the presence of arbitrary infinitely near centers."""
    _require_shared_gamma(s1, s2)
    g = s1.gamma
    try:
        return _decide_general_core(t, s1, s2, g, prec)
    except (
        RootUnavailable,
        DegreeCapExceeded,
        PrecisionExhausted,
        UnsupportedSupport,
    ) as exc:
        return _undecidable_from(exc)


def _verify_or_raise(what: str, X, g, witness, sections, entries, prec) -> None:
    """Replay a witness the engine just built; a failed clause is an engine bug."""
    rep = verify_witness(X, g, witness, sections, entries, prec)
    if not rep:
        raise ConsistencyFailure(
            f"constructed witness failed {what}: "
            + "; ".join(f"{c.name}: {c.detail}" for c in rep.failures())
        )


def _decide_general_core(t, s1, s2, g, prec) -> Verdict:
    regime = classify_gamma(g)
    if regime != REGIME_MAIN:
        return Homotopic(_nonmain_chain(s1, s2), LEVEL_CHAIN)
    if t.is_empty():
        # nothing is blown up: the fiber is a projective line
        return Homotopic(_nonmain_chain(s1, s2), LEVEL_CHAIN)

    root_points = [r.position for r in t.roots]
    if not all(isinstance(rp, BasePoint) for rp in root_points):
        raise UnsupportedSupport(
            "top-level centers must be points of the original fiber"
        )
    p1 = _closed_point(s1)
    p2 = _closed_point(s2)
    hit1 = p1 if p1 in root_points else None
    hit2 = p2 if p2 in root_points else None

    # Case I: both sections stay away from every blown-up point
    if hit1 is None and hit2 is None:
        if len(root_points) > 1:
            delta = _mobius_delta(s1, s2)
            if not radical_membership(delta, IdealHandle([g.r0])):
                return NotHomotopic(
                    "sections approach distinct avoided points of a "
                    "multi-point center",
                    delta=delta,
                    ideal=IdealHandle([g.r0]),
                )
        witness = _caseI_witness(root_points, s1, s2, prec)
        entries = _root_avoid_entries(root_points, g)
        _verify_or_raise(
            "tower avoidance", NodalSurface.p1(), g, witness, (s1, s2), entries, prec
        )
        return Homotopic(witness, LEVEL_CHAIN)

    if hit1 != hit2:
        return NotHomotopic(
            f"sections meet different centers at the closed point: "
            f"{p1} vs {p2}"
        )

    # both hit the same root; if it is not the distinguished point, move it
    # there by a fiberwise Moebius automorphism (y -> y - mu, or y -> 1/y
    # for the point at infinity) and decide the recentred problem, which is
    # isomorphic to this one
    if not hit1.is_distinguished():
        t_moved, s1m, s2m = _recenter(t, s1, s2, hit1, prec)
        return _decide_general_core(t_moved, s1m, s2m, g, prec)

    # keep the distinguished tower; towers over other points cannot obstruct
    # a tower-local homotopy (witness sweeps stay in their region)
    the_root = next(
        r for r in t.roots if r.position == BasePoint.distinguished()
    )
    tower = BlowupTree((the_root,))
    x_prime, residual = normalize_pure_nodes(tower)

    for s in (s1, s2):
        if not lifts(x_prime, s):
            raise LiftRequired(
                "a section does not factor through the nodal part of the tower"
            )

    loc1 = closed_point_image(x_prime, s1)
    loc2 = closed_point_image(x_prime, s2)
    set1, set2 = location_slopes(loc1), location_slopes(loc2)
    if set1 != set2:
        return NotHomotopic(
            f"sections pass through different fiber regions: {loc1} vs {loc2}"
        )

    # sections sitting exactly on a residual center are out of scope
    for s, loc in ((s1, loc1), (s2, loc2)):
        if isinstance(loc, Interior):
            for rr in residual.roots:
                mark = rr.position
                if isinstance(mark, LinePoint) and mark.slope == loc.slope:
                    coord = _interior_coordinate(s, loc.slope, prec)
                    if coord is not None and coord == mark.coord:
                        raise UnsupportedSupport(
                            "section passes through a residual blowup center"
                        )

    top = _top_slope(x_prime)
    punctures = [
        rr.position
        for rr in residual.roots
        if isinstance(rr.position, LinePoint) and rr.position.slope == top
    ]

    if set1 == frozenset({top}) and punctures:
        # the free top region is punctured: an affine line minus >= 1 points
        # is rigid over the residue field, so interior residues must agree
        w1 = s1.r.divide_in_ring(g.r0 ** top.a, prec)
        w2 = s2.r.divide_in_ring(g.r0 ** top.a, prec)
        if (w2 - w1).is_zero() or not (w2 - w1).is_unit():
            witness = StraightLine(_line_path(s1.r, s2.r), CHART_FINITE)
            entries = [
                _puncture_avoid_entry(pm, g, 0, RingElement.one(g.r0.model), prec)
                for pm in punctures
            ]
            _verify_or_raise(
                "its own avoidance check", x_prime, g, witness, (s1, s2), entries, prec
            )
            return Homotopic(witness, LEVEL_CHAIN)
        return NotHomotopic(
            "interior residues differ in a punctured free region "
            f"({len(punctures)} puncture(s) on l_{top})",
            delta=w2 - w1,
        )

    verdict = _decide_nodal_core(x_prime, s1, s2, g, prec)

    # certify Homotopic witnesses against the residual punctures
    if isinstance(verdict, Homotopic) and not residual.is_empty():
        entries = []
        k = verdict.witness.shift if isinstance(verdict.witness, GhostWitness) else 0
        center = (
            verdict.witness.blown_center
            if isinstance(verdict.witness, GhostWitness)
            else RingElement.one(g.r0.model)
        )
        for rr in residual.roots:
            mark = rr.position
            if isinstance(mark, LinePoint):
                entries.append(_puncture_avoid_entry(mark, g, k, center, prec))
        _verify_or_raise(
            "residual avoidance", x_prime, g, verdict.witness, (s1, s2), entries, prec
        )
    return verdict


# ---------------------------------------------------------------------------
# partitioning families of sections
# ---------------------------------------------------------------------------


@dataclass
class PartitionResult:
    classes: list  # list of lists of indices into the input family
    undecided: list  # (i, j, reason) pairs


def partition_classes(
    target, g: GammaData, sections: Sequence[SectionData], prec: int = DEFAULT_PREC
) -> PartitionResult:
    """Split a family of sections into connected classes by pairwise verdicts.

    `target` is a NodalSurface (nodal decision) or a BlowupTree (general
    decision).  Transitivity of the pairwise answers is re-checked and a
    violation raises ConsistencyFailure: it would mean the engine itself is
    unsound, and no partition should be reported from inconsistent data.
    """
    n = len(sections)
    for s in sections:
        if s.gamma != g:
            raise PreconditionViolated("all sections must share the gamma data")
    decide = decide_nodal if isinstance(target, NodalSurface) else decide_general
    verdicts = {}
    undecided = []
    for i in range(n):
        for j in range(i + 1, n):
            v = decide(target, sections[i], sections[j], prec)
            if isinstance(v, Undecidable):
                undecided.append((i, j, v.reason))
            verdicts[(i, j)] = v

    # union-find over decided Homotopic pairs
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for (i, j), v in verdicts.items():
        if isinstance(v, Homotopic):
            union(i, j)

    # transitivity audit on fully decided triples
    for (i, j), v in verdicts.items():
        if isinstance(v, NotHomotopic) and find(i) == find(j):
            raise ConsistencyFailure(
                f"pairwise verdicts violate transitivity at sections {i}, {j}"
            )

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = [sorted(v) for _, v in sorted(groups.items())]
    return PartitionResult(classes=classes, undecided=undecided)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def witness_to_json(w: HomotopyWitness) -> dict:
    if isinstance(w, StraightLine):
        out = {
            "type": "straight-line",
            "chart": w.chart,
            "path": polyext_to_json(w.path),
        }
        if w.offset is not None and not w.offset.is_zero():
            out["offset"] = element_to_text(w.offset)
        return out
    if isinstance(w, GhostWitness):
        return {
            "type": "ghost",
            "shift": w.shift,
            "blown_center": element_to_text(w.blown_center),
            "v2_unit": element_to_text(w.v2_unit),
            "excluded_ideal_v1": [polyext_to_json(p) for p in w.excluded],
            "h1": polyext_to_json(w.h1),
            "h2": polyext_to_json(w.h2),
            "hw_num": polyext_to_json(w.hw_num),
            "hw_den": polyext_to_json(w.hw_den),
        }
    return {"type": "chain", "pieces": [witness_to_json(p) for p in w.pieces]}


def witness_from_json(blob: dict, model: str, prec: int = DEFAULT_PREC):
    if not isinstance(blob, dict) or "type" not in blob:
        raise ParseError("witness JSON needs a type tag")
    kind = blob["type"]
    if kind == "straight-line":
        chart = blob.get("chart", CHART_FINITE)
        if chart not in (CHART_FINITE, CHART_INFINITE):
            raise ParseError(f"unknown chart {chart!r}")
        offset = None
        if "offset" in blob:
            offset = parse_element(blob["offset"], model, prec)
        return StraightLine(
            polyext_from_json(blob["path"], model, prec), chart, offset
        )
    if kind == "ghost":
        try:
            return GhostWitness(
                shift=int(blob["shift"]),
                blown_center=parse_element(blob["blown_center"], model, prec),
                v2_unit=parse_element(blob["v2_unit"], model, prec),
                excluded=tuple(
                    polyext_from_json(p, model, prec)
                    for p in blob["excluded_ideal_v1"]
                ),
                h1=polyext_from_json(blob["h1"], model, prec),
                h2=polyext_from_json(blob["h2"], model, prec),
                hw_num=polyext_from_json(blob["hw_num"], model, prec),
                hw_den=polyext_from_json(blob["hw_den"], model, prec),
            )
        except KeyError as exc:
            raise ParseError(f"ghost witness missing field {exc}") from exc
    if kind == "chain":
        return ChainWitness(
            tuple(witness_from_json(p, model, prec) for p in blob.get("pieces", []))
        )
    raise ParseError(f"unknown witness type {kind!r}")


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Homotopic):
        return {
            "verdict": "homotopic",
            "level": v.level,
            "witness": witness_to_json(v.witness),
        }
    if isinstance(v, NotHomotopic):
        obstruction = {"reason": v.reason}
        if v.delta is not None:
            obstruction["delta"] = element_to_text(v.delta)
        if v.ideal is not None:
            texts = [element_to_text(e) for e in v.ideal.gens]
            obstruction["ideal"] = list(dict.fromkeys(texts))
        return {"verdict": "not-homotopic", "obstruction": obstruction}
    return {"verdict": "undecidable", "reason": v.reason, "detail": v.detail}
