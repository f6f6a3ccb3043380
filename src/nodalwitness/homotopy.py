"""Homotopy decisions for sections of nodal blowups.

Sections of the blown-up ruled surface land in one of a handful of regions
of the special fiber: the free region around the pole section (coordinate
1/y), the free region at the top of the chain, the multiplicative-group
interior of a middle line, or a node.  Two sections can only be connected
if they land in the same region; within a region the obstruction is either
nothing (free regions), a residue (rigid regions), or a radical-membership
condition on the unit relating the two values (nodes and fractional
interiors).  Each positive answer carries a witness, a straight-line path,
a chain of them or a two-chart gluing datum ("ghost" witness), that
`verify.verify_witness` replays without this module.

Verdicts never bluff: anything the engine cannot settle exactly surfaces
as an explicit Undecidable tag rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    LiftRequired,
    ParseError,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
    UnsupportedSupport,
)
from .farey import INF, ZERO, Slope
from .localring import (
    IdealHandle,
    PolyExt,
    RingElement,
    divides,
    element_to_text,
    elements_gcd,
    nth_root_unit,
    parse_element,
    polyext_from_json,
    polyext_to_json,
    radical_membership,
    unit_multiple,
)
from .surface import NodalSurface
from .verify import (
    CHART_FINITE,
    CHART_INFINITE,
    AvoidIdeal,
    ChainWitness,
    GammaData,
    GhostWitness,
    HomotopyWitness,
    SectionData,
    StraightLine,
    YForm,
    section_homogeneous,
    verify_witness,
)

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
# regimes
# ---------------------------------------------------------------------------


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
    """Which line/node of the special fiber the section passes through.

    Raises LiftRequired exactly when the section does not factor through X,
    i.e. some node ideal <r0^a, r^b> is not principal: in a local domain,
    when neither member divides the other.  In a UFD (both models are)
    comparability at the first line that is not "down" carries to every
    line above it, so the walk stops there.
    """
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
    prev = ZERO
    for t in X.lines[:-1]:
        if t == ZERO:
            continue
        # r0^a | r^b puts the section at slope >= t, r^b | r0^a at <= t;
        # the model answers both (SectionData shares one model)
        down, up = r0.powers_divide(t.a, r, t.b)
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


# the engine errors a decision reports as an abstention, and the reason it gives
_ABSTENTIONS = {
    RootUnavailable: UNDECIDABLE_ROOT,
    UnsupportedSupport: UNDECIDABLE_SUPPORT,
    DegreeCapExceeded: UNDECIDABLE_CAP,
    PrecisionExhausted: UNDECIDABLE_PRECISION,
}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _line_path(v1: RingElement, v0: RingElement) -> PolyExt:
    """v1*T + v0*(1 - T): value v1 at T=1, v0 at T=0.  Equal values give the
    constant path, which subtracts nothing, so truncated ones cannot cancel."""
    if v1 == v0:
        return PolyExt.constant(v1)
    model = v1.model
    t = PolyExt.variable("T", model)
    one = PolyExt.constant(RingElement.one(model))
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
    s = PolyExt.variable("S", model)
    one_pe = PolyExt.constant(one)
    one_plus_ds = one_pe + s.scale(delta)
    t = PolyExt.variable("T", model)
    witness = GhostWitness(
        shift=shift,
        blown_center=r1,
        v2_unit=r1,
        excluded=(PolyExt.constant(r0_over_r1), one_plus_ds),
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
# the nodal decision procedure
# ---------------------------------------------------------------------------


def _pole_value(s: SectionData, prec: int) -> RingElement:
    """The section's pole-chart coordinate 1/y."""
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


def decide_nodal(
    X: NodalSurface,
    s1: SectionData,
    s2: SectionData,
    prec: int = DEFAULT_PREC,
) -> Verdict:
    """Are the two sections connected on X, and by what witness?  The tower
    step with no residual centers."""
    return _decide(
        s1, s2, X.node_count == 1, lambda: _decide_tower(X, (), s1, s2, prec)
    )


def _decide(s1: SectionData, s2: SectionData, blank: bool, step) -> Verdict:
    """The driver of both decisions.  Off the main regime, or when nothing
    is blown up (`blank`: X = P^1, or an empty tree), no path has anything
    to lift; otherwise `step()` decides, and an engine error it raises
    becomes the abstention `_ABSTENTIONS` names."""
    _require_shared_gamma(s1, s2)
    try:
        if classify_gamma(s1.gamma) != REGIME_MAIN or blank:
            return Homotopic(_nonmain_chain(s1, s2), LEVEL_CHAIN)
        return step()
    except tuple(_ABSTENTIONS) as exc:
        return Undecidable(_ABSTENTIONS[type(exc)], str(exc))


def _decide_tower(X: NodalSurface, marks, s1, s2, prec) -> Verdict:
    """The tower step: two main-regime sections on X, whose lines carry the
    residual free centers `marks` (LinePoints).  It locates both sections
    (closed_point_image is the decision's one comparability check: it
    raises LiftRequired exactly for a section that does not lift), checks
    them against the marks, decides in their shared region, and certifies
    a Homotopic witness against the marks."""
    g = s1.gamma
    locs = closed_point_image(X, s1), closed_point_image(X, s2)
    region = location_slopes(locs[0])
    if region != location_slopes(locs[1]):
        return NotHomotopic(
            f"sections pass through different fiber regions: {locs[0]} vs {locs[1]}"
        )

    # sections sitting exactly on a residual center are out of scope
    for s, loc in zip((s1, s2), locs):
        on_line = isinstance(loc, Interior) and [
            m.coord for m in marks if m.slope == loc.slope
        ]
        if on_line and _slope_unit(g.r0, s.r, loc.slope, prec).residue() in on_line:
            raise UnsupportedSupport("section passes through a residual blowup center")

    punctures = sum(m.slope == X.lines[-2] for m in marks)
    verdict = _decide_in_region(X, s1, s2, g, region, punctures, prec)

    # certify Homotopic witnesses against the residual punctures
    if isinstance(verdict, Homotopic) and marks:
        w = verdict.witness
        if isinstance(w, GhostWitness):
            k, center = w.shift, w.blown_center
        else:
            k, center = 0, RingElement.one(g.r0.model)
        entries = [_puncture_avoid_entry(m, g, k, center) for m in marks]
        _verify_or_raise("residual avoidance", X, g, w, (s1, s2), entries, prec)
    return verdict


def _rigid(g, delta, reason: str, where: str, ideal=None) -> Optional[NotHomotopic]:
    """Decide two sections in an A^1-rigid region: a middle line's interior
    (G_m), a punctured top line (A^1 minus points), or the original fiber
    minus two or more blown-up points (Case I).  They connect only if delta,
    their difference there, lies in sqrt(r0) (None: the caller builds the
    witness); a unit delta is NotHomotopic, and a nonunit outside sqrt(r0)
    agrees at the closed point only (a two-dimensional base), where no
    witness is built."""
    if radical_membership(delta, IdealHandle([g.r0])):
        return None
    if delta.is_unit():
        return NotHomotopic(reason, delta=delta, ideal=ideal)
    raise UnsupportedSupport(f"{where} agree at the closed point but differ along r0 = 0")


def _decide_in_region(X, s1, s2, g, region: frozenset, punctures: int, prec) -> Verdict:
    """Decide two main-regime sections that `_decide_tower` put in `region`,
    with `punctures` residual centers on the top line.

    Locating compared r0^a with r^b, and both models are UFDs, so nothing
    here checks it again.  On an integer middle line t, r = unit*r0^t, so
    the unit_multiple of the shifted values is a unit.  Elsewhere "down"
    at the left slope (>= k) gives r0^k | r, so the shift by k succeeds,
    and "up" at the right end (<= k+1, as a unimodular chain has a line at
    every integer from 0 to its top) gives r | r0^(k+1), so <r0, r/r0^k>
    is principal.
    """
    # identical sections connect by the constant path; skipping the general
    # branches keeps unit values away from needless series inversion
    if s1.chart == s2.chart and s1.r == s2.r:
        return Homotopic(StraightLine(PolyExt.constant(s1.r), s1.chart), LEVEL_CHAIN)

    # free region around the pole section: always connected
    if region == frozenset({ZERO}):
        w1, w2 = (_pole_value(s, prec) for s in (s1, s2))
        return Homotopic(StraightLine(_line_path(w1, w2), CHART_INFINITE), LEVEL_CHAIN)

    # an integer line: free at the top of the chain unless residual centers
    # puncture it, else rigid (see `_rigid`).  The top compares the shifted
    # values themselves, so that a corner section (w in m) is compared too
    left = min(region)
    if len(region) == 1 and left.is_integer:
        top = left == X.lines[-2]
        if punctures or not top:
            w1, w2 = (shift_section(s, left.a, prec).r for s in (s1, s2))
            if top:
                delta, reason = w2 - w1, (
                    "interior residues differ in a punctured free region "
                    f"({punctures} puncture(s) on l_{left})")
            else:
                delta = unit_multiple(w1, w2, prec) - RingElement.one(g.r0.model)
                reason = "interior residues differ on a middle line (the region is rigid there)"
            rigid = _rigid(g, delta, reason, f"interior residues on l_{left}")
            if rigid:
                return rigid
        return Homotopic(StraightLine(_line_path(s1.r, s2.r), CHART_FINITE), LEVEL_CHAIN)

    # node or fractional interior: shift into the small-slope window and
    # run the radical criterion on the blown center
    k = left.floor()
    r1h, r2h = (shift_section(s, k, prec).r for s in (s1, s2))
    return _blown_center_verdict(g.r0, r1h, r2h, k, prec)


# ---------------------------------------------------------------------------
# the general (blowup-tree) decision procedure
# ---------------------------------------------------------------------------


def _closed_point(s: SectionData) -> BasePoint:
    """Where on the original fiber the section lands at the closed point."""
    return BasePoint(*(c.residue() for c in section_homogeneous(s)))


def _mobius_delta(s1: SectionData, s2: SectionData) -> RingElement:
    """Cross-multiplied difference of the two section points."""
    f1, g1 = section_homogeneous(s1)
    f2, g2 = section_homogeneous(s2)
    return f1 * g2 - f2 * g1


def _caseI_witness(roots, s1, s2, prec) -> StraightLine:
    """A line avoiding all root towers: the pole-chart line after moving the
    anchor, the first finite root [rho:1] (else [1:0]), to [0:1].  Its
    coordinate is 1/(y - rho), or y for the anchor [1:0]."""
    anchor = next((rp for rp in roots if rp.c1 != 0), BasePoint(1, 0))
    z1, z2 = (_pole_value(_moved_section(s, anchor, prec), prec) for s in (s1, s2))
    if anchor.c1 == 0:
        return StraightLine(_line_path(z1, z2), CHART_FINITE)
    rho = RingElement.from_fraction(anchor.c0, s1.r.model)
    return StraightLine(_line_path(z1, z2), CHART_INFINITE, rho)


def _root_avoid_entries(roots, g: GammaData) -> list:
    """One avoid-ideal per blown-up fiber point [c0:c1]: <r0, c1*Y0 - c0*Y1>."""
    def el(c):
        return RingElement.from_fraction(c, g.r0.model)

    return [
        AvoidIdeal(
            base=(g.r0,),
            forms=(YForm(el(rp.c1), el(-rp.c0), 1),),
            label=f"tower over {rp}",
        )
        for rp in roots
    ]


def _slope_unit(r0, r, t: Slope, prec: int) -> Optional[RingElement]:
    """The unit w = r0^a / r^b at t = a/b, or None: a section with value r
    lies in the interior of l_t exactly when w exists, and its residue is
    the section's coordinate on l_t there."""
    return unit_multiple(r ** t.b, r0 ** t.a, prec)


def _puncture_avoid_entry(
    root_mark: LinePoint, g: GammaData, shift_k: int, center: RingElement
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
    a_red = A.divide_in_ring(d)
    b_red = B.divide_in_ring(d)
    lam_el = RingElement.from_fraction(lam, model)
    form = YForm(-(lam_el * b_red), a_red, b)
    return AvoidIdeal(
        base=(g.r0,),
        forms=(form,),
        label=f"puncture on l_{root_mark.slope} at {lam}",
    )


def cover_transform(g: GammaData, s: SectionData, t: Slope, prec: int = DEFAULT_PREC):
    """Untwist a fractional-slope location a/b through the degree-b cover.

    Returns (new GammaData, X_up) where the new base pullback r0~ satisfies
    r0~^b = r0 exactly, section values are unchanged, and on the covering
    surface s, located at slope a/b, sits at the integer slope a.  Raises
    RootUnavailable when the needed unit root does not exist in the residue
    field.
    """
    a, b = t.a, t.b
    r0, r = g.r0, s.r
    w = _slope_unit(r0, r, t, prec)
    if w is None:
        raise PreconditionViolated("section is not located at the given slope")
    rho = nth_root_unit(w, b, prec)
    if rho is None:
        raise RootUnavailable("unit root not expressible in this ring model")
    # (r*rho)^b = r0^a, so with a*alpha = 1 + k*b the quotient
    # (r*rho)^alpha / r0^k is a b-th root of r0
    new_r0 = r0
    if b > 1:
        alpha = pow(a, -1, b)
        k = (a * alpha - 1) // b
        new_r0 = ((r * rho) ** alpha).divide_in_ring(r0 ** k, prec)
    if new_r0 ** b != r0:
        raise ConsistencyFailure("cover-transformed base fails its defining identity")
    lines = [ZERO] + [Slope(i, 1) for i in range(1, a + 2)] + [INF]
    x_up = NodalSurface(tuple(lines))
    return GammaData(new_r0), x_up


def _moved_section(s: SectionData, target: BasePoint, prec) -> SectionData:
    """The section after the fiberwise automorphism moving target to [0:1]:
    [Y0 : Y1] -> [Y0 - mu*Y1 : Y1] for a finite target [mu:1], and
    [Y1 : Y0] for [1:0].  The moved point is written in the pole chart when
    Y0 is a unit (it misses [0:1]), else in the finite chart.  It fixes the
    base, so gamma and every verdict transfer verbatim."""
    y0, y1 = section_homogeneous(s)
    if target.c1 == 0:
        y0, y1 = y1, y0
    else:
        y0 = y0 - RingElement.from_fraction(target.c0, s.r.model) * y1
    if y0.is_unit():
        return SectionData(s.gamma, y1.divide_in_ring(y0, prec), CHART_INFINITE)
    return SectionData(s.gamma, y0.divide_in_ring(y1, prec), CHART_FINITE)


def decide_general(
    t: BlowupTree, s1: SectionData, s2: SectionData, prec: int = DEFAULT_PREC
) -> Verdict:
    """Homotopy decision in the presence of arbitrary infinitely near centers."""
    return _decide(s1, s2, t.is_empty(), lambda: _decide_general_core(t, s1, s2, prec))


def _verify_or_raise(what: str, X, g, witness, sections, entries, prec) -> None:
    """Replay a witness the engine just built; a failed clause is an engine
    bug.  A replay that only a budget stopped re-raises that error, for the
    decision to abstain on."""
    rep = verify_witness(X, g, witness, sections, entries, prec)
    if rep.undetermined is not None and len(rep.failures()) == 1:
        raise rep.undetermined
    if not rep:
        raise ConsistencyFailure(
            f"constructed witness failed {what}: "
            + "; ".join(f"{c.name}: {c.detail}" for c in rep.failures())
        )


def _decide_general_core(t, s1, s2, prec) -> Verdict:
    g = s1.gamma
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
        rigid = len(root_points) > 1 and _rigid(
            g, _mobius_delta(s1, s2),
            "sections approach distinct avoided points of a multi-point center",
            "the sections' points on the original fiber", IdealHandle([g.r0]),
        )
        if rigid:
            return rigid
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

    # both hit the same root: move it to [0:1] by a fiberwise Moebius
    # automorphism and keep only its tower; towers over other points cannot
    # obstruct a tower-local homotopy (witness sweeps stay in their region)
    if not hit1.is_distinguished():
        s1, s2 = (_moved_section(s, hit1, prec) for s in (s1, s2))
    hit_root = next(r for r in t.roots if r.position == hit1)
    tower = BlowupTree((TreeVertex(BasePoint.distinguished(), hit_root.children),))
    x_prime, residual = normalize_pure_nodes(tower)
    marks = [rr.position for rr in residual.roots]
    return _decide_tower(x_prime, marks, s1, s2, prec)


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
    """The JSON form of w, each element object printed once.  Texts are
    keyed by id() while w holds the objects, never by the element itself:
    equality of series is precision-relative, so x and x + O(x^2) are
    equal and hash alike but print differently."""
    texts: dict = {}

    def text(e: RingElement) -> str:
        if id(e) not in texts:
            texts[id(e)] = element_to_text(e)
        return texts[id(e)]

    return _witness_to_json(w, text)


def _witness_to_json(w: HomotopyWitness, text) -> dict:
    def poly(p: PolyExt) -> dict:
        return polyext_to_json(p, text)

    if isinstance(w, StraightLine):
        out = {"type": "straight-line", "chart": w.chart, "path": poly(w.path)}
        if w.offset is not None and not w.offset.is_zero():
            out["offset"] = text(w.offset)
        return out
    if isinstance(w, GhostWitness):
        return {
            "type": "ghost",
            "shift": w.shift,
            "blown_center": text(w.blown_center),
            "v2_unit": text(w.v2_unit),
            "excluded_ideal_v1": [poly(p) for p in w.excluded],
            "h1": poly(w.h1),
            "h2": poly(w.h2),
            "hw_num": poly(w.hw_num),
            "hw_den": poly(w.hw_den),
        }
    return {"type": "chain", "pieces": [_witness_to_json(p, text) for p in w.pieces]}


def _json_int(v) -> int:
    if type(v) is not int:
        raise ParseError(f"expected a JSON integer, got {type(v).__name__}")
    return v


def _json_list(v) -> list:
    if not isinstance(v, list):
        raise ParseError(f"expected a JSON list, got {type(v).__name__}")
    return v


def witness_from_json(blob: dict, model: str, prec: int = DEFAULT_PREC):
    """The witness a JSON form describes, each distinct element text parsed
    once: one text -> element map serves every field and every piece of a
    chain, and dies with the call."""
    seen: dict = {}

    def element(text) -> RingElement:
        # a text that fails to parse is not kept, so it raises where first read
        if not (isinstance(text, str) and text in seen):
            seen[text] = parse_element(text, model, prec)
        return seen[text]

    return _witness_from_json(blob, model, element)


def _witness_from_json(blob: dict, model: str, element):
    if not isinstance(blob, dict) or "type" not in blob:
        raise ParseError("witness JSON needs a type tag")
    kind = blob["type"]

    def read(name: str, parse):
        """The field parsed; a ParseError names the field."""
        if name not in blob:
            raise ParseError(f"{kind} witness missing field {name!r}")
        try:
            return parse(blob[name])
        except ParseError as exc:
            raise ParseError(f"{kind} witness field {name!r}: {exc}") from exc

    def poly(d) -> PolyExt:
        return polyext_from_json(d, model, element)

    if kind == "straight-line":
        chart = blob.get("chart", CHART_FINITE)
        if chart not in (CHART_FINITE, CHART_INFINITE):
            raise ParseError(f"unknown chart {chart!r}")
        offset = read("offset", element) if "offset" in blob else None
        return StraightLine(read("path", poly), chart, offset)
    if kind == "ghost":
        return GhostWitness(
            shift=read("shift", _json_int),
            blown_center=read("blown_center", element),
            v2_unit=read("v2_unit", element),
            excluded=read(
                "excluded_ideal_v1", lambda v: tuple(map(poly, _json_list(v)))
            ),
            h1=read("h1", poly),
            h2=read("h2", poly),
            hw_num=read("hw_num", poly),
            hw_den=read("hw_den", poly),
        )
    if kind == "chain":
        pieces = read("pieces", _json_list) if "pieces" in blob else []
        return ChainWitness(tuple(_witness_from_json(p, model, element) for p in pieces))
    raise ParseError(f"unknown witness type {kind!r}")


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Homotopic):
        return {
            "verdict": v.tag,
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
        return {"verdict": v.tag, "obstruction": obstruction}
    return {"verdict": v.tag, "reason": v.reason, "detail": v.detail}
