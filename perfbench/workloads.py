"""Seeded workloads for the nodalwitness benchmark, with their answer checks.

Each workload turns a seed into instance text (element grammar, surface
and tree JSON), parses that text into engine objects in set-up, and returns
a pool of operations.  An operation is one timed call into the library; its
check runs afterwards, untimed, against a reference that does not call the
code under test wherever one exists:

* DVR verdicts come from an integer valuation oracle.  A section of
  valuation v over r0 of valuation v0 sits on line a/b when a*v0 == b*v,
  above it when a*v0 < b*v; two sections are homotopic exactly when they
  pin the same finite slopes and either that region is free (slope 0 or
  the top slope) or they share valuation and leading coefficient.  This
  covers criterion 5's r1*(1+delta) family (homotopic), criterion 8's
  constant multiples (not homotopic) and, because the relation is an
  equivalence invariant under unit scaling and shifting, criterion 4's
  transitivity, unit-scaling and shift invariants.
* Two-variable verdicts are known by construction (see `_bivariate_pair`).
* Radical membership of monomials uses criterion 6's support oracle.
* Every built witness must verify; every corruption must be rejected
  naming the corrupted clause.

An Undecidable verdict is an abstention, not an error: it lowers the
decided ratio.  An expected refusal (LiftRequired on incomparable
two-variable values) counts as a correct, decided answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

LEADS = (1, 2, 3, -1, -2)


# --- outcomes ------------------------------------------------------------------


@dataclass
class Outcome:
    error: Optional[str] = None
    decisions: int = 0  # decisions attempted by the operation
    decided: int = 0  # ... that returned a verdict other than Undecidable
    witness_bytes: list = field(default_factory=list)  # per Homotopic verdict


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, Optional[BaseException]], Outcome]


def _unexpected(exc: BaseException, decisions: int = 0) -> Outcome:
    return Outcome(f"unexpected {type(exc).__name__}: {exc}", decisions, 0)


def compact_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# --- instance text -------------------------------------------------------------


class Draw:
    """Seeded choices for instance generation.

    `deck` deals the parameters that set an operation's cost (valuations,
    kinds of pair, unit patterns, tree shapes) from a fixed list in shuffled
    passes, so each value's share is the same for every seed and only order
    and pairing vary; the few remaining free choices use `rng`.  This keeps
    the spread between seeds small without fixing the inputs.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._decks: dict = {}

    def deck(self, name: str, values):
        key = (name, tuple(values))
        left = self._decks.get(key)
        if not left:
            left = list(key[1])
            self.rng.shuffle(left)
            self._decks[key] = left
        return left.pop()

    def share(self, name: str, yes: int, of: int) -> bool:
        """True `yes` times in every `of` calls."""
        return self.deck(name, [True] * yes + [False] * (of - yes))


def poly_text(coeffs, var: str) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(("-" if c < 0 else "") + mono)
        else:
            parts.append(f"{c}*{mono}")
    return "+".join(parts).replace("+-", "-") or "0"


@dataclass(frozen=True)
class Val:
    """Instance text of a DVR value with its valuation and leading coefficient."""

    text: str
    v: int
    lead: Fraction


TAILS = ((), (1,), (-2,), (3,), (2, -1), (-1, 3), (1, 2), (-3, 1))


def rnd_unit(d: Draw, leads=LEADS, max_tail=2) -> Val:
    """A unit lead + tail: dealt from the fixed lead-and-tail patterns, so the
    multiset of units, and with it the cost of exact arithmetic on them, is
    the same for every seed."""
    lead, tail = d.deck("unit", [(c, t) for c in leads for t in TAILS if len(t) <= max_tail])
    return Val(f"({poly_text([lead, *tail], 'x')})", 0, Fraction(lead))


def rnd_value(d: Draw, v: int, leads=LEADS, max_tail=2) -> Val:
    u = rnd_unit(d, leads, max_tail)
    if v == 0:
        return u
    xv = "x" if v == 1 else f"x^{v}"
    return Val(f"{xv}*{u.text}", v, u.lead)


def times_unit(base: Val, w: Val) -> Val:
    return Val(f"{w.text}*({base.text})", base.v, base.lead * w.lead)


def times_one_plus(d: Draw, base: Val, kmin: int = 1, kmax: int = 2, max_tail=2) -> Val:
    """base * (1 + delta) with v(delta) >= 1: same valuation and lead."""
    delta = rnd_value(d, d.deck("delta", range(kmin, kmax + 1)), max_tail=max_tail)
    return Val(f"({base.text})*(1+{delta.text})", base.v, base.lead)


# --- the valuation oracle ------------------------------------------------------


def chain_lines(top: int):
    return [(0, 1)] + [(i, 1) for i in range(1, top + 1)] + [(1, 0)]


def pinned_slopes(lines, v: int, v0: int) -> frozenset:
    """Finite slopes (a, b) a section of valuation v pins, r0 of valuation v0."""
    if v == 0:
        return frozenset({(0, 1)})
    prev = (0, 1)
    for a, b in lines[1:-1]:
        if a * v0 == b * v:
            return frozenset({(a, b)})
        if a * v0 < b * v:
            prev = (a, b)
            continue
        return frozenset({prev, (a, b)})
    return frozenset({lines[-2]})


def class_key(lines, v0: int, s: Val):
    """Two sections are homotopic exactly when their keys agree."""
    pinned = pinned_slopes(lines, s.v, v0)
    if pinned in (frozenset({(0, 1)}), frozenset({lines[-2]})):
        return pinned
    return pinned, s.v, s.lead


def expected_verdict(lines, v0: int, s1: Val, s2: Val):
    """(expected verdict name, whether the fiber regions differ)."""
    apart = pinned_slopes(lines, s1.v, v0) != pinned_slopes(lines, s2.v, v0)
    same = class_key(lines, v0, s1) == class_key(lines, v0, s2)
    return ("Homotopic" if same else "NotHomotopic"), apart


def blowup_lines(d: Draw, steps: int, max_den: int, max_top: int):
    """Random nodal blowups of [0, inf], by mediants of neighbouring slopes."""
    lines = [(0, 1), (1, 0)]
    for _ in range(steps):
        choices = []
        for i in range(len(lines) - 1):
            (a1, b1), (a2, b2) = lines[i], lines[i + 1]
            m = (a1 + a2, b1 + b2)
            if m[1] <= max_den and (b2 != 0 or m[0] <= max_top):
                choices.append((i, m))
        if not choices:
            break
        i, m = d.rng.choice(choices)
        lines.insert(i + 1, m)
    return lines


def tree_and_lines(d: Draw, depth: int):
    """A pure-node blowup tree rooted at [0:1], and the slopes it resolves to.

    The slopes are replayed here from the tree with mediants alone, so the
    check does not depend on the engine's normalization.
    """
    slopes = {(0, 1), (1, 0)}

    def vertex(lo, hi, level):
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        slopes.add(mid)
        children = []
        if level < depth:
            for side, corner in (("node-left", (lo, mid)), ("node-right", (mid, hi))):
                if d.share("child", 9, 20):
                    children.append(dict(vertex(*corner, level + 1), at=side))
        return {"children": children} if children else {}

    root = dict(vertex((0, 1), (1, 0), 1), base="[0:1]")
    roots = [root]
    extra = d.deck("extra-root", [None, "[1:0]", "[2:1]", "[-1:1]"])
    if extra:
        roots.append({"base": extra})
    lines = sorted(slopes, key=lambda ab: Fraction(ab[0], ab[1]) if ab[1] else 10**9)
    return {"roots": roots}, lines


def value_in_region(d: Draw, lines, v0: int):
    """A valuation on a line interior, a node or a free region, kinds dealt evenly."""
    finite = lines[:-1]
    options = {
        "bottom": [0],
        "top": [v0 * lines[-2][0] + i for i in range(3)],
        "interior": [v0 * a // b for a, b in finite[1:-1] if v0 % b == 0],
        "node": [v for v in range(1, v0 * lines[-2][0])
                 if all(v * b != a * v0 for a, b in finite)],
    }
    kind = d.deck("region", ["bottom", "top", "interior", "node", "node"])
    for k in (kind, "node", "interior", "top"):
        if options[k]:
            return d.rng.choice(options[k])


# --- engine handle -------------------------------------------------------------


class Engine:
    """The measured package's modules.

    Operations call through module attributes at call time, so the traced
    run sees the wrappers it installs.
    """

    def __init__(self):
        from nodalwitness import blowuptree, homotopy, localring, polyring, surface

        self.H, self.L, self.P, self.B = homotopy, localring, polyring, blowuptree
        self.NodalSurface = surface.NodalSurface
        self.DVR, self.BIV = localring.MODEL_DVR, localring.MODEL_BIVARIATE

    def el(self, text: str, model: Optional[str] = None):
        return self.L.parse_element(text, model or self.DVR)

    def surface(self, lines):
        return self.NodalSurface.from_json_dict({"lines": [list(ab) for ab in lines]})

    def section(self, g, val: Val):
        return self.H.SectionData(g, self.el(val.text))

    def witness_bytes(self, verdict) -> int:
        return len(compact_json(self.H.witness_to_json(verdict.witness)))


def _verdict_outcome(E: Engine, verdict, expected: str, apart: bool) -> Outcome:
    name = type(verdict).__name__
    if name == "Undecidable":
        return Outcome(None, 1, 0)
    if name != expected:
        return Outcome(f"expected {expected}, got {name}", 1, 1)
    if name == "NotHomotopic":
        says_apart = verdict.reason.startswith("sections pass through different")
        if says_apart != apart:
            return Outcome(f"location disagrees with the valuation oracle: {verdict.reason}", 1, 1)
        return Outcome(None, 1, 1)
    return Outcome(None, 1, 1, [E.witness_bytes(verdict)])


def _decide_op(E: Engine, kind: str, lines, v0: int, call, s1: Val, s2: Val, group=None) -> Op:
    expected, apart = expected_verdict(lines, v0, s1, s2)

    def check(verdict, exc):
        out = _unexpected(exc, 1) if exc else _verdict_outcome(E, verdict, expected, apart)
        if group is not None:
            audit = group[0].record(group[1], type(exc or verdict).__name__)
            out.error = out.error or audit
        return out

    return Op(kind, call, check)


class Triple:
    """Criterion 4's transitivity audit over the three pairwise verdicts."""

    def __init__(self):
        self.seen: dict = {}

    def record(self, pos: int, name: str) -> Optional[str]:
        self.seen[pos] = name
        if len(self.seen) < 3:
            return None
        seen = list(self.seen.values())
        self.seen.clear()
        decided = all(n in ("Homotopic", "NotHomotopic") for n in seen)
        if decided and seen.count("Homotopic") == 2:
            return f"transitivity violated: {seen}"
        return None


# --- nodal-dvr -----------------------------------------------------------------


def _triple_ops(E: Engine, d: Draw, X, lines) -> list:
    """Criterion 4's correlated triple, plus a unit-scaled pair."""
    v0 = d.deck("v0-chain", [1, 2, 3])
    r0 = rnd_value(d, v0)
    g = E.H.GammaData(E.el(r0.text))
    vals = [rnd_value(d, d.deck("v-chain", range(5)))]
    for _ in range(2):
        # correlate with the first often enough that homotopic pairs (and
        # real transitivity instances) show up: 4 independent, 3 unit
        # multiples, 3 times (1 + delta) in every 10
        kind = d.deck("triple", ["indep"] * 4 + ["unit"] * 3 + ["one-plus"] * 3)
        if kind == "indep":
            vals.append(rnd_value(d, d.deck("v-chain", range(5))))
        elif kind == "unit":
            vals.append(times_unit(vals[0], rnd_unit(d)))
        else:
            vals.append(times_one_plus(d, vals[0]))
    secs = [E.section(g, s) for s in vals]
    H = E.H
    group = Triple()
    ops = [
        _decide_op(E, "decide-chain", lines, v0,
                   lambda a=secs[i], b=secs[j]: H.decide_nodal(X, a, b),
                   vals[i], vals[j], (group, pos))
        for pos, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)))
    ]
    w = rnd_unit(d)
    scaled = [times_unit(vals[0], w), times_unit(vals[1], w)]
    a, b = (E.section(g, s) for s in scaled)
    ops.append(_decide_op(E, "decide-scaled", lines, v0,
                          lambda: H.decide_nodal(X, a, b), *scaled))
    return ops


def _shift_op(E: Engine, d: Draw, chains) -> Op:
    """Criterion 4's shift-and-redecide: shift both by k, decide on a shorter chain."""
    v0 = d.deck("v0-chain", [1, 2, 3])
    k = d.deck("shift", [1, 2])
    r0 = rnd_value(d, v0)
    g = E.H.GammaData(E.el(r0.text))
    # values stay off the bottom line after the shift
    s1 = rnd_value(d, k * v0 + d.deck(f"above-{v0}", range(1, 2 * v0 + 1)))
    kind = d.deck("shift-partner", ["one-plus", "unit", "indep"])
    if kind == "one-plus":
        s2 = times_one_plus(d, s1)
    elif kind == "unit":
        s2 = times_unit(s1, rnd_unit(d))
    else:
        s2 = rnd_value(d, k * v0 + d.deck(f"above-{v0}", range(1, 2 * v0 + 1)))
    top = len(chains) - 1
    short, lines = chains[top - k]
    # the oracle sees the shifted values: valuation drops by k*v0 and the
    # lead is divided by lead(r0)^k, which preserves the class relation
    shifted = [Val("", s.v - k * v0, s.lead / r0.lead ** k) for s in (s1, s2)]
    a, b = E.section(g, s1), E.section(g, s2)
    H = E.H

    def call():
        return H.decide_nodal(short, H.shift_section(a, k), H.shift_section(b, k))

    return _decide_op(E, "shift-redecide", lines, v0, call, *shifted)


def _fractional_op(E: Engine, d: Draw) -> Op:
    lines = blowup_lines(d, d.deck("blowups", [2, 3, 4, 5]), max_den=4, max_top=3)
    v0 = d.deck("v0-blowup", [1, 2, 3, 4, 6])
    r0 = rnd_value(d, v0)
    g = E.H.GammaData(E.el(r0.text))
    s1 = rnd_value(d, value_in_region(d, lines, v0))
    s2 = _partner(d, lines, v0, s1)
    X = E.surface(lines)
    a, b = E.section(g, s1), E.section(g, s2)
    H = E.H
    return _decide_op(E, "decide-blowup", lines, v0, lambda: H.decide_nodal(X, a, b), s1, s2)


def _partner(d: Draw, lines, v0: int, s1: Val) -> Val:
    """A second section: 7 in 20 times (1 + delta), 5 a unit multiple, 8 placed anew."""
    kind = d.deck("partner", ["one-plus"] * 7 + ["unit"] * 5 + ["region"] * 8)
    if kind == "one-plus":
        return times_one_plus(d, s1)
    if kind == "unit":
        return times_unit(s1, rnd_unit(d))
    return rnd_value(d, value_in_region(d, lines, v0))


def _general_op(E: Engine, d: Draw) -> Op:
    tree_json, lines = tree_and_lines(d, depth=3)
    tree = E.B.tree_from_json(json.loads(compact_json(tree_json)))
    v0 = d.deck("v0-general", [1, 2, 3, 4])
    r0 = rnd_value(d, v0)
    g = E.H.GammaData(E.el(r0.text))
    # both sections pass through the distinguished root [0:1]
    s1 = rnd_value(d, max(1, value_in_region(d, lines, v0)))
    s2 = _partner(d, lines, v0, s1)
    if s2.v == 0:
        s2 = times_one_plus(d, s1)
    a, b = E.section(g, s1), E.section(g, s2)
    H = E.H
    return _decide_op(E, "decide-general", lines, v0,
                      lambda: H.decide_general(tree, a, b), s1, s2)


def _constant_multiple_op(E: Engine, d: Draw, X_half, lines) -> Op:
    """Criterion 8: r1*c is not homotopic to r1; r1*(1+delta) is."""
    r0 = rnd_value(d, 2, leads=(1,))
    g = E.H.GammaData(E.el(r0.text))
    s1 = rnd_value(d, 1)
    if d.share("constant", 1, 2):
        c = d.deck("c", [2, 3, -1])
        s2 = Val(f"{c}*({s1.text})", s1.v, s1.lead * c)
    else:
        s2 = times_one_plus(d, s1, 1, 1)
    a, b = E.section(g, s1), E.section(g, s2)
    H = E.H
    return _decide_op(E, "decide-constant-multiple", lines, 2,
                      lambda: H.decide_nodal(X_half, a, b), s1, s2)


def _partition_op(E: Engine, d: Draw, X1, lines, size=10) -> Op:
    """partition_classes over a family built from four (valuation, lead) classes."""
    # one shape for every family, so that partition latencies (the p99 of
    # this workload) form one tight cluster: v(r0) = 3, values c*x^v and
    # c*x^v*(1 + c'*x^k), and four classes of sizes 3, 3, 2, 2, three in
    # the node region with distinct leads (so they stay apart) and one
    # above the top line
    v0 = 3
    r0 = rnd_value(d, v0, max_tail=0)
    g = E.H.GammaData(E.el(r0.text))
    leads = d.rng.sample(LEADS, 3)
    seeds = [rnd_value(d, v, (lead,), 0) for v, lead in zip((1, 2, 1), leads)]
    seeds.append(rnd_value(d, v0 + 1, max_tail=0))
    family = seeds + [times_one_plus(d, seeds[i % 4], 1, 3, max_tail=0)
                      for i in range(size - 4)]
    d.rng.shuffle(family)
    secs = [E.section(g, s) for s in family]
    groups: dict = {}
    for i, s in enumerate(family):
        groups.setdefault(class_key(lines, v0, s), []).append(i)
    expected = sorted(groups.values())
    pairs = size * (size - 1) // 2
    H = E.H

    def check(part, exc):
        if exc is not None:
            return _unexpected(exc, pairs)
        decided = pairs - len(part.undecided)
        if not part.undecided and part.classes != expected:
            return Outcome(f"classes {part.classes}, expected {expected}", pairs, decided)
        for cls in part.classes:
            if not any(set(cls) <= set(e) for e in expected):
                return Outcome(f"class {cls} merges sections the oracle separates", pairs, decided)
        return Outcome(None, pairs, decided)

    return Op("partition-classes", lambda: H.partition_classes(X1, g, secs), check)


NODAL_ROUND = 50


def nodal_dvr(E: Engine, seed: int, rounds: int = 40, tick=lambda: None) -> list:
    """decide_nodal streams in the DVR model at the default precision."""
    d = Draw(seed)
    chains = [(E.surface(chain_lines(t)), chain_lines(t)) for t in range(6)]
    X5, lines5 = chains[5]
    one_lines = chain_lines(1)
    X1 = E.surface(one_lines)
    half_lines = [(0, 1), (1, 2), (1, 1), (1, 0)]
    X_half = E.surface(half_lines)
    pool = []
    for _ in range(rounds):
        tick()  # lets the caller time set-up in short stretches
        ops = []
        for _ in range(7):
            ops += _triple_ops(E, d, X5, lines5)
        ops += [_shift_op(E, d, chains) for _ in range(4)]
        ops += [_fractional_op(E, d) for _ in range(10)]
        ops += [_general_op(E, d) for _ in range(5)]
        ops += [_constant_multiple_op(E, d, X_half, half_lines) for _ in range(2)]
        ops.append(_partition_op(E, d, X1, one_lines))
        assert len(ops) == NODAL_ROUND
        # triples must stay in order for their transitivity audit
        pool += ops
    return pool


# --- witness-dvr ---------------------------------------------------------------

CORRUPTIONS = ("endpoints", "cover", "gluing", "avoidance")


# (1+x)^e exponents of the size tail, one per round, larger ones spread out
TAIL_EXPONENTS = (50, 150, 100, 200)


def _roundtrip_op(E: Engine, kind: str, X, g, s1v: Val, s2v: Val) -> Op:
    a, b = E.section(g, s1v), E.section(g, s2v)
    H, DVR = E.H, E.DVR

    def run():
        verdict = H.decide_nodal(X, a, b)
        text = compact_json(H.witness_to_json(verdict.witness))
        w = H.witness_from_json(json.loads(text), DVR)
        return verdict, text, H.verify_witness(X, g, w, (a, b))

    def check(res, exc):
        if exc is not None:
            return _unexpected(exc, 1)
        verdict, text, report = res
        if type(verdict).__name__ != "Homotopic":
            return Outcome(f"expected Homotopic, got {type(verdict).__name__}", 1, 1)
        if not report.ok:
            return Outcome(f"own witness rejected: {[c.name for c in report.failures()]}", 1, 1)
        return Outcome(None, 1, 1, [len(text)])

    return Op(kind, run, check)


def _ghost_family(E: Engine, d: Draw, v0s=(2, 3, 4, 5), max_tail=2):
    """Criterion 5's homotopic family: v(r1) in (0, v(r0)), r2 = r1*(1+delta)."""
    v0, v = d.deck(f"ghost-{v0s}", [(v0, v) for v0 in v0s for v in range(1, v0)])
    r0 = rnd_value(d, v0, max_tail=max_tail)
    g = E.H.GammaData(E.el(r0.text))
    r1 = rnd_value(d, v, max_tail=max_tail)
    return v0, r0, g, r1, times_one_plus(d, r1, 1, 3, max_tail)


def _corruption_op(E: Engine, d: Draw, X, clause: str) -> Op:
    """Criterion 5's single-clause corruptions, serialized in set-up."""
    H, L, DVR = E.H, E.L, E.DVR
    _, r0, g, r1, r2 = _ghost_family(E, d)
    a, b = E.section(g, r1), E.section(g, r2)
    w = H.build_ghost_witness(a, b)
    one, S, T = (L.parse_polyext(t, DVR) for t in ("1", "S", "T"))

    def rebuilt(h1m):
        return {"h1": h1m, "hw_den": h1m, "hw_num": one + (h1m - one) * T}

    rhat = L.element_to_text(w.blown_center)
    if clause == "endpoints":
        bad = replace(w, **rebuilt(w.h1 + L.parse_polyext(f"({rhat})*S", DVR)))
    elif clause == "cover":
        cover = L.parse_polyext(f"({rhat}) + ({L.element_to_text(g.r0)})*S", DVR)
        bad = replace(w, excluded=(cover,))
    elif clause == "gluing":
        bad = replace(w, hw_num=w.hw_num + (w.h1 - one) * T)
    else:
        bad = replace(w, **rebuilt(w.h1 + L.parse_polyext("S^2", DVR) - S))
    text = compact_json(H.witness_to_json(bad))

    def run():
        parsed = H.witness_from_json(json.loads(text), DVR)
        return H.verify_witness(X, g, parsed, (a, b))

    def check(report, exc):
        if exc is not None:
            return _unexpected(exc)
        if report.ok:
            return Outcome(f"{clause} corruption accepted")
        names = [c.name for c in report.failures()]
        if clause not in names:
            return Outcome(f"{clause} corruption rejected by {names} instead")
        return Outcome()

    return Op(f"verify-corrupt-{clause}", run, check)


WITNESS_ROUND = 128


def witness_dvr(E: Engine, seed: int, rounds: int = 4, tick=lambda: None) -> list:
    """Certificate round trips for homotopic DVR pairs, corruptions, size tail."""
    d = Draw(seed)
    X1 = E.surface(chain_lines(1))
    X3, lines3 = E.surface(chain_lines(3)), chain_lines(3)
    pool = []
    for rnd in range(rounds):
        ops = []
        for i in range(96):
            tick()  # lets the caller time set-up in short stretches
            if i % 4 == 3:
                # a shifted ghost on a longer chain: the witness records shift k
                v0, r0, g, r1, r2 = _ghost_family(E, d, (2, 3))
                k = d.deck("shift", [1, 2])
                up = [Val(f"({r0.text})^{k}*({s.text})", s.v + k * v0, s.lead * r0.lead ** k)
                      for s in (r1, r2)]
                assert expected_verdict(lines3, v0, *up)[0] == "Homotopic"
                ops.append(_roundtrip_op(E, "roundtrip-shifted", X3, g, *up))
            else:
                # the median falls among the plain round trips: r0 = c*x^2,
                # r1 = c'*x and delta = c''*x^k keep them to one cluster per k
                _, _, g, r1, r2 = _ghost_family(E, d, (2,), max_tail=0)
                ops.append(_roundtrip_op(E, "roundtrip", X1, g, r1, r2))
        for i in range(31):
            tick()
            ops.append(_corruption_op(E, d, X1, CORRUPTIONS[(rnd * 31 + i) % 4]))
        d.rng.shuffle(ops)
        # monomial values, so the tail's witness size depends on e alone
        v0, v = d.deck("tail-ghost", [(v0, v) for v0 in (2, 3, 4, 5) for v in range(1, v0)])
        g = E.H.GammaData(E.el(f"x^{v0}"))
        r1 = Val(f"x^{v}", v, Fraction(1))
        e = TAIL_EXPONENTS[rnd % len(TAIL_EXPONENTS)]
        big = Val(f"(1+x)^{e}*x^{v}", v, Fraction(1))
        ops.append(_roundtrip_op(E, "roundtrip-tail", X1, g, r1, big))
        assert len(ops) == WITNESS_ROUND
        pool += ops
    return pool


# --- bivariate -----------------------------------------------------------------


def _biv_unit(d: Draw, den: Optional[bool] = None) -> str:
    """A unit of Q[u,v] localized at the origin that depends on v; over
    1 + k*v when `den`, or in 3 of 20 units when `den` is None."""
    c = d.deck("biv-c", LEADS)
    a, b = d.deck("biv-ab", [(a, b) for a in range(-2, 3) for b in (-2, -1, 1, 2)])
    num = f"({c}+{a}*u+{b}*v)".replace("+-", "-")
    if d.share("biv-den", 3, 20) if den is None else den:
        return f"{num}/(1+{d.deck('biv-k', [1, 2, -1])}*v)".replace("+-", "-")
    return num


# which units of a ghost pair (r0's, r1's, delta's) have a denominator: the
# ghost pairs carry the tail, and each denominator multiplies their cost, so
# the number of them per pair is dealt rather than drawn unit by unit
GHOST_DENOMINATORS = [()] * 12 + [("r0",), ("r1",), ("delta",)] * 2 + [("r1", "delta"),
                                                                       ("r0", "r1")]


def _bivariate_pair(d: Draw, kind: str):
    """(r0, s1, s2, expected) for a two-variable instance on [0, 1, inf].

    The expected verdicts follow from the construction: with r1 = u*U, the
    blown-center ideal <r1, r0/r1> has radical <u> when r0 = u^2*U0 and
    <u, v> when r0 = u*v*U0, and r2 = r1*(1 + delta) is homotopic to r1
    exactly when delta lies in that radical.
    """
    U = lambda: _biv_unit(d)  # noqa: E731
    if kind in ("ghost-u", "ghost-uv"):
        dens = d.deck("biv-ghost-den", GHOST_DENOMINATORS)
        r0u, u1, du = (_biv_unit(d, slot in dens) for slot in ("r0", "r1", "delta"))
        u1 = f"u*{u1}"
        if kind == "ghost-u":  # delta in <u>
            return f"u^2*{r0u}", u1, f"({u1})*(1+u*{du})", "Homotopic"
        # delta in <u, v>
        delta = d.deck("biv-delta", ["u", "v", "u*v", "v^2", "u+v"])
        return f"u*v*{r0u}", u1, f"({u1})*(1+({delta})*{du})", "Homotopic"
    u1 = f"u*{U()}"
    if kind == "off-radical":  # delta = c*v is not in <u>
        return f"u^2*{U()}", u1, f"({u1})*(1+{d.rng.choice([1, 2, -1])}*v)", "NotHomotopic"
    if kind == "constant":  # delta is a unit
        r0 = f"u^2*{U()}" if d.share("biv-r0", 1, 2) else f"u*v*{U()}"
        return r0, u1, f"{d.rng.choice([2, 3, -1])}*({u1})", "NotHomotopic"
    if kind == "ideals":  # different valuations in u generate different ideals
        return f"u^3*{U()}", u1, f"u^2*{U()}", "NotHomotopic"
    if kind == "top":  # above the top line: a free region
        return f"u*{U()}", f"u^2*{U()}", f"u^2*{U()}", "Homotopic"
    if kind == "units":  # the free region around the pole section
        return f"u^2*{U()}", U(), U(), "Homotopic"
    return f"u^2*{U()}", f"v*{U()}", f"v*{U()}", "LiftRequired"


def _bivariate_decide_op(E: Engine, d: Draw, X1, kind: str) -> Op:
    r0t, s1t, s2t, expected = _bivariate_pair(d, kind)
    H, BIV = E.H, E.BIV
    g = H.GammaData(E.el(r0t, BIV))
    a, b = H.SectionData(g, E.el(s1t, BIV)), H.SectionData(g, E.el(s2t, BIV))

    def run():
        verdict = H.decide_nodal(X1, a, b)
        report = None
        if type(verdict).__name__ == "Homotopic":
            report = H.verify_witness(X1, g, verdict.witness, (a, b))
        return verdict, report

    def check(res, exc):
        if exc is not None:
            if expected == "LiftRequired" and type(exc).__name__ == "LiftRequired":
                return Outcome(None, 1, 1)
            return _unexpected(exc, 1)
        verdict, report = res
        name = type(verdict).__name__
        if name == "Undecidable":
            return Outcome(None, 1, 0)
        if name != expected:
            return Outcome(f"{r0t}, {s1t}, {s2t}: expected {expected}, got {name}", 1, 1)
        if report is not None and not report.ok:
            return Outcome(f"own witness rejected: {[c.name for c in report.failures()]}", 1, 1)
        return Outcome(None, 1, 1, [E.witness_bytes(verdict)] if report else [])

    return Op(f"biv-{expected}", run, check)


MONOMIALS = [(i, j) for i in range(5) for j in range(5 - i)]  # total degree <= 4


def radical_queries() -> list:
    """A fixed family of criterion-6 queries: (generator exponents, f's exponents).

    Monomial queries have no coefficients, so their cost is set by this
    structure alone; keeping it fixed keeps the median of the bivariate
    workload (which falls among these queries) the same for every seed.
    """
    fixed = random.Random(606)  # criterion 6's seed; the family is the same for every run
    return [([fixed.choice(MONOMIALS[1:]) for _ in range(1 + k % 3)], fixed.choice(MONOMIALS))
            for k in range(60)]


def _radical_op(E: Engine, d: Draw, query) -> Op:
    """Criterion 6: radical membership of a monomial in a monomial ideal."""
    gens, (p, q) = query
    if d.share("swap-uv", 1, 2):  # u <-> v leaves the cost and the answer's rule alone
        gens, (p, q) = [(j, i) for i, j in gens], (q, p)
    L, BIV = E.L, E.BIV
    def mono(i, j):
        return E.el("*".join(["1"] + [f"{x}^{e}" for x, e in (("u", i), ("v", j)) if e]), BIV)

    f = mono(p, q)
    ideal = L.IdealHandle([mono(i, j) for i, j in gens])
    # f lies in the radical exactly when some generator's variable support
    # is contained in f's support
    expected = any((i == 0 or p > 0) and (j == 0 or q > 0) for i, j in gens)

    def check(got, exc):
        if exc is not None:
            return _unexpected(exc)
        if got != expected:
            return Outcome(f"radical membership of u^{p}*v^{q} in {gens}: {got}")
        return Outcome()

    return Op("radical-membership", lambda: L.radical_membership(f, ideal), check)


def bivariate(E: Engine, seed: int, rounds: int = 120, tick=lambda: None) -> list:
    """Two-variable decisions with verification, and radical queries."""
    d = Draw(seed)
    X1 = E.surface(chain_lines(1))
    queries = radical_queries()
    d.rng.shuffle(queries)
    pool = []
    for rnd in range(rounds):
        tick()  # lets the caller time set-up in short stretches
        # three ghost decisions carry most of the time; radical queries are
        # 12 of 20 operations so the median stays clear of the class boundary
        kinds = ["ghost-u", "ghost-uv", d.deck("ghost", ["ghost-u", "ghost-uv"]), "off-radical",
                 "constant", "ideals", d.deck("free", ["top", "units"]), "incomparable"]
        ops = [_bivariate_decide_op(E, d, X1, kind) for kind in kinds]
        ops += [_radical_op(E, d, queries[(rnd * 12 + i) % len(queries)]) for i in range(12)]
        d.rng.shuffle(ops)
        pool += ops
    return pool


LIBRARY = {"nodal-dvr": nodal_dvr, "witness-dvr": witness_dvr, "bivariate": bivariate}
