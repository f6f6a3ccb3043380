"""Ten end-to-end guarantees, one printed summary line each.

Every criterion seeds its own RNG, checks exact properties against an
independent oracle or invariant, and enforces a wall-clock budget.  Run
pytest with -s to see the lines; a failing criterion prints FAIL before
the traceback.
"""

import contextlib
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from nodalwitness.dvrseries import Series
from nodalwitness.farey import INF, Slope, ZERO, farey_path, mediant
from nodalwitness.homotopy import (
    GammaData,
    Homotopic,
    NotHomotopic,
    SectionData,
    build_ghost_witness,
    build_straightline,
    closed_point_image,
    cover_transform,
    decide_nodal,
    location_slopes,
    shift_section,
    verify_witness,
)
from nodalwitness.localring import (
    IdealHandle,
    MODEL_BIVARIATE,
    MODEL_DVR,
    RingElement,
    element_to_text,
    parse_element,
    parse_polyext,
    radical_membership,
    substitute_base,
)
from nodalwitness.surface import NEG_INF_LABEL, NodalSurface, etale_cover_degree

import test_cli


@contextlib.contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < budget else "FAIL (over budget)"
    print(f"criterion {num:2d} ({name}): {verdict} [{dt:.2f}s, budget {budget:g}s]")
    assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"


# --- shared generators ------------------------------------------------------

X_UNIFORMIZER = parse_element("x", MODEL_DVR)


def rnd_unit(rng, leads=(1, 2, 3, -1, -2), max_tail=2):
    lead = Fraction(rng.choice(leads))
    tail = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, max_tail))]
    return Series.make(0, [lead] + tail, True)


def rnd_value(rng, val, leads=(1, 2, 3, -1, -2)):
    return X_UNIFORMIZER ** val * rnd_unit(rng, leads)


def chain_surface(top):
    return NodalSurface(
        (ZERO,) + tuple(Slope(i, 1) for i in range(1, top + 1)) + (INF,)
    )


def tag(verdict):
    return type(verdict).__name__


# --- 1: invariants of random blowup chains -----------------------------------


def _check_surface_shape(X):
    raw = [(t.a, t.b) for t in X.lines]
    for a, b in raw:
        assert math.gcd(a, b) == 1 and (a, b) != (0, 0) and b >= 0
    for (a1, b1), (a2, b2) in zip(raw, raw[1:]):
        # strict monotonicity by cross-multiplication (1/0 sorts last)
        assert a1 * b2 < a2 * b1
        assert abs(a1 * b2 - a2 * b1) == 1
    assert raw[-2][1] == 1, "largest finite slope must be an integer"


def test_01_blowup_chains_keep_their_shape_invariants():
    rng = random.Random(101)
    with criterion(1, "blowup-chain shape invariants", 1.0):
        for _ in range(1000):
            X = NodalSurface.p1()
            for _ in range(rng.randint(0, 12)):
                X = X.blowup_node(rng.randrange(X.node_count))
                _check_surface_shape(X)


# --- 2: divisor support vs. order-recursion oracle ----------------------------


def _oracle_support(seq, a, b):
    """Zero/pole labels of x^a/y^b, by tracking orders through each blowup.

    The two seed lines carry the coordinate valuations (x along the 0-line,
    y along the infinity-line); each exceptional line inherits the sum of
    the orders at the node it replaces.  No slope comparisons involved.
    """
    surf = [(0, 1), (1, 0)]
    orders = {(0, 1): a, (1, 0): -b}
    for i in seq:
        left, right = surf[i], surf[i + 1]
        mid = (left[0] + right[0], left[1] + right[1])
        orders[mid] = orders[left] + orders[right]
        surf.insert(i + 1, mid)

    def lbl(c, d):
        if d == 0:
            return "l_inf"
        return f"l_{c}" if d == 1 else f"l_{c}/{d}"

    zeros = {NEG_INF_LABEL} | {lbl(*t) for t in surf if orders[t] > 0}
    poles = {lbl(*t) for t in surf if orders[t] < 0}
    return frozenset(zeros), frozenset(poles)


def test_02_divisor_support_matches_order_recursion():
    sequences = [[]]
    frontier = [([], NodalSurface.p1())]
    for _ in range(4):
        nxt = []
        for seq, X in frontier:
            for i in range(X.node_count):
                nxt.append((seq + [i], X.blowup_node(i)))
        sequences.extend(s for s, _ in nxt)
        frontier = nxt

    with criterion(2, "divisor support vs order recursion", 10.0):
        checked = 0
        for seq in sequences:
            X = NodalSurface.p1()
            for i in seq:
                X = X.blowup_node(i)
            for s in X.lines:
                if not (ZERO < s <= Slope(1, 1)):
                    continue
                zeros, poles = _oracle_support(seq, s.a, s.b)
                assert X.divisor_support(s, "zeros") == zeros
                assert X.divisor_support(s, "poles") == poles
                checked += 1
        assert checked > 30  # the enumeration really covered something


# --- 3: mediant paths to every small slope ------------------------------------


def test_03_mediant_paths_reach_every_small_slope():
    with criterion(3, "mediant paths to all targets b<=50", 1.0):
        for b in range(1, 51):
            for a in range(1, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                target = Slope(a, b)
                path = farey_path(target)
                assert path[-1] == target
                for p, q in zip(path, path[1:]):
                    if p != q:
                        assert abs(p.a * q.b - p.b * q.a) == 1
                # the path prints only finite entries; 1/0 is the silent
                # right-hand seed, e.g. 1 itself arrives as mediant(0, 1/0)
                earlier = list(path[:-1]) + [INF]
                last = path[-1]
                assert any(
                    last == (mediant(p, q) if p < q else mediant(q, p))
                    for i, p in enumerate(earlier)
                    for q in earlier[i + 1:]
                    if p != q
                )


# --- 4: the decision behaves like an equivalence relation ---------------------


def test_04_homotopy_verdicts_form_an_equivalence():
    rng = random.Random(404)
    X = chain_surface(5)
    short = {k: chain_surface(5 - k) for k in (1, 2)}
    prec = 10  # values stay tiny; full default precision just burns time
    undecided = 0
    homotopic_pairs = 0
    shift_abstained = 0
    one = RingElement.one(MODEL_DVR)
    with criterion(4, "equivalence, unit scaling, shift coherence", 5.0):
        for i in range(500):
            v0 = rng.randint(1, 3)
            g = GammaData(rnd_value(rng, v0))
            # correlate two of the three sections with the first often
            # enough that homotopic pairs (and hence real transitivity
            # instances) actually show up
            vals = [rng.randint(0, 4)]
            secs = [SectionData(g, rnd_value(rng, vals[0]))]
            for _ in range(2):
                roll = rng.random()
                if roll < 0.4:
                    vals.append(rng.randint(0, 4))
                    secs.append(SectionData(g, rnd_value(rng, vals[-1])))
                    continue
                vals.append(vals[0])
                if roll < 0.7:
                    r = secs[0].r * rnd_unit(rng)
                else:
                    r = secs[0].r * (one + rnd_value(rng, rng.randint(1, 2)))
                secs.append(SectionData(g, r))

            t01 = tag(decide_nodal(X, secs[0], secs[1], prec))
            t02 = tag(decide_nodal(X, secs[0], secs[2], prec))
            t12 = tag(decide_nodal(X, secs[1], secs[2], prec))
            if "Undecidable" in (t01, t02, t12):
                undecided += 1
                continue
            homotopic_pairs += (t01, t02, t12).count("Homotopic")

            # transitivity, in all three orientations
            pos = [t == "Homotopic" for t in (t01, t02, t12)]
            assert pos.count(True) != 2, (t01, t02, t12)

            # the remaining properties rotate across triples so the whole
            # sweep stays within budget; each still gets 125+ samples
            if i % 4 == 0:
                assert tag(decide_nodal(X, secs[0], secs[0], prec)) == "Homotopic"
                assert tag(decide_nodal(X, secs[1], secs[0], prec)) == t01
                continue
            if i % 4 == 2:
                w = rnd_unit(rng)
                scaled = tag(
                    decide_nodal(
                        X,
                        SectionData(g, w * secs[0].r),
                        SectionData(g, w * secs[1].r),
                        prec,
                    )
                )
                assert scaled == t01
                continue

            # elementary transformations: shift both sections k steps and
            # compare on the correspondingly shorter chain; keep the
            # shifted pair off the bottom boundary line, whose free
            # direction would genuinely change the answer
            def max_shift(val):
                return (val - 1) // v0 if val >= 1 else 0

            k = max(
                0,
                min(rng.randint(0, 2), max_shift(vals[0]), max_shift(vals[1])),
            )
            if k:
                # the shift divides away r0^k; a non-monomial r0^k that
                # does not divide a value leaves a truncated series.  Equal
                # shifted values connect by the constant path, so no shift
                # abstains now; any that did would be counted separately
                shifted = tag(
                    decide_nodal(
                        short[k],
                        shift_section(secs[0], k),
                        shift_section(secs[1], k),
                    )
                )
                if shifted == "Undecidable":
                    shift_abstained += 1
                else:
                    assert shifted == t01
        assert undecided < 50
        assert homotopic_pairs > 100
        assert shift_abstained < 25


# --- 5: witness round-trip and the four single-clause corruptions -------------


def test_05_ghost_witnesses_roundtrip_and_reject_corruptions():
    rng = random.Random(505)
    X = NodalSurface((ZERO, Slope(1, 1), INF))
    m = MODEL_DVR
    one, S, T = (parse_polyext(t, m) for t in ("1", "S", "T"))

    def rebuilt(h1m):
        return {"h1": h1m, "hw_den": h1m, "hw_num": one + (h1m - one) * T}

    with criterion(5, "witness build/verify and clause corruption", 30.0):
        for _ in range(200):
            v0 = rng.randint(2, 5)
            v = rng.randint(1, v0 - 1)
            g = GammaData(rnd_value(rng, v0))
            r1 = rnd_value(rng, v)
            delta = rnd_value(rng, rng.randint(1, 3))
            r2 = r1 * (RingElement.one(m) + delta)
            s1, s2 = SectionData(g, r1), SectionData(g, r2)

            w = build_ghost_witness(s1, s2)
            report = verify_witness(X, g, w, (s1, s2))
            assert report.ok, [c for c in report.clauses if not c.ok]

            rhat = element_to_text(w.blown_center)
            corruptions = {
                "endpoints": replace(
                    w, **rebuilt(w.h1 + parse_polyext(f"({rhat})*S", m))
                ),
                "cover": replace(
                    w,
                    excluded=(
                        parse_polyext(
                            f"({rhat}) + ({element_to_text(g.r0)})*S", m
                        ),
                    ),
                ),
                # double the sweep's T-coefficient: endpoints still match
                # but the overlap interpolation identity breaks
                "gluing": replace(w, hw_num=w.hw_num + (w.h1 - one) * T),
                # S^2 - S vanishes at both endpoints yet drags the sweep
                # across the node on the residue fiber
                "avoidance": replace(
                    w, **rebuilt(w.h1 + parse_polyext("S^2", m) - S)
                ),
            }
            for clause, bad in corruptions.items():
                bad_report = verify_witness(X, g, bad, (s1, s2))
                assert not bad_report.ok, (clause, "was accepted")
                names = [c.name for c in bad_report.clauses if not c.ok]
                assert clause in names, (clause, names)


# --- 6: radical membership vs. the combinatorial monomial oracle --------------


def test_06_radical_membership_matches_monomial_oracle():
    rng = random.Random(606)
    u = parse_element("u", MODEL_BIVARIATE)
    v = parse_element("v", MODEL_BIVARIATE)

    def monomial(i, j):
        return u ** i * v ** j

    def rnd_exponents():
        i = rng.randint(0, 4)
        j = rng.randint(0, 4 - i)
        return i, j

    with criterion(6, "radical membership vs monomial oracle", 30.0):
        for _ in range(100):
            gens_exp = []
            while not gens_exp:
                gens_exp = [rnd_exponents() for _ in range(rng.randint(1, 3))]
                gens_exp = [e for e in gens_exp if e != (0, 0)]
            p, q = rnd_exponents()
            f = monomial(p, q)
            ideal = IdealHandle([monomial(i, j) for i, j in gens_exp])

            # f lies in the radical of a monomial ideal exactly when some
            # generator's variable support is contained in f's support
            expected = any(
                (i == 0 or p > 0) and (j == 0 or q > 0) for i, j in gens_exp
            )
            assert radical_membership(f, ideal) == expected, (gens_exp, (p, q))


# --- 7: straight lines between divisible sections lift everywhere -------------


def test_07_divisible_pairs_connect_by_straight_lines():
    rng = random.Random(707)
    surfaces = [NodalSurface.p1()]
    for _ in range(2):
        surfaces.extend(
            X.blowup_node(i)
            for X in list(surfaces)
            for i in range(X.node_count)
        )
    low = [X for X in dict.fromkeys(surfaces) if X.is_in_Nprime()]
    assert len(low) == 3  # [0,inf], [0,1,inf], [0,1/2,1,inf]

    with criterion(7, "straight-line lift on low surfaces", 5.0):
        for _ in range(100):
            g = GammaData(rnd_value(rng, rng.randint(1, 2)))
            s1 = SectionData(g, g.r0 * rnd_value(rng, rng.randint(0, 2)))
            s2 = SectionData(g, g.r0 * rnd_value(rng, rng.randint(0, 2)))
            w = build_straightline(s1, s2)
            for X in low:
                report = verify_witness(X, g, w, (s1, s2))
                lift = [c for c in report.clauses if c.name == "line-lift"]
                assert lift and lift[0].ok
                assert report.ok


# --- 8: shifts, cover degrees, and base substitution cohere -------------------


def test_08_shift_cover_and_substitution_consistency():
    rng = random.Random(808)
    with criterion(8, "shift/cover/substitution consistency", 5.0):
        # (a) shifting a section drops every slope its location pins by k
        X = chain_surface(9)
        for _ in range(200):
            v0 = rng.randint(1, 2)
            v = rng.randint(0, 8)
            g = GammaData(rnd_value(rng, v0))
            s = SectionData(g, rnd_value(rng, v))
            k = min(rng.randint(0, 2), v // v0)
            before = {
                Fraction(t.a, t.b)
                for t in location_slopes(closed_point_image(X, s))
            }
            after = {
                Fraction(t.a, t.b)
                for t in location_slopes(
                    closed_point_image(X, shift_section(s, k))
                )
            }
            assert after == {b - k for b in before}, (v, v0, k)

        # (b) the untwisting cover degree is the reduced denominator
        for _ in range(50):
            a, b = rng.randint(1, 30), rng.randint(1, 30)
            fr = Fraction(a, b)
            assert etale_cover_degree(Slope(a, b)) == fr.denominator

        # (c) base substitution followed by the cover transform keeps verdicts
        X_half = NodalSurface((ZERO, Slope(1, 2), Slope(1, 1), INF))
        seen = set()
        for _ in range(50):
            g = GammaData(X_UNIFORMIZER ** 2 * rnd_unit(rng, leads=(1,)))
            r1 = rnd_value(rng, 1)
            if rng.random() < 0.5:
                r2 = r1 * (RingElement.one(MODEL_DVR) + rnd_value(rng, 1))
            else:
                r2 = r1 * RingElement.from_fraction(
                    Fraction(rng.choice([2, 3, -1])), MODEL_DVR
                )
            s1, s2 = SectionData(g, r1), SectionData(g, r2)
            base = tag(decide_nodal(X_half, s1, s2))
            seen.add(base)

            g2 = GammaData(substitute_base(g.r0, 2))
            t1 = SectionData(g2, substitute_base(r1, 2))
            t2 = SectionData(g2, substitute_base(r2, 2))
            assert tag(decide_nodal(X_half, t1, t2)) == base

            g_up, x_up = cover_transform(g2, t1, Slope(1, 2))
            u1 = SectionData(g_up, t1.r)
            u2 = SectionData(g_up, t2.r)
            assert tag(decide_nodal(x_up, u1, u2)) == base
        assert seen == {"Homotopic", "NotHomotopic"}


# --- 9: the one-variable model embeds into the two-variable model --------------


def test_09_dvr_instances_embed_into_bivariate():
    rng = random.Random(909)
    X = NodalSurface((ZERO, Slope(1, 1), INF))

    def embed(e):
        return parse_element(element_to_text(e).replace("x", "u"), MODEL_BIVARIATE)

    with criterion(9, "one-variable into two-variable embedding", 60.0):
        for _ in range(100):
            v0 = rng.randint(1, 3)
            g = GammaData(rnd_value(rng, v0))
            r1 = rnd_value(rng, rng.randint(0, 4))
            r2 = rnd_value(rng, rng.randint(0, 4))
            s1, s2 = SectionData(g, r1), SectionData(g, r2)
            gb = GammaData(embed(g.r0))
            b1 = SectionData(gb, embed(r1))
            b2 = SectionData(gb, embed(r2))

            vd = decide_nodal(X, s1, s2)
            vb = decide_nodal(X, b1, b2)
            assert tag(vd) == tag(vb)
            if isinstance(vd, NotHomotopic):
                assert vd.reason == vb.reason
            if isinstance(vd, Homotopic):
                rd = verify_witness(X, g, vd.witness, (s1, s2))
                rb = verify_witness(X, gb, vb.witness, (b1, b2))
                assert [(c.name, c.ok) for c in rd.clauses] == [
                    (c.name, c.ok) for c in rb.clauses
                ]
                assert rd.ok and rb.ok


# --- 10: command-line transcripts stay byte-exact ------------------------------


def test_10_cli_transcripts_are_byte_exact():
    with criterion(10, "CLI golden transcripts", 1.0):
        for name in sorted(test_cli.TRANSCRIPTS):
            rendered = test_cli.render_transcript(test_cli.TRANSCRIPTS[name])
            golden = (test_cli.GOLDEN_DIR / f"{name}.txt").read_text()
            assert rendered == golden, f"{name} transcript drifted"
