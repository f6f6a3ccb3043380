"""Command-line behavior: exit codes, JSON round-trips, golden transcripts.

Golden files live in tests/golden/, one transcript per subcommand.  Each
transcript replays a list of invocations in-process and must match the
stored file byte for byte.  Set GOLDEN_UPDATE=1 to rewrite them after an
intentional output change.
"""

import contextlib
import io
import json
import os
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nodalwitness import cli
from nodalwitness.errors import ConsistencyFailure

GOLDEN_DIR = Path(__file__).parent / "golden"

P1 = '{"lines":[[0,1],[1,0]]}\n'
HALF_SURFACE = '{"lines":[[0,1],[1,2],[1,1],[1,0]]}\n'
TREE_NODAL = (
    '{"roots":[{"base":"[0:1]","children":'
    '[{"at":"node-left"},{"at":{"free":"3/2"}}]}]}\n'
)
# a node tower over [0:1] that normalizes to [0, 1/2, 1, 3/2, 2, inf] with a
# residual puncture on l_2 at 1
V_LINEAR_TOWER = (
    '{"roots":[{"base":"[0:1]","children":[{"at":"node-left"},{"at":"node-right",'
    '"children":[{"at":"node-left"},{"at":{"free":"1"}}]}]}]}\n'
)
TREE_TWO_ROOTS = '{"roots":[{"base":"[0:1]"},{"base":"[1:0]"}]}\n'
TREE_SPLITTING = (
    '{"roots":[{"base":"[4:1]","children":[{"at":{"free":"5"}}]},'
    '{"base":"[1:0]"}]}\n'
)
# a tree with a residual puncture at 2: deciding this pair runs no
# Groebner, and certifying its ghost witness against the puncture runs it 3
# times, reducing 4, 4 and 1 S-pairs (pinned in test_homotopy), so a budget
# of 1 trips inside the self-certification
TREE_PUNCTURED = '{"roots":[{"base":"[0:1]","children":[{"at":{"free":"2"}}]}]}\n'
BUDGET_PAIR = ["decide", "general", "--r0", "u*v", "--s1", "u", "--s2", "u*(1+u)",
               "--tree", "-"]

GHOST_WITNESS = (
    '{"type":"ghost","shift":0,"blown_center":"x","v2_unit":"x",'
    '"excluded_ideal_v1":[{"1":"x"},{"1":"1","S":"x"}],'
    '"h1":{"1":"1","S":"x"},"h2":{"1":"1"},'
    '"hw_num":{"1":"1","S*T":"x"},"hw_den":{"1":"1","S":"x"}}\n'
)
# same certificate with h1 replaced wholesale; the sweep data no longer
# interpolates it, so verification must name the gluing clause
TAMPERED_WITNESS = GHOST_WITNESS.replace(
    '"h1":{"1":"1","S":"x"}', '"h1":{"1":"1","S":"2*x"}'
)
# hand-edited: truncated excluded generators with residues 1 and 0, so the
# cover query passes the residue fibre with no base-constant shortcut, and
# with two S/T generators no base-ring rule settles it
TRUNCATED_WITNESS = (
    '{"type":"ghost","shift":0,"blown_center":"x","v2_unit":"0",'
    '"excluded_ideal_v1":[{"1":"1 + O(x)","S":"x + O(x^2)"},{"T":"x + O(x^2)"}],'
    '"h1":{"1":"1","S":"x"},"h2":{"1":"1"},'
    '"hw_num":{"1":"1","S*T":"x"},"hw_den":{"1":"1","S":"x"}}\n'
)
# its first generator alone: a single S/T generator over no base constant
# spans no unit ideal, whatever its truncated coefficients hide
ONE_GENERATOR_WITNESS = TRUNCATED_WITNESS.replace(',{"T":"x + O(x^2)"}', "")
CONSTANT_WITNESS = '{"type":"straight-line","chart":"finite","path":{"1":"x"}}\n'


def nested_tree(k):
    """A tree with a chain of k free vertices over [0:1]: 2k + 4 levels of
    JSON arrays and objects."""
    vertex = '{"at":{"free":"1"},"children":['
    return ('{"roots":[{"base":"[0:1]","children":[' + vertex * (k - 1)
            + '{"at":{"free":"1"}}' + "]}" * (k - 1) + "]}]}")


def invoke(argv, stdin_text=""):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejections
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# --- golden transcripts ---------------------------------------------------------


def render_transcript(steps):
    lines = []
    for argv, stdin_text in steps:
        lines.append("$ nodalwitness " + shlex.join(argv))
        if stdin_text:
            lines.extend("< " + ln for ln in stdin_text.rstrip("\n").split("\n"))
        code, out, err = invoke(argv, stdin_text)
        if out:
            lines.extend(out.rstrip("\n").split("\n"))
        if err:
            lines.extend("! " + ln for ln in err.rstrip("\n").split("\n"))
        lines.append(f"[exit {code}]")
    return "\n".join(lines) + "\n"


TRANSCRIPTS = {
    "surface": [
        (["--seed", "0", "surface", "new"], ""),
        (["surface", "blowup", "0"], P1),
        (["surface", "show"], P1),
        (["surface", "divisor", "1/2", "--zeros"], HALF_SURFACE),
        (["surface", "nprime"], HALF_SURFACE),
    ],
    "tree": [
        (["--seed", "0", "tree", "show"], TREE_NODAL),
        (["--output", "json", "tree", "show"], TREE_NODAL),
        (["tree", "normalize"], TREE_NODAL),
        (["tree", "pullback", "2"], TREE_SPLITTING),
    ],
    "decide": [
        (
            ["--seed", "0", "decide", "nodal",
             "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            "",
        ),
        (["decide", "nodal", "--r0", "x^2", "--s1", "x", "--s2", "2*x"], ""),
        (["decide", "nodal", "--r0", "x", "--s1", "x", "--s2", "x"], ""),
        (
            ["decide", "general", "--r0", "x", "--s1", "1", "--s2", "2",
             "--tree", "-"],
            TREE_TWO_ROOTS,
        ),
    ],
    "witness": [
        (
            ["--seed", "0", "witness", "build",
             "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            "",
        ),
        (
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            GHOST_WITNESS,
        ),
        (
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            TAMPERED_WITNESS,
        ),
        (["witness", "build", "--r0", "x", "--s1", "x", "--s2", "x"], ""),
        (["witness", "verify", "--r0", "x", "--s1", "x", "--s2", "x"],
         CONSTANT_WITNESS),
    ],
    "classes": [
        (
            ["--seed", "0", "classes", "--r0", "x^2",
             "x", "2*x", "x*(1+x)", "2*x*(1+x^2)"],
            "",
        ),
        (["classes", "--r0", "x^2", "x"], ""),
    ],
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_golden_transcript(name):
    rendered = render_transcript(TRANSCRIPTS[name])
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("GOLDEN_UPDATE"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
    assert path.exists(), f"golden file {path} missing; run with GOLDEN_UPDATE=1"
    assert rendered == path.read_text()


# --- exit codes -----------------------------------------------------------------


class TestExitCodes:
    def test_homotopic_is_zero(self):
        code, _, _ = invoke(
            ["decide", "nodal", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"]
        )
        assert code == 0

    def test_identical_truncated_sections_are_homotopic(self):
        # x/(1+x) parses to a truncated series; the pair connects by the
        # constant path, with no subtraction of equal truncated values
        pair = ["--r0", "x^2", "--s1", "x/(1+x)", "--s2", "x/(1+x)"]
        code, out, _ = invoke(["decide", "nodal"] + pair)
        assert code == 0
        witness = json.loads(out)["witness"]
        assert list(witness["path"]) == ["1"]
        assert invoke(["witness", "verify"] + pair, json.dumps(witness))[0] == 0

    def test_sections_of_the_unblown_line_are_homotopic(self):
        code, out, err = invoke(
            ["decide", "nodal", "--surface", "-", "--r0", "x^2", "--s1", "x",
             "--s2", "x^2"],
            P1,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "homotopic"

    def test_not_homotopic_is_one(self):
        code, out, _ = invoke(
            ["decide", "nodal", "--r0", "x^2", "--s1", "x", "--s2", "2*x"]
        )
        assert code == 1
        assert json.loads(out)["obstruction"]["delta"] == "1"

    def test_undecidable_is_three(self):
        # the budget trips while decide general certifies its own witness
        # (TREE_PUNCTURED): an abstention, not a ConsistencyFailure
        code, out, _ = invoke(
            ["--ring", "bivariate", "--groebner-cap", "1"] + BUDGET_PAIR,
            TREE_PUNCTURED,
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "undecidable"

    @pytest.mark.parametrize("coord", ["1", "2"])
    def test_residual_center_the_witness_meets_abstains(self, coord):
        # r0 = u^2*v: the pair sits at slope 1/2 along u = 0 but at 1 along
        # v = 0, and its ghost witness meets the residual puncture on l_2
        # there; decide general once raised ConsistencyFailure, and now
        # abstains, naming the puncture
        tree = ('{"roots":[{"base":"[0:1]","children":[{"at":"node-left"},'
                '{"at":"node-right","children":[{"at":{"free":"%s"}}]}]}]}\n' % coord)
        code, out, err = invoke(
            ["--ring", "bivariate", "decide", "general", "--r0=u^2*v", "--s1=u*v",
             "--s2=u*v*(1+u)", "--tree", "-"],
            tree,
        )
        assert (code, err) == (3, "")
        verdict = json.loads(out)
        assert (verdict["verdict"], verdict["reason"]) == ("undecidable", "unsupported-support")
        assert f"puncture on l_2 at {coord}" in verdict["detail"]

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit cap")
    def test_answer_past_the_digit_cap_is_three(self):
        # the witness holds 10^5000, past the 4,300-digit cap on integer
        # tokens: printed, it would not read back through witness verify
        cap = sys.get_int_max_str_digits()
        pair = ["--r0", "x^2", "--s1", "x", "--s2", f"x*(1+10^{cap + 700}*x)"]
        for command in (["decide", "nodal"], ["witness", "build"]):
            code, out, err = invoke(command + pair)
            assert (code, out) == (3, "")
            assert f"more than {cap} digits" in err

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit cap")
    def test_answer_under_the_digit_cap_reads_back(self):
        # positive control for the exit above: 10^(cap - 300) still prints
        # and verifies
        pair = ["--r0", "x^2", "--s1", "x",
                "--s2", f"x*(1+10^{sys.get_int_max_str_digits() - 300}*x)"]
        code, witness, _ = invoke(["witness", "build"] + pair)
        assert code == 0
        assert invoke(["witness", "verify"] + pair, witness)[0] == 0

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_budget_tripped_in_self_certification_abstains(self, cap):
        # no run of that certification reduces more than 4 S-pairs; a
        # smaller budget is an Undecidable, never a ConsistencyFailure
        code, out, _ = invoke(
            ["--ring", "bivariate", f"--groebner-cap={cap}"] + BUDGET_PAIR,
            TREE_PUNCTURED,
        )
        verdict = json.loads(out)
        if cap == 4:
            assert (code, verdict["verdict"]) == (0, "homotopic")
        else:
            assert (code, verdict["reason"]) == (3, "degree-cap-exceeded")

    # the first two pairs have delta = v, outside sqrt(r0) = (u): no witness
    # is built, and they abstain
    @pytest.mark.parametrize("s1, s2, code, verdict", [
        ("u", "u*(1+v)", 3, "undecidable"),
        ("u*v", "2*u*v", 3, "undecidable"),
        ("u", "u*(1+u)", 0, "homotopic"),
        ("u", "u*(2+v)", 1, "not-homotopic"),
        ("u*v", "u", 1, "not-homotopic"),
    ])
    def test_punctured_top_exit_codes(self, s1, s2, code, verdict):
        got, out, err = invoke(
            ["--ring", "bivariate", "decide", "general", "--r0=u", f"--s1={s1}",
             f"--s2={s2}", "--tree", "-"],
            TREE_PUNCTURED,
        )
        blob = json.loads(out)
        assert (got, blob["verdict"]) == (code, verdict) and "Traceback" not in err
        if code == 3:
            assert blob["reason"] == "unsupported-support" and "l_1" in blob["detail"]

    def test_case_one_agreeing_only_at_the_closed_point_is_three(self):
        # 2 and 2 + v avoid both roots and meet the fiber at one point over
        # the closed point only, so they abstain
        argv = ["--ring", "bivariate", "decide", "general", "--r0=u", "--s1=2",
                "--tree", "-"]
        code, out, _ = invoke(argv + ["--s2=2+v"], TREE_TWO_ROOTS)
        assert (code, json.loads(out)["reason"]) == (3, "unsupported-support")
        code, out, _ = invoke(argv + ["--s2=3"], TREE_TWO_ROOTS)
        assert code == 1
        assert json.loads(out)["obstruction"] == {
            "reason": "sections approach distinct avoided points of a multi-point center",
            "delta": "-1",
            "ideal": ["u"],
        }

    def test_bad_stdin_is_two(self):
        code, _, err = invoke(["surface", "show"], "not json\n")
        assert code == 2
        assert "error:" in err

    def test_bad_node_index_is_two(self):
        code, _, err = invoke(["surface", "blowup", "5"], P1)
        assert code == 2
        assert "out of range" in err

    def test_unparseable_element_is_two(self):
        code, _, _ = invoke(
            ["decide", "nodal", "--r0", "x", "--s1", "x", "--s2", "x +* x"]
        )
        assert code == 2

    def test_unknown_flag_is_two(self):
        code, _, _ = invoke(["--frobnicate", "surface", "new"])
        assert code == 2

    def test_missing_subaction_is_two(self):
        code, _, _ = invoke(["surface"])
        assert code == 2

    def test_trunc_floor(self):
        code, _, err = invoke(["--trunc", "3", "surface", "new"])
        assert code == 2
        assert "at least 4" in err

    def test_nonpositive_cap(self):
        code, _, err = invoke(["--groebner-cap", "0", "surface", "new"])
        assert code == 2
        assert "positive" in err

    def test_missing_tree_file_is_two(self, tmp_path):
        code, _, err = invoke(
            ["decide", "general", "--r0", "x", "--s1", "1", "--s2", "2",
             "--tree", str(tmp_path / "nope.json")]
        )
        assert code == 2

    def test_witness_verify_failure_is_one(self):
        code, out, _ = invoke(
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            TAMPERED_WITNESS,
        )
        assert code == 1
        assert "gluing: FAIL" in out

    def test_truncated_witness_coefficients_leave_a_clause_undetermined(self):
        code, out, err = invoke(
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x + x^2"],
            TRUNCATED_WITNESS,
        )
        assert code == 1
        assert "determinism: FAIL (undetermined: " in out
        assert "Traceback" not in out + err

    def test_a_single_truncated_cover_generator_is_an_exact_no(self):
        code, out, err = invoke(
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x + x^2"],
            ONE_GENERATOR_WITNESS,
        )
        assert code == 1
        assert "cover: FAIL (V1 and V2 do not cover the S-line)" in out
        assert "determinism" not in out and "Traceback" not in out + err

    def test_witness_build_without_a_witness_is_one(self):
        # build prints the verdict that says why no witness exists
        pair = ["--r0", "x^2", "--s1", "x", "--s2", "2*x"]
        code, out, _ = invoke(["witness", "build"] + pair)
        assert code == 1
        assert json.loads(out)["verdict"] == "not-homotopic"
        assert out == invoke(["decide", "nodal"] + pair)[1]

    def test_unknown_witness_type_is_two(self):
        code, _, _ = invoke(
            ["witness", "verify", "--r0", "x", "--s1", "x", "--s2", "x"],
            '{"type":"nope"}\n',
        )
        assert code == 2

    @pytest.mark.parametrize(
        "blob, field",
        [
            ('{"type":"straight-line"}', "path"),
            ('{"type":"straight-line","path":5}', "path"),
            ('{"type":"straight-line","path":{"T":5}}', "path"),
            ('{"type":"straight-line","path":{"T":"x"},"offset":5}', "offset"),
            (GHOST_WITNESS.replace('"blown_center":"x"', '"blown_center":5'),
             "blown_center"),
            (GHOST_WITNESS.replace('"shift":0', '"shift":[1]'), "shift"),
            (GHOST_WITNESS.replace(
                '"excluded_ideal_v1":[{"1":"x"},{"1":"1","S":"x"}]',
                '"excluded_ideal_v1":5'),
             "excluded_ideal_v1"),
            ('{"type":"chain","pieces":5}', "pieces"),
            (GHOST_WITNESS.replace('"blown_center":"x"', '"blown_center":"x^²"'),
             "blown_center"),
        ],
        ids=[
            "no-path", "int-path", "int-coefficient", "int-offset",
            "int-blown-center", "list-shift", "int-excluded", "int-pieces",
            "non-ascii-digit",
        ],
    )
    def test_malformed_witness_field_is_two(self, blob, field):
        code, out, err = invoke(
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            blob,
        )
        assert code == 2
        assert err.startswith("error:") and f"'{field}'" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "show"],
            ["tree", "normalize"],
            ["tree", "pullback", "2"],
            ["decide", "general", "--r0", "x", "--s1", "1", "--s2", "2", "--tree", "-"],
        ],
        ids=["show", "normalize", "pullback", "decide-general"],
    )
    @pytest.mark.parametrize(
        "blob, field",
        [
            ('{"roots":[{"line":"1","coord":1}]}', "coord"),
            ('{"roots":[{"base":5}]}', "base"),
            ('{"roots":[{"base":"[0:1]","children":[{"at":{"free":2}}]}]}', "free"),
            ('{"roots":[{"line":1,"coord":"1"}]}', "line"),
        ],
        ids=["int-coord", "int-base", "int-free", "int-line"],
    )
    def test_malformed_tree_field_is_two(self, argv, blob, field):
        code, out, err = invoke(argv, blob)
        assert code == 2
        assert err.startswith("error:") and f"'{field}'" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv, blob",
        [
            (["surface", "show"], '{"lines":[[0,1],[true,1],[1,0]]}'),
            (["surface", "nprime"], '{"lines":[[0,1],[1,false],[1,0]]}'),
            (["decide", "nodal", "--surface", "-", "--r0", "x", "--s1", "x", "--s2", "x"],
             '{"lines":[[0,1],[true,true],[1,0]]}'),
        ],
        ids=["show-true", "nprime-false", "decide-true-true"],
    )
    def test_boolean_surface_slope_is_two(self, argv, blob):
        code, out, err = invoke(argv, blob)
        assert code == 2
        assert err.startswith("error:") and "bad line entry" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv, blob, bad",
        [
            (["tree", "show"], '{"roots":[{"base":"[1e100000000:1]"}]}', "1e100000000"),
            (["tree", "show"], '{"roots":[{"base":"[1e10000000:1]"}]}', "1e10000000"),
            (["tree", "show"], '{"roots":[{"base":"[0.5:1]"}]}', "0.5"),
            (["tree", "show"], '{"roots":[{"base":"[1_0:1]"}]}', "1_0"),
            (["tree", "show"], '{"roots":[{"base":"[\u0661/\u0662:1]"}]}', "\u0661/\u0662"),
            (["tree", "show"],
             '{"roots":[{"base":"[0:1]","children":[{"at":{"free":"0.5"}}]}]}', "0.5"),
            (["tree", "show"], '{"roots":[{"line":"1","coord":"1e3"}]}', "1e3"),
            (["surface", "divisor", "1e100000000", "--zeros"], HALF_SURFACE,
             "1e100000000"),
            (["surface", "divisor", "0.5", "--zeros"], HALF_SURFACE, "0.5"),
            (["surface", "divisor", "\u0661/\u0662", "--zeros"], HALF_SURFACE,
             "\u0661/\u0662"),
        ],
        ids=["base-1e100000000", "base-1e10000000", "base-point", "base-underscore",
             "base-arabic-indic", "free-point", "coord-exponent",
             "divisor-1e100000000", "divisor-point", "divisor-arabic-indic"],
    )
    def test_malformed_rational_is_two(self, argv, blob, bad):
        # rationals are p or p/q in ASCII digits; read as Python numbers,
        # 1e100000000 would build a 10^8-digit integer for minutes
        start = time.perf_counter()
        code, out, err = invoke(argv, blob)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error:") and repr(bad) in err
        assert "Traceback" not in out + err

    def test_duplicate_st_monomial_is_two(self):
        blob = GHOST_WITNESS.replace(
            '{"1":"1","S":"x"}]', '{"1":"1","S":"x","S^1":"x"}]'
        )
        code, out, err = invoke(
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            blob,
        )
        assert code == 2
        assert err.startswith("error:") and "'S' and 'S^1'" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("key", ["S^x", "S^-1", "S*S"])
    def test_malformed_st_key_is_two(self, key):
        blob = GHOST_WITNESS.replace('{"1":"1","S":"x"}]', '{"1":"1","%s":"x"}]' % key)
        code, out, err = invoke(
            ["witness", "verify", "--r0", "x^2+x^3", "--s1", "x", "--s2", "x*(1+x)"],
            blob,
        )
        assert code == 2
        assert err.startswith("error:") and f"'{key}'" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "pair",
        [
            ["--r0=x", "--s1=0", "--s2=x + O(x^3)"],
            ["--r0=x", "--s1=x^5", "--s2=x + O(x^3)"],
            ["--r0=x", "--s1=0", "--s2=x + O(x^3)",
             "--chart1=infinite", "--chart2=infinite"],
            ["--r0=x^2 - 64*x", "--s1=0", "--s2=1 + x/40", "--chart1=infinite"],
        ],
        ids=["zero", "past-the-window", "pole-side", "exact-pole-side"],
    )
    def test_built_witness_whose_end_cancels_reverifies(self, pair):
        # the path's coefficients sum to O(x^k) at T = 1, which no series
        # holds; the section there agrees with it to the tracked order
        code, witness, _ = invoke(["witness", "build"] + pair)
        assert code == 0
        code, out, err = invoke(["witness", "verify"] + pair, witness)
        assert code == 0, out + err

    def test_cancelling_end_still_misses_a_visible_section(self):
        blob = ('{"type":"straight-line","chart":"finite",'
                '"path":{"1":"x + O(x^3)","T":"-x + O(x^3)"}}')
        code, out, _ = invoke(
            ["witness", "verify", "--r0=x", "--s1=x^2", "--s2=x + O(x^3)"], blob
        )
        assert code == 1
        assert "endpoints: FAIL" in out

    @pytest.mark.parametrize(
        "blob, r0, detail",
        [
            (GHOST_WITNESS.replace('"shift":0', '"shift":3000'), "x^2+x^3",
             "endpoints: FAIL (sections do not shift by the recorded k)"),
            (GHOST_WITNESS.replace('"shift":0', '"shift":3000'), "1+x",
             "endpoints: FAIL (sections do not shift by the recorded k)"),
            ('{"type":"chain","pieces":[%s]}'
             % GHOST_WITNESS.strip().replace('"shift":0', '"shift":3000'), "x^2+x^3",
             "shape: FAIL (chains are built from straight lines only)"),
        ],
        ids=["ghost", "ghost-unit-r0", "chain"],
    )
    def test_huge_ghost_shift_is_rejected_fast(self, blob, r0, detail):
        # r0^3000 takes tens of seconds to build; orders of vanishing
        # (3000 * 2 > 1) refuse the shift first, a unit r0 (outside the
        # main regime, where ghosts live) is refused before its orders are
        # read, and a chain refuses a ghost piece by its shape
        start = time.perf_counter()
        code, out, _ = invoke(
            ["witness", "verify", "--r0", r0, "--s1", "x", "--s2", "x*(1+x)"],
            blob,
        )
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert detail in out

    def test_huge_cover_degree_is_fast(self):
        # 4 has no rational root of degree 4*10^8 >= its bit length; the
        # root search used to build 2^(4*10^8) twice, for about 6 s and 200 MB
        start = time.perf_counter()
        code, out, _ = invoke(["tree", "pullback", str(4 * 10**8)],
                              '{"roots":[{"base":"[4:1]"}]}')
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (0, '{"roots":[]}\n')

    @pytest.mark.parametrize(
        "argv, blob",
        [
            (["tree", "show"], nested_tree(400)),
            (["tree", "normalize"], nested_tree(400)),
            (["decide", "general", "--r0", "x", "--s1", "x", "--s2", "x+x^2",
              "--tree", "-"], nested_tree(400)),
            (["witness", "verify", "--r0", "x", "--s1", "x", "--s2", "x+x^2"],
             '{"type":"chain","pieces":[' * 599 + '{"type":"chain"}' + "]}" * 599),
            (["tree", "show"], "[" * 10**5 + "]" * 10**5),
        ],
        ids=["tree-show", "tree-normalize", "decide-general", "witness-verify",
             "beyond-the-json-parser"],
    )
    def test_deeply_nested_json_is_two(self, argv, blob):
        # these readers recurse per level: 400 tree vertices or 600 chains
        # used to end in a RecursionError traceback and exit 1
        code, _, err = invoke(argv, blob)
        assert code == 2
        assert f"deeper than {cli.MAX_JSON_DEPTH}" in err

    def test_json_nested_to_the_limit_is_read(self):
        # 48 vertices under the root nest 2*48 + 4 = 100 levels deep
        assert invoke(["tree", "show"], nested_tree(48))[0] == 0
        assert invoke(["tree", "show"], nested_tree(49))[0] == 2

    @pytest.mark.parametrize(
        "argv, blob, message",
        [
            (["tree", "show"], '{"roots":[{"base":"[0:1]","children":5}]}',
             "children must be a list"),
            (["tree", "show"], '{"roots":[{"base":"[0:1]","children":[{}]}]}',
             'child vertices need an "at" position'),
            (["tree", "show"], '{"roots":[{"base":"[0:1]","children":[{"at":5}]}]}',
             "bad position 5"),
            (["tree", "show"], '{"roots":[5]}', "root vertices must be objects"),
            (["tree", "show"], '{"roots":[{"line":"1","coord":"0"}]}',
             "interior coordinate must be nonzero"),
            (["tree", "pullback", "0"], TREE_TWO_ROOTS, "cover degree must be positive"),
            (["surface", "show"], '{"lines":[[0,1]]}',
             "a surface has at least two pseudo-lines"),
            (["surface", "show"], '{"lines":[[0,1],[1,1],[1,2],[1,0]]}',
             "line slopes out of order: 1 !< 1/2"),
            (["surface", "show"], '{"lines":[[0,1],[1,2],[1,0]]}',
             "adjacent lines 1/2, inf are not unimodular"),
        ],
        ids=["children-not-a-list", "child-without-at", "at-5", "root-not-an-object",
             "zero-coord", "pullback-0", "one-line", "out-of-order", "top-not-integer"],
    )
    def test_input_refusal_message(self, argv, blob, message):
        assert invoke(argv, blob) == (2, "", f"error: {message}\n")

    def test_ghost_over_a_surface_its_sections_miss_is_rejected(self, tmp_path):
        # u*v meets l_1/2 nowhere: (u^3*v)^1 and (u*v)^2 are incomparable
        pair = ["--r0", "u^3*v", "--s1", "u*v", "--s2", "u*v*(1+u)"]
        code, witness, _ = invoke(["--ring", "bivariate", "witness", "build"] + pair)
        assert code == 0 and '"type":"ghost"' in witness
        verify = ["--ring", "bivariate", "witness", "verify"] + pair
        assert invoke(verify, witness)[0] == 0
        surface = tmp_path / "half.json"
        surface.write_text(HALF_SURFACE)
        code, out, _ = invoke(verify + ["--surface", str(surface)], witness)
        assert code == 1
        assert ("endpoints: FAIL (section 1 does not lift: r0 and r are incomparable "
                "at line l_1/2)") in out
        decide = ["--ring", "bivariate", "decide", "nodal", "--surface", str(surface)]
        code, _, err = invoke(decide + pair)
        assert code == 2 and "incomparable at line l_1/2" in err


# --- output invariants ----------------------------------------------------------


def emitted_json(argv, stdin_text=""):
    code, out, _ = invoke(argv, stdin_text)
    assert code == 0, out
    return out


class TestJsonRoundTrip:
    """Whatever the CLI prints as JSON must re-serialize to the same bytes."""

    CASES = [
        (["surface", "new"], ""),
        (["surface", "blowup", "0"], P1),
        (["surface", "divisor", "1/2", "--zeros"], HALF_SURFACE),
        (["--output", "json", "tree", "show"], TREE_NODAL),
        (["decide", "nodal", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"], ""),
        (["classes", "--r0", "x^2", "x", "2*x", "x*(1+x)"], ""),
    ]

    @pytest.mark.parametrize("argv,stdin_text", CASES)
    def test_round_trip_identity(self, argv, stdin_text):
        out = emitted_json(argv, stdin_text)
        payload = json.loads(out)
        assert json.dumps(payload, separators=(",", ":")) + "\n" == out

    def test_pipe_new_into_blowup(self):
        first = emitted_json(["surface", "new"])
        second = emitted_json(["surface", "blowup", "0"], first)
        assert json.loads(second) == {"lines": [[0, 1], [1, 1], [1, 0]]}

    def test_build_pipes_into_verify(self):
        witness = emitted_json(
            ["witness", "build", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"]
        )
        code, out, _ = invoke(
            ["--output", "json", "witness", "verify",
             "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            witness,
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert [c["name"] for c in report["clauses"]] == [
            "endpoints", "cover", "gluing", "avoidance",
        ]


class TestRenderings:
    def test_dot_lists_vertices_in_slope_order(self):
        code, out, _ = invoke(["surface", "show"], HALF_SURFACE)
        assert code == 0
        assert out.index('"l_0"') < out.index('"l_1/2"') < out.index('"l_1"')
        assert out.count("--") == 3

    def test_show_json_mode_round_trips_surface(self):
        out = emitted_json(["--output", "json", "surface", "show"], HALF_SURFACE)
        assert out == HALF_SURFACE

    def test_tree_outline_indents_children(self):
        code, out, _ = invoke(["tree", "show"], TREE_NODAL)
        assert code == 0
        assert "  - [0:1]" in out
        assert "    - node-left" in out

    def test_tree_outline_counts_the_vertices_of_every_root(self):
        # three vertices over two roots; the largest root alone has two
        tree = ('{"roots":[{"base":"[0:1]","children":[{"at":"node-left"}]},'
                '{"base":"[1:0]"}]}\n')
        code, out, _ = invoke(["tree", "show"], tree)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "blowup tree, 3 vertices"
        assert sum(line.lstrip().startswith("- ") for line in lines) == 3

    def test_verify_text_reports_every_clause(self):
        code, out, _ = invoke(
            ["witness", "verify", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)"],
            GHOST_WITNESS,
        )
        assert code == 0
        for clause in ("endpoints", "cover", "gluing", "avoidance"):
            assert f"{clause}: ok" in out
        assert out.rstrip().endswith("witness accepted")


class TestFlags:
    def test_seed_does_not_change_deterministic_output(self):
        a = invoke(["--seed", "0", "surface", "new"])
        b = invoke(["--seed", "7", "surface", "new"])
        assert a == b

    def test_bivariate_ring(self):
        code, out, _ = invoke(
            ["--ring", "bivariate", "decide", "nodal",
             "--r0", "u^2", "--s1", "u", "--s2", "u + u^2 + u^2*v"]
        )
        assert code == 0
        assert json.loads(out)["level"] == "ghost1"

    def test_model_mismatch_is_two(self):
        code, _, _ = invoke(
            ["--ring", "bivariate", "decide", "nodal",
             "--r0", "x^2", "--s1", "x", "--s2", "2*x"]
        )
        assert code == 2

    def test_infinite_charts(self):
        code, out, _ = invoke(
            ["decide", "nodal", "--r0", "x", "--s1", "x", "--s2", "x",
             "--chart1", "infinite", "--chart2", "infinite"]
        )
        assert code == 0
        assert json.loads(out)["witness"]["chart"] == "infinite"

    def test_surface_flag_reads_stdin(self):
        code, out, _ = invoke(
            ["decide", "nodal", "--r0", "x^2", "--s1", "x", "--s2", "x*(1+x)",
             "--surface", "-"],
            '{"lines":[[0,1],[1,1],[2,1],[1,0]]}\n',
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "homotopic"

    def test_surface_flag_reads_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(HALF_SURFACE)
        code, out, _ = invoke(["surface", "nprime"], HALF_SURFACE)
        assert code == 0 and out == "true\n"
        code, out, _ = invoke(
            ["classes", "--r0", "x^2", "--surface", str(p), "x", "x*(1+x)"]
        )
        assert code == 0
        assert json.loads(out)["classes"] == [[0, 1]]

    def test_groebner_cap_resets_between_runs(self):
        # a run that trips the budget must not poison the next invocation;
        # the pair's first Groebner run reduces 4 S-pairs, so a budget of 1
        # trips (TREE_PUNCTURED)
        code, _, _ = invoke(
            ["--ring", "bivariate", "--groebner-cap", "1"] + BUDGET_PAIR,
            TREE_PUNCTURED,
        )
        assert code == 3
        code, _, _ = invoke(["--ring", "bivariate"] + BUDGET_PAIR, TREE_PUNCTURED)
        assert code == 0


# --- fuzzing ----------------------------------------------------------------------


def joined(parts, ops):
    """One to three parts with an operator from ops between neighbours."""
    return st.tuples(
        st.lists(parts, min_size=1, max_size=3),
        st.lists(st.sampled_from(ops), min_size=2, max_size=2),
    ).map(lambda t: t[0][0] + "".join(o + p for o, p in zip(t[1], t[0][1:])))


def element_texts(variables, tails):
    """Texts of the element grammar, small enough for its budgets: signed
    factors with exponents up to 2, nested at most a few levels, and an
    optional O(x^k) tail drawn from tails."""
    def nest(inner):
        factor = st.builds(
            "{}{}{}".format,
            st.sampled_from(["", "-"]),
            inner,
            st.sampled_from(["", "^0", "^2"]),
        )
        return joined(joined(factor, "*/"), "+-").map("({})".format)

    atom = st.one_of(st.integers(0, 9).map(str), st.sampled_from(variables))
    expr = st.recursive(atom, nest, max_leaves=6)
    return st.builds("{}{}".format, expr, st.sampled_from(tails))


@st.composite
def instances(draw):
    """(global flags, instance flags): a ring, an r0 that is often a
    multiple of the first variable, two sections and their charts, all as
    --flag=value so a value may start with '-'."""
    ring = draw(st.sampled_from(["dvr", "dvr", "bivariate"]))
    if ring == "dvr":
        texts = element_texts(["x"], ["", "", " + O(x^3)", " + O(x^8)"])
        var = "x"
    else:
        texts = element_texts(["u", "v"], [""])
        var = "u"
    r0 = draw(st.one_of(texts, texts.map(f"{var}*{{}}".format)))
    flags = ["--ring", ring]
    if draw(st.booleans()):
        flags.append(f"--trunc={draw(st.integers(4, 24))}")
    argv = [f"--r0={r0}"]
    argv += [f"--s{i}={draw(texts)}" for i in (1, 2)]
    for i in (1, 2):
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--chart{i}=infinite")
    return flags, argv


@st.composite
def chains(draw):
    """Surface JSON for a sub-chain of [0, 1/2, 1, 3/2, 2, inf]: lines at
    the integers up to a drawn top, each gap split at its midpoint or not."""
    lines = [[0, 1]]
    for k in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            lines.append([2 * k + 1, 2])
        lines.append([k + 1, 1])
    return json.dumps({"lines": lines + [[1, 0]]}) + "\n"


@pytest.fixture(scope="session")
def surface_file(tmp_path_factory):
    """A file for the drawn surface: `witness verify` reads its witness
    from stdin, so --surface cannot."""
    return tmp_path_factory.mktemp("fuzz") / "surface.json"


@st.composite
def forests(draw):
    """Tree JSON: one to three roots at distinct points of the fiber, each
    with node and free children down to two levels below it."""
    def children(depth):
        at = st.sampled_from(["node-left", "node-right", "1", "2", "-3/2"])
        kids = []
        for pos in draw(st.lists(at, max_size=2 if depth else 0, unique=True)):
            kid = {"at": pos if pos.startswith("node") else {"free": pos}}
            below = children(depth - 1)
            if below:
                kid["children"] = below
            kids.append(kid)
        return kids

    bases = st.sampled_from(["[0:1]", "[2:1]", "[1:0]", "[-1:1]", "[1:2]"])
    roots = []
    for base in draw(st.lists(bases, min_size=1, max_size=3, unique=True)):
        below = children(2)
        roots.append({"base": base, "children": below} if below else {"base": base})
    return json.dumps({"roots": roots}) + "\n"


def invoke_fuzzed(argv, stdin_text=""):
    """invoke, with every exit code in {0, 1, 2, 3}; None when the engine
    reports itself unsound (ConsistencyFailure, the one traceback allowed)."""
    try:
        code, out, err = invoke(argv, stdin_text)
    except ConsistencyFailure:
        return None
    assert code in (0, 1, 2, 3), (argv, stdin_text, code, err)
    assert "Traceback" not in out + err
    return code, out, err


def mutated(draw, blob: str, texts) -> str:
    """blob's JSON with one field replaced, dropped or retyped, its text cut
    short, or the witness repeated in a chain."""
    how = draw(st.sampled_from(["replace", "drop", "retype", "cut", "nest"]))
    if how == "cut":
        return blob[: draw(st.integers(0, len(blob)))]
    data = json.loads(blob)
    if how == "nest":
        pieces = [data] * draw(st.integers(0, 2))
        return json.dumps({"type": "chain", "pieces": pieces})
    key = draw(st.sampled_from(sorted(data)))
    if how == "drop":
        del data[key]
    elif how == "retype":
        junk = [None, 0, -1, 3000, [], {}, "", "S", {"1": 5}]
        data[key] = draw(st.sampled_from(junk))
    elif isinstance(data[key], dict) and data[key]:
        inner = draw(st.sampled_from(sorted(data[key])))
        data[key][inner] = draw(texts)
    else:
        data[key] = draw(texts)
    return json.dumps(data)


class TestFuzz:
    """In-process CLI runs on drawn input end in an exit code, never a crash."""

    # a bivariate pair on the interior of the middle line l_1 whose residues
    # agree at the closed point only: `witness build` once built a line that
    # `witness verify` rejected
    @example(
        case=(["--ring", "bivariate"], ["--r0=u", "--s1=u", "--s2=u*(1+v)"]),
        command="build",
        chain='{"lines": [[0, 1], [1, 2], [1, 1], [3, 2], [2, 1], [1, 0]]}\n',
    )
    @given(case=instances(), command=st.sampled_from(["decide", "build", "classes"]),
           chain=chains())
    @settings(max_examples=40, deadline=None)
    def test_drawn_instances_exit_cleanly(self, surface_file, case, command, chain):
        flags, argv = case
        surface_file.write_text(chain)
        surface = ["--surface", str(surface_file)]
        if command == "decide":
            invoke_fuzzed(flags + ["decide", "nodal"] + argv + surface)
        elif command == "classes":
            # positional sections follow --, so they may start with '-'
            sections = [a.split("=", 1)[1] for a in argv if a.startswith("--s")]
            invoke_fuzzed(flags + ["classes", argv[0]] + surface + ["--"] + sections)
        else:
            built = invoke_fuzzed(flags + ["witness", "build"] + argv + surface)
            if built is not None and built[0] == 0:
                # a built witness re-verifies against its own instance
                verify = flags + ["witness", "verify"] + argv + surface
                verified = invoke_fuzzed(verify, built[1])
                assert verified is not None and verified[0] == 0, (argv, built, verified)

    # a bivariate pair on the interior of the middle line l_1 whose residues
    # agree at the closed point only (delta = v), under a tower whose
    # normalization puts l_3/2 above l_1 and a puncture on l_2: the straight
    # line used to leave the interior and fail its own certification; the
    # second is the same defect as the fuzz first found it, moved to [-1:1]
    @example(
        case=(["--ring", "bivariate"], ["--r0=u", "--s1=u", "--s2=u*(1+v)"]),
        tree=V_LINEAR_TOWER,
        edits=[("", False), ("", False)],
        cap=None,
    )
    @example(
        case=(["--ring", "bivariate"], ["--r0=u*1", "--s1=u", "--s2=(0+0^0+v)",
                                        "--chart1=infinite", "--chart2=infinite"]),
        tree='{"roots": [{"base": "[0:1]"}, {"base": "[-1:1]", "children": '
             '[{"at": "node-left"}, {"at": "node-right", "children": '
             '[{"at": "node-left"}, {"at": {"free": "1"}}]}]}]}\n',
        edits=[("-1 + ", False), ("-1 + ", True)],
        cap=None,
    )
    # the same algebra on a punctured top line: delta = v lies outside
    # sqrt(r0), and a straight line would meet the puncture at 2
    @example(
        case=(["--ring", "bivariate"], ["--r0=u", "--s1=u", "--s2=u*(1+v)"]),
        tree=TREE_PUNCTURED,
        edits=[("", False), ("", False)],
        cap=None,
    )
    @given(case=instances(), tree=forests(),
           edits=st.lists(st.tuples(st.sampled_from(["", "", "2 + ", "-1 + ", "1/2 + "]),
                                    st.booleans()), min_size=2, max_size=2),
           cap=st.sampled_from([None, *range(1, 9)]))
    @settings(max_examples=40, deadline=None)
    def test_drawn_forests_exit_cleanly(self, case, tree, edits, cap):
        # sections are often moved onto the roots' points (an offset), and
        # into the maximal ideal (a lift); decide general certifies the
        # witnesses it builds, so ConsistencyFailure fails here, also when a
        # small S-pair budget trips inside that certification
        flags, argv = case
        if cap is not None:
            flags = flags + [f"--groebner-cap={cap}"]
        var = "u" if "bivariate" in flags else "x"
        edit = iter(edits)

        def moved(a):
            offset, lift = next(edit)
            return a.replace("=", "=" + offset + (f"{var}*" if lift else ""), 1)

        argv = [moved(a) if a.startswith("--s") else a for a in argv]
        code, out, err = invoke(
            flags + ["decide", "general"] + argv + ["--tree", "-"], tree
        )
        assert code in (0, 1, 2, 3), (argv, tree, code, err)
        assert "Traceback" not in out + err

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_witnesses_exit_cleanly(self, data):
        argv, blob = data.draw(st.sampled_from([
            (["--r0=x^2", "--s1=x", "--s2=x*(1+x)"], GHOST_WITNESS),
            (["--r0=x^2", "--s1=x", "--s2=x + x^2"], TRUNCATED_WITNESS),
            (["--r0=x", "--s1=x", "--s2=x"], CONSTANT_WITNESS),
        ]))
        texts = element_texts(["x"], ["", " + O(x^4)"])
        invoke_fuzzed(["witness", "verify"] + argv, mutated(data.draw, blob, texts))
