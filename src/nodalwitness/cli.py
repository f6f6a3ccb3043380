"""Command-line front end over the decision engine.

Subcommands mirror the library layers: ``surface`` builds and inspects
nodal surfaces, ``tree`` works on blowup trees over the closed fiber,
``decide`` runs the homotopy decision, ``witness`` builds and re-checks
certificates, and ``classes`` aggregates pairwise verdicts into a
partition.

Data commands print a single line of compact JSON so invocations can be
piped into each other; the ``show`` subactions render DOT (surfaces) or
an indented outline (trees) instead.  Exit codes: 0 for success or a
homotopic verdict, 1 for a negative answer, 2 for invalid input, 3 for
an undecidable instance or an answer too large to print so that it reads
back.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blowuptree import (
    BlowupTree,
    normalize_pure_nodes,
    pullback_tree,
    tree_from_json,
    tree_to_json,
)
from .errors import AnswerTooLarge, ConsistencyFailure, EngineError, ParseError
from .farey import INF, Slope, ZERO
from .homotopy import (
    GammaData,
    Homotopic,
    NotHomotopic,
    SectionData,
    decide_general,
    decide_nodal,
    partition_classes,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
)
from .localring import DEFAULT_PREC, parse_element
from .polyring import set_spair_cap
from .surface import NodalSurface
from .verify import verify_witness

# Series arithmetic costs grow with the square of the truncation order.
MAX_TRUNC = 1000
# The tree and witness readers recurse once or twice per level of input.
MAX_JSON_DEPTH = 100

CHART_CHOICES = ("finite", "infinite")


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _read_json(path: str):
    """JSON from the file at path, or from stdin for '-'."""
    if path == "-":
        text, where = sys.stdin.read(), "stdin"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text, where = fh.read(), path
    deep = f"{where} nests arrays and objects deeper than {MAX_JSON_DEPTH}"
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where} is not JSON: {exc}") from exc
    except RecursionError:  # the parser's own stack ends far past the limit
        raise ParseError(deep) from None
    depth, level = 0, [value]
    while level := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]
    if depth > MAX_JSON_DEPTH:
        raise ParseError(deep)
    return value


def _load_surface(args) -> NodalSurface:
    """Surface from --surface (path or '-'), defaulting to [0, 1, inf]."""
    path = getattr(args, "surface", None)
    if path is None:
        return NodalSurface((ZERO, Slope(1, 1), INF))
    return NodalSurface.from_json_dict(_read_json(path))


def _sections(args):
    g = GammaData(parse_element(args.r0, args.ring, args.trunc))
    s1 = SectionData(g, parse_element(args.s1, args.ring, args.trunc), args.chart1)
    s2 = SectionData(g, parse_element(args.s2, args.ring, args.trunc), args.chart2)
    return g, s1, s2


def _verdict_exit(v) -> int:
    if isinstance(v, Homotopic):
        return 0
    if isinstance(v, NotHomotopic):
        return 1
    return 3


# --- subcommand handlers ------------------------------------------------------


def cmd_surface(args) -> int:
    if args.subaction == "new":
        _print_json(NodalSurface.p1().to_json_dict())
        return 0
    X = NodalSurface.from_json_dict(_read_json("-"))
    if args.subaction == "blowup":
        _print_json(X.blowup_node(args.node).to_json_dict())
    elif args.subaction == "show":
        if args.output == "json":
            _print_json(X.to_json_dict())
        else:
            sys.stdout.write(X.to_dot())
    elif args.subaction == "divisor":
        which = "zeros" if args.zeros else "poles"
        _print_json(sorted(X.divisor_support(Slope.parse(args.slope), which)))
    else:  # nprime
        _print_json(X.is_in_Nprime())
    return 0


def _tree_outline(t: BlowupTree) -> str:
    out = [f"blowup tree, {t.total_size()} vertices"]

    def walk(vertex, depth: int) -> None:
        out.append("  " * depth + f"- {vertex.position}")
        for child in vertex.children:
            walk(child, depth + 1)

    for root in t.roots:
        walk(root, 1)
    return "\n".join(out) + "\n"


def cmd_tree(args) -> int:
    t = tree_from_json(_read_json("-"))
    if args.subaction == "show":
        if args.output == "json":
            _print_json(tree_to_json(t))
        else:
            sys.stdout.write(_tree_outline(t))
    elif args.subaction == "normalize":
        X, residual = normalize_pure_nodes(t)
        _print_json(
            {"surface": X.to_json_dict(), "residual": tree_to_json(residual)}
        )
    else:  # pullback
        _print_json(tree_to_json(pullback_tree(t, args.degree)))
    return 0


def cmd_decide(args) -> int:
    _, s1, s2 = _sections(args)
    if args.subaction == "nodal":
        verdict = decide_nodal(_load_surface(args), s1, s2, args.trunc)
    else:
        tree = tree_from_json(_read_json(args.tree))
        verdict = decide_general(tree, s1, s2, args.trunc)
    _print_json(verdict_to_json(verdict))
    return _verdict_exit(verdict)


def cmd_witness(args) -> int:
    g, s1, s2 = _sections(args)
    X = _load_surface(args)
    if args.subaction == "build":
        verdict = decide_nodal(X, s1, s2, args.trunc)
        if isinstance(verdict, Homotopic):
            _print_json(witness_to_json(verdict.witness))
            return 0
        # no witness exists (or the engine could not decide): report why
        _print_json(verdict_to_json(verdict))
        return _verdict_exit(verdict)
    w = witness_from_json(_read_json("-"), args.ring, args.trunc)
    report = verify_witness(X, g, w, (s1, s2), prec=args.trunc)
    if args.output == "json":
        _print_json(
            {
                "ok": report.ok,
                "clauses": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in report.clauses
                ],
            }
        )
    else:
        print(report)
        print("witness accepted" if report.ok else "witness rejected")
    return 0 if report.ok else 1


def cmd_classes(args) -> int:
    g = GammaData(parse_element(args.r0, args.ring, args.trunc))
    family = [
        SectionData(g, parse_element(text, args.ring, args.trunc))
        for text in args.sections
    ]
    part = partition_classes(_load_surface(args), g, family, args.trunc)
    _print_json(
        {
            "classes": part.classes,
            "undecided": [[i, j, reason] for i, j, reason in part.undecided],
        }
    )
    return 0


# --- parser -------------------------------------------------------------------


def _add_instance_flags(sub, surface: bool = True) -> None:
    sub.add_argument("--r0", required=True, help="base map value (element grammar)")
    sub.add_argument("--s1", required=True, help="first section value")
    sub.add_argument("--s2", required=True, help="second section value")
    sub.add_argument("--chart1", choices=CHART_CHOICES, default="finite")
    sub.add_argument("--chart2", choices=CHART_CHOICES, default="finite")
    if surface:
        sub.add_argument(
            "--surface",
            metavar="FILE",
            help="surface JSON file, '-' for stdin (default: [0, 1, inf])",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalwitness",
        description="Exact homotopy decisions for sections of nodal ruled "
        "surfaces, with machine-checkable witnesses.",
    )
    parser.add_argument(
        "--ring",
        choices=("dvr", "bivariate"),
        default="dvr",
        help="coefficient model for the element grammar (default dvr)",
    )
    parser.add_argument(
        "--trunc",
        type=int,
        default=DEFAULT_PREC,
        help=f"series truncation order, from 4 to {MAX_TRUNC} (default %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for sampling subcommands (all current ones are deterministic)",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="rendering for show/verify output; data commands always emit JSON",
    )
    parser.add_argument(
        "--groebner-cap",
        type=int,
        metavar="N",
        help="S-pair budget for ideal computations (positive)",
    )

    commands = parser.add_subparsers(dest="command", required=True)

    surface = commands.add_parser("surface", help="build and inspect surfaces")
    surface_sub = surface.add_subparsers(dest="subaction", required=True)
    surface_sub.add_parser("new", help="the minimal surface [0, inf]")
    blowup = surface_sub.add_parser("blowup", help="blow up node I (stdin JSON)")
    blowup.add_argument("node", type=int, help="node index, counted from slope 0")
    surface_sub.add_parser("show", help="dual graph of the stdin surface")
    divisor = surface_sub.add_parser(
        "divisor", help="support of div(x^a/y^b) on the stdin surface"
    )
    divisor.add_argument("slope", help="slope a/b with 0 < a/b <= 1")
    side = divisor.add_mutually_exclusive_group(required=True)
    side.add_argument("--zeros", action="store_true")
    side.add_argument("--poles", action="store_true")
    surface_sub.add_parser("nprime", help="whether all finite slopes are <= 1")
    surface.set_defaults(func=cmd_surface)

    tree = commands.add_parser("tree", help="blowup trees over the closed fiber")
    tree_sub = tree.add_subparsers(dest="subaction", required=True)
    tree_sub.add_parser("show", help="outline (or JSON) of the stdin tree")
    tree_sub.add_parser(
        "normalize", help="split the stdin tree into a surface plus residue"
    )
    pullback = tree_sub.add_parser(
        "pullback", help="pull the stdin tree back through a degree-B cover"
    )
    pullback.add_argument("degree", type=int, help="cover degree B >= 1")
    tree.set_defaults(func=cmd_tree)

    decide = commands.add_parser("decide", help="are two sections homotopic?")
    decide_sub = decide.add_subparsers(dest="subaction", required=True)
    nodal = decide_sub.add_parser("nodal", help="decision over a nodal surface")
    _add_instance_flags(nodal)
    general = decide_sub.add_parser("general", help="decision over a blowup tree")
    _add_instance_flags(general, surface=False)
    general.add_argument(
        "--tree", required=True, metavar="FILE", help="tree JSON file, '-' for stdin"
    )
    decide.set_defaults(func=cmd_decide)

    witness = commands.add_parser("witness", help="build or re-check certificates")
    witness_sub = witness.add_subparsers(dest="subaction", required=True)
    build = witness_sub.add_parser("build", help="construct a homotopy witness")
    _add_instance_flags(build)
    verify = witness_sub.add_parser(
        "verify", help="re-check the stdin witness clause by clause"
    )
    _add_instance_flags(verify)
    witness.set_defaults(func=cmd_witness)

    classes = commands.add_parser(
        "classes", help="partition a family of sections by homotopy"
    )
    classes.add_argument("--r0", required=True, help="base map value")
    classes.add_argument(
        "--surface",
        metavar="FILE",
        help="surface JSON file, '-' for stdin (default: [0, 1, inf])",
    )
    classes.add_argument(
        "sections", nargs="+", metavar="SECTION", help="section values"
    )
    classes.set_defaults(func=cmd_classes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.trunc < 4:
        print("error: --trunc must be at least 4", file=sys.stderr)
        return 2
    if args.trunc > MAX_TRUNC:
        print(f"error: --trunc must be at most {MAX_TRUNC}", file=sys.stderr)
        return 2
    try:
        set_spair_cap(args.groebner_cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConsistencyFailure:
        # a transitivity violation means the engine itself is unsound;
        # surface the traceback instead of blaming the input
        raise
    except AnswerTooLarge as exc:  # decided, but the answer would not read back
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EngineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_spair_cap(None)


if __name__ == "__main__":
    sys.exit(main())
