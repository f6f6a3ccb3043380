"""Hash the results of every operation in the benchmark's instance pools.

    python3 tools/result_dump.py [--root CHECKOUT] [--counts] [--lines]

Builds the three pools of `perfbench/workloads.py` (nodal-dvr 6 rounds,
witness-dvr 1, bivariate 15) at seeds 1 and 2, runs each operation once in
pool order, and serializes what it returned or raised together with the
outcome of its answer check: verdict JSON (witnesses included),
verification reports clause by clause, partitions, query answers and
exception text.  It prints one line, the sha256 of that dump and the number
of operations (1,456 with the pools as they are).  Two versions of the
package compute the same results exactly when they print the same hash.

`--root` (default: the checkout holding this file) names the checkout whose
`src/` and `perfbench/workloads.py` are used, so that a parent commit can be
dumped from its own copy.  `--counts` also prints, one per line, how often
the pass called each function in COUNTED: `s_poly`, `reduce_poly` and
`buchberger` of polyring, `gcd2`, `divide_exact_p2` and `parse_element`
of localring, the method `Series.divide` of dvrseries and
`closed_point_image` of homotopy.  These counts depend only on the code
and the pools, never on the machine or a time limit, so two versions can
be compared on them.  `--lines` first prints each operation's JSON line,
in pool order, so that a `diff` of two checkouts' output names every
result that changed.  Nothing is written: no result file, and no bytecode
beside the imported sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

POOLS = (("nodal-dvr", 6), ("witness-dvr", 1), ("bivariate", 15))
SEEDS = (1, 2)
COUNTED = (
    ("polyring", "s_poly"),
    ("polyring", "reduce_poly"),
    ("polyring", "buchberger"),
    ("localring", "gcd2"),
    ("localring", "divide_exact_p2"),
    ("localring", "parse_element"),
    ("dvrseries", "Series.divide"),
    ("homotopy", "closed_point_image"),
)


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def _plain(obj, H):
    """A JSON-ready rendering of whatever an operation returns."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [_plain(x, H) for x in obj]
    if isinstance(obj, (H.Homotopic, H.NotHomotopic, H.Undecidable)):
        return H.verdict_to_json(obj)
    # by name, so that a checkout whose verifier still lives in homotopy dumps too
    if type(obj).__name__ == "VerificationReport":
        return [[c.name, c.ok, c.detail] for c in obj.clauses]
    if isinstance(obj, H.PartitionResult):
        return {"classes": obj.classes, "undecided": [list(u) for u in obj.undecided]}
    raise TypeError(f"no dump form for {type(obj).__name__}")


def count_calls() -> dict:
    """Wrap each COUNTED function in every package module that binds it,
    and each COUNTED method (`Class.name`) in its class.

    Returns the live counts.  Calls made inside the defining module go
    through its global name, modules imported later bind the wrapper, and
    a method is looked up on its class at each call, so every call is
    counted.
    """
    counts = {}
    for module, path in COUNTED:
        key = f"{module}.{path}"
        owner = importlib.import_module(f"nodalwitness.{module}")
        *classes, name = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, name)
        counts[key] = 0

        def counting(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        if classes:
            setattr(owner, name, counting)
            continue
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("nodalwitness") and getattr(mod, name, None) is original:
                setattr(mod, name, counting)
    return counts


def dump(root: Path):
    """Yield one JSON line per operation, in pool order."""
    W = _load_workloads(root)
    E = W.Engine()
    for name, rounds in POOLS:
        for seed in SEEDS:
            for i, op in enumerate(W.LIBRARY[name](E, seed, rounds)):
                E.P.set_spair_cap(None)
                try:
                    result, exc = op.run(), None
                except Exception as e:  # recorded like any other result
                    result, exc = None, e
                out = op.check(result, exc)
                raised = None if exc is None else [type(exc).__name__, str(exc)]
                yield json.dumps(
                    [name, seed, i, op.kind, _plain(result, E.H), raised,
                     [out.error, out.decisions, out.decided, out.witness_bytes]],
                    separators=(",", ":"),
                )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--counts", action="store_true",
                        help="also print the call count of each function in COUNTED")
    parser.add_argument("--lines", action="store_true",
                        help="print each operation's JSON line before the hash")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import nodalwitness

    if Path(nodalwitness.__file__).resolve().parent != root / "src" / "nodalwitness":
        raise SystemExit(f"nodalwitness imported from {nodalwitness.__file__}, not {root}/src")
    counts = count_calls() if args.counts else {}
    h, count = hashlib.sha256(), 0
    for line in dump(root):
        if args.lines:
            print(line)
        h.update(line.encode() + b"\n")
        count += 1
    print(f"{h.hexdigest()} {count}")
    for key, n in counts.items():
        print(f"{key} {n}")


if __name__ == "__main__":
    main()
