"""Span tracing of calls into the package's public functions.

`Tracer.install` wraps each function in TARGETS where it is defined and in
every loaded `nodalwitness` module that imported it by name (`homotopy`
binds `divides` with `from .localring import divides`; without the second
patch, calls made inside the package would be missed).  A span records the
function, start, end, parent span, operation id and an outcome; spans stay
in memory until `summary` turns them into per-function statistics.  Self
time is a span's duration minus the time its direct child spans cover.

`Series.__mul__` and `s_poly` are hot leaves (tens of thousands of calls per
second on nodal-dvr): a timing wrapper there would inflate their parents'
time, so they are counted only.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path, statistics reported for it)
TARGETS = [
    ("dvrseries", "Series.inverse", ("calls", "self_s")),
    ("dvrseries", "Series.divide", ("calls", "self_s")),
    ("dvrseries", "Series.divide_in_ring", ("calls", "total_s", "fail")),
    ("localring", "divides", ("calls", "total_s", "true_ratio")),
    ("localring", "unit_multiple", ("calls", "total_s", "hit_ratio")),
    ("localring", "pair_principal", ("calls", "total_s")),
    ("localring", "gcd2", ("calls", "self_s")),
    ("localring", "BiFrac.make", ("calls", "total_s")),
    ("localring", "ext_unit_ideal", ("calls", "total_s")),
    ("localring", "ext_radical_membership", ("calls", "total_s")),
    ("localring", "radical_membership", ("calls", "total_s")),
    ("localring", "ideal_membership", ("calls", "total_s")),
    ("localring", "parse_element", ("calls", "total_s")),
    ("localring", "RingElement.__pow__", ("calls", "total_s")),
    ("homotopy", "closed_point_image", ("calls", "total_s")),
    ("homotopy", "decide_nodal", ("calls", "total_s", "undecidable")),
    ("homotopy", "decide_general", ("calls", "total_s")),
    ("homotopy", "shift_section", ("calls", "total_s")),
    ("homotopy", "build_ghost_witness", ("calls", "total_s")),
    ("homotopy", "verify_witness", ("calls", "total_s", "rejected")),
    ("homotopy", "partition_classes", ("calls", "total_s")),
    ("homotopy", "witness_to_json", ("calls", "total_s")),
    ("homotopy", "witness_from_json", ("calls", "total_s")),
    ("polyring", "buchberger", ("calls", "self_s", "basis_max")),
    ("polyring", "reduce_poly", ("calls", "self_s")),
    ("polyring", "eliminate", ("calls", "total_s")),
    ("blowuptree", "normalize_pure_nodes", ("calls", "total_s")),
    ("blowuptree", "tree_from_json", ("calls", "total_s")),
    ("grammar", "parse_rational_function", ("calls", "total_s")),
]
COUNTED = [("dvrseries", "Series.__mul__"), ("polyring", "s_poly")]
MODULES = ("dvrseries", "polyring", "localring", "homotopy", "blowuptree", "grammar")

# what a span's outcome records, for the statistics that need one: the
# ratios divide the outcome sum by completed calls, the counts report it
OUTCOMES = {
    "true_ratio": lambda r: 1 if r is True else 0,
    "hit_ratio": lambda r: 0 if r is None else 1,
    "undecidable": lambda r: 1 if type(r).__name__ == "Undecidable" else 0,
    "rejected": lambda r: 0 if r.ok else 1,
    "basis_max": len,
}
FAILED = -1


class Tracer:
    """Owns the span list; `op` is the id of the operation being timed."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a, _ in TARGETS]
        self.spans: list = []  # (fid, start, end, parent, op, outcome)
        self.counts = {f"{m}.{a}": 0 for m, a in COUNTED}
        self.stack: list = []
        self.op = -1
        self.enabled = True
        self._undo: list = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for fid, (mod, path, stats) in enumerate(TARGETS):
            outcome = next((OUTCOMES[s] for s in stats if s in OUTCOMES), None)
            self._patch(mod, path, lambda fn, fid=fid, o=outcome: self._span(fid, fn, o))
        for mod, path in COUNTED:
            self._patch(mod, path, lambda fn, key=f"{mod}.{path}": self._count(key, fn))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _patch(self, mod: str, path: str, make) -> None:
        module = importlib.import_module(f"nodalwitness.{mod}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = make(fn)
        self._set(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        if owner_name:
            return
        for name, other in list(sys.modules.items()):
            if name.startswith("nodalwitness.") and other is not module:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._set(other, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, fid: int, fn, outcome):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = FAILED
            start = perf_counter()
            try:
                value = fn(*args, **kwargs)
                result = outcome(value) if outcome else 0
                return value
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op, result)

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function statistics, plus self time per module over operations."""
        return summarize(self.names, self.spans, self.counts)


def summarize(names, spans, counts) -> dict:
    child = [0.0] * len(spans)
    for fid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fail": 0, "outcome": 0, "max": 0}
             for n in names}
    module_self = {m: 0.0 for m in MODULES}
    for i, (fid, start, end, parent, op, result) in enumerate(spans):
        st = stats[names[fid]]
        dur = end - start
        own = dur - child[i]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += own
        if result == FAILED:
            st["fail"] += 1
        else:
            st["outcome"] += result
            st["max"] = max(st["max"], result)
        if op >= 0:
            module_self[names[fid].split(".")[0]] += own
    return {"functions": stats, "counts": dict(counts), "module_self_s": module_self}
