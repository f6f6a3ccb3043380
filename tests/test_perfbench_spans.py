"""The benchmark's trace targets still name functions of the package.

`perfbench/spans.py` patches each target by looking it up in its owner's
own `__dict__`; a renamed or moved function would otherwise only surface
when someone runs the traced benchmark.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """Execute spans.py from its source, leaving no bytecode beside it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = load_spans()
ENTRIES = [(m, a) for m, a, _ in spans.TARGETS] + list(spans.COUNTED)


@pytest.mark.parametrize("mod,path", ENTRIES, ids=[f"{m}.{a}" for m, a in ENTRIES])
def test_target_is_a_callable_of_its_owner(mod, path):
    module = importlib.import_module(f"nodalwitness.{mod}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{path} is not defined in nodalwitness.{mod}"
    raw = owner.__dict__[attr]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert callable(fn)
