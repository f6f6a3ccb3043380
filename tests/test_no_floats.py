"""No package module can make a float: the engine is exact.

Read with the standard library's `ast` only.  A float enters Python code as
a float literal, a `float(...)` call, or a true division of two ints; the
last is caught where it is written as an int literal over something else
(`1 / c`), which is how reciprocals are spelled.  Write `Fraction(1) / c`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nodalwitness"
MODULES = sorted(PACKAGE.glob("*.py"))


def float_sites(tree: ast.AST) -> list:
    """(line, what) for each place that can make a float."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            sites.append((node.lineno, "float(...)"))
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant)
            and type(node.left.value) is int
        ):
            sites.append((node.lineno, f"{node.left.value} / ..."))
    return sites


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_makes_a_float(path):
    sites = float_sites(ast.parse(path.read_text()))
    assert not sites, f"{path.name} can make a float at {sites}"


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 1e3", "x = float(y)", "x = 1 / c", "x = 2 / (n * c)"],
)
def test_each_kind_of_site_is_found(source):
    # positive control: the walk above is not vacuous
    assert float_sites(ast.parse(source))
