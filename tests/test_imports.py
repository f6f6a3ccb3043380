"""Every name a package module imports is used by that module, and none is
another module's private (underscore) name.

Read with the standard library's `ast` only: a name counts as used when it
appears in code, in an annotation (string annotations included) or in
`__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nodalwitness"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree: ast.AST) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in filter(None, annotations(tree)):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {n: line for n, line in imported_names(tree).items() if n not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_imported(path):
    """A module's underscore names are its own: no other module imports one."""
    tree = ast.parse(path.read_text())
    private = {
        alias.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level  # from the package
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private, f"{path.name} imports private names: {private}"
