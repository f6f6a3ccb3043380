"""Every name a package module imports is used by that module, none is
another module's private (underscore) name, every public name the package
defines has a caller, and every parameter is read.

Read with the standard library's `ast` only: a name counts as used when it
appears in code, in an annotation (string annotations included) or in
`__all__`.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nodalwitness"
MODULES = sorted(PACKAGE.glob("*.py"))
# the code that counts as a caller: the package itself (the CLI included),
# the benchmark, the tools and the acceptance criteria; other tests and the
# demos exercise names but do not keep them alive
CALLERS = [
    *MODULES,
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


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


def called_names(tree: ast.AST) -> set:
    """Names a caller reaches: read names and attributes, imported names, and
    each part of a dotted-identifier string such as spans.py's TARGETS."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.match(node.value):
                out.update(node.value.split("."))
    return out


def public_definitions(tree: ast.Module):
    """(name, label) of each public module-level function, class and
    constant, and of each public method, labelled Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((n, n) for n in names if not n.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def test_every_public_name_has_a_caller():
    """Matched by name alone, so a name that shares its spelling with a
    used one passes; a name no caller spells anywhere fails."""
    called = set().union(*(called_names(ast.parse(p.read_text())) for p in CALLERS))
    uncalled = [
        f"{path.stem}.{label}"
        for path in MODULES
        for name, label in public_definitions(ast.parse(path.read_text()))
        if name not in called
    ]
    assert not uncalled, f"public names with no caller: {uncalled}"


# the modules the verifier may import: the ring layer, below every decision
RING_LAYER = {
    "errors", "farey", "surface", "ringelement", "dvrseries", "localring", "polyring", "grammar",
}


def package_imports(source: str) -> set:
    """The package modules a source imports, relatively or by absolute name
    (`nodalwitness` alone stands for the package's `__init__`)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"nodalwitness.{module}".rstrip(".")
            # `from nodalwitness import x` may name a module x
            dotted = [module] if module != "nodalwitness" else [
                f"nodalwitness.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "nodalwitness":
                found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_verifier_imports_only_the_ring_layer():
    """The verifier replays witnesses without the decision that built them."""
    outside = package_imports((PACKAGE / "verify.py").read_text()) - RING_LAYER
    assert not outside, f"verify.py imports modules outside the ring layer: {outside}"


@pytest.mark.parametrize("line, module", [
    ("from .homotopy import decide_nodal", "homotopy"),
    ("from . import blowuptree", "blowuptree"),
    ("from nodalwitness.cli import main", "cli"),
    ("import nodalwitness.homotopy", "homotopy"),
])
def test_ring_layer_check_flags_a_decision_import(line, module):
    source = (PACKAGE / "verify.py").read_text() + f"\n{line}\n"
    assert package_imports(source) - RING_LAYER == {module}


# the methods both ring models define share the `RingElement` signature, so
# one model may leave a parameter unread (BiFrac's `prec`)
RING_MODELS = ("Series", "BiFrac")


def unread_parameters(trees: list):
    """`function parameter` for each parameter of a function whose body
    never reads it; `self`, `cls` and the shared ring-model methods are
    exempt."""
    methods = {
        node.name: {f for f in node.body if isinstance(f, ast.FunctionDef)}
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in RING_MODELS
    }
    shared = set.intersection(*({f.name for f in fs} for fs in methods.values()))
    exempt = {f for fs in methods.values() for f in fs if f.name in shared}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node in exempt:
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            yield from (
                f"{node.name} {p.arg}"
                for p in params
                if p is not None and p.arg not in ("self", "cls") and p.arg not in read
            )


def test_every_parameter_is_read():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    unread = list(unread_parameters(trees))
    assert not unread, f"parameters no body reads: {unread}"


def test_unread_parameter_check_flags_one():
    source = """
class Series:
    def root(self, n, prec):
        return n
class BiFrac:
    def root(self, n, prec):
        return n
class Other:
    def root(self, n, prec):
        return n
def _verify_ghost(X, g, *rest, **kw):
    def inner(y):
        return g, rest, kw, y
    return inner
"""
    # Other.root is flagged once; Series.root and BiFrac.root are exempt
    assert sorted(unread_parameters([ast.parse(source)])) == ["_verify_ghost X", "root prec"]
