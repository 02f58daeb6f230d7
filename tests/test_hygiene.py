"""Source hygiene: no unused imports and no unreferenced definitions.

An `ast` scan in place of a linter.  A name imported by a module of
`src/refundsim` must be used in that module (or listed in its `__all__`),
and every function, method and class defined there must be named somewhere
in `src/`, `tests/` or `perfbench/` other than its own definition: as a
name, an attribute, an imported name or a word in a non-docstring string
(perfbench's tracer names its targets in strings).  Dunder methods are
called implicitly and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refundsim"
TREES = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the string nodes that are module, class or function docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def _references(tree: ast.Module) -> set[str]:
    """Every identifier the module names outside a definition's own name."""
    names = set()
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[0])
            names.add(node.name.rsplit(".", 1)[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level or nested import -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _used(tree)
        for name, line in _imported(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == [], f"imported but never used: {unused}"


def test_every_definition_is_referenced():
    referenced = set()
    for tree_root in TREES:
        for path in tree_root.rglob("*.py"):
            referenced |= _references(_parse(path))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in referenced:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == [], f"defined but named nowhere: {unreferenced}"
