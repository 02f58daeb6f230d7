"""Source hygiene: no unused imports, definitions, parameters or fields.

An `ast` scan in place of a linter.  A name imported by a module of
`src/refundsim` must be used in that module (or listed in its `__all__`).
Every function and class defined there must be named somewhere in `src/`
or `perfbench/` other than its own definition: as a loaded name, an
attribute, an imported name or a word in a non-docstring string
(perfbench's tracer names its targets in strings).  A method counts only
when it is named as an attribute or in a string, so a local name that
shares its name does not keep it.  Dunder methods are called implicitly and
are exempt.  A definition or result only tests read is no part of the
program.

Four more checks keep state and options nobody reads or sets out of the
package: every parameter is read in its function's body; every defaulted
parameter of a public function is passed, by keyword or by position, by
some call in `src/` or `perfbench/` whose callee has the function's name
(an option only tests set is no option of the program); every enum member
is named in `src/` or `perfbench/` outside its own definition; and every
class field or `self.` attribute is loaded as an attribute somewhere in
`src/` or `perfbench/`.  Matching is by name, so a dead field that shares
its name with a live one elsewhere goes unseen.

A check keeps each object's private state its own: an attribute whose
name starts with `_` is read or written only on `self` or `cls`.

A last check keeps the package on the standard library: importing it loads
no other module (`cryptography` is a test-only oracle for `refundsim.aead`).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refundsim"
PROGRAM_TREES = [ROOT / "src", ROOT / "perfbench"]


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


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every identifier the module names outside a definition's own name,
    and those of them it names as an attribute or in a string."""
    names, members = set(), set()
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[0])
            names.add(node.name.rsplit(".", 1)[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            members.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names | members, members


def _program_references() -> tuple[set[str], set[str]]:
    """`_references` over every module in `src/` and `perfbench/`."""
    names, members = set(), set()
    for tree_root in PROGRAM_TREES:
        for path in tree_root.rglob("*.py"):
            found, found_members = _references(_parse(path))
            names |= found
            members |= found_members
    return names, members


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
    referenced, as_member = _program_references()
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        methods = {
            id(item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in (as_member if id(node) in methods else referenced):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == [], f"defined but named nowhere in the program: {unreferenced}"


# -- dead parameters and fields ------------------------------------------------------

# (module, function, parameter) left alone by the three checks below, each
# with its reason.  Nothing else is exempt.
KEPT_PARAMETERS = {
    # perfbench's mix_trials workload passes the ledger; the benchmark harness
    # drives the program through this signature
    ("mixer.py", "analyze_linkage", "ledger"),
    # the console entry point reads sys.argv; tests drive the CLI through argv
    ("cli.py", "main", "argv"),
}
# `curve` in keys.py is how tests inject the toy group into every key function
INJECTED_PARAMETERS = {("keys.py", "curve")}
# `memo` is payment-message content, not a setting
CONTENT_PARAMETERS = {"memo"}


def _arguments(fn: ast.FunctionDef) -> list[ast.arg]:
    a = fn.args
    extra = [x for x in (a.vararg, a.kwarg) if x is not None]
    return a.posonlyargs + a.args + a.kwonlyargs + extra


def _kept(module: str, function: str, parameter: str) -> bool:
    return (
        (module, function, parameter) in KEPT_PARAMETERS
        or (module, parameter) in INJECTED_PARAMETERS
        or parameter in CONTENT_PARAMETERS
    )


def _public_callables(tree: ast.Module):
    """(name it is called by, def, whether a bound first argument is implicit).

    Module-level public functions, and public methods of module-level public
    classes; a class's `__init__` is called by the class name.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                if item.name == "__init__":
                    yield node.name, item, True
                elif not item.name.startswith("_"):
                    yield item.name, item, not static


def _call_sites() -> dict[str, list[tuple[float, set, bool]]]:
    """Callee name -> (positional count, keywords, has `**`) for every call
    in `src/` and `perfbench/`."""
    sites: dict[str, list] = {}
    for tree_root in PROGRAM_TREES:
        for path in tree_root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positional = float("inf") if starred else len(node.args)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                double_star = any(k.arg is None for k in node.keywords)
                sites.setdefault(name, []).append((positional, keywords, double_star))
    return sites


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loaded = {
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for arg in _arguments(node):
                # a leading underscore declares an argument unused, as in a
                # handler that must match its dispatcher's signature
                if arg.arg in ("self", "cls") or arg.arg.startswith("_") or arg.arg in loaded:
                    continue
                if not _kept(path.name, node.name, arg.arg):
                    unread.append(f"{path.name}:{node.lineno} {node.name}({arg.arg})")
    assert unread == [], f"parameters never read: {unread}"


def test_every_default_is_passed():
    sites = _call_sites()
    never_passed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn, bound in _public_callables(_parse(path)):
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [
                (positional.index(arg) - bound, arg)
                for arg in positional[len(positional) - len(fn.args.defaults):]
            ]
            defaulted += [
                (float("inf"), arg)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            for position, arg in defaulted:
                if _kept(path.name, fn.name, arg.arg):
                    continue
                if not any(
                    arg.arg in keywords or double_star or position < count
                    for count, keywords, double_star in sites.get(name, [])
                ):
                    never_passed.append(f"{path.name}:{fn.lineno} {name}({arg.arg})")
    assert never_passed == [], f"defaulted parameters no call passes: {never_passed}"


def _is_enum(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Enum")
        or (isinstance(base, ast.Attribute) and base.attr == "Enum")
        for base in cls.bases
    )


def test_every_enum_member_is_named():
    named, _members = _program_references()
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef) or not _is_enum(cls):
                continue
            for item in cls.body:
                if not isinstance(item, ast.Assign):
                    continue
                for target in item.targets:
                    if isinstance(target, ast.Name) and target.id not in named:
                        unnamed.append(f"{path.name}:{item.lineno} {cls.name}.{target.id}")
    assert unnamed == [], f"enum members the program never names: {unnamed}"


def test_every_field_is_read():
    read = set()
    for tree_root in PROGRAM_TREES:
        for path in tree_root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                    read.add(node.target.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = {
                item.target.id: item.lineno
                for item in cls.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
            for node in ast.walk(cls):
                # every `self.x` store, tuple-unpacking targets included
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    fields.setdefault(node.attr, node.lineno)
            for field_name, line in fields.items():
                if field_name not in read:
                    unread.append(f"{path.name}:{line} {cls.name}.{field_name}")
    assert unread == [], f"fields the program never reads: {unread}"


# -- private state -----------------------------------------------------------------


def test_private_attributes_stay_private():
    reached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.startswith("__") and node.attr.endswith("__"):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            reached.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reached == [], f"private attributes reached from outside: {reached}"


# -- dependencies -------------------------------------------------------------------

_IMPORT_PROBE = """
import importlib, pkgutil, sys
bare = {name.partition(".")[0] for name in sys.modules}
import refundsim
for info in pkgutil.iter_modules(refundsim.__path__, "refundsim."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in sys.modules}
print(*sorted(loaded - bare - set(sys.stdlib_module_names) - {"refundsim"}))
"""


def test_importing_the_package_loads_only_the_standard_library():
    """In a fresh interpreter, importing `refundsim` and every submodule adds
    no module outside `sys.stdlib_module_names` to those the bare
    interpreter had loaded (its site hooks may load a few)."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert probe.stdout.split() == [], f"non-stdlib modules loaded: {probe.stdout}"
