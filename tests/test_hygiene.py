"""Static hygiene of the package source: every import is used, and every
private module-level definition and private method is used somewhere in the
package.

Each module under ``src/latroids`` is parsed with ``ast``; a name bound by an
import statement must be read somewhere in the module (string annotations
included).  ``__init__`` is exempt, since its imports are the re-exported
public API.  A private module-level name (``_name``: a function, a class or
an assignment target) must be read, or taken as an attribute, in some module
of the package.  A private method (``def _name`` in a class body, dunders
excluded) must be taken as an attribute in some module of the package.  Every
module other than ``__init__`` and ``__main__`` must be imported by some other
module of the package, so none is left orphaned.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latroids"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with the line that binds them."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    trees = [tree]
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    return {
        node.id
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name}: unused imports {', '.join(unused)}"


def test_checker_sees_unused_import():
    tree = ast.parse("import os\nfrom x import y, z as w\nprint(y)\n")
    used = _read_names(tree)
    assert {n for n in _imported_names(tree) if n not in used} == {"os", "w"}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` definitions (not dunders), with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _referenced_names(tree: ast.Module) -> set[str]:
    return _read_names(tree) | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    used = set().union(*(_referenced_names(t) for t in trees.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in used
    )


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    unused = _unreferenced_privates(trees)
    assert not unused, f"private definitions used nowhere: {', '.join(unused)}"


def test_checker_sees_unreferenced_private_definitions():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n_cache: dict = {}\n"
            "class _Tables: pass\n"
            "def _used(): return _LIMIT\n"
            "def _helper(): pass\n"
            "def public(): return _used()\n"
        ),
        "b.py": ast.parse("from . import a\nx = a._helper\n"),
    }
    assert _unreferenced_privates(trees) == [
        "a.py: _Tables (line 3)",
        "a.py: _cache (line 2)",
    ]


def _private_methods(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """``_name`` methods of module-level classes (not dunders), keyed by
    ``Class._name``, with the method name and its line."""
    return {
        f"{node.name}.{item.name}": (item.name, item.lineno)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name.startswith("_")
        and not item.name.startswith("__")
    }


def _unread_private_methods(trees: dict[str, ast.Module]) -> list[str]:
    attrs = {
        node.attr
        for t in trees.values()
        for node in ast.walk(t)
        if isinstance(node, ast.Attribute)
    }
    return sorted(
        f"{module}: {qualname} (line {line})"
        for module, tree in trees.items()
        for qualname, (name, line) in _private_methods(tree).items()
        if name not in attrs
    )


def test_no_unread_private_methods():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    unread = _unread_private_methods(trees)
    assert not unread, f"private methods read nowhere: {', '.join(unread)}"


def test_checker_sees_unread_private_methods():
    trees = {
        "a.py": ast.parse(
            "class Poly:\n"
            "    def __init__(self): self._like()\n"
            "    def _like(self): pass\n"
            "    def _add_term(self): pass\n"
            "    def public(self): return _add_term\n"
            "class Support:\n"
            "    def _detect_standard(self): pass\n"
        ),
        "b.py": ast.parse("def f(s): return s._detect_standard()\n"),
    }
    assert _unread_private_methods(trees) == ["a.py: Poly._add_term (line 4)"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """Modules of the package that a module imports, by relative import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def _orphaned_modules(trees: dict[str, ast.Module]) -> list[str]:
    imported = set().union(*(_imported_modules(t) - {name} for name, t in trees.items()))
    return sorted(
        f"{name}.py" for name in trees
        if name not in ("__init__", "__main__", *imported)
    )


def test_every_module_is_imported_by_another():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    orphans = _orphaned_modules(trees)
    assert not orphans, f"modules no other module imports: {', '.join(orphans)}"


def test_checker_sees_orphaned_modules():
    trees = {
        "__init__": ast.parse("from .a import f\n"),
        "a": ast.parse("from . import b\nfrom .a import g\n"),
        "b": ast.parse(""),
        "c": ast.parse("from .c import h\n"),
        "d": ast.parse(""),
        "__main__": ast.parse(""),
    }
    assert _orphaned_modules(trees) == ["c.py", "d.py"]
