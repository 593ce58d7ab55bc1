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
module of the package, so none is left orphaned.  Every defaulted parameter
of a module-level function is set, by position or by keyword, by some call
in the package or its tests; a ``cap`` no call sets is a constant of
``limits``, not a parameter.  ``FiniteLattice`` is constructed
only in ``lattices.py``, in the package and in its tests, and ``ExpPoly``
only in ``enumerators.py``, in the package.  In the package,
``build_lattice`` is called only from ``lattices._chain``, and dot
products reduced modulo a ring size (``(x @ y) % m``) are taken only in
``lattices.py``.  No function of
the package takes a ``validate`` parameter: constructors only build, and
checking is for the validators (``validate_latroid``, ``validate_support``).
No function imports: every import of the package is at module level, since
none breaks an import cycle.  The public module-level functions that only
the tests and the re-exports of ``__init__`` reach are pinned, as a
ratchet, to the list ``ONLY_TESTS_USE``: a function counts as reached only
through a read outside the bodies of such functions, resolved through the
module that defines it or an import from there, so a chain of them is
pinned whole.  The public methods that no module of the package takes as
an attribute are pinned the same way, to ``ONLY_TESTS_CALL``.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latroids"
TESTS = Path(__file__).resolve().parent
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


#: Public functions that no module of the package uses, or uses only inside
#: the bodies of such functions.  Each should join a ``selftest`` criterion
#: or go; remove its entry when it does, and add none.
#: ``generalized_weight_distribution`` counts A^(r)_w directly off the
#: submodule arrays: it is the reference that the generalized enumerators
#: of the chain-support latroid (ROADMAP items 4 and 15) are to be checked
#: against.
ONLY_TESTS_USE = (
    "enumerators.generalized_weight_distribution",
)


def _definitions(tree: ast.Module, module: str) -> dict[str, tuple[str, str]]:
    """The (module, name) of the package definition each name of a module
    is bound to: its own module-level definitions, and ``from .m import f
    as g`` binds g to (m, f)."""
    out = {
        node.name: (module, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _references(tree: ast.Module, module: str):
    """(owner, target) for each read of a package definition: the
    module-level function whose body holds the read (None outside any
    function) and the (module, name) that the read resolves to.  A name
    resolves through the module's own definitions and imports, so a local
    variable that shares a name with a function of another module is no
    read of it (the package imports only by name)."""
    bound = _definitions(tree, module)
    for stmt in tree.body:
        is_function = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        owner = (module, stmt.name) if is_function else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                yield owner, bound[node.id]


def _test_only_functions(trees: dict[str, ast.Module]) -> list[str]:
    """The public module-level functions that only tests reach: no module
    but ``__init__`` reads them, or every read sits in the body of a
    function that only tests reach (or of the function itself), taken
    until nothing changes."""
    functions = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    references = [
        ref
        for module, tree in trees.items()
        if module != "__init__"
        for ref in _references(tree, module)
    ]
    test_only: set = set()
    while True:
        reached = {
            target for owner, target in references
            if owner is None or (owner not in test_only and owner != target)
        }
        if functions - reached == test_only:
            break
        test_only = functions - reached
    return sorted(f"{module}.{name}" for module, name in test_only if not name.startswith("_"))


def test_public_functions_unused_in_the_package_are_pinned():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    found = set(_test_only_functions(trees))
    new, gone = sorted(found - set(ONLY_TESTS_USE)), sorted(set(ONLY_TESTS_USE) - found)
    assert not new, f"public functions only tests reach: {', '.join(new)}"
    assert not gone, f"used or deleted, so unpin from ONLY_TESTS_USE: {', '.join(gone)}"


def test_checker_sees_unused_public_functions():
    trees = {
        "__init__": ast.parse("from .a import spare\nspare()\n"),
        "a": ast.parse(
            "def called(): pass\n"
            "def passed(): pass\n"
            "def aliased(): pass\n"
            "def spare(): pass\n"
            "def _private(): pass\n"
            "class Table:\n"
            "    def method(self): pass\n"
        ),
        "b": ast.parse(
            "from .a import aliased as other, called, passed, spare\n"
            "called()\nmap(passed, [])\nother()\n"
        ),
    }
    assert _test_only_functions(trees) == ["a.spare"]


def test_checker_follows_chains_of_test_only_functions():
    # top calls middle, middle calls bottom and itself, and nothing calls
    # top: all three only tests reach.  ``kept`` is read at module level
    # and ``held`` by a method; the local ``bottom`` and the attribute
    # ``x.bottom`` of that method are no reads of ``a.bottom``.
    trees = {
        "__init__": ast.parse("from .b import top\ntop()\n"),
        "a": ast.parse(
            "def bottom(): pass\n"
            "def middle(): return bottom() or middle()\n"
            "def kept(): pass\n"
            "def held(): pass\n"
            "def twice(): pass\n"
        ),
        "b": ast.parse(
            "from .a import middle, twice\n"
            "def top(): return middle() + twice()\n"
            "def _helper(): return twice()\n"
            "VALUE = _helper()\n"
        ),
        "c": ast.parse(
            "from .a import held, kept\n"
            "TABLE = {'k': kept}\n"
            "class T:\n"
            "    def m(self, x):\n"
            "        bottom = held()\n"
            "        return bottom + x.bottom\n"
        ),
    }
    assert _test_only_functions(trees) == ["a.bottom", "a.middle", "b.top"]


#: Public methods (not dunders) that no module of the package takes as an
#: attribute; only tests call them.  Add none.  ``Support.code_weight`` is
#: the reference weight of ``test_weights.check_oracle_against_references``,
#: ``Latroid.from_functions`` builds test fixtures, and ``Pir.to_int`` is
#: kept for ROADMAP item 7.
ONLY_TESTS_CALL = (
    "ChainRing.residue_field_size",
    "Code.is_zero",
    "ExpPoly.is_zero",
    "ExpPoly.total",
    "FiniteLattice.lt",
    "FiniteLattice.pairs",
    "Latroid.from_functions",
    "Pir.neg",
    "Pir.to_int",
    "Pir.valuations",
    "Support.code_weight",
    "Support.min_max_weight",
    "Support.same_values",
    "Support.weight",
)


def _untaken_public_methods(trees: dict[str, ast.Module]) -> list[str]:
    attrs = {
        node.attr
        for t in trees.values()
        for node in ast.walk(t)
        if isinstance(node, ast.Attribute)
    }
    return sorted(
        f"{node.name}.{item.name}"
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in attrs
    )


def test_public_methods_no_module_takes_are_pinned():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    found = set(_untaken_public_methods(trees))
    new, gone = sorted(found - set(ONLY_TESTS_CALL)), sorted(set(ONLY_TESTS_CALL) - found)
    assert not new, f"public methods no package module takes: {', '.join(new)}"
    assert not gone, f"taken or deleted, so unpin from ONLY_TESTS_CALL: {', '.join(gone)}"


def test_checker_sees_untaken_public_methods():
    trees = {
        "a": ast.parse(
            "class Poly:\n"
            "    def __add__(self, other): pass\n"
            "    def _like(self): pass\n"
            "    def total(self): return self._like()\n"
            "    def render(self): pass\n"
            "    @property\n"
            "    def degree(self): pass\n"
            "def f(p): return p.render(), p.degree\n"
        ),
    }
    assert _untaken_public_methods(trees) == ["Poly.total"]


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


def _defaulted_parameters(tree: ast.Module):
    """(function, position or None if keyword-only, parameter, line) for
    each defaulted parameter of a module-level function."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for pos, arg in enumerate(positional[first:], first):
            yield node.name, pos, arg.arg, node.lineno
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, None, arg.arg, node.lineno


def _set_arguments(trees) -> dict[str, tuple[float, set[str]]]:
    """For each called name (a plain or an attribute call): the most
    positional arguments any call passes (infinite with ``*args``) and
    the keywords some call passes (``None`` for ``**kwargs``)."""
    out: dict[str, tuple[float, set]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            most, keywords = out.get(name, (0, set()))
            given = math.inf if any(isinstance(x, ast.Starred) for x in node.args) else len(node.args)
            keywords |= {k.arg for k in node.keywords}
            out[name] = (max(most, given), keywords)
    return out


def _unset_defaults(modules: dict[str, ast.Module], callers) -> list[str]:
    calls = _set_arguments(callers)
    unset = []
    for module, tree in modules.items():
        for fn, pos, param, line in _defaulted_parameters(tree):
            most, keywords = calls.get(fn, (0, set()))
            by_position = pos is not None and most > pos
            if by_position or param in keywords or None in keywords:
                continue
            unset.append(f"{module}: {fn}({param}) (line {line})")
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_some_call():
    modules = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    callers = [
        ast.parse(p.read_text(), filename=str(p))
        for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
    ]
    unset = _unset_defaults(modules, callers)
    assert not unset, f"defaulted parameters no call sets: {', '.join(unset)}"


def test_checker_sees_unset_defaulted_parameters():
    modules = {
        "a.py": ast.parse(
            "def f(a, b=1, c=2, *, d=3, e=4, cap=5): pass\n"
            "def g(x=0): pass\n"
            "def h(y=0): pass\n"
            "def k(z=0): pass\n"
            "class C:\n"
            "    def m(self, w=0): pass\n"
        ),
    }
    callers = [
        modules["a.py"],
        ast.parse("f(1, 2)\nf(0, d=5)\nmod.g(*xs)\nh(**kw)\n"),
    ]
    assert _unset_defaults(modules, callers) == [
        "a.py: f(c) (line 1)",
        "a.py: f(cap) (line 1)",
        "a.py: f(e) (line 1)",
        "a.py: k(z) (line 4)",
    ]


def _outside_constructions(trees: dict[str, ast.Module], cls: str, home: str) -> list[str]:
    """Calls of ``cls(...)``, by name or as an attribute, in any module but
    ``home``."""
    return sorted(
        f"{module}: line {node.lineno}"
        for module, tree in trees.items()
        if module != home
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and cls in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_lattices_are_constructed_only_in_lattices():
    # the constructor trusts its tables, so every order from outside must
    # come in through ``build_lattice``, which checks it
    root = PACKAGE.parents[1]
    trees = {
        str(p.relative_to(root)): ast.parse(p.read_text(), filename=str(p))
        for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
    }
    outside = _outside_constructions(trees, "FiniteLattice", "src/latroids/lattices.py")
    assert not outside, f"FiniteLattice built outside lattices.py: {', '.join(outside)}"


def test_polynomials_are_constructed_only_in_enumerators():
    # enumerators are count tables; a polynomial is only how one is printed
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    outside = _outside_constructions(trees, "ExpPoly", "enumerators.py")
    assert not outside, f"ExpPoly built outside enumerators.py: {', '.join(outside)}"


def test_digit_tables_are_tiled_only_in_rings():
    # the moduli and scalar rows of R^n come from the tables Pir keeps
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    outside = _outside_constructions(trees, "tile", "rings.py")
    assert not outside, f"np.tile called outside rings.py: {', '.join(outside)}"


def test_checker_sees_outside_lattice_constructions():
    trees = {
        "src/latroids/lattices.py": ast.parse("def dual(l): return FiniteLattice(l.labels, l.leq.T)\n"),
        "src/latroids/core.py": ast.parse(
            "from .lattices import FiniteLattice\n"
            "a = FiniteLattice(labels, leq, covers, join, meet)\n"
            "b = lattices.FiniteLattice(labels, leq, covers, join, meet)\n"
            "c = isinstance(a, FiniteLattice)\n"
        ),
    }
    assert _outside_constructions(trees, "FiniteLattice", "src/latroids/lattices.py") == [
        "src/latroids/core.py: line 2",
        "src/latroids/core.py: line 3",
    ]



def _calling_functions(trees: dict[str, ast.Module], name: str) -> list[str]:
    """The module-level definitions (or ``<module>``) whose bodies call
    ``name``, by name or as an attribute."""
    return sorted({
        f"{module}: {getattr(node, 'name', '<module>')}"
        for module, tree in trees.items()
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    })


def test_build_lattice_is_called_only_from_chain():
    # subspace and submodule lattices get their tables from their algebra
    # (``lattices._closed_family``); the generic order check is for orders
    # from outside and for the chains
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    assert _calling_functions(trees, "build_lattice") == ["lattices.py: _chain"]


def _reduced_products(trees: dict[str, ast.Module]) -> list[str]:
    """Matrix products reduced modulo something, ``(x @ y) % m``: dot
    products of digit rows over a ring."""
    return sorted(
        f"{module}: line {node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.MatMult)
    )


def test_dot_product_tables_are_built_only_in_lattices():
    # the perps of R^n come from one nonzero-dot-product table
    # (``lattices._nonorthogonal``), kept with the subspace lattices
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    outside = [site for site in _reduced_products(trees) if not site.startswith("lattices.py:")]
    assert not outside, f"dot products reduced outside lattices.py: {', '.join(outside)}"


def test_checker_sees_callers_and_reduced_products():
    trees = {
        "a.py": ast.parse(
            "x = build_lattice(l, o)\n"
            "def f(s): return s @ s.T % q != 0\n"
            "def g(d, m, r): return d % m @ r\n"
            "class C:\n"
            "    def m(self): return lattices.build_lattice(l, o)\n"
        ),
    }
    assert _calling_functions(trees, "build_lattice") == ["a.py: <module>", "a.py: C"]
    assert _reduced_products(trees) == ["a.py: line 2"]

def _validate_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """Functions, methods and lambdas that take a parameter named
    ``validate``."""
    return sorted(
        f"{module}: line {node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "validate" in {
            a.arg for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        }
    )


def test_no_function_takes_a_validate_flag():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    flagged = _validate_parameters(trees)
    assert not flagged, f"functions with a validate parameter: {', '.join(flagged)}"


def test_checker_sees_validate_parameters():
    trees = {
        "a.py": ast.parse(
            "def f(x, validate=True): pass\n"
            "class T:\n"
            "    def __init__(self, ring, *, validate): pass\n"
            "g = lambda validate: validate\n"
            "def validate(x, validated=False): return validate_support(x)\n"
        ),
    }
    assert _validate_parameters(trees) == ["a.py: line 1", "a.py: line 3", "a.py: line 4"]


def _function_imports(trees: dict[str, ast.Module]) -> list[str]:
    """Import statements inside a function, method or lambda."""
    return sorted({
        f"{module}: line {inner.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def test_no_function_imports():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    inside = _function_imports(trees)
    assert not inside, f"imports inside functions: {', '.join(inside)}"


def test_checker_sees_function_imports():
    trees = {
        "a.py": ast.parse(
            "import os\n"
            "def f():\n"
            "    from .core import axioms_I\n"
            "    def g():\n"
            "        import json\n"
            "class T:\n"
            "    def m(self):\n"
            "        import sys\n"
        ),
    }
    assert _function_imports(trees) == ["a.py: line 3", "a.py: line 5", "a.py: line 8"]


def _unique_uses(trees: dict[str, ast.Module]) -> list[str]:
    """``np.unique`` / ``numpy.unique`` read, or ``unique`` imported from numpy."""
    return sorted({
        f"{module}: line {node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "unique"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            and any(alias.name == "unique" for alias in node.names)
        )
    })


def test_no_np_unique():
    # numpy 2.x's np.unique imports numpy.ma on its first call in a process,
    # 10-20 ms that every CLI call would pay; sorting and masking adjacent
    # differences, or a mark array, does the same work without it
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    uses = _unique_uses(trees)
    assert not uses, f"np.unique used: {', '.join(uses)}"


def test_checker_sees_np_unique():
    trees = {
        "a.py": ast.parse(
            "import numpy as np\n"
            "from numpy import unique\n"
            "def f(x):\n"
            "    return np.unique(x), numpy.unique(x, axis=0)\n"
            "g = np.unique\n"
            "h = np.sort\n"
        ),
    }
    assert _unique_uses(trees) == ["a.py: line 2", "a.py: line 4", "a.py: line 5"]


def _dumps_uses(sources: dict[str, str]) -> list[str]:
    """Where a module's text names ``json.dumps`` or imports ``dumps``
    from ``json``."""
    out = []
    for name, text in sorted(sources.items()):
        for lineno, line in enumerate(text.splitlines(), 1):
            if "json.dumps" in line or ("import" in line and "json" in line and "dumps" in line):
                out.append(f"{name}: line {lineno}")
    return out


def test_no_json_dumps():
    # the CLI writes every report through ``cli._json``, which equals
    # json.dumps(indent=2, sort_keys=True) byte for byte and avoids json's
    # pure-Python indent encoder; lattices make their label texts once
    # (``FiniteLattice.label_texts``), so no second writer or label
    # formatter grows beside them
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    uses = _dumps_uses(sources)
    assert not uses, f"json.dumps used: {', '.join(uses)}"


def test_checker_sees_json_dumps():
    sources = {
        "a.py": "import json\ntext = json.dumps(x, indent=2)\n",
        "b.py": "from json import dumps, loads\nfrom json import JSONEncoder\n",
        "c.py": "from json.encoder import encode_basestring_ascii\n",
    }
    assert _dumps_uses(sources) == ["a.py: line 2", "b.py: line 1"]
