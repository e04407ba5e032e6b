"""Package layout: no module reaches into another module's private names.

What is verified:
  1. No module under src/stripshear imports an underscore name from another
     package module (``from .incremental import _name``), or reaches one as
     an attribute of a package module it imported (``incremental._name``,
     ``stripshear.incremental._name``).  Private modules such as ``_p1`` are
     shared on purpose: importing them is allowed, their public names are
     the interface.  Dunder names and the names of foreign packages
     (``numpy.linalg._umath_linalg``) are out of scope.
  2. The checker flags each of those forms in small sources and passes the
     allowed ones, so a clean tree is not a blind spot of the checker.
  3. Every name the benchmark harness looks up still resolves: each
     ``(module, attribute)`` row of ``perfbench/spans.py``'s INSTRUMENTED
     table names a callable, and each ``from stripshear... import`` in
     ``perfbench/*.py`` names something the package has.  The files are
     parsed, not run, and the check skips where ``perfbench/`` is absent.
  4. The import graph keeps the shared solver core at the bottom: ``_p1``
     imports no package module but ``model``, and ``yield_stress`` imports
     nothing from ``incremental``.  The collector finds a package module
     behind every import form, so an allowed graph is not a blind spot.
  5. ``_p1`` exports only what another package module uses: every name in
     its ``__all__`` is imported from it, or read off it, by some other
     module under src/stripshear; the collector sees both forms.
"""

import ast
import importlib
from pathlib import Path

import pytest

import stripshear
from stripshear import _p1

PACKAGE = "stripshear"
SRC = Path(stripshear.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {
    PACKAGE if p.stem == "__init__" else f"{PACKAGE}.{p.stem}": p
    for p in sorted(SRC.glob("*.py"))
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _own(dotted: str | None) -> bool:
    return dotted is not None and (dotted == PACKAGE or dotted.startswith(PACKAGE + "."))


def _source_of(module: str, node: ast.ImportFrom) -> str | None:
    """Absolute name of the module an ImportFrom in `module` reads from."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if module != PACKAGE:  # a plain module: its own name is not a package
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def private_reaches(module: str, source: str) -> list[str]:
    """Another package module's underscore names that `module` imports or reads."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> package module it names
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _own(alias.name):
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            origin = _source_of(module, node)
            if not _own(origin) or origin == module:
                continue
            for alias in node.names:
                full = f"{origin}.{alias.name}"
                if full in MODULES:
                    bound[alias.asname or alias.name] = full
                elif _private(alias.name):
                    found.append(f"from {origin} import {alias.name}")

    def module_named(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = module_named(expr.value)
            if base is not None and f"{base}.{expr.attr}" in MODULES:
                return f"{base}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = module_named(node.value)
            if base not in (None, module) and f"{base}.{node.attr}" not in MODULES:
                found.append(f"{base}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_reaches_another_modules_private_names(module):
    assert private_reaches(module, MODULES[module].read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .incremental import _threshold_dual", ["from stripshear.incremental import _threshold_dual"]),
        ("from stripshear.model import _check", ["from stripshear.model import _check"]),
        ("from ._p1 import _Layout", ["from stripshear._p1 import _Layout"]),
        ("from . import incremental\nincremental._dual_gram(1)", ["stripshear.incremental._dual_gram"]),
        ("import stripshear.incremental\nstripshear.incremental._max_norm", ["stripshear.incremental._max_norm"]),
        ("import stripshear.incremental as inc\ndef f():\n    return inc._x", ["stripshear.incremental._x"]),
        ("from ._p1 import SmoothedDissipation, gauss_legendre", []),
        ("from . import _p1\n_p1.gauss_legendre(3)", []),
        ("import stripshear._p1\nstripshear._p1.mass_vector", []),
        ("import numpy.linalg\nnumpy.linalg._umath_linalg.__file__", []),
        ("from .model import __doc__\nself._cache = None", []),
        ("def _own():\n    return 1\n\n_own()", []),
    ],
)
def test_checker_flags_private_reaches(source, expected):
    assert private_reaches(f"{PACKAGE}.cli", source) == expected


def imported_modules(module: str, source: str) -> set[str]:
    """The package modules `module` imports, in any import form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if _own(alias.name))
        elif isinstance(node, ast.ImportFrom):
            origin = _source_of(module, node)
            if not _own(origin):
                continue
            for alias in node.names:
                full = f"{origin}.{alias.name}"
                found.add(full if full in MODULES else origin)
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .incremental import DEFAULT_OPTIONS", {"stripshear.incremental"}),
        ("from . import incremental, model", {"stripshear.incremental", "stripshear.model"}),
        ("import stripshear.incremental as inc", {"stripshear.incremental"}),
        ("from stripshear._p1 import ladder", {"stripshear._p1"}),
        ("def f():\n    from .model import Mesh", {"stripshear.model"}),
        ("import numpy as np\nfrom numpy.linalg import LinAlgError", set()),
    ],
)
def test_collector_finds_package_imports(source, expected):
    assert imported_modules(f"{PACKAGE}.cli", source) == expected


def test_solver_core_sits_below_the_solvers():
    def imports(module):
        return imported_modules(module, MODULES[module].read_text())

    assert imports(f"{PACKAGE}._p1") <= {f"{PACKAGE}.model"}
    assert f"{PACKAGE}.incremental" not in imports(f"{PACKAGE}.yield_stress")


def names_taken_from(target: str, module: str, source: str) -> set[str]:
    """The names `module` imports from package module `target` or reads off it."""
    tree = ast.parse(source)
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = _source_of(module, node)
            for alias in node.names:
                if origin == target:
                    found.add(alias.name)
                elif f"{origin}.{alias.name}" == target:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == target and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from ._p1 import ladder, clamped as c", {"ladder", "clamped"}),
        ("from . import _p1\n_p1.dual_norm(1)", {"dual_norm"}),
        ("import stripshear._p1 as core\ncore.mass_vector", {"mass_vector"}),
        ("from .model import Mesh\nMesh.n_cells", set()),
    ],
)
def test_collector_finds_names_taken_from_p1(source, expected):
    assert names_taken_from(f"{PACKAGE}._p1", f"{PACKAGE}.cli", source) == expected


def test_p1_exports_only_what_another_module_uses():
    target = f"{PACKAGE}._p1"
    taken = set()
    for module, path in MODULES.items():
        if module != target:
            taken |= names_taken_from(target, module, path.read_text())
    assert sorted(set(_p1.__all__) - taken) == []


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` would find name in the package."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule
    except ModuleNotFoundError:
        return False
    return True


def test_bench_names_resolve():
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this tree")
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PERFBENCH.glob("*.py"))}
    rows = [
        tuple(ast.literal_eval(e) for e in row.elts[:2])
        for node in trees["spans.py"].body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "INSTRUMENTED" for t in node.targets)
        for row in node.value.elts
    ]
    imported = [
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _own(node.module)
        for alias in node.names
    ]
    assert rows and imported
    missing = [
        f"{module}.{attr}"
        for module, attr in rows
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    missing += [f"{module}.{name}" for module, name in imported if not _resolves(module, name)]
    assert missing == []
