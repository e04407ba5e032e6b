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
"""

import ast
import importlib
from pathlib import Path

import pytest

import stripshear

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
