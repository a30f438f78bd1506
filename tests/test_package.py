"""The package surface: the export list, no import left unused in it or its
tests, and no definition in it that nothing reads."""

import ast
from collections import Counter
from pathlib import Path

import caplearn

SRC = Path(caplearn.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"
# learning imports chebyshev_distance only so that the benchmark tracer can
# wrap it there (ROADMAP item 1)
ALLOWED_UNUSED = {("learning", "chebyshev_distance")}


def unused_imports(source: str) -> set[str]:
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_export_resolves():
    missing = [name for name in caplearn.__all__ if not hasattr(caplearn, name)]
    assert missing == []
    assert len(set(caplearn.__all__)) == len(caplearn.__all__)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from caplearn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(caplearn.__all__)


def test_no_unused_import_in_the_package():
    found = {
        (path.stem, name)
        for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found - ALLOWED_UNUSED == set(), "unused imports"
    assert ALLOWED_UNUSED - found == set(), "allowed entries no longer needed"


def test_unused_import_check_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import inf, pi\n"
        "from .scale import Scale\n"
        "__all__ = ['Scale']\n"
        "def f(x: int) -> float:\n"
        "    return pi * x\n"
    )
    assert unused_imports(source) == {"os", "js", "inf"}


def reads(tree: ast.AST) -> Counter:
    """How often a tree reads each name: as a loaded name, as an attribute,
    or as a part of a string constant that is a dotted name (an ``__all__``
    entry, a tracer target)."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
    return found


def unread_definitions(sources: dict[str, str], defining: set[str]) -> set[tuple[str, str]]:
    """(module, name) of each module-level function or class of the
    ``defining`` modules that no source reads outside its own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    return {
        (module, node.name)
        for module in defining
        for node in trees[module].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and total[node.name] == reads(node)[node.name]
    }


def test_every_definition_is_read():
    package = {f"caplearn.{p.stem}": p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    bench = {f"perfbench.{p.stem}": p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py")}
    assert "caplearn.capacity" in package and "perfbench.tracing" in bench
    assert unread_definitions({**package, **bench}, set(package)) == set()


def test_unread_definition_check_sees_every_form():
    sources = {
        "lib": (
            "__all__ = ['public']\n"
            "def public(): return _helper()\n"
            "def _helper(): return 1\n"
            "def _traced(): pass\n"
            "class _Used: pass\n"
            "def _leftover(n): return _leftover(n - 1) if n else 0\n"
            "def _stored(): pass\n"
            "_stored = None\n"
        ),
        "user": "import lib\nTARGETS = (('lib', '_traced'),)\nx: 'lib._Used' = lib.public()\n",
    }
    assert unread_definitions(sources, {"lib"}) == {("lib", "_leftover"), ("lib", "_stored")}
