"""The package surface: the export list, and no import left unused."""

import ast
from pathlib import Path

import caplearn

SRC = Path(caplearn.__file__).parent
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
        for path in sorted(SRC.glob("*.py"))
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
