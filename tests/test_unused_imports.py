"""Every module-level import of a library module is read by that module.

Each src/algconn/*.py other than the package's __init__.py, which exists to
re-export, is parsed with ast. A name bound by a module-level import must
be read somewhere in the module, so that a name whose last reader is
deleted takes its import along with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "algconn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of `source` bind and that no
    expression of the module reads, in order of import."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_guard_sees_an_unread_import():
    source = "from fractions import Fraction\nimport os.path\nfrom re import sub as s\nos.sep\n"
    assert unused_imports(source) == ["Fraction", "s"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_guard_reads_every_library_module():
    assert {p.name for p in MODULES} >= {"exact_core.py", "formal_bundles.py", "p1_engine.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
