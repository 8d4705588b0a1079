"""Every module-level import of a library module is read by that module,
and every module-level private name of the package is read by some module.

Each src/algconn/*.py other than the package's __init__.py, which exists to
re-export, is parsed with ast. A name bound by a module-level import must
be read somewhere in the module, so that a name whose last reader is
deleted takes its import along with it. A private name (one leading
underscore) that a module of src/algconn, __init__.py included, defines at
module level must be read by some module of src/algconn, so that a helper
whose last caller is deleted goes with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "algconn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names that the module-level definitions, assignments and
    annotated assignments of `sources` bind and that no expression of any
    of them reads, in order of definition."""
    trees = [ast.parse(source) for source in sources]
    defined: list[str] = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            defined += [n for n in names if n.startswith("_") and not n.startswith("__")]
    read = {
        n.id for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in defined if name not in read]


def test_the_guard_sees_an_unread_private_name():
    first = "def _used(): pass\ndef _orphan(): pass\n_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
    second = "from .first import _used\n_used()\nprint(_B)\n"
    assert unread_private_names([first, second]) == ["_orphan", "_A", "_C"]
    assert unread_private_names([first + "_orphan\n_A\n_C\n", second]) == []


def test_every_private_name_of_the_package_is_read():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unread_private_names(sources) == []


def test_the_guard_sees_an_unread_import():
    source = "from fractions import Fraction\nimport os.path\nfrom re import sub as s\nos.sep\n"
    assert unused_imports(source) == ["Fraction", "s"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_guard_reads_every_library_module():
    assert {p.name for p in MODULES} >= {"exact_core.py", "formal_bundles.py", "p1_engine.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
