"""The mutation harness, scripts/mutants.py, holds no stale entry.

A patch whose text no longer occurs exactly once in its module is reported
as an error only when the harness runs, which takes minutes. These checks
read its MUTANTS table without running a mutant: each patch occurs once and
changes its text, each test file exists, the names are unique, and the
docstring's count is the table's.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_harness():
    """scripts/mutants.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


HARNESS = load_harness()


@pytest.mark.parametrize("mutant", HARNESS.MUTANTS, ids=lambda m: m.name)
def test_each_patch_is_fresh(mutant):
    source = (ROOT / mutant.module).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert (ROOT / mutant.tests).is_file()


def test_names_are_unique_and_the_docstring_counts_them():
    names = [m.name for m in HARNESS.MUTANTS]
    assert len(names) == len(set(names))
    (count,) = re.findall(r"lists\s+(\d+)\s+mutants", HARNESS.__doc__)
    assert int(count) == len(names)
