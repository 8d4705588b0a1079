"""Value semantics of the record types: construction, equality, hashing,
immutability, repr, copying and pickling; the exported names; and the
modules that importing the CLI and running each command load."""

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import algconn
from algconn import (
    AlgebroidDesc,
    AnchorDesc,
    AnchorKind,
    Atom,
    ConcreteAnchor,
    ConnectionCert,
    CurveContext,
    Decision,
    FormalBundle,
    GlobalSection,
    LaurentMatrix,
    LaurentPoly,
    ObstructionCocycle,
    P1Bundle,
    Reason,
    SplittingData,
    Stability,
    laurent_parse,
    tangent_bundle,
)
from algconn.exact_core import _Value
from algconn.sampling import FuzzOutcome

M = LaurentMatrix.parse
ATOM = Atom(2, -1, Stability.STABLE, "a", False)
LINE = Atom(1, 1, label="O(1)")
TANGENT_V = FormalBundle(CurveContext(0), (Atom(1, 2, is_tangent=True),))

# class -> (field names in declaration order, field values)
CASES = {
    CurveContext: (("genus",), (1,)),
    Atom: (
        ("rank", "degree", "stability", "label", "is_tangent"),
        (2, -1, Stability.STABLE, "a", False),
    ),
    FormalBundle: (("context", "atoms"), (CurveContext(1), (ATOM, LINE))),
    AnchorDesc: (("kind", "section"), (AnchorKind.NONZERO, (laurent_parse("1 + z"),))),
    AlgebroidDesc: (
        ("V", "anchor"),
        (TANGENT_V, AnchorDesc(AnchorKind.ISOMORPHISM, (laurent_parse("1"),))),
    ),
    Decision: (("reason", "atiyah_weil"), (Reason.ANCHOR_ISO_AW, True)),
    ConcreteAnchor: (("V", "phi_row"), (tangent_bundle(), M([["1"]]))),
    ObstructionCocycle: (("overlap_matrix",), (M([["2*z^-1", "0"]]),)),
    ConnectionCert: (("A0", "A1"), (M([["z", "0"]]), M([["0", "1/2*z^-1"]]))),
    P1Bundle: (("transition",), (M([["z", "1"], ["0", "z^-1"]]),)),
    SplittingData: (
        ("transition", "type", "U0", "U1"),
        (
            M([["z", "-1"], ["0", "z^-1"]]),
            (1, -1),
            LaurentMatrix.identity(2),
            M([["1", "z^-1"], ["0", "1"]]),
        ),
    ),
    GlobalSection: (("chart0_rep",), (M([["z"], ["1"]]),)),
    FuzzOutcome: (("report",), ({"cases": 1, "mismatches": 0},)),
}

# repr of each CASES instance, recorded from the dataclass implementation
REPRS = {
    CurveContext: "CurveContext(genus=1)",
    Atom: "Atom(rank=2, degree=-1, stability=<Stability.STABLE: 'stable'>, label='a', "
    "is_tangent=False)",
    FormalBundle: "FormalBundle(context=CurveContext(genus=1), atoms=(Atom(rank=2, degree=-1, "
    "stability=<Stability.STABLE: 'stable'>, label='a', is_tangent=False), Atom(rank=1, "
    "degree=1, stability=<Stability.STABLE: 'stable'>, label='O(1)', is_tangent=False)))",
    AnchorDesc: "AnchorDesc(kind=<AnchorKind.NONZERO: 'nonzero'>, section=(LaurentPoly('1 + z'),))",
    AlgebroidDesc: "AlgebroidDesc(V=FormalBundle(context=CurveContext(genus=0), atoms=(Atom("
    "rank=1, degree=2, stability=<Stability.STABLE: 'stable'>, label='', is_tangent=True),)), "
    "anchor=AnchorDesc(kind=<AnchorKind.ISOMORPHISM: 'isomorphism'>, "
    "section=(LaurentPoly('1'),)))",
    Decision: "Decision(reason=<Reason.ANCHOR_ISO_AW: 'AnchorIso_AW'>, atiyah_weil=True)",
    ConcreteAnchor: "ConcreteAnchor(V=P1Bundle(transition=LaurentMatrix([-z^2])), "
    "phi_row=LaurentMatrix([1]))",
    ObstructionCocycle: "ObstructionCocycle(overlap_matrix=LaurentMatrix([2*z^-1, 0]))",
    ConnectionCert: "ConnectionCert(A0=LaurentMatrix([z, 0]), A1=LaurentMatrix([0, 1/2*z^-1]))",
    P1Bundle: "P1Bundle(transition=LaurentMatrix([z, 1; 0, z^-1]))",
    SplittingData: "SplittingData(transition=LaurentMatrix([z, -1; 0, z^-1]), type=(1, -1), "
    "U0=LaurentMatrix([1, 0; 0, 1]), U1=LaurentMatrix([1, z^-1; 0, 1]))",
    GlobalSection: "GlobalSection(chart0_rep=LaurentMatrix([z; 1]))",
    FuzzOutcome: "FuzzOutcome(report={'cases': 1, 'mismatches': 0})",
}

TYPES = list(CASES)


def build(cls):
    return cls(*CASES[cls][1])


def test_every_type_is_covered():
    assert set(REPRS) == set(CASES) and len(CASES) == 13


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values = CASES[cls]
    x, y = cls(*values), cls(**dict(zip(names, values)))
    assert x == y
    assert tuple(getattr(x, n) for n in names) == values


def test_defaults():
    assert (Atom(2, 1).stability, Atom(2, 1).label, Atom(2, 1).is_tangent) == (
        Stability.UNKNOWN, "", False)
    assert Atom(1, 0).stability == Stability.STABLE  # rank 1 is always stable
    assert AnchorDesc(AnchorKind.ZERO).section is None
    assert Decision(Reason.ZERO_ANCHOR).atiyah_weil is None


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equality_and_hash_are_those_of_the_field_tuple(cls):
    values = CASES[cls][1]
    x, y = build(cls), build(cls)
    assert x is not y and x == y and not x != y
    try:
        expected = hash(values)
    except TypeError:  # FuzzOutcome holds a dict, so neither is hashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_another_class_with_the_same_fields_is_unequal(cls):
    other = type("Other", (cls,), {"__slots__": ()})
    x, y = build(cls), other(*CASES[cls][1])
    assert x != y and y != x and not x == y


def test_different_record_types_with_one_field_are_unequal():
    col = M([["z"], ["1"]])
    assert ObstructionCocycle(col) != GlobalSection(col)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    x = build(cls)
    name = CASES[cls][0][0]
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        delattr(x, name)


def test_laurent_values_refuse_assignment_and_deletion():
    # fresh objects: deleting a field of the shared zero polynomial would break
    # every later zero entry. The products, monomial and negation are built by
    # the trusted wraps, which set the slots without object.__setattr__.
    p, A = laurent_parse("1/2*z^-1 + 3"), M([["z", "1"], ["0", "1"]])
    for x in (p, A, p * p, LaurentPoly.monomial(5, -1), A @ A, A.kron(A), -A.shift(1)):
        before = hash(x), str(x)
        for name in type(x).__slots__:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (hash(x), str(x)) == before


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(build(cls)) == REPRS[cls]


def test_p1bundle_compares_its_transition_only():
    E = build(P1Bundle)
    assert (E.rank, E.degree) == (2, 0) and "rank" not in repr(E) and "degree" not in repr(E)
    assert hash(E) == hash((E.transition,))


@pytest.mark.parametrize(
    "x",
    [build(cls) for cls in TYPES] + [laurent_parse("1/2*z^-1 + 3"), M([["z", "1"], ["0", "1"]])],
    ids=[cls.__name__ for cls in TYPES] + ["LaurentPoly", "LaurentMatrix"],
)
def test_copy_deepcopy_and_pickle_round_trip(x):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        if not isinstance(x, FuzzOutcome):
            assert hash(y) == hash(x)


class Pair(_Value):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Single(_Value):
    __slots__ = _fields = ("x",)

    def __init__(self, x):
        object.__setattr__(self, "x", x)


def test_a_record_declares_only_its_fields():
    # _fields alone gives equality, hashing, repr, copying and pickling
    for x, values in ((Pair(1, "b"), (1, "b")), (Single(Fraction(1, 2)), (Fraction(1, 2),))):
        cls = type(x)
        assert x == cls(*values) and hash(x) == hash(values)
        assert x != Pair(2, "b") and x != Single(2)
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(cls._fields, values))
        assert repr(x) == f"{cls.__qualname__}({fields})"
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is cls and y == x and hash(y) == hash(x)
    # one field: the identity is the 1-tuple, not the bare value
    assert hash(Single(3)) == hash((3,)) != hash(3)
    assert repr(Single(3)) == "Single(x=3)"
    with pytest.raises(AttributeError):
        Single(3).x = 4


def test_immutable_values_copy_to_themselves_and_outcomes_do_not():
    for x in (build(P1Bundle), laurent_parse("z"), LaurentMatrix.identity(2)):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
    outcome = build(FuzzOutcome)
    assert copy.deepcopy(outcome).report is not outcome.report


# every name algconn/__init__.py exports
EXPORTS = """
AlgebroidDesc AnchorDesc AnchorKind Decision Reason Verdict anchor_forced_zero
decide_connection LaurentMatrix LaurentPoly laurent_parse Atom
CurveContext FormalBundle Stability atiyah_weil ConcreteAnchor
ConnectionCert ObstructionCocycle construct_connection jet1_transition
jetV_transition obstruction_cocycle tangent_anchor verify_connection
verify_witness zero_anchor GlobalSection P1Bundle SplittingData birkhoff_split
cohomology_dims dual_bundle gauge_transform global_sections hom_bundle hom_sections
line_bundle split_bundle tangent_bundle tensor_bundle trivial_bundle twist __version__
""".split()


# the public certificate checks and what each reads besides E and the
# anchor: verify_witness takes the vector witness of a "no", its two
# exponents and five vectors, not a cocycle and two r x rq matrices
CHECK_PARAMETERS = {
    "verify_connection": ("E", "anchor", "cert"),
    "verify_witness": ("E", "anchor", "a_i", "v_a", "u", "v", "x", "w0", "w1"),
}


def test_certificate_checks_take_the_recorded_parameters():
    for name, params in CHECK_PARAMETERS.items():
        code = getattr(algconn, name).__code__
        assert code.co_varnames[: code.co_argcount] == params, name


def test_exports_are_exactly_the_public_names():
    # two-sided: a removed name still listed fails, and so does an unrecorded
    # new one. The names load lazily, so vars(algconn) holds only those read
    # so far; __all__ and dir() list them all, and each must resolve.
    assert len(set(EXPORTS)) == len(EXPORTS)
    assert len(set(algconn.__all__)) == len(algconn.__all__)
    assert set(algconn.__all__) | {"__version__"} == set(EXPORTS)
    public = {name for name in dir(algconn) if not name.startswith("_")}
    assert public | {"__version__"} == set(EXPORTS)
    for name in EXPORTS:
        assert getattr(algconn, name) is not None, name
    with pytest.raises(AttributeError):
        algconn.not_an_export


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_names_the_benchmark_imports_resolve():
    # bench/ imports these from the library; a name removed from src/ would
    # turn every case of a workload into an ImportError, seen only when the
    # benchmark runs. The tracer and bench/selftest.py read the memo's stats.
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("algconn."):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    for file, module, name in imported:
        assert hasattr(importlib.import_module(module), name), (file, module, name)
    assert callable(importlib.import_module("algconn.p1_engine")._birkhoff_cached.cache_info)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_child(code: str) -> list:
    """The stdout lines of `code` run in a fresh interpreter that imports
    algconn from this checkout."""
    # the child sees no PYTHON* variable, PYTHONDONTWRITEBYTECODE included, so
    # -B keeps it from writing bytecode caches into the source tree
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", f"import sys\nsys.path[:1] = [{SRC!r}]\n" + code],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # nor argparse and gettext: the CLI parses its arguments from its own table
    code = (
        "before = set(sys.modules)\n"
        "import algconn.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'argparse', 'gettext'}\n"
        "             & (set(sys.modules) - before)))\n"
        "import algconn\n"
        f"print([n for n in {EXPORTS!r} if not hasattr(algconn, n)])\n"
    )
    assert run_child(code) == ["[]", "[]"]
    assert all(hasattr(algconn, n) for n in EXPORTS)


# What `import algconn.cli` loads. Each command imports the rest of what it
# runs when it runs. formal_bundles and p1_engine stay eager all the same:
# bench/tracer.py patches formal_bundles' functions by name when it installs,
# which needs the module loaded, and bench/selftest.py asserts that the
# tracer's patch of p1_engine.birkhoff_split reaches algconn.cli's name.
CLI_IMPORT = {"algconn", "algconn.cli", "algconn.errors", "algconn.exact_core",
              "algconn.formal_bundles", "algconn.p1_engine"}

# the commands run in one process, and the modules they add to CLI_IMPORT
COMMAND_MODULES = [
    (("split", "cohomology"), set()),
    (("connect",), {"algconn.jet_obstruction"}),
    (("jets",), {"algconn.jet_obstruction"}),
    (("decide",), {"algconn.algebroid_decision"}),
]


@pytest.mark.parametrize("commands, added", COMMAND_MODULES,
                         ids=["+".join(commands) for commands, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, commands, added):
    files = {
        "p1": {"rank": 2, "transition": [["z^-1", "1"], ["0", "z"]]},
        "anchor": {"V": {"rank": 1, "transition": [["-z^2"]]}, "phi_row": ["1"]},
        "algebroid": {"V": {"genus": 0, "atoms": [{"rank": 1, "degree": -3}]},
                      "anchor": {"kind": "nonzero", "section": ["z^5 + 1"]}},
        "formal": {"genus": 0, "atoms": [{"rank": 1, "degree": 7}]},
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argvs = {
        "split": ["split", "--bundle", paths["p1"]],
        "cohomology": ["cohomology", "--bundle", paths["p1"]],
        "connect": ["connect", "--bundle", paths["p1"], "--anchor", paths["anchor"]],
        "jets": ["jets", "--bundle", paths["p1"], "--anchor", paths["anchor"]],
        "decide": ["decide", "--algebroid", paths["algebroid"], "--bundle", paths["formal"]],
    }
    code = (
        "import contextlib, io\n"
        "import algconn.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'algconn')\n"
        "print(loaded(), 'random' in sys.modules)\n"
        f"for argv in {[argvs[c] for c in commands]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = algconn.cli.main(argv)\n"
        "    print(code)\n"
        "print(loaded(), 'argparse' in sys.modules)\n"
    )
    lines = run_child(code)
    assert lines[0] == f"{sorted(CLI_IMPORT)} False"
    assert lines[1:-1] == ["0"] * len(commands)
    assert lines[-1] == f"{sorted(CLI_IMPORT | added)} False"
