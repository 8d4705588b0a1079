"""Show that every certificate check and guard of the engine can fail.

    python3 scripts/mutants.py [NAME ...]    # all mutants, or the named ones
    python3 scripts/mutants.py --list

Each mutant disables one check in src/algconn, or breaks one rule that a
test pins, by an exact-text patch: the text that implements it, the text
that replaces it, and the test file that must then fail. The harness copies
src/, tests/ and pyproject.toml into a temporary directory and runs each
test file it needs once unpatched, which must pass. Then, for each mutant, it writes the patched module into the copy,
runs ``python -m pytest -x -q <test file>`` there, and puts the module back.

A mutant is killed when pytest reports failing tests (exit status 1); a
collection or usage error does not count. A survivor means a test is
missing: add the test, never drop the mutant. A patch whose text does not
occur exactly once in its module is stale, and is reported as an error.
A test file that runs longer than TIMEOUT_S is an error too. Exit status 0
when every selected mutant is killed, 1 otherwise.

riemann_roch_check and serre_dual_check have no mutant. Both read h^0 and
h^1 off the certified type, so each is true by construction: making it
return True changes nothing a test can see.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name module old new tests")

P1 = "src/algconn/p1_engine.py"
JET = "src/algconn/jet_obstruction.py"
CORE = "src/algconn/exact_core.py"
P1_TESTS = "tests/test_p1_engine.py"
JET_TESTS = "tests/test_jet_obstruction.py"
CLI_TESTS = "tests/test_cli.py"
CORE_TESTS = "tests/test_exact_core.py"
TIMEOUT_S = 300  # one test file; a mutant that hangs its tests is an error, not a kill

VERIFY_SHAPES = (
    "if len(self.type) != r or self.U0.shape != (r, r) or self.U1.shape != (r, r):"
)
VERIFY_FRAMES = "if not (self.U0.is_poly_in_z and self.U1.is_poly_in_w):"
VERIFY_IDENTITY = (
    "return u0_inv.is_poly_in_z and self.U0 @ u0_inv == LaurentMatrix.identity(r)"
)
CONNECTION_CHARTS = "if not cert.A0.is_poly_in_z or not cert.A1.is_poly_in_w:"
WITNESS_INVERSES = (
    "if T @ t_inv != LaurentMatrix.identity(r) or T_V @ tv_inv != LaurentMatrix.identity(q):"
)

MUTANTS = (
    # SplittingData.verify and the memo's check _splits, one check at a time
    Mutant(
        "verify-type-length",
        P1,
        VERIFY_SHAPES,
        "if self.U0.shape != (r, r) or self.U1.shape != (r, r):",
        P1_TESTS,
    ),
    Mutant(
        "verify-u0-shape",
        P1,
        VERIFY_SHAPES,
        "if len(self.type) != r or self.U1.shape != (r, r):",
        P1_TESTS,
    ),
    Mutant(
        "verify-u1-shape",
        P1,
        VERIFY_SHAPES,
        "if len(self.type) != r or self.U0.shape != (r, r):",
        P1_TESTS,
    ),
    Mutant(
        "verify-sorted-type",
        P1,
        "if list(self.type) != sorted(self.type, reverse=True):",
        "if False:",
        P1_TESTS,
    ),
    Mutant(
        "verify-degree-sum",
        P1,
        "return sum(self.type) == E.degree and self._splits(E.transition)",
        "return self._splits(E.transition)",
        P1_TESTS,
    ),
    Mutant("verify-u0-in-z", P1, VERIFY_FRAMES, "if not self.U1.is_poly_in_w:", P1_TESTS),
    Mutant("verify-u1-in-w", P1, VERIFY_FRAMES, "if not self.U0.is_poly_in_z:", P1_TESTS),
    Mutant(
        "verify-u0-inverse-in-z",
        P1,
        VERIFY_IDENTITY,
        "return self.U0 @ u0_inv == LaurentMatrix.identity(r)",
        P1_TESTS,
    ),
    Mutant("verify-identity", P1, VERIFY_IDENTITY, "return u0_inv.is_poly_in_z", P1_TESTS),
    # the reduction decides units; a splitting that fails the check is a bug
    Mutant("verify-internal-bug", P1, "if not data._splits(T):", "if False:", P1_TESTS),
    # P1Bundle's shape guards
    Mutant("bundle-square", P1, "if not self.transition.is_square:", "if False:", P1_TESTS),
    Mutant("bundle-rank", P1, "if self.transition.rows != self.rank:", "if False:", P1_TESTS),
    # the held U0^(-1) serves its own transition only
    Mutant(
        "u0-inverse-key",
        P1,
        "if held is not None and (held[0] is T or held[0] == T):",
        "if held is not None:",
        P1_TESTS,
    ),
    # the w-chart reduction: a row of positive degree left means no unit
    Mutant("w-side-unit-test", P1, "if any(w_tops):", "if False:", P1_TESTS),
    # the z-chart step budget: on det 0 with a wide span, it bounds the time
    Mutant("reduction-budget", P1, "if budget <= 0:", "if False:", CLI_TESTS),
    Mutant("shift-columns-guard", P1, "if len(exps) != M.cols:", "if False:", P1_TESTS),
    Mutant(
        "end-section-shape",
        P1,
        "if theta.shape != (E.rank, E.rank):",
        "if False:",
        P1_TESTS,
    ),
    Mutant(
        "end-section-holomorphy",
        P1,
        "if not is_global_hom(E, E, theta):",
        "if False:",
        P1_TESTS,
    ),
    # verify_connection
    Mutant(
        "connection-shape",
        JET,
        "if cert.A0.shape != (r, r * q) or cert.A1.shape != (r, r * q):",
        "if False:",
        JET_TESTS,
    ),
    Mutant(
        "connection-chart0",
        JET,
        CONNECTION_CHARTS,
        "if not cert.A1.is_poly_in_w:",
        JET_TESTS,
    ),
    Mutant(
        "connection-chart1",
        JET,
        CONNECTION_CHARTS,
        "if not cert.A0.is_poly_in_z:",
        JET_TESTS,
    ),
    Mutant(
        "connection-identity",
        JET,
        "return cert.A0 @ T_V.kron(T) == T @ cert.A1 - (anchor.phi_row @ T_V).kron(T.derivative())",
        "return True",
        JET_TESTS,
    ),
    # verify_witness
    Mutant(
        "witness-shape",
        JET,
        "if c.shape != (r, r * q) or theta.shape != (r, r * q):",
        "if False:",
        JET_TESTS,
    ),
    Mutant(
        "witness-inverse-of-E",
        JET,
        WITNESS_INVERSES,
        "if T_V @ tv_inv != LaurentMatrix.identity(q):",
        JET_TESTS,
    ),
    Mutant(
        "witness-inverse-of-V",
        JET,
        WITNESS_INVERSES,
        "if T @ t_inv != LaurentMatrix.identity(r):",
        JET_TESTS,
    ),
    Mutant("witness-chart0", JET, "if not theta.is_poly_in_z:", "if False:", JET_TESTS),
    Mutant(
        "witness-chart1",
        JET,
        "if not (t_inv @ theta @ tv_inv.transpose().kron(T)).shift(2).is_poly_in_w:",
        "if False:",
        JET_TESTS,
    ),
    Mutant("witness-pairing", JET, "return pairing.coeff(-1) != 0", "return True", JET_TESTS),
    # the scalar kernels' Gauss-Jordan stops at the first column with no pivot
    Mutant(
        "gauss-jordan-early-stop",
        CORE,
        "        if pivot is None:\n            return col",
        "        if pivot is None:\n            continue",
        CORE_TESTS,
    ),
    # parse-time guards of exact_core
    Mutant("parse-non-string-entry", CORE, "if not isinstance(s, str):", "if False:", CLI_TESTS),
    Mutant(
        "parse-digit-limit",
        CORE,
        "        return int(s)\n    except ValueError:",
        "        return int(s)\n    except ZeroDivisionError:",
        CLI_TESTS,
    ),
)


def pytest_status(copy: str, tests: str) -> int | str:
    """pytest's exit status on one test file of the copy, or "timeout"."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return done.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args()
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}  {m.module}  {m.tests}")
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    failures = 0
    with tempfile.TemporaryDirectory(prefix="algconn-mutants-") as copy:
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)

        for tests in sorted({m.tests for m in chosen}):
            status = pytest_status(copy, tests)
            if status != 0:
                print(f"error: {tests} fails without any mutant (pytest exit {status})")
                return 1

        for m in chosen:
            path = os.path.join(copy, m.module)
            with open(path) as fh:
                original = fh.read()
            if original.count(m.old) != 1:
                print(f"STALE     {m.name}: the patch text occurs {original.count(m.old)} times in {m.module}")
                failures += 1
                continue
            with open(path, "w") as fh:
                fh.write(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                status = pytest_status(copy, m.tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            seconds = time.perf_counter() - start
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"ERROR({status})"
            print(f"{verdict:9} {m.name}  ({m.tests}, {seconds:.1f} s)", flush=True)
            failures += status != 1

    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
