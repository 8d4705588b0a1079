"""Digest the stdout of split, cohomology, connect and jets on gauged inputs.

    python3 scripts/cli_stdout_digest.py [--count N] [--seed S]

Builds N gauged bundles of rank 2-6 (a hidden splitting type, frame changes
polynomial in z and in 1/z, half of them with a rational row scale) and
rotates three anchors (tangent, O(1), O(2)+O(1)). Runs each command through
algconn.cli.main in-process and prints one sha256 per command over the input
texts, exit codes and stdout. Two checkouts print the same lines exactly when
their outputs are byte-identical on these inputs. The script imports algconn
from the src directory of its own checkout, whatever else is installed.

cli_stdout_digest.expected holds the four lines of ``--count 200 --seed 0``.
The inputs come from random.Random's integer draws (randint, choice,
sample), which give the same stream from a seed on Python 3.10 to 3.13, so
CI diffs a fresh run against that file on every Python of its matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from algconn.cli import main  # noqa: E402
from algconn.exact_core import LaurentMatrix, LaurentPoly  # noqa: E402

ANCHORS = (
    {"V": {"rank": 1, "transition": [["-z^2"]]}, "phi_row": ["1"]},
    {"V": {"rank": 1, "transition": [["z"]]}, "phi_row": ["1 + z"]},
    {"V": {"rank": 2, "transition": [["z^2", "0"], ["0", "z"]]}, "phi_row": ["1", "z"]},
)
COMMANDS = ("split", "cohomology", "connect", "jets")


def elementary(rng: random.Random, r: int, lo: int, hi: int) -> LaurentMatrix:
    """I + p E_ij with p a nonzero Laurent polynomial, exponents in [lo, hi]."""
    i, j = rng.sample(range(r), 2)
    p = LaurentPoly({})
    while p.is_zero:
        p = LaurentPoly({rng.randint(lo, hi): rng.choice([-2, -1, 1, 2, 3]) for _ in range(2)})
    identity = LaurentMatrix.identity(r)
    rows = [identity.row_list(k) for k in range(r)]
    rows[i][j] = p
    return LaurentMatrix(rows)


def gauged_bundle(rng: random.Random, index: int) -> dict:
    r = 2 + index % 5
    T = LaurentMatrix.diag([LaurentPoly.z(rng.randint(-2, 2)) for _ in range(r)])
    for _ in range(r):
        T = elementary(rng, r, 0, 1) @ T @ elementary(rng, r, -1, 0)
    if index % 2:
        scale = [LaurentPoly.const(Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 5])))
                 for _ in range(r)]
        T = LaurentMatrix.diag(scale) @ T
    return {"rank": r, "transition": T.to_strings()}


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def main_digest() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    digests = {c: hashlib.sha256() for c in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = os.path.join(tmp, "bundle.json")
        anchor_path = os.path.join(tmp, "anchor.json")
        for index in range(args.count):
            bundle = json.dumps(gauged_bundle(rng, index))
            anchor = json.dumps(ANCHORS[index % len(ANCHORS)])
            with open(bundle_path, "w") as fh:
                fh.write(bundle)
            with open(anchor_path, "w") as fh:
                fh.write(anchor)
            for command in COMMANDS:
                argv = [command, "--bundle", bundle_path]
                if command in ("connect", "jets"):
                    argv += ["--anchor", anchor_path]
                code, stdout = run(argv)
                digests[command].update(f"{bundle}\n{anchor}\n{code}\n{stdout}\n".encode())
    for command in COMMANDS:
        print(f"{command} {args.count} {digests[command].hexdigest()}")


if __name__ == "__main__":
    main_digest()
