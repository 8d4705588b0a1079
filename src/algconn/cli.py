"""Command-line front end.

Single-document JSON on stdout, diagnostics on stderr. Exit codes:
0 success (and fuzz agreement), 1 semantic disagreement in fuzz, 2 usage or
schema errors, 3 domain validation failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebroid_decision import (
    algebroid_from_json,
    decide_connection,
    decision_to_json,
    validate_algebroid,
)
from .errors import AlgconnError, PreconditionFailed, SchemaError, naming
from .formal_bundles import bundle_from_json
from .jet_obstruction import (
    _cocycle_and_connection,
    anchor_from_json,
    cert_to_json,
    jet1_transition,
    jetV_transition,
)
from .p1_engine import (
    birkhoff_split,
    cohomology_dims,
    p1bundle_from_json,
    p1bundle_to_json,
    riemann_roch_check,
    serre_dual_check,
    splitting_to_json,
)
from .sampling import run_fuzz

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax, non-UTF-8 bytes and over-long integers
        raise SchemaError(f"malformed JSON: {exc}") from exc


def _read(args, option: str, parse):
    """parse applied to the JSON file that --option names. A schema or
    validation error raised on the way names the option and the file."""
    path = getattr(args, option)
    with naming(f"--{option} {path}"):
        return parse(_load_json(path))


def _emit(payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True)
    except ValueError:
        # str() refuses an int longer than the interpreter's digit limit
        raise PreconditionFailed(
            "the result holds an integer too long to print: it exceeds the integer "
            f"digit limit of {sys.get_int_max_str_digits()} digits"
        ) from None
    sys.stdout.write(text + "\n")


def cmd_decide(args) -> int:
    # validated here so that an invalid anchor names --algebroid
    desc = _read(args, "algebroid", lambda doc: validate_algebroid(algebroid_from_json(doc)))
    bundle = _read(args, "bundle", bundle_from_json)
    decision = decide_connection(desc, bundle)
    _emit(decision_to_json(decision))
    return EXIT_OK


def cmd_split(args) -> int:
    bundle = _read(args, "bundle", p1bundle_from_json)
    data = birkhoff_split(bundle)
    payload = splitting_to_json(data)
    payload["degree"] = bundle.degree
    payload["verified"] = True
    _emit(payload)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    bundle = _read(args, "bundle", p1bundle_from_json)
    h0, h1 = cohomology_dims(bundle)
    _emit(
        {
            "rank": bundle.rank,
            "degree": bundle.degree,
            "splitting_type": list(birkhoff_split(bundle).type),
            "h0": h0,
            "h1": h1,
            "riemann_roch": riemann_roch_check(bundle),
            "serre_duality": serre_dual_check(bundle),
        }
    )
    return EXIT_OK


def cmd_connect(args) -> int:
    bundle = _read(args, "bundle", p1bundle_from_json)
    anchor = _read(args, "anchor", anchor_from_json)
    cocycle, cert = _cocycle_and_connection(bundle, anchor)
    payload = {
        "exists": cert is not None,
        "cocycle": cocycle.overlap_matrix.to_strings(),
    }
    if cert is not None:
        payload["cert"] = cert_to_json(cert)
    _emit(payload)
    return EXIT_OK


def cmd_jets(args) -> int:
    bundle = _read(args, "bundle", p1bundle_from_json)
    jet1 = jet1_transition(bundle)
    payload = {
        "jet1": p1bundle_to_json(jet1),
        "jet1_type": list(birkhoff_split(jet1).type),
    }
    if args.anchor is not None:
        anchor = _read(args, "anchor", anchor_from_json)
        jetv = jetV_transition(bundle, anchor)
        payload["jetV"] = p1bundle_to_json(jetv)
        payload["jetV_type"] = list(birkhoff_split(jetv).type)
    _emit(payload)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.count < 1:
        sys.stderr.write("fuzz: --count must be at least 1\n")
        return EXIT_USAGE
    outcome = run_fuzz(args.count, args.seed)
    _emit(outcome.report)
    return EXIT_OK if outcome.report["mismatches"] == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algconn",
        description="Decide and construct Lie algebroid connections on "
        "holomorphic vector bundles: formal criterion at any genus, exact "
        "cohomological computation on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="apply the existence criterion to formal data")
    p.add_argument("--algebroid", required=True, help="algebroid descriptor JSON file")
    p.add_argument("--bundle", required=True, help="formal bundle JSON file")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("split", help="split a transition matrix into line bundles")
    p.add_argument("--bundle", required=True, help="P1 bundle JSON file")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("cohomology", help="cohomology dimensions and duality checks")
    p.add_argument("--bundle", required=True, help="P1 bundle JSON file")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("connect", help="compute the obstruction and a certificate")
    p.add_argument("--bundle", required=True, help="P1 bundle JSON file")
    p.add_argument("--anchor", required=True, help="concrete anchor JSON file")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("jets", help="first jet bundle and anchored jet bundle")
    p.add_argument("--bundle", required=True, help="P1 bundle JSON file")
    p.add_argument("--anchor", help="concrete anchor JSON file")
    p.set_defaults(func=cmd_jets)

    p = sub.add_parser("fuzz", help="cross-validate the criterion against the engine")
    p.add_argument("--count", type=int, required=True, help="number of random cases")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_USAGE
    except AlgconnError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
