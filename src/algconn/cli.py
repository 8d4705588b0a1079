"""Command-line front end.

Single-document JSON on stdout, diagnostics on stderr. Exit codes:
0 success (and fuzz agreement), 1 semantic disagreement in fuzz, 2 usage or
schema errors, 3 domain validation failures, 4 an internal bug: one of the
engine's own checks failed (errors.InternalCheckFailed), reported in one
stderr line that names the check and the inputs.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

# A module that only some commands run is imported inside them, so that a
# cold `split` or `cohomology` compiles neither the decision layer, the jet
# layer nor the sampler. formal_bundles and p1_engine stay here:
# bench/tracer.py patches formal_bundles by name at install, and
# bench/selftest.py checks that the patch reaches this module's
# birkhoff_split.
from .errors import (
    AlgconnError,
    ContextMismatch,
    InternalCheckFailed,
    PreconditionFailed,
    SchemaError,
    naming,
)
from .formal_bundles import bundle_from_json
from .p1_engine import (
    birkhoff_split,
    cohomology_dims,
    p1bundle_from_json,
    p1bundle_to_json,
    splitting_to_json,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


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
    from .algebroid_decision import algebroid_from_json, decide_connection, decision_to_json

    # the descriptor checks itself when it is built, inside _read, so that an
    # invalid anchor names --algebroid
    desc = _read(args, "algebroid", algebroid_from_json)
    bundle = _read(args, "bundle", bundle_from_json)
    if desc.V.context != bundle.context:
        raise ContextMismatch(
            f"--algebroid {args.algebroid} at genus {desc.V.context.genus}, "
            f"--bundle {args.bundle} at genus {bundle.context.genus}: "
            "the algebroid and the bundle must lie on one curve"
        )
    decision = decide_connection(desc, bundle)
    _emit(decision_to_json(decision))
    return EXIT_OK


def cmd_split(args) -> int:
    bundle = _read(args, "bundle", p1bundle_from_json)
    data = birkhoff_split(bundle)
    payload = splitting_to_json(data)
    payload["degree"] = bundle.degree
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
        }
    )
    return EXIT_OK


def cmd_connect(args) -> int:
    from .jet_obstruction import _cocycle_and_connection, anchor_from_json, cert_to_json

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
    from .jet_obstruction import anchor_from_json, jet1_transition, jetV_transition

    # both inputs are read before J^1(E), the costly part, is built and split
    bundle = _read(args, "bundle", p1bundle_from_json)
    anchor = None if args.anchor is None else _read(args, "anchor", anchor_from_json)
    jet1 = jet1_transition(bundle)
    payload = {
        "jet1": p1bundle_to_json(jet1),
        "jet1_type": list(birkhoff_split(jet1).type),
    }
    if anchor is not None:
        jetv = jetV_transition(bundle, anchor)
        payload["jetV"] = p1bundle_to_json(jetv)
        payload["jetV_type"] = list(birkhoff_split(jetv).type)
    _emit(payload)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    from .sampling import run_fuzz

    outcome = run_fuzz(args.count, args.seed)
    _emit(outcome.report)
    return EXIT_OK if outcome.report["mismatches"] == 0 else EXIT_MISMATCH


def positive(text: str) -> int:
    """An int of at least 1. Its name completes the usage error of any
    other value: invalid positive value: '0'."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


# One row per command: its handler, its help line and its options. An option
# is (name, help, required, type, default); main reads it as --name value or
# --name=value, and an option given twice keeps its last value.
COMMANDS = {
    "decide": (cmd_decide, "apply the existence criterion to formal data", (
        ("algebroid", "algebroid descriptor JSON file", True, str, None),
        ("bundle", "formal bundle JSON file", True, str, None),
    )),
    "split": (cmd_split, "split a transition matrix into line bundles", (
        ("bundle", "P1 bundle JSON file", True, str, None),
    )),
    "cohomology": (cmd_cohomology, "cohomology dimensions read off the splitting type", (
        ("bundle", "P1 bundle JSON file", True, str, None),
    )),
    "connect": (cmd_connect, "compute the obstruction and a certificate", (
        ("bundle", "P1 bundle JSON file", True, str, None),
        ("anchor", "concrete anchor JSON file", True, str, None),
    )),
    "jets": (cmd_jets, "first jet bundle and anchored jet bundle", (
        ("bundle", "P1 bundle JSON file", True, str, None),
        ("anchor", "concrete anchor JSON file", False, str, None),
    )),
    "fuzz": (cmd_fuzz, "cross-validate the criterion against the engine", (
        ("count", "number of random cases", True, positive, None),
        ("seed", "RNG seed (default 0)", False, int, 0),
    )),
}

DESCRIPTION = (
    "Decide and construct Lie algebroid connections on holomorphic vector bundles:\n"
    "formal criterion at any genus, exact cohomological computation on the\n"
    "projective line."
)


class _UsageError(Exception):
    """A command line that COMMANDS does not accept. Its args are the command
    the line names (None when it names none) and what is wrong with it."""


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: algconn {{{','.join(COMMANDS)}}} [--option value ...]"
    words = [f"--{name} {name.upper()}" if required else f"[--{name} {name.upper()}]"
             for name, _, required, _, _ in COMMANDS[command][2]]
    return " ".join(["usage: algconn", command, *words])


def _help(command: str | None) -> str:
    if command is None:
        rows = [(name, line) for name, (_, line, _) in COMMANDS.items()]
        body = [DESCRIPTION, "", "commands:"]
        tail = ["", "algconn <command> --help lists the options of a command."]
    else:
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"--{name} {name.upper()}", text)
                 for name, text, _, _, _ in COMMANDS[command][2]]
        body = [COMMANDS[command][1], "", "options:"]
        tail = []
    width = max(len(label) for label, _ in rows) + 2
    lines = [_usage(command), "", *body]
    lines += [f"  {label:<{width}}{text}" for label, text in rows]
    return "\n".join(lines + tail) + "\n"


def _parse(argv: list[str]):
    """The handler and the namespace of its options that argv names, or a
    _UsageError. Options must be spelled out in full."""
    if not argv:
        raise _UsageError(None, "a command is required")
    command, tokens = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise _UsageError(None, f"invalid choice: {command!r} (choose from {', '.join(COMMANDS)})")
    handler, _, options = COMMANDS[command]
    kinds = {name: kind for name, _, _, kind, _ in options}
    values = {}
    for token in tokens:
        name, eq, value = token[2:].partition("=") if token.startswith("--") else ("", "", "")
        if name not in kinds:
            raise _UsageError(command, f"unrecognized argument: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(command, f"argument --{name}: expected one argument")
        try:
            values[name] = kinds[name](value)
        except ValueError:
            raise _UsageError(
                command, f"argument --{name}: invalid {kinds[name].__name__} value: {value!r}"
            ) from None
    missing = [f"--{name}" for name, _, required, _, _ in options if required and name not in values]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{name: values.get(name, default)
                                       for name, _, _, _, default in options})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(argv[0] if argv[0] in COMMANDS else None))
        return EXIT_OK
    try:
        handler, args = _parse(argv)
    except _UsageError as exc:
        command, message = exc.args
        prog = "algconn" if command is None else f"algconn {command}"
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
        return EXIT_USAGE
    try:
        return handler(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_USAGE
    except AlgconnError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_DOMAIN
    except InternalCheckFailed as exc:
        given = " ".join(f"--{name} {value}" for name, value in vars(args).items()
                         if value is not None)
        sys.stderr.write(f"internal error: algconn {argv[0]}: {exc} (inputs: {given})\n")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
