"""The four workloads: how each builds its cases, runs one, and checks it.

A case is the JSON text the program receives plus the generator's own facts
about it (the hidden splitting type, T and T^-1), which the output check
uses. In-process cases copy what the matching ``algconn`` command does, step
by step, and emit its stdout text.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen


HERE = Path(__file__).resolve().parent


@dataclass
class Case:
    inputs: dict  # input name -> JSON text handed to the program
    truth: dict = field(default_factory=dict)  # what the generator knows
    command: str = ""  # cli_cold: the algconn command
    paths: dict = field(default_factory=dict)  # cli_cold: input name -> file


def emit(payload) -> str:
    """The CLI's stdout for a payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- connect_gauged -----------------------------------------------------------

ANCHOR_KINDS = ("tangent", "line", "split2")


def gauged_case(d: gen.Draw, rank: int, bound: int, ops: int, deg: int) -> tuple[dict, dict]:
    """Inputs and facts of a gauged bundle with a hidden splitting type whose
    entries lie in [-bound, bound]."""
    exps = [d.shape.randint(-bound, bound) for _ in range(rank)]
    T, T_inv = gen.gauged(d, exps, ops, deg)
    truth = {"T": T, "T_inv": T_inv, "type": sorted(exps, reverse=True)}
    return gen.bundle_doc(T), truth


def build_connect(d: gen.Draw, index: int) -> Case:
    bundle, truth = gauged_case(d, 2, 1, 1, 1)
    kind = ANCHOR_KINDS[index % len(ANCHOR_KINDS)]
    anchor = gen.anchor_case(d, kind)
    truth.update(kind=kind, phi=anchor["phi"], V_inv_T=anchor["V_inv_T"],
                 algebroid=anchor["algebroid"])
    return Case({"bundle": gen.to_text(bundle), "anchor": gen.to_text(anchor["anchor"])}, truth)


def run_connect(case: Case) -> str:
    """``algconn connect``: parse, obstruction_cocycle, construct_connection,
    verify_connection, cert_to_json."""
    from algconn.jet_obstruction import (anchor_from_json, cert_to_json, construct_connection,
                                         obstruction_cocycle, verify_connection)
    from algconn.p1_engine import p1bundle_from_json

    bundle = p1bundle_from_json(json.loads(case.inputs["bundle"]))
    anchor = anchor_from_json(json.loads(case.inputs["anchor"]))
    cocycle = obstruction_cocycle(bundle, anchor)
    cert = construct_connection(bundle, anchor)
    payload = {"exists": cert is not None, "cocycle": cocycle.overlap_matrix.to_strings()}
    if cert is not None:
        if not verify_connection(bundle, anchor, cert):
            raise AssertionError("unverified certificate about to be emitted")
        payload["cert"] = cert_to_json(cert)
    return emit(payload)


# -- split_gauged -------------------------------------------------------------

SPLIT_RANKS = (4, 5, 6)


def build_split(d: gen.Draw, index: int) -> Case:
    bundle, truth = gauged_case(d, SPLIT_RANKS[index % len(SPLIT_RANKS)], 2, 2, 1)
    return Case({"bundle": gen.to_text(bundle)}, truth)


def run_split(case: Case) -> str:
    """``algconn split`` then ``algconn cohomology`` on one bundle, plus its
    global sections: birkhoff_split, SplittingData.verify, cohomology_dims,
    global_sections, serre_dual_check."""
    from algconn.p1_engine import (birkhoff_split, cohomology_dims, global_sections,
                                   p1bundle_from_json, riemann_roch_check, serre_dual_check,
                                   splitting_to_json)

    bundle = p1bundle_from_json(json.loads(case.inputs["bundle"]))
    data = birkhoff_split(bundle)
    if not data.verify(bundle):
        raise AssertionError("splitting failed re-verification")
    split = splitting_to_json(data)
    split["degree"] = bundle.degree
    split["verified"] = True
    h0, h1 = cohomology_dims(bundle)
    cohomology = {
        "rank": bundle.rank,
        "degree": bundle.degree,
        "splitting_type": list(birkhoff_split(bundle).type),
        "h0": h0,
        "h1": h1,
        "riemann_roch": riemann_roch_check(bundle),
        "serre_duality": serre_dual_check(bundle),
    }
    sections = [s.chart0_rep.to_strings() for s in global_sections(bundle)]
    return emit({"split": split, "cohomology": cohomology, "sections": sections})


# -- fuzz_diagonal ------------------------------------------------------------

FUZZ_COUNT = 25


def build_fuzz(d: gen.Draw, index: int) -> Case:
    return Case({"fuzz": gen.to_text({"count": FUZZ_COUNT, "seed": d.value.randrange(2**31)})})


def run_fuzz_case(case: Case) -> str:
    """``algconn fuzz --count N --seed S``: one run_fuzz call."""
    from algconn.sampling import run_fuzz

    args = json.loads(case.inputs["fuzz"])
    return emit(run_fuzz(args["count"], args["seed"]).report)


# -- cli_cold -----------------------------------------------------------------

CLI_COMMANDS = ("decide", "split", "cohomology", "connect", "jets")


def build_cli(d: gen.Draw, index: int) -> Case:
    command = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    if command == "decide":
        exps = [d.shape.randint(-2, 2) for _ in range(d.shape.randint(1, 3))]
        anchor = gen.anchor_case(d, d.shape.choice(("tangent", "line")))
        inputs = {"algebroid": gen.to_text(anchor["algebroid"]),
                  "bundle": gen.to_text({"genus": 0, "atoms": gen.line_atoms(exps)})}
        return Case(inputs, command=command)
    bundle, _ = gauged_case(d, 2, 1, 1, 1)
    inputs = {"bundle": gen.to_text(bundle)}
    if command in ("connect", "jets"):
        kind = d.shape.choice(("tangent", "line"))
        inputs["anchor"] = gen.to_text(gen.anchor_case(d, kind)["anchor"])
    return Case(inputs, command=command)


def cli_argv(case: Case) -> list:
    argv = [case.command]
    for name in sorted(case.inputs):
        argv += [f"--{name}", case.paths[name]]
    return argv


def cli_in_process(argv: list) -> tuple[int, str]:
    """Exit code and stdout of ``algconn.cli.main`` run in this process."""
    from algconn.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def child_env() -> dict:
    """Environment for every process the benchmark starts: the checkout's
    sources first on the path, and a fixed hash seed."""
    paths = [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                PYTHONHASHSEED="0")


def spawn_cli(argv: list, timeout: float, traced: bool) -> subprocess.CompletedProcess:
    """One fresh interpreter running one algconn command (see cli_child.py)."""
    flag = ["--trace"] if traced else []
    return subprocess.run([sys.executable, str(HERE / "cli_child.py"), *flag, *argv],
                          env=child_env(), capture_output=True, text=True, timeout=timeout + 5)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: object  # (Draw, index) -> Case
    run: object  # Case -> stdout text (in-process workloads)
    check: object  # (Case, stdout text, ...) -> list of problems, see checks.py
    cases_per_s: float  # measured cases per run second, fixed per workload
    warmup: int  # warm-up cases, from their own stream
    limit_s: float  # per-case time limit


WORKLOADS = {
    "connect_gauged": Workload(build_connect, run_connect, checks.check_connect, 14, 4, 20),
    "split_gauged": Workload(build_split, run_split, checks.check_split, 12, 2, 30),
    "fuzz_diagonal": Workload(build_fuzz, run_fuzz_case, checks.check_fuzz, 14, 40, 20),
    "cli_cold": Workload(build_cli, None, checks.check_cli, 6, 2, 30),
}


def build_cases(workload: str, seed: int, warm: int, count: int) -> tuple[list, list]:
    """``warm`` warm-up and ``count`` measured cases, from separate streams,
    with no input text repeated within or across them."""
    build = WORKLOADS[workload].build
    seen: set = set()

    def stream(name: str, n: int) -> list:
        cases, index = [], 0
        while len(cases) < n:
            case = build(gen.Draw(workload, seed, name, index), index)
            index += 1
            key = gen.to_text(case.inputs)
            if key not in seen:
                seen.add(key)
                cases.append(case)
        return cases

    return stream("warm", warm), stream("measure", count)
