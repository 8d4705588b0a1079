"""Runs one workload's case list in this process and prints what it measured
as one JSON line.

    python3 bench/worker.py --workload W --seed N --seconds S [--trace] [--probe]

``--probe`` stops once algconn is imported and the inputs are built and
parsed, and prints ``ready`` with the pace kernel's time at its start and
end: ``run.py`` times that as set-up. ``--trace``
runs the measured cases under the layer trace. ``run.py`` starts this
process; it is not meant to be run by hand, but can be.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Stop starting cases after this long, so the run ends within its budget
# even when the program has become much slower.
LOOP_DEADLINE_S = 110


class CaseTimeout(BaseException):
    """A case ran past its time limit. Not an Exception, so the layer trace
    does not count it as an error of the layer it interrupted."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def build(workload: str, seed: int, seconds: int) -> tuple[list, list]:
    """Warm-up and measured cases. The streams are disjoint and no input
    text repeats; every input is JSON-decoded once, as part of set-up."""
    spec = workloads.WORKLOADS[workload]
    count = max(1, round(spec.cases_per_s * seconds))
    warm, cases = workloads.build_cases(workload, seed, spec.warmup, count)
    for case in warm + cases:
        for text in case.inputs.values():
            json.loads(text)
    return warm, cases


def attempt(run, case, limit_s: float) -> tuple[str, str | None]:
    """("ok", stdout) or (failure kind, detail)."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return "ok", run(case)
    except (CaseTimeout, subprocess.TimeoutExpired):
        return "timeout", f"over the {limit_s} s limit"
    except Exception as exc:  # a failing case is reported, not fatal
        return "error", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def cli_runner(spec, traced: bool, reports: list):
    """run() for cli_cold: one fresh algconn process on the case's input
    files, which were written before timing. The child's report (kernel
    times, import time, trace counts) goes to ``reports``."""

    def run(case):
        proc = workloads.spawn_cli(workloads.cli_argv(case), spec.limit_s, traced)
        if proc.returncode != 0:
            raise RuntimeError(f"algconn {case.command} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        reports.append(json.loads(proc.stderr.strip().splitlines()[-1]))
        return proc.stdout

    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    kernel_start = pace.kernel() if args.probe else 0.0

    import algconn.cli  # noqa: F401  (set-up includes importing every module)

    warm, cases = build(args.workload, args.seed, args.seconds)
    if args.probe:
        print(f"ready {kernel_start!r} {pace.kernel()!r}", flush=True)
        return 0

    spec = workloads.WORKLOADS[args.workload]
    cli = args.workload == "cli_cold"
    reports: list = []  # cli_cold: one per measured child process
    workdir = None
    run = spec.run
    if cli:
        workdir = tempfile.mkdtemp(prefix="work-", dir=Path(__file__).resolve().parent)
        for i, case in enumerate(warm + cases):
            for name, text in case.inputs.items():
                case.paths[name] = os.path.join(workdir, f"{i}-{name}.json")
                with open(case.paths[name], "w", encoding="utf-8") as fh:
                    fh.write(text)
        run = cli_runner(spec, args.trace, reports)

    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        warm_failures = [kind for kind, _ in (attempt(run, c, spec.limit_s) for c in warm)
                         if kind != "ok"]
        reports.clear()
        trace = tracer.Tracer().install() if args.trace and not cli else None
        gc.collect()

        results = []  # (kind, stdout or detail, wall_s, paced_s)
        pace_clock = None if cli else pace.Pace()
        start = time.perf_counter()
        for case in cases:
            if time.perf_counter() - start > LOOP_DEADLINE_S:
                results.append(("not run", "run deadline passed", 0.0, 0.0))
                continue
            t0 = time.perf_counter()
            kind, out = attempt(run, case, spec.limit_s)
            wall = time.perf_counter() - t0
            if cli:  # a failed child may have no report; its time is replaced anyway
                paced = pace.paced_child(wall, *reports[-1]["kernel"]) if kind == "ok" else wall
            else:
                paced = wall * pace_clock.factor()
            results.append((kind, out, wall, paced))

        usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        if trace is not None:
            trace.uninstall()
            snapshot = trace.snapshot()
        elif args.trace:
            snapshot = tracer.merge([r["trace"] for r in reports])
        else:
            snapshot = None

        problems = [f"warm-up case: {kind}" for kind in warm_failures]
        for i, (case, (kind, out, _, _)) in enumerate(zip(cases, results)):
            if kind != "ok":
                problems.append(f"case {i}: {kind}: {out}")
                continue
            if args.workload == "fuzz_diagonal":
                found = spec.check(case, out, spec.run(case))
            elif cli:
                code, expected = workloads.cli_in_process(workloads.cli_argv(case))
                found = spec.check(case, out, code, expected)
            else:
                found = spec.check(case, out)
            problems += [f"case {i}: {p}" for p in found]
    finally:
        if workdir is not None:
            shutil.rmtree(workdir)

    record = {
        "attempted": len(cases),
        "failed": sum(kind != "ok" for kind, *_ in results),
        "problems": problems,
        "wall_ms": [r[2] * 1000 for r in results],
        "paced_ms": [r[3] * 1000 for r in results],
        "kinds": [r[0] for r in results],
        "limit_ms": spec.limit_s * 1000,
        "peak_rss_mb": peak_rss_mb,
        "trace": snapshot,
        "import_ms": [r["import_ms"] for r in reports],
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
