"""The algconn benchmark: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` prints the end-to-end metrics
(set-up time, case latency, throughput, peak memory, share of cases that
passed); ``--trace 1`` prints the per-layer metrics of a traced run. The
last line of stdout is one JSON object; the lines before it show each
metric by name and unit. The exit code is 1 when any output check failed
and 2 when the checkout has no algconn sources.

Each run does a fixed list of cases built from the seed, one after another
in one worker process (one client, closed loop). Times are paced: see
``pace.py``. What each workload and metric is for is in ``METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 9  # set-up is the median of these fresh interpreters
RUN_BUDGET_S = 170  # the whole run, set-up and workers included


def worker_argv(args, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def setup_time(args, deadline: float) -> tuple[float, list]:
    """Seconds from spawning a fresh interpreter until it has imported
    algconn and built and parsed the run's inputs: the median of
    SETUP_SPAWNS spawns, after one unmeasured spawn that writes the bytecode
    caches. Each spawn paces itself (``pace.paced_child``). Pacing errs both
    ways, so the median, not the minimum, is the robust pick."""
    env = workloads.child_env()
    subprocess.run(worker_argv(args, "--probe"), env=env, check=True, capture_output=True,
                   timeout=deadline - time.monotonic())
    samples = []
    for _ in range(SETUP_SPAWNS):
        line: list = []
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_argv(args, "--probe"), env=env, stdout=subprocess.PIPE,
                                text=True)
        try:
            if select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
                line = proc.stdout.readline().split()
            wall = time.perf_counter() - t0
        finally:
            proc.kill()  # it has printed its line, or it has run out of time
            proc.communicate()
        if not line or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(pace.paced_child(wall, float(line[1]), float(line[2])))
    return statistics.median(samples), samples


def run_worker(args, deadline: float, *extra) -> dict:
    proc = subprocess.run(worker_argv(args, *extra), env=workloads.child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_ms(rec: dict) -> list:
    """Paced case latencies. A failed case counts as missing every latency
    bound, so it takes the time limit, which no passing case exceeds."""
    return [ms if kind == "ok" else max(ms, rec["limit_ms"])
            for ms, kind in zip(rec["paced_ms"], rec["kinds"])]


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, cases beyond): the highest percentile with at
    least ten cases above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(rec: dict, setup_s: float) -> dict:
    lat = latency_ms(rec)
    value, pct, beyond = tail(lat)
    print(f"# {len(lat)} cases; tail is p{pct:.1f} with {beyond} cases beyond it")
    print(f"# raw wall: p50 {statistics.median(rec['wall_ms']):.2f} ms, "
          f"busy {sum(rec['wall_ms']) / 1000:.2f} s; paced busy {sum(lat) / 1000:.2f} s")
    return {
        "setup_s": (setup_s, "s"),
        "case_p50_ms": (statistics.median(lat), "ms"),
        "case_tail_ms": (value, "ms"),
        "cases_per_s": (len(lat) / (sum(lat) / 1000), "1/s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MiB"),
        "ok_share": ((rec["attempted"] - rec["failed"]) / rec["attempted"], "ratio"),
    }


def per_layer(traced: dict, base: dict) -> dict:
    """Layer metrics of the traced run. Self times are paced with the run's
    mean factor, so they add up to the paced busy time."""
    busy_raw, busy_paced = sum(traced["wall_ms"]), sum(traced["paced_ms"])
    scale = busy_paced / busy_raw if busy_raw else 1.0
    metrics = {}
    for name, (value, unit) in tracer.layer_metrics(traced["trace"]).items():
        metrics[name] = (value * scale if unit == "ms" else value, unit)
    imports = traced["import_ms"]  # one per CLI child; none in-process
    metrics["cli.import_ms"] = (statistics.median(imports) * scale if imports else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (busy_paced / sum(base["paced_ms"]), "ratio")
    for memo in traced["trace"]["missing"]:
        print(f"# missing: {memo} (reported as 0)")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "algconn" / "__init__.py").is_file():
        sys.stderr.write(f"no algconn sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    # One core for this process and every child, so the pace kernel runs
    # where the measured work runs: the two cores of a shared host are not
    # slowed down together.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        base = run_worker(args, deadline)
        rec = run_worker(args, deadline, "--trace")
        metrics = per_layer(rec, base)
        rec["problems"] += base["problems"]
    else:
        setup_s, samples = setup_time(args, deadline)
        print("# set-up spawns (paced s): " + " ".join(f"{s:.4f}" for s in samples))
        rec = run_worker(args, deadline)
        metrics = end_to_end(rec, setup_s)

    for problem in rec["problems"]:
        print(f"# CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = not rec["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
