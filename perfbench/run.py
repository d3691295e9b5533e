#!/usr/bin/env python3
"""The repository benchmark: NextGen-Malloc against a like-for-like Mimalloc
anchor on three simulated workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator and the harness from source (through the repository's
own CMakeLists, into .bench_build/), then runs the workload twice in separate
processes. The untraced run repeats NextGen and anchor passes for --seconds
of host time and gives the end-to-end metrics of BENCHMARK.json. The traced
run replays NextGen with metrics, the flight recorder, event tracing and a
per-call block audit on; with --trace 1 it also times further passes that
each carry one probe, and gives the per-layer metrics. The last stdout line
is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

The command exits nonzero, naming the workload on stderr, when any
correctness gate fails: the allocator books do not balance after Flush, the
call audit finds a bad block, a traced pass's state hash differs from the
untraced one's, NextGen and the anchor were offered different work, or a book
the workload exercises reads zero. perfbench/catalog.json records why each
workload and metric exists.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_sim"
BUILD_TIMEOUT_S = 840
# A harness process may run this long beyond its --seconds: the untraced
# run's last pass may overrun them, and the traced run's passes are fixed.
RUN_MARGIN_S = 150


class GateError(Exception):
    """A correctness-gate violation or a failed step; the message names it."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and incrementally builds the harness binary."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_sim", "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise GateError(f"build step failed: {e}") from e
            if done.returncode != 0:
                raise GateError(f"build step failed: {' '.join(cmd)}")
    return BINARY


def run_sim(binary, workload, seed, mode, seconds=0.0, reduced=False):
    """Runs one harness process and returns its parsed JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(float(seconds))]
    if reduced:
        cmd.append("--reduced")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_MARGIN_S + seconds, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise GateError(f"{workload}: {mode} run failed: {e}") from e
    if done.returncode != 0:
        raise GateError(f"{workload}: {mode} run exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise GateError(f"{workload}: {mode} run printed no report")
    return json.loads(lines[-1])


def measure(binary, workload, seed, seconds, trace, reduced=False):
    """Untraced then traced run of one workload; checks the cross-run gates.

    The traced run times its host figures only when `trace` is set.
    Returns (untraced report, per-layer metric values)."""
    untraced = run_sim(binary, workload, seed, "untraced", seconds, reduced)
    traced = run_sim(binary, workload, seed, "traced" if trace else "audit", 0, reduced)
    if untraced["ngx_hash"] != traced["ngx_hash"]:
        raise GateError(f"{workload}: traced run diverged from the untraced run "
                        f"({traced['ngx_hash']:x} != {untraced['ngx_hash']:x})")
    # Simulated per-layer values come from the traced run; host-time and
    # anchor values, which it does not produce, from the untraced one.
    layers = dict(untraced["metrics"])
    layers.update(traced["metrics"])
    if trace:
        layers["telemetry.overhead_pct"] = 100.0 * (
            traced["metrics"]["telemetry.traced_host_s"] /
            untraced["metrics"]["workload.nextgen_host_s"] - 1.0)
    return untraced, layers


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        bench = load_benchmark()
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise GateError(f"unknown workload {args.workload}")
        if args.seed < 0 or args.seconds <= 0:
            raise GateError("--seed must be >= 0 and --seconds > 0")
        binary = build()
        untraced, layers = measure(binary, args.workload, args.seed, args.seconds, args.trace)
        wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        source = layers if args.trace else untraced["metrics"]
        metrics = {}
        for m in wanted:
            if m["name"] not in source:
                raise GateError(f"{args.workload}: harness did not report {m['name']}")
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    except (GateError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1

    print(json.dumps({"correct": True, "attempted": untraced["attempted"],
                      "failed": untraced["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
