#!/usr/bin/env python3
"""Host-time benchmark of the simulator stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds perfbench/ (which compiles
the simulator from src/) into .bench_build/, runs the workload in its
own process, and prints as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
lists; with --trace 1 they are its per-layer metrics, from a traced run
whose spans are written to .bench_build/spans/. The line before it is
"sim_digest <hex>": the hash of every simulated number the workload
produced, which a host-only change must leave unchanged.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BINARY = os.path.join(BUILD, "hostbench")

# A run must end within 180 s; the workload process gets what is left
# after the build check.
RUN_DEADLINE_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the hostbench target up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries the result only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def select_metrics(spec_metrics, emitted, trace):
    """The BENCHMARK.json metrics, in its order, from what was emitted."""
    out = {}
    for m in spec_metrics:
        got = emitted.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} missing")
            # A layer this workload does not run: it spent nothing there.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read {SPEC}: {e}")
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_DEADLINE_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        log(f"hostbench exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)

    try:
        result = json.loads(lines[-1])
        spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = select_metrics(spec_metrics, result["metrics"], args.trace)
    except (ValueError, KeyError) as e:
        log(f"bad hostbench output: {e}")
        return 1

    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"sim_digest {result['sim_digest']}")
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
