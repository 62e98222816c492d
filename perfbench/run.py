#!/usr/bin/env python3
"""End-to-end benchmark of the esca sparse-convolution pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload lidar_cpu --seed 7 --seconds 20 --trace 0

The first run builds the library and the benchmark from source into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of BENCHMARK.json
with --trace 0, every per-layer metric with --trace 1. Any failed
correctness check, build error or bad argument exits nonzero without a
result line. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lidar_cpu", "indoor_esca", "sensor_serve")
# A run measures for --seconds plus set-up and checks; never let one hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then (re)build the perfbench target; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except FileNotFoundError:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Paths are relative to the repository root, where the benchmark runs.
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode or 1)

    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None:
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != declared:
            fail("printed metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(declared) - set(printed))}, "
                 f"extra {sorted(set(printed) - set(declared))}, "
                 f"units {sorted(n for n in printed if n in declared and printed[n] != declared[n])}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
