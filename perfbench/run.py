#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mmp-dblp --seed 1 --seconds 20 --trace 0

The driver binary is built with CMake into .bench_build/ (or the directory
CARGO_TARGET_DIR names, relative to the repository root); generated corpora
and span traces go to its work/ subdirectory. The last line of standard
output is the run's JSON result. The exit code is the driver's: non-zero when
an output check failed, or when the build or the run itself failed (then no
result is printed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mmp-dblp", "grid-hepth", "stream-serve")
# The driver keeps its own run inside --seconds plus set-up; this only
# guards against a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(out_dir):
    """Configures (once) and builds the cem_bench target; returns its path."""
    cmake_dir = os.path.join(out_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "cem_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "cem_bench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys %s" % sorted(result))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    names = expected_metrics(trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        raise ValueError("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(result["metrics"]), sorted(names)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print(proc.stdout, end="", file=sys.stderr)
        print("perfbench: bad result line: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
