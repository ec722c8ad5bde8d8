#!/usr/bin/env python3
"""Build and run the rlceff benchmark (see rlcbench/README.md).

    python3 rlcbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root.  It configures and builds the benchmark
with CMake under $CARGO_TARGET_DIR (default .bench_build), runs it, and
relays its output: human-readable lines, then one JSON line with the result.
Build output goes to standard error.  Exits non-zero, printing no result,
when the build or the run fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "rlcbench",
                    "-j", "4"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "rlcbench")


def main(argv):
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    trace_dir = os.path.join(out_root, "traces")
    try:
        exe = build(os.path.join(out_root, "rlcbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"rlcbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(trace_dir, exist_ok=True)
    try:
        proc = subprocess.run([exe, *argv, "--trace-dir", trace_dir],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("rlcbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("rlcbench: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
