#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 rlcbench/stability.py --workloads bulk_fastest,fig7_replay \
        --seeds 1-10 [--seconds S] [--out FILE]

Runs rlcbench/run.py once per (workload, seed), untraced, and prints for
every end-to-end metric in BENCHMARK.json its median, its quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
--out also writes every run's result line as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output checks failed\n{proc.stdout}")
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)

    for workload, results in runs.items():
        print(f"== {workload}: {len(results)} runs of {seconds} s ==")
        print(f"  {'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:22s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {metric['bound']:6.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
