#!/usr/bin/env python3
"""The benchmark's own tests: python3 rlcbench/test_bench.py (from the repo root).

- The metric names each run prints equal those BENCHMARK.json declares,
  untraced (end-to-end) and traced (per-layer), with the declared units.
- A reduced-size (--smoke) run of every workload, untraced and traced,
  finishes and passes its output checks.
- The output digest repeats across two runs of one seed.
- In a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3, cwd=ROOT):
    args = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SmokeRuns(unittest.TestCase):
    def check(self, trace, declared):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0, SPEC["end_to_end"])

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, SPEC["per_layer"])

    def test_digest_repeats_for_one_seed(self):
        digests = []
        for _ in range(2):
            proc = run("fleet_balanced", 0, seed=11)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            digests.append(re.search(r"digest (0x[0-9a-f]+)", proc.stdout).group(1))
        self.assertEqual(digests[0], digests[1])


class BareCheckout(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        try:
            proc = run("bulk_fastest", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
