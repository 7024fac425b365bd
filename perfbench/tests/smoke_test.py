#!/usr/bin/env python3
"""Smoke self-test of the perfbench benchmark.

    python3 perfbench/tests/smoke_test.py        (from the repository root)

Runs every workload for a fraction of a second at tiny scale, untraced and
traced, and checks the result line against BENCHMARK.json: exactly the
declared metrics, each finite and carrying its declared unit. Then it
corrupts one answer on purpose in each workload and confirms the run fails,
and confirms that a copy holding only BENCHMARK.json and perfbench/ exits
nonzero without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["solve", "serve", "churn", "paper-sim"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*extra, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_schema(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], want[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_workloads_untraced_and_traced(self):
        for workload in WORKLOADS:
            for trace, declared in (("0", SPEC["end_to_end"]),
                                    ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run("--workload", workload, "--seed", "7",
                               "--seconds", "0.3", "--trace", trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_line(proc)
                    self.check_schema(result, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_corrupted_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "7",
                           "--seconds", "0.3", "--trace", "0", "--tiny",
                           "--corrupt")
                self.assertNotEqual(proc.returncode, 0)
                result = result_line(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_benchmark_alone_exits_nonzero_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run("--workload", "solve", "--seed", "1", "--seconds", "1",
                       "--trace", "0", root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
