#!/usr/bin/env python3
"""Self-test of the repository benchmark, on tiny inputs.

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced with --size tiny and checks that the
result line names exactly the metrics BENCHMARK.json lists, each with its unit,
that the correctness checks ran and passed, that a seed fixes the request
stream byte for byte, and that a directory holding only the benchmark (no
program sources) fails without printing a result.
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve_hit is not in BENCHMARK.json (too unsteady on the reference host to
# gate, see README.md) but stays runnable, so it is smoke-tested too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_hit"]


def run_bench(*args, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def tiny(workload, trace, seed=7):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    return proc, json.loads(proc.stdout.strip().split("\n")[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, spec_key):
        proc, result = tiny(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        # The correctness checks ran: byte-compared responses or a checked sweep.
        self.assertRegex(proc.stdout, r"checked \d+ (responses byte-exact|sweeps?)")
        self.assertIn("failed_share = 0", proc.stdout)
        stamp = json.loads(re.search(r"^stamp (.*)$", proc.stdout, re.M).group(1))
        for key in ("nproc", "build_type", "compiler", "git_commit", "source_digest"):
            self.assertIn(key, stamp)
        self.assertEqual(stamp["build_type"], "Release")

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1, "per_layer")

    def test_seed_fixes_the_stream(self):
        def digest(seed):
            proc, _ = tiny("serve_cold", 0, seed)
            return re.search(r"stream digest (\w+)", proc.stdout).group(1)

        self.assertEqual(digest(11), digest(11))
        self.assertNotEqual(digest(11), digest(12))

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "serve_hit", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
