#!/usr/bin/env python3
"""Tests of the benchmark itself: short runs of every workload.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    """Runs one short benchmark; returns (exit code, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class MetricsPresent(unittest.TestCase):
    def check(self, workload, trace):
        rc, result = run(workload, trace)
        self.assertEqual(rc, 0, result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["fast-path", "tpcc-remote", "sim-fig1"])

    def test_fast_path(self):
        self.check("fast-path", 0)
        self.check("fast-path", 1)

    def test_tpcc_remote(self):
        self.check("tpcc-remote", 0)
        self.check("tpcc-remote", 1)

    def test_sim_fig1(self):
        self.check("sim-fig1", 0)
        self.check("sim-fig1", 1)


class UncommittedCommandsFail(unittest.TestCase):
    def test_injected_uncommitted_commands_fail_the_check(self):
        rc, result = run("fast-path", 0, "--inject-uncommitted", "5")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 5)
        self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
