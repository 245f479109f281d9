#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 perfbench/test_run.py

They build the benchmark, run every workload briefly in both modes, and
check that what it prints matches BENCHMARK.json and passes its
correctness checks.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args):
    """Run run.py from the repository root; return (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_workload_prints_its_metrics_and_passes_its_checks(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    rc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace))
                    self.assertEqual(rc, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    expected = {m["name"]: m["unit"] for m in self.spec[listed]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertIn("metric failed_ratio 0 ratio", lines)
                    config = json.loads(next(l for l in lines if l.startswith("config "))[7:])
                    self.assertEqual((config["workload"], config["seed"]), (workload, 3))
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                    else:
                        self.assertTrue(any("reconcile:" in l for l in lines))

    def test_unknown_workload_is_refused(self):
        rc, lines = bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(rc, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))

    def test_compare_refuses_results_of_different_configurations(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            rc, _ = bench("--workload", "arw_read_mostly", "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--out", a)
            self.assertEqual(rc, 0)
            self.assertEqual(bench("--compare", a, a)[0], 0)
            with open(a) as f:
                record = json.load(f)
            record["config"]["trace_event_per_fence"] = False
            with open(b, "w") as f:
                json.dump(record, f)
            rc, lines = bench("--compare", a, b)
            self.assertEqual(rc, 2)
            self.assertIn("config trace_event_per_fence: True vs False", lines)


if __name__ == "__main__":
    unittest.main()
