#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny sizes.

Usage (from the root of a checkout):
    python3 monitor_bench/test_monitor_bench.py

Checks, for each workload in BENCHMARK.json and for explain_storm (runnable
but left out of BENCHMARK.json, see README.md):
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is printed with its declared unit and a finite value;
  * ok_ops_ratio is 1 and the run reports no failed operation;
  * two runs with one seed give identical deterministic outputs:
    checkpoint_bytes, detect_delay_ticks, event counts and the
    FormatEventLog text (compared through --dump);
and that the benchmark exits non-zero without a result when the library
sources are absent.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK_DIR = os.path.join(ROOT, ".bench_build", "monitor_bench_test")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["explain_storm"]


def run(workload, trace, seed=7, dump=None, cwd=ROOT):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    if dump is not None:
        argv += ["--dump", dump]
    out = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    return out


class MonitorBenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        os.makedirs(WORK_DIR, exist_ok=True)

    def result(self, out):
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def check_metrics(self, result, declared):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                dumps = []
                for attempt in range(2):
                    dump = os.path.join(WORK_DIR, "%s.%d.txt" %
                                        (workload, attempt))
                    result = self.result(run(workload, 0, dump=dump))
                    self.check_metrics(result, SPEC["end_to_end"])
                    self.assertEqual(
                        result["metrics"]["ok_ops_ratio"]["value"], 1)
                    for name in ["setup_s", "push_p50_ms", "checkpoint_ms",
                                 "restore_ms", "checkpoint_bytes",
                                 "detect_delay_ticks"]:
                        self.assertGreater(result["metrics"][name]["value"],
                                           0, name)
                    with open(dump) as f:
                        dumps.append(f.read())
                self.assertIn("event=0 ", dumps[0])
                self.assertEqual(dumps[0], dumps[1])
                traced = self.result(run(workload, 1))
                self.check_metrics(traced, SPEC["per_layer"])

    def test_without_sources_fails_without_result(self):
        bare = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            out = subprocess.run(
                [sys.executable] + SPEC["command"][1:] +
                ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
