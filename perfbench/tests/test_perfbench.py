#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

The first two groups check run.py's statistics and its metric table
against BENCHMARK.json. The last group builds perfbench_run and runs two
short workloads (about a minute in all).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def run_bench(*args):
    """Runs perfbench/run.py from the repository root; returns its result."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def raw_record(blocks):
    return {"block_nsps": [float(v) for v in range(blocks)],
            "probe_ms": [run.PROBE_REFERENCE_MS] * (blocks + 1),
            "setup_s": [1.0, 1.1, 1.2], "peak_rss_mb": 10.0}


class TailTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        for n in range(1, 400):
            values = [float(v) for v in range(n)]
            tail = run.tail_percentile(values)
            if n < 100:
                self.assertIsNone(tail, n)
                continue
            self.assertIsNotNone(tail, n)
            self.assertGreaterEqual(sum(1 for v in values if v > tail), 10, n)

    def test_p90_of_one_hundred_blocks(self):
        self.assertEqual(run.tail_percentile([float(v) for v in range(100)]),
                         89.0)

    def test_normalised_nsps_at_reference_probe(self):
        metrics = run.end_to_end_metrics(raw_record(100))
        # At the reference probe time the normalised NSPS is the NSPS.
        self.assertEqual(metrics["nsps_norm"], metrics["nsps"])


class NamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            self.spec = json.load(spec)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_metric_names_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)


class RunTest(unittest.TestCase):
    def test_wrong_expected_hash_drives_error_rate_to_one(self):
        res = run_bench("--workload", "paper_push", "--seed", "5",
                        "--seconds", "1", "--trace", "0", "--wrong-hash")
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"] / res["attempted"], 1.0)
        self.assertEqual(list(res["metrics"]), list(run.END_TO_END))
        for name, unit in run.END_TO_END.items():
            self.assertEqual(res["metrics"][name]["unit"], unit)
            self.assertGreater(res["metrics"][name]["value"], 0)

    def test_pic_uniform_stage_counters(self):
        res = run_bench("--workload", "pic_uniform", "--seed", "2",
                        "--seconds", "1", "--trace", "1")
        self.assertTrue(res["correct"])
        self.assertEqual(list(res["metrics"]), list(run.PER_LAYER))
        value = {name: m["value"] for name, m in res["metrics"].items()}
        stages = [value["pic.push_ms"], value["pic.deposit_ms"],
                  value["pic.field_ms"]]
        for stage in stages:
            self.assertGreater(stage, 0)
        self.assertLessEqual(sum(stages), value["pic.step_ms"])


if __name__ == "__main__":
    unittest.main()
