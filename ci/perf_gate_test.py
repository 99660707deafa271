#!/usr/bin/env python3
"""Unit tests for ci/perf_gate.py, fed fake perfbench output lines.

    python3 ci/perf_gate_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

HOST = "Test CPU x4"
MEDIAN = {"paper_push": 30.0, "pic_uniform": 100.0, "pic_window": 200.0}
PROBE_MS = 5.5


def result_line(nsps_norm, correct=True):
    return json.dumps({"correct": correct, "attempted": 1,
                       "failed": 0 if correct else 1,
                       "metrics": {"nsps_norm": {"value": nsps_norm,
                                                 "unit": "ns"}}})


def report(nsps_norm, probe_ms=PROBE_MS):
    """perfbench's stdout: report lines, then the result line."""
    return ("perfbench report line\n"
            f"  {'host probe (median)':<32} {probe_ms:>14.6g} ms over 9 probes\n"
            + result_line(nsps_norm) + "\n")


def fake_run(factors, probes=None, **overrides):
    """A perfbench stand-in: each call for a workload returns the next of
    its factors x the baseline median (the last factor repeats), with the
    host probe of the same call from probes[workload] (default PROBE_MS),
    or the raw stdout in overrides[workload]."""
    calls = {w: 0 for w in MEDIAN}

    def run(workload, seed, seconds):
        assert (seed, seconds) == (3, 10), (seed, seconds)
        if workload in overrides:
            return overrides[workload]
        seq = factors.get(workload, [1.0])
        probe_seq = (probes or {}).get(workload, [PROBE_MS])
        call = calls[workload]
        calls[workload] += 1
        return report(MEDIAN[workload] * seq[min(call, len(seq) - 1)],
                      probe_seq[min(call, len(probe_seq) - 1)])

    run.calls = calls
    return run


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "perf_baseline.json")
        entry = {"seed": 3, "seconds": 10, "runs": 5,
                 "nsps_norm": {w: {"median": m, "q1": m, "q3": m,
                                   "probe_ms": PROBE_MS}
                               for w, m in MEDIAN.items()}}
        with open(self.path, "w") as doc:
            json.dump({"hosts": {HOST: entry}}, doc)
        with open(self.path) as doc:
            self.original = doc.read()
        self.host = perf_gate.host_class
        perf_gate.host_class = lambda: HOST

    def tearDown(self):
        perf_gate.host_class = self.host
        self.dir.cleanup()

    def gate(self, run, argv=()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = perf_gate.main(list(argv), run=run, path=self.path)
        return code, out.getvalue(), err.getvalue()

    def assertBaselineUnchanged(self):
        with open(self.path) as doc:
            self.assertEqual(doc.read(), self.original)

    def test_thirty_percent_over_fails_after_one_rerun(self):
        # The verdict shows the confirming run's host probe beside the
        # baseline's, so a slow host reads differently from a regression.
        run = fake_run({"pic_uniform": [1.3]}, {"pic_uniform": [9.0, 8.25]})
        code, out, _ = self.gate(run)
        self.assertEqual(code, 1)
        self.assertIn("pic_uniform nsps_norm 130 (limit 120): REGRESSED; "
                      "host probe 8.25 ms (baseline 5.5 ms)", out)
        self.assertEqual(run.calls["pic_uniform"], 2)
        self.assertEqual(run.calls["paper_push"], 1)
        self.assertBaselineUnchanged()

    def test_missing_probe_line_fails_with_one_line_error(self):
        code, _, err = self.gate(fake_run(
            {}, paper_push=result_line(30.0) + "\n"))
        self.assertEqual(code, 1)
        self.assertEqual(err.strip(),
                         "perf_gate: paper_push: output has no host probe line")

    def test_ten_percent_over_passes(self):
        code, out, _ = self.gate(fake_run({w: [1.1] for w in MEDIAN}))
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSED", out)
        self.assertBaselineUnchanged()

    def test_flagged_run_that_passes_on_rerun_passes(self):
        run = fake_run({"pic_window": [1.3, 1.05]})
        code, out, _ = self.gate(run)
        self.assertEqual(code, 0, out)
        self.assertIn("re-running once", out)
        self.assertEqual(run.calls["pic_window"], 2)

    def test_incorrect_run_fails(self):
        code, _, err = self.gate(fake_run(
            {}, paper_push=result_line(30.0, correct=False) + "\n"))
        self.assertEqual(code, 1)
        self.assertIn("paper_push: run is not correct", err)
        self.assertBaselineUnchanged()

    def test_missing_metric_fails_with_one_line_error(self):
        line = json.dumps({"correct": True, "metrics": {"nsps": {}}})
        code, _, err = self.gate(fake_run({}, pic_uniform=line))
        self.assertEqual(code, 1)
        self.assertEqual(err.strip().count("\n"), 0, err)
        self.assertIn("pic_uniform: result has no nsps_norm metric", err)

    def test_unparsable_line_fails_with_one_line_error(self):
        for stdout in ("", "perfbench: build step failed\n", "{not json"):
            code, _, err = self.gate(fake_run({}, pic_window=stdout))
            self.assertEqual(code, 1, stdout)
            self.assertEqual(err.strip().count("\n"), 0, err)
            self.assertIn("pic_window: last output line is not", err)

    def test_unknown_host_class_reports_and_passes(self):
        perf_gate.host_class = lambda: "Other CPU x64"
        code, out, _ = self.gate(fake_run({w: [5.0] for w in MEDIAN}))
        self.assertEqual(code, 0, out)
        self.assertIn("no baseline for host class 'Other CPU x64'", out)
        self.assertBaselineUnchanged()

    def test_unknown_host_class_still_fails_an_incorrect_run(self):
        perf_gate.host_class = lambda: "Other CPU x64"
        code, _, _ = self.gate(fake_run(
            {}, pic_uniform=result_line(1.0, correct=False)))
        self.assertEqual(code, 1)

    def test_record_rewrites_only_this_host_class(self):
        perf_gate.host_class = lambda: "Other CPU x64"
        run = fake_run({"paper_push": [1.0, 0.9, 1.1, 1.2, 0.8]},
                       {"paper_push": [6.0, 5.0, 7.0, 6.5, 5.5]})
        code, _, _ = self.gate(run, ["--record"])
        self.assertEqual(code, 0)
        with open(self.path) as doc:
            hosts = json.load(doc)["hosts"]
        self.assertEqual(set(hosts), {HOST, "Other CPU x64"})
        new = hosts["Other CPU x64"]
        self.assertEqual((new["seed"], new["seconds"], new["runs"]),
                         (3, 10, 5))
        self.assertAlmostEqual(new["nsps_norm"]["paper_push"]["median"], 30.0)
        self.assertLess(new["nsps_norm"]["paper_push"]["q1"], 30.0)
        self.assertGreater(new["nsps_norm"]["paper_push"]["q3"], 30.0)
        self.assertEqual(new["nsps_norm"]["paper_push"]["probe_ms"], 6.0)
        self.assertEqual(run.calls["pic_window"], 5)


if __name__ == "__main__":
    unittest.main()
