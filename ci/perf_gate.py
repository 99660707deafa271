#!/usr/bin/env python3
"""CI perf gate: perfbench's nsps_norm against the committed baseline.

Runs every perfbench workload once (--trace 0) and fails if a run is not
correct, or if its nsps_norm lies above the baseline median x (1 + the
nsps_norm bound in BENCHMARK.json). A flagged workload is re-run once
before the gate fails, so one slow spell on a shared host passes and a
real regression fails both runs. Each verdict prints the run's host
probe next to the baseline's, so a failure on a slow host can be told
from a regression.

ci/perf_baseline.json is keyed by host class (CPU model, CPU count): a
baseline from other hardware says nothing about this one, so a host class
with no entry is reported and passes. --record measures this host class's
entry (5 runs per workload: nsps_norm quartiles and the median host
probe) and rewrites it; nothing else writes the file.

    python3 ci/perf_gate.py            # gate
    python3 ci/perf_gate.py --record   # re-record this host class
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "ci", "perf_baseline.json")
WORKLOADS = ("paper_push", "pic_uniform", "pic_window")
SEED, SECONDS, RECORD_RUNS = 3, 10, 5
# perfbench's stdout line with the median host probe of the run.
PROBE_LINE = re.compile(r"host probe \(median\)\s+([0-9][0-9.eE+-]*) ms")


class GateError(Exception):
    """A run the gate cannot judge: crash, bad output, failed checks."""


def host_class():
    model = "unknown-cpu"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model} x{os.cpu_count()}"


def nsps_norm_bound():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as doc:
        metrics = json.load(doc)["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == "nsps_norm")


def run_perfbench(workload, seed, seconds):
    """Runs one perfbench workload and returns its stdout."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise GateError(f"{workload}: perfbench exited {proc.returncode}")
    return proc.stdout


def parse_run(workload, stdout):
    """The nsps_norm of one run's last stdout line and the host probe
    median perfbench printed above it; GateError unless both parse and
    the run's checks all passed."""
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise GateError(f"{workload}: last output line is not a JSON result")
    if not isinstance(res, dict) or res.get("correct") is not True:
        raise GateError(f"{workload}: run is not correct (failed checks)")
    try:
        value = float(res["metrics"]["nsps_norm"]["value"])
    except (KeyError, TypeError, ValueError):
        raise GateError(f"{workload}: result has no nsps_norm metric")
    probe = PROBE_LINE.search(stdout)
    if probe is None:
        raise GateError(f"{workload}: output has no host probe line")
    return value, float(probe.group(1))


def record(baseline, run):
    per_workload = {}
    for workload in WORKLOADS:
        runs = [parse_run(workload, run(workload, SEED, SECONDS))
                for _ in range(RECORD_RUNS)]
        q1, med, q3 = statistics.quantiles([v for v, _ in runs], n=4)
        probe = statistics.median(p for _, p in runs)
        per_workload[workload] = {"median": med, "q1": q1, "q3": q3,
                                  "probe_ms": probe}
        print(f"perf_gate: {workload} nsps_norm median {med:.4g} "
              f"(q1 {q1:.4g}, q3 {q3:.4g}) over {RECORD_RUNS} runs, "
              f"host probe {probe:.3g} ms")
    baseline.setdefault("hosts", {})[host_class()] = {
        "seed": SEED, "seconds": SECONDS, "runs": RECORD_RUNS,
        "nsps_norm": per_workload}


def gate(baseline, run):
    """Returns True unless a workload regressed past the bound twice.
    Every verdict prints the run's host probe beside the baseline's: a
    slow host reads a high probe, a regression on a normal one does not."""
    entry = baseline.get("hosts", {}).get(host_class())
    if entry is None:
        print(f"perf_gate: no baseline for host class '{host_class()}'; "
              "checking correctness only, nsps_norm is not gated")
    bound = nsps_norm_bound()
    ok = True
    for workload in WORKLOADS:
        value, probe = parse_run(workload, run(workload, SEED, SECONDS))
        if entry is None:
            print(f"perf_gate: {workload} nsps_norm {value:.4g}, host probe "
                  f"{probe:.3g} ms (not gated)")
            continue
        base = entry["nsps_norm"][workload]
        limit = base["median"] * (1 + bound)
        if value > limit:
            print(f"perf_gate: {workload} nsps_norm {value:.4g} > "
                  f"{limit:.4g}, host probe {probe:.3g} ms; "
                  "re-running once to confirm")
            value, probe = parse_run(workload, run(workload, SEED, SECONDS))
        verdict = "ok" if value <= limit else "REGRESSED"
        ok = ok and value <= limit
        print(f"perf_gate: {workload} nsps_norm {value:.4g} "
              f"(limit {limit:.4g}): {verdict}; host probe {probe:.3g} ms "
              f"(baseline {base['probe_ms']:.3g} ms)")
    return ok


def main(argv=None, run=run_perfbench, path=BASELINE):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="re-measure and rewrite this host class's entry")
    args = parser.parse_args(argv)
    try:
        with open(path) as doc:
            baseline = json.load(doc)
        if args.record:
            record(baseline, run)
            with open(path, "w") as doc:
                json.dump(baseline, doc, indent=2, sort_keys=True)
                doc.write("\n")
            return 0
        return 0 if gate(baseline, run) else 1
    except (OSError, ValueError, GateError) as err:
        print(f"perf_gate: {err}", file=sys.stderr)
    except KeyError as err:
        print(f"perf_gate: {path} has no entry {err}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
