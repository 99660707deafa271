#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

Builds perfbench_run from the repository's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in a fresh process, checks its outputs and prints its metrics. The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (which also writes the run's spans under the build directory).

    python3 perfbench/run.py --workload paper_push --seed 1 --seconds 30 --trace 0
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper_push", "pic_uniform", "pic_window")

# Metric name -> unit. tests/test_perfbench.py holds BENCHMARK.json to these.
END_TO_END = {
    "nsps": "ns",
    "nsps_norm": "ns",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Host probe time [ms] at which nsps_norm equals nsps: the median probe
# (4 pinned threads, 2^21 dependent multiply-adds each) on the 4-vCPU host
# the bounds in BENCHMARK.json were measured on.
PROBE_REFERENCE_MS = 5.5
PER_LAYER = {
    "exec.block_ms": "ms",
    "exec.launches_per_step": "count",
    "exec.submit_us_per_step": "us",
    "exec.parallel_efficiency": "ratio",
    "exec.graph_captures": "count",
    "exec.graph_reuse_frac": "ratio",
    "exec.shard_imbalance": "ratio",
    "pic.step_ms": "ms",
    "pic.step_ms_p90": "ms",
    "pic.push_ms": "ms",
    "pic.deposit_ms": "ms",
    "pic.field_ms": "ms",
    "pic.epilogue_ms": "ms",
    "pic.graph_ms": "ms",
    "pic.window_shifts": "count",
    "pic.window_retired": "count",
    "pic.window_injected": "count",
    "pic.rebalance_fires": "count",
    "fields.shift_elems_per_plane": "count",
    "perfmodel.push_roofline_frac": "ratio",
    "perfmodel.deposit_roofline_frac": "ratio",
    "perfmodel.field_roofline_frac": "ratio",
    "host.probe_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# A tail is reported at this quantile only with this many samples beyond it.
TAIL_QUANTILE = 0.9
TAIL_MIN_BEYOND = 10

# The workload process must end inside the 180 s allowed for one run.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A run that cannot produce a result: no sources, build failure, crash."""


def tail_percentile(values, q=TAIL_QUANTILE, min_beyond=TAIL_MIN_BEYOND):
    """Nearest-rank q-quantile of values, or None when fewer than min_beyond
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def _step(cmd):
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        raise BenchError(f"build step failed: {' '.join(cmd)} ({err})") from err


def build(bdir):
    """Configures (once) and builds perfbench_run; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pic", "PicSimulation.h")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        _step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    _step(["cmake", "--build", bdir, "-j", jobs])
    return os.path.join(bdir, "perfbench_run")


def run_workload(exe, args, bdir):
    """Runs one workload process, echoes its report lines and returns its
    raw record (the process's last stdout line)."""
    traces = os.path.join(bdir, "traces")
    scratch = os.path.join(bdir, "scratch")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(traces, f"{args.workload}-{args.seed}.json"),
           "--scratch", scratch]
    if args.wrong_hash:
        cmd.append("--wrong-hash")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(
            f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{args.workload} failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def end_to_end_metrics(raw):
    blocks = raw["block_nsps"]
    # probe_ms[0] precedes set-up; probe_ms[i + 1] precedes block i.
    norm = statistics.median(
        nsps * PROBE_REFERENCE_MS / probe
        for nsps, probe in zip(blocks, raw["probe_ms"][1:]))
    return {
        "nsps": statistics.median(blocks),
        "nsps_norm": norm,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw):
    unknown = set(raw["layers"]) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"unlisted layer metrics: {sorted(unknown)}")
    # 0 marks a layer metric that does not apply to the workload: a graph
    # or window count on a run without them, a PIC stage on paper_push.
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(raw["layers"])
    values["exec.block_ms"] = statistics.median(raw["traced_block_ms"])
    steps = raw["step_ms"]
    if steps:
        p90 = tail_percentile(steps)
        if p90 is None:
            raise BenchError(f"{len(steps)} traced steps leave fewer than "
                             f"{TAIL_MIN_BEYOND} beyond the p90")
        values["pic.step_ms"] = statistics.median(steps)
        values["pic.step_ms_p90"] = p90
    values["host.probe_ms"] = statistics.median(raw["probe_ms"])
    values["trace.overhead_frac"] = (
        statistics.median(raw["traced_block_nsps"])
        / statistics.median(raw["block_nsps"]) - 1.0)
    return values


def result(raw, trace):
    units = PER_LAYER if trace else END_TO_END
    values = per_layer_metrics(raw) if trace else end_to_end_metrics(raw)
    attempted = len(raw["checks"])
    failed = sum(1 for check in raw["checks"] if not check["ok"])
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def report(raw, res):
    blocks = len(raw["block_nsps"]) + len(raw["traced_block_nsps"])
    print(f"perfbench {raw['workload']} ({raw['run_id']}): "
          f"{raw['particles']} particles, {raw['threads']} threads, "
          f"{blocks} timed blocks of {raw['block_steps']} steps, "
          f"{len(raw['setup_s'])} set-ups")
    for name, metric in res["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    # The block tail is printed, not gated: the blocks of a workload do
    # equal work, so their p90 follows the host's slow spells (README.md).
    p90 = tail_percentile(raw["block_nsps"])
    tail = "n/a" if p90 is None else f"{p90:.6g}"
    print(f"  {'nsps_p90 (not gated)':<32} {tail:>14} ns")
    probes = raw["probe_ms"]
    print(f"  {'host probe (median)':<32} {statistics.median(probes):>14.6g} "
          f"ms over {len(probes)} probes")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':<32} {rate:>14.6g} ({res['failed']} of "
          f"{res['attempted']} checks failed)")
    for check in raw["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']}: {status} ({check['detail']})")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Build, run and check one perfbench workload; print its "
                    "metrics as the last stdout line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (>= 0); inputs depend only on it")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds of timed blocks (at least 100 blocks)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics and a span file")
    parser.add_argument("--wrong-hash", action="store_true",
                        help="corrupt the expected hashes (tests the checks)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        bdir = build_dir()
        raw = run_workload(build(bdir), args, bdir)
        res = result(raw, args.trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    report(raw, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
