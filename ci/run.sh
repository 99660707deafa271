#!/usr/bin/env bash
# CI entry point: Release build, full test suite, a smoke benchmark pass
# at tiny sizes whose JSON records land in results/ as artifacts, the
# cross-backend hash checks, and the perfbench gate against the committed
# baseline (ci/perf_gate.py, ci/perf_baseline.json).
#
# sample usage:
#
#   bash ./ci/run.sh
#
#   # sanitizer variants: only the threaded targets, in their own build
#   HICHI_SANITIZE=thread bash ./ci/run.sh
#   HICHI_SANITIZE=address,undefined bash ./ci/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

# A sanitizer variant builds into build-sanitize-<kinds>/ with the
# sanitizer flags in CMAKE_CXX_FLAGS and runs the targets that exercise
# the threaded parts — the exec backends, the thread pool, the serve
# scheduler and registry, and the PIC shard, graph and window
# equivalences — then stops: it is a separate CI job, not a prefix of
# the Release one. Compiler runtimes only, nothing to download.
if [ -n "${HICHI_SANITIZE:-}" ]; then
  case "$HICHI_SANITIZE" in
    thread | address,undefined) ;;
    *)
      echo "ci/run.sh: HICHI_SANITIZE must be 'thread' or" \
           "'address,undefined', not '$HICHI_SANITIZE'" >&2
      exit 1
      ;;
  esac
  SAN_DIR="build-sanitize-${HICHI_SANITIZE//,/-}"
  cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=$HICHI_SANITIZE -fno-omit-frame-pointer -fno-sanitize-recover=all"
  cmake --build "$SAN_DIR" -j"$JOBS" --target hichi_exec_tests \
    hichi_threading_tests hichi_serve_tests hichi_pic_tests
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --test-dir "$SAN_DIR" --output-on-failure -j"$JOBS" \
    -R '^(exec|threading|serve|pic_shard_equivalence|pic_graph_equivalence|pic_window_equivalence)$'
  echo "ci/run.sh: $HICHI_SANITIZE sanitizer targets green"
  exit 0
fi

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

mkdir -p results

# Tiny sizes so the smoke pass takes seconds; the point is functional
# coverage plus a machine-readable perf trace, not stable numbers.
export HICHI_BENCH_PARTICLES="${HICHI_BENCH_PARTICLES:-4000}"
export HICHI_BENCH_STEPS="${HICHI_BENCH_STEPS:-8}"
export HICHI_BENCH_ITERATIONS="${HICHI_BENCH_ITERATIONS:-2}"

./build/hichi_push --list-runners

# Calibrate the machine profile once (the fast sweep): the artifact is
# the `hichi-machine-v1` document the autotuner plans from, and the
# bench fails by itself if its own save -> load round trip is not
# bit-identical.
./build/bench_calibrate --fast --out results/machine_profile.json

HICHI_BENCH_JSON=results/BENCH_scheduling.json \
  ./build/bench_ablation_scheduling
# bench_serve fails by itself if any served job's final hash deviates
# from a standalone serial run of the same spec; records throughput
# (stage "serve") and per-job latency (stage "latency") per config.
HICHI_BENCH_JOBS="${HICHI_BENCH_JOBS:-8}" \
  HICHI_BENCH_JSON=results/BENCH_serve.json ./build/bench_serve
for RUNNER in serial openmp dpcpp dpcpp-numa sharded; do
  ./build/hichi_push --runner "$RUNNER" --particles 20000 --steps 10 \
    --iterations 2 --json "results/BENCH_push_${RUNNER}.json" \
    | grep -E "NSPS|state hash"
done
# The step-loop graph shape (capture step 0, replay the rest).
./build/hichi_push --runner dpcpp --graph --particles 20000 --steps 10 \
  --iterations 2 --json results/BENCH_push_dpcpp_graph.json \
  | grep -E "NSPS|state hash"

# All runners (the asynchronous sharded one included) must agree
# bitwise on the final particle state; --chain re-runs the dpcpp backend
# through the event-chained submission shape and --graph through the
# captured-once/replayed step graph.
HASHES="$({
  for RUNNER in serial openmp dpcpp dpcpp-numa sharded; do
    ./build/hichi_push --runner "$RUNNER" --particles 5000 --steps 5 \
      --iterations 1
  done
  ./build/hichi_push --runner dpcpp --chain --particles 5000 --steps 5 \
    --iterations 1
  for RUNNER in openmp sharded; do
    ./build/hichi_push --runner "$RUNNER" --graph --particles 5000 \
      --steps 5 --iterations 1
  done
} | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p' | sort -u | wc -l)"
if [ "$HASHES" != "1" ]; then
  echo "FAIL: runners disagree on the final particle state" >&2
  exit 1
fi
echo "runner equivalence: OK (all state hashes identical)"

# The full PIC loop must agree bitwise across push/deposit backends and
# tile counts (the tiled-deposition determinism guarantee), including
# the sharded push path (stage 1 split into one block per shard) at
# several shard counts.
PIC_HASHES="$(
  for B in serial openmp dpcpp dpcpp-numa sharded; do
    ./build/pic_langmuir --steps 40 --push-backend "$B" \
      --deposit-backend "$B" --deposit-tiles 5 \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  done
  # The sharded whole-loop shape (all three stages on persistent shards,
  # per-shard deposit chains) at two shard counts.
  for SHARDS in 3 7; do
    ./build/pic_langmuir --steps 40 --shards "$SHARDS" \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  done
  ./build/pic_langmuir --steps 40 --push-backend serial \
    --deposit-backend serial \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  ./build/pic_langmuir --steps 40 --deposit-backend openmp \
    --deposit-tiles 11 --deposit-threads 2 \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  ./build/pic_langmuir --steps 40 --push-backend sharded \
    --threads 4 --deposit-backend dpcpp \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  # Step-graph replay (capture step 0, replay 1..39) must land on the
  # same hash, including the sharded whole-loop shape.
  for B in serial openmp; do
    ./build/pic_langmuir --steps 40 --push-backend "$B" \
      --deposit-backend "$B" --deposit-tiles 5 --graph \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  done
  ./build/pic_langmuir --steps 40 --push-backend sharded --threads 2 \
    --deposit-backend sharded --deposit-threads 2 --deposit-tiles 5 --graph \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  ./build/pic_langmuir --steps 40 --shards 3 --graph \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  # An armed-but-never-fired rebalancer is a bitwise no-op: the uniform
  # Langmuir ensemble (skew ~1) never trips threshold 1.5, so these rows
  # must land on the same hash as every row above.
  ./build/pic_langmuir --steps 40 --rebalance 1.5 \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  ./build/pic_langmuir --steps 40 --shards 3 --rebalance 1.5 --graph \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  # The autotuner's chosen knobs are hash-invariant by construction
  # (backends/threads/tiles/graph only), so a tuned run must land on the
  # same hash as every row above.
  ./build/pic_langmuir --steps 40 --tune \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
)"
if [ "$(echo "$PIC_HASHES" | sort -u | wc -l)" != "1" ]; then
  echo "FAIL: PIC state hashes differ across backends/tiles/shards" >&2
  exit 1
fi
echo "PIC equivalence: OK (all state hashes identical, sharded push included)"

# The Maxwell field solve must agree bitwise across field backends and
# tile counts too — for both solvers (FDTD's x-slab halo tiles and the
# spectral solver's k-space launches), including the asynchronous field
# backend whose solve event-chains against the deposit reduction. Hashes
# differ *between* solvers (different physics schemes), so the
# uniqueness check runs per solver.
for SOLVER in fdtd spectral; do
  FIELD_HASHES="$(
    for B in serial openmp dpcpp dpcpp-numa sharded; do
      ./build/pic_langmuir --steps 40 --solver "$SOLVER" \
        --field-backend "$B" --field-tiles 5 \
        | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
    done
    ./build/pic_langmuir --steps 40 --solver "$SOLVER" \
      --field-backend serial \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
    ./build/pic_langmuir --steps 40 --solver "$SOLVER" \
      --field-backend openmp --field-tiles 11 --field-threads 2 \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
    ./build/pic_langmuir --steps 40 --solver "$SOLVER" \
      --field-backend sharded --field-threads 2 --field-tiles 7 \
      --deposit-backend sharded --deposit-threads 2 --deposit-tiles 3 \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
    # Graph replay of the per-solver field chain (B->E->B / k-space).
    ./build/pic_langmuir --steps 40 --solver "$SOLVER" \
      --field-backend openmp --field-tiles 5 --graph \
      | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  )"
  if [ "$(echo "$FIELD_HASHES" | sort -u | wc -l)" != "1" ]; then
    echo "FAIL: $SOLVER field-solve state hashes differ across" \
         "backends/tiles" >&2
    exit 1
  fi
done
echo "PIC field-solve equivalence: OK (all state hashes identical per solver)"

# The skew-driving scenarios (pic/Scenarios.h) must agree bitwise across
# backends too — with the rebalancer FIRING. The trigger is a pure
# function of particle positions, so every backend repartitions on the
# same steps and rebalanced runs stay bit-comparable; hashes differ
# *between* scenarios (and between rebalanced and plain runs of a
# scenario with real fields), so uniqueness is checked per command row.
for SCENARIO_ARGS in \
    "--scenario drifting-slab --rebalance 1.3" \
    "--scenario drifting-slab --rebalance 1.3 --graph" \
    "--scenario two-stream --steps 60" \
    "--scenario density-gradient --steps 80" \
    "--scenario density-gradient --steps 80 --rebalance 1.3" \
    "--scenario moving-window --steps 60" \
    "--scenario moving-window --steps 60 --rebalance 1.3" \
    "--scenario moving-window --steps 60 --graph"; do
  SCENARIO_HASHES="$(
    for B in serial openmp; do
      # shellcheck disable=SC2086
      ./build/pic_scenarios $SCENARIO_ARGS --backend "$B" \
        | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
    done
    for SHARDS in 4 5; do
      # shellcheck disable=SC2086
      ./build/pic_scenarios $SCENARIO_ARGS --shards "$SHARDS" \
        | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
    done
  )"
  if [ "$(echo "$SCENARIO_HASHES" | sort -u | wc -l)" != "1" ]; then
    echo "FAIL: scenario hashes differ across backends: $SCENARIO_ARGS" >&2
    exit 1
  fi
done
echo "PIC scenario equivalence: OK (rebalanced runs identical per scenario)"

# Serving smoke: the multi-tenant job runner must complete 100 jobs
# across 4 tenants over one shared pool with cross-job batching, and a
# sample of the served hashes must be bit-identical to standalone
# serial runs of the same specs (hichi_serve exits nonzero on any
# mismatch or unfinished job).
./build/hichi_serve --synthetic 100 --tenants 4 --workers 2 --batch 2 \
  --verify-sample 10 --quiet
echo "serve smoke: OK (100 jobs, 4 tenants, sampled hashes standalone-identical)"

# Crash recovery: a scheduler "killed" after three quanta (exit 3 =
# interrupted with work left) must leave checkpoints + manifest from
# which a fresh --resume run completes every job; --verify re-runs each
# completed job standalone and fails on any hash deviation.
SERVE_STATE="$(mktemp -d)"
if ./build/hichi_serve --synthetic 12 --tenants 2 --quantum 8 \
     --state-dir "$SERVE_STATE" --exit-after-quanta 3 --quiet; then
  echo "FAIL: crash-injected serve run should exit nonzero" >&2
  exit 1
fi
./build/hichi_serve --synthetic 12 --tenants 2 --quantum 8 \
  --state-dir "$SERVE_STATE" --resume --verify --quiet
rm -rf "$SERVE_STATE"
echo "serve crash recovery: OK (resume completed all jobs bit-identically)"

# Checkpoint/restore at the example level: 2N uninterrupted steps (the
# first run, which also drops a mid-run checkpoint at step N) and
# N + restore + N (the second run, resuming from that checkpoint) must
# print one state hash.
CKPT_FILE="$(mktemp -u).ckpt"
CKPT_HASHES="$(
  ./build/pic_langmuir --steps 48 --checkpoint-every 24 \
    --checkpoint-file "$CKPT_FILE" \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
  ./build/pic_langmuir --steps 48 --restore "$CKPT_FILE" \
    | sed -n 's/final state hash = \([0-9a-f]*\).*/\1/p'
)"
rm -f "$CKPT_FILE"
if [ "$(echo "$CKPT_HASHES" | sort -u | wc -l)" != "1" ]; then
  echo "FAIL: checkpoint restore diverged from the uninterrupted run" >&2
  exit 1
fi
echo "checkpoint equivalence: OK (restore resumes bit-identically)"

# Docs must not point at files that do not exist: every relative link in
# README.md and docs/ARCHITECTURE.md is resolved against the repo root.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import os, re, sys
bad = []
for doc in ("README.md", "docs/ARCHITECTURE.md"):
    base = os.path.dirname(doc)
    for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", open(doc).read()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not os.path.exists(os.path.join(base, target)):
            bad.append(f"{doc} -> {target}")
if bad:
    print("FAIL: dangling doc links:\n  " + "\n  ".join(bad), file=sys.stderr)
    sys.exit(1)
print("doc links: OK")
EOF
fi

# The JSON artifacts must parse.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import glob, json
files = glob.glob("results/BENCH_*.json")
assert files, "no JSON artifacts produced"
for f in files:
    with open(f) as fh:
        doc = json.load(fh)
    assert doc["schema"] == "hichi-bench-v1" and doc["results"], f
with open("results/machine_profile.json") as fh:
    prof = json.load(fh)
assert prof["schema"] == "hichi-machine-v1", "machine_profile.json"
assert prof["bandwidth_tiers"] and prof["submit_overheads"], \
    "machine_profile.json is missing measured sections"
print(f"JSON artifacts: OK ({len(files)} files + machine profile)")
EOF
fi

# Perf gate: every perfbench workload must pass its own checks and keep
# nsps_norm within BENCHMARK.json's bound of this host class's committed
# baseline median (ci/perf_baseline.json; a host class without an entry
# is reported, not gated). A flagged workload is re-run once before the
# gate fails. The gate never writes the baseline: a change that moves
# performance re-records it on purpose with --record.
python3 ci/perf_gate.py

echo "ci/run.sh: all green"
