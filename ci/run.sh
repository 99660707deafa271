#!/usr/bin/env bash
# CI entry point: Release build, full test suite (the cross-backend hash
# checks included: the equivalence-matrix targets and the cli_* hash rows
# in CMakeLists.txt), a smoke benchmark pass at tiny sizes whose JSON
# records land in results/ as artifacts, and the perfbench gate against
# the committed baseline (ci/perf_gate.py, ci/perf_baseline.json).
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
# scheduler and registry, and the shard, graph and window rows of the
# PIC equivalence matrix — then stops: it is a separate CI job, not a
# prefix of the Release one. address,undefined also runs the core target
# (the checkpoint loader's hostile-input table). Compiler runtimes only,
# nothing to download.
if [ -n "${HICHI_SANITIZE:-}" ]; then
  case "$HICHI_SANITIZE" in
    thread)
      SAN_TARGETS="" SAN_TESTS="" ;;
    address,undefined)
      SAN_TARGETS="hichi_core_tests" SAN_TESTS="core|" ;;
    *)
      echo "ci/run.sh: HICHI_SANITIZE must be 'thread' or" \
           "'address,undefined', not '$HICHI_SANITIZE'" >&2
      exit 1
      ;;
  esac
  SAN_DIR="build-sanitize-${HICHI_SANITIZE//,/-}"
  cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=$HICHI_SANITIZE -fno-omit-frame-pointer -fno-sanitize-recover=all"
  # shellcheck disable=SC2086
  cmake --build "$SAN_DIR" -j"$JOBS" --target hichi_exec_tests \
    hichi_threading_tests hichi_serve_tests hichi_pic_tests $SAN_TARGETS
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --test-dir "$SAN_DIR" --output-on-failure -j"$JOBS" \
    -R "^(${SAN_TESTS}exec|threading|serve|pic_shard_equivalence|pic_graph_equivalence|pic_window_equivalence)\$"
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
