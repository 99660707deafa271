//===-- bench/bench_serve.cpp - Serving-layer throughput/latency ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput and latency of the multi-tenant serving layer: the
/// deterministic synthetic job mix (serve/JobSpec.h) scheduled over one
/// shared backend pool, measured end to end (queueing, lane leasing,
/// stepping, completion). Per configuration it prints the median
/// whole-mix wall time of the measured iterations, jobs/s, and the
/// p50/p95 per-job enqueue-to-completion latency of the last one.
///
/// Configurations sweep the worker count (1, 2 and 4 workers, each
/// driving one job at a time) over the same mix; every job's final hash
/// is checked against a standalone serial run on the first iteration
/// (the serve bit-identity gate — the bench exits 1 on any mismatch).
///
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::serve;

namespace {

// The mix and the repeat count (the first iteration is a warm-up on top).
constexpr int Jobs = 24;
constexpr int Iterations = 3;

struct ServeConfigPoint {
  const char *Label;
  int Workers;
};

struct MixResult {
  std::vector<double> WallNs;    ///< whole-mix wall per iteration
  std::vector<double> Latencies; ///< per-job latency ns (last iteration)
  bool HashesOk = true;
};

/// Runs the whole mix Iterations + 1 times (first = warmup + hash gate)
/// over a fresh pool per configuration.
MixResult measureMix(const std::vector<JobSpec> &Specs,
                     const ServeConfigPoint &Point,
                     const std::map<std::string, std::uint64_t> &Reference) {
  BackendPool Pool(/*TotalLanes=*/8, /*LanesPerJob=*/2);
  MixResult Out;
  for (int It = 0; It <= Iterations; ++It) {
    ServeConfig Config;
    Config.Workers = Point.Workers;
    Scheduler Sched(Pool, Config);
    for (const JobSpec &Spec : Specs)
      Sched.enqueue(Spec);
    Stopwatch Watch;
    Sched.run();
    const double WallNs = double(Watch.elapsedNanoseconds());
    Out.Latencies.clear();
    for (const JobResult &R : Sched.results()) {
      if (R.State != JobState::Completed) {
        Out.HashesOk = false; // a failed/stuck job is as bad as a bad hash
        continue;
      }
      Out.Latencies.push_back(R.LatencyNs);
      if (It == 0 && Reference.at(R.Name) != R.Hash)
        Out.HashesOk = false;
    }
    if (It == 0)
      continue; // warmup: pool lanes spun up, arenas first-touched
    Out.WallNs.push_back(WallNs);
  }
  return Out;
}

} // namespace

int main() {
  const std::vector<JobSpec> Specs = syntheticJobMix(Jobs, /*Tenants=*/2);

  long long ParticleSteps = 0;
  for (const JobSpec &Spec : Specs)
    ParticleSteps +=
        (long long)(Spec.Nx) * Spec.Ny * Spec.Nz * Spec.PerCell * Spec.Steps;

  std::printf("serving-layer throughput: %d synthetic jobs (2 tenants, "
              "%lld total particle-steps), %d measured iterations per "
              "configuration, pool of 8 lanes x 2 per job\n\n",
              Jobs, ParticleSteps, Iterations);

  // Standalone serial references once — the bit-identity gate every
  // configuration's first iteration is checked against.
  std::map<std::string, std::uint64_t> Reference;
  for (const JobSpec &Spec : Specs)
    Reference[Spec.Name] = runStandalone(Spec);

  const ServeConfigPoint Points[] = {
      {"1w", 1},
      {"2w", 2},
      {"4w", 4},
  };

  std::printf("%-14s %10s %9s %10s %10s %6s\n", "config", "wall ms",
              "jobs/s", "p50 ms", "p95 ms", "hash");
  std::printf("%s\n", std::string(64, '-').c_str());

  bool AllOk = true;
  for (const ServeConfigPoint &Point : Points) {
    MixResult R = measureMix(Specs, Point, Reference);
    AllOk = AllOk && R.HashesOk;

    const double WallNs = median(R.WallNs);
    const double JobsPerSec = WallNs > 0 ? double(Jobs) / (WallNs / 1e9) : 0;
    std::sort(R.Latencies.begin(), R.Latencies.end());
    const double P50 = percentile(R.Latencies, 0.50);
    const double P95 = percentile(R.Latencies, 0.95);
    std::printf("%-14s %10.2f %9.1f %10.2f %10.2f %6s\n", Point.Label,
                WallNs / 1e6, JobsPerSec, P50 / 1e6, P95 / 1e6,
                R.HashesOk ? "OK" : "FAIL");
  }

  std::printf("\nserve bit-identity: %s (every served job's final hash vs "
              "its standalone serial run)\n",
              AllOk ? "OK" : "FAIL");
  return AllOk ? 0 : 1;
}
