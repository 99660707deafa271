//===-- bench/bench_calibrate.cpp - Machine calibration micro-suite -------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The calibration runner: measures this host's machine profile (stream
/// bandwidth across the cache hierarchy, FMA throughput — see
/// perfmodel/Calibration.h) plus the per-launch submit overhead of every
/// registered exec backend, prints the profile and the autotuner plan it
/// implies, and writes the `hichi-machine-v1` JSON artifact.
///
/// The artifact feeds two consumers: HICHI_MACHINE_PROFILE=<path> makes
/// the autotuner plan from this measured profile instead of re-measuring
/// in-process, and CI archives it beside the bench JSON. Before exiting,
/// the bench reloads its own artifact and requires the round-trip to be
/// bit-identical — the save path's %.17g contract is part of the
/// schema, so a lossy writer fails the bench.
///
/// `--fast` selects the bounded CI preset (CalibrationConfig::fast()).
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "minisycl/minisycl.h"
#include "perfmodel/Calibration.h"
#include "support/ArgParse.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include "exec/Autotuner.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::perfmodel;

namespace {

/// Launches per timed batch: enough that one batch's wall time is well
/// above clock granularity, few enough that a batch stays ~microseconds.
constexpr int LaunchesPerBatch = 64;

/// Measures the per-launch submit+wait overhead of \p Name: batches of
/// one-item launches of an empty kernel, per-launch ns = batch wall /
/// batch size, median and p95 over \p Repeats batches.
SubmitOverhead measureSubmitOverhead(const std::string &Name, int Repeats,
                                     minisycl::queue &Queue) {
  SubmitOverhead Result;
  Result.Backend = Name;

  auto Backend = exec::BackendRegistry::instance().create(Name);
  if (!Backend)
    return Result;

  exec::ExecutionContext Ctx;
  if (Backend->needsQueue())
    Ctx.Queue = &Queue;

  const auto Nothing = [](Index, Index, int, int) {};
  const exec::StepKernel Kernel(Nothing,
                                exec::kernelIdentity<decltype(Nothing)>());
  exec::LaunchSpec Spec;
  Spec.Items = 1;
  Spec.StepBegin = 0;
  Spec.StepEnd = 1;

  RunStats Stats;
  // Warm-up batch: pools spin up, queues JIT-charge the kernel identity.
  for (int I = 0; I < LaunchesPerBatch; ++I)
    Backend->submit(Spec, Kernel, Ctx, Stats).wait();

  std::vector<double> PerLaunchNs;
  PerLaunchNs.reserve(std::size_t(Repeats));
  for (int R = 0; R < Repeats; ++R) {
    Stopwatch Watch;
    for (int I = 0; I < LaunchesPerBatch; ++I)
      Backend->submit(Spec, Kernel, Ctx, Stats).wait();
    PerLaunchNs.push_back(double(Watch.elapsedNanoseconds()) /
                          LaunchesPerBatch);
  }
  std::sort(PerLaunchNs.begin(), PerLaunchNs.end());
  Result.MedianNs = percentile(PerLaunchNs, 0.50);
  Result.P95Ns = percentile(PerLaunchNs, 0.95);
  return Result;
}

void printProfile(const MachineProfile &P) {
  std::printf("machine profile: host=%s threads=%d numa_domains=%d\n",
              P.Host.c_str(), P.Threads, P.NumaDomains);
  std::printf("  FMA throughput: %.2f Gflop/s/core, %.2f Gflop/s saturated\n",
              P.FmaFlopsPerCore / 1e9, P.FmaFlopsSaturated / 1e9);
  std::printf("\n%14s %14s %14s %14s %14s\n", "working set", "1-core GB/s",
              "1-core p95", "saturated GB/s", "saturated p95");
  for (const BandwidthTier &T : P.Tiers) {
    std::string Label;
    if (T.WorkingSetBytes >= 1024 * 1024)
      Label = std::to_string((long long)(T.WorkingSetBytes / (1024 * 1024))) +
              " MiB";
    else
      Label = std::to_string((long long)(T.WorkingSetBytes / 1024)) + " KiB";
    std::printf("%14s %14.2f %14.2f %14.2f %14.2f\n", Label.c_str(),
                T.PerCoreBandwidth / 1e9, T.PerCoreP95Bandwidth / 1e9,
                T.SaturatedBandwidth / 1e9, T.SaturatedP95Bandwidth / 1e9);
  }
  if (!P.Submit.empty()) {
    std::printf("\n%-16s %12s %12s\n", "backend", "submit ns", "p95 ns");
    for (const SubmitOverhead &S : P.Submit)
      std::printf("%-16s %12.0f %12.0f\n", S.Backend.c_str(), S.MedianNs,
                  S.P95Ns);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("Calibration micro-suite: measures stream bandwidth, FMA "
                 "throughput and per-backend submit overhead; writes the "
                 "hichi-machine-v1 profile the autotuner plans from.");
  Args.addFlag("fast", "bounded CI preset (fewer repeats, smaller sweeps)");
  Args.addOption("out", "profile output path", "machine_profile.json");
  Args.addOption("threads", "saturated-run threads (0 = all hardware)", "0");
  Args.addOption("repeats", "timed repeats per point (0 = preset default)",
                 "0");
  if (!Args.parse(Argc, Argv)) {
    std::fprintf(stderr, "error: %s\n", Args.error().c_str());
    return 2;
  }
  if (Args.helpRequested()) {
    Args.printHelp(Argv[0]);
    return 0;
  }

  CalibrationConfig Config =
      Args.getFlag("fast") ? CalibrationConfig::fast() : CalibrationConfig{};
  Config.Threads = int(Args.getInt("threads").value_or(0));
  if (long Repeats = Args.getInt("repeats").value_or(0))
    Config.Repeats = int(Repeats);

  std::printf("calibrating (%s preset, %d repeats/point)...\n",
              Args.getFlag("fast") ? "fast" : "full", Config.Repeats);
  MachineProfile Profile = Calibration::measure(Config);

  // Per-backend submit overhead: every registry entry except "auto",
  // whose factory just delegates to one of the measured entries (and
  // whose plan would in turn depend on this very measurement).
  minisycl::queue Queue{minisycl::cpu_device()};
  for (const std::string &Name : exec::BackendRegistry::instance().names()) {
    if (Name == "auto")
      continue;
    Profile.Submit.push_back(
        measureSubmitOverhead(Name, Config.Repeats, Queue));
  }

  printProfile(Profile);
  std::printf("\n%s",
              exec::Autotuner::planFromProfile(Profile).report().c_str());

  const std::string Out = Args.getString("out");
  std::string Error;
  if (!Calibration::save(Profile, Out, &Error)) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", Out.c_str(),
                 Error.c_str());
    return 1;
  }

  // The round-trip gate: the artifact must reload bit-identically.
  MachineProfile Reloaded;
  if (!Calibration::load(Out, Reloaded, &Error)) {
    std::fprintf(stderr, "error: cannot reload %s: %s\n", Out.c_str(),
                 Error.c_str());
    return 1;
  }
  if (!(Reloaded == Profile)) {
    std::fprintf(stderr,
                 "error: %s did not round-trip bit-identically\n",
                 Out.c_str());
    return 1;
  }
  std::printf("\nprofile written to %s (round-trip verified)\n", Out.c_str());
  return 0;
}
