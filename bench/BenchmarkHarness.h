//===-- bench/BenchmarkHarness.h - Shared benchmark machinery --*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the paper-reproduction benchmarks: the benchmark
/// scenario builders (the Section 5.2 setup: electrons at rest in a
/// 0.6-lambda ball pushed through the m-dipole wave), NSPS measurement
/// over any registered execution backend, table printing, and a
/// machine-readable JSON report writer.
///
/// Every harness reports three numbers per cell:
///
///   paper    — the value published in the paper (Table 2/3, Fig. 1);
///   model    — the calibrated roofline/gpusim prediction for the paper's
///              hardware (this is the reproduction of the *shape*);
///   measured — a real execution on this host at a reduced particle
///              count (NSPS is size-intensive), for functional evidence.
///
/// Execution strategies are resolved by name through the
/// exec::BackendRegistry, so every bench automatically picks up new
/// backends. Sizes are CI-friendly by default and overridable:
///   HICHI_BENCH_PARTICLES (default 60000), HICHI_BENCH_STEPS (default
///   30), HICHI_BENCH_ITERATIONS (default 3). Benches that support it
///   write their records to the file named by HICHI_BENCH_JSON.
///
/// Backend resolution from the environment is uniform across benches:
/// single-backend benches take their push backend from
/// HICHI_BENCH_BACKEND (envPushBackendName), and sweep benches restrict
/// their backend sweep to HICHI_BENCH_BACKEND when it is set
/// (envBackendSelected).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_BENCH_BENCHMARKHARNESS_H
#define HICHI_BENCH_BENCHMARKHARNESS_H

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "fields/PrecalculatedFields.h"
#include "perfmodel/RooflineModel.h"
#include "support/BenchReport.h"
#include "support/EnvVar.h"
#include "support/Statistics.h"

#include <cstdio>
#include <string>
#include <vector>

namespace hichi {
namespace bench {

/// Benchmark sizes (reduced from the paper's 1e7 x 1e3 x 10 so the CI
/// host finishes in seconds; override via environment).
struct BenchSizes {
  Index Particles = 60000;
  int StepsPerIteration = 30;
  int Iterations = 3;

  static BenchSizes fromEnv() {
    BenchSizes S;
    if (auto V = getEnvInt("HICHI_BENCH_PARTICLES"))
      S.Particles = Index(*V);
    if (auto V = getEnvInt("HICHI_BENCH_STEPS"))
      S.StepsPerIteration = int(*V);
    if (auto V = getEnvInt("HICHI_BENCH_ITERATIONS"))
      S.Iterations = int(*V);
    return S;
  }
};

/// Per-measurement scheduling knobs on top of the backend choice.
struct MeasureConfig {
  int Threads = 0;   ///< 0 = all workers
  Index Grain = 0;   ///< 0 = default dynamic grain
  int FuseSteps = 1; ///< time steps per kernel/parallel region
};

/// The Section 5.2 initial condition in CGS units.
template <typename Array> void initPaperEnsemble(Array &Particles, Index N) {
  using Real = typename Array::Scalar;
  const Real Radius = Real(dipole_benchmark::SeedRadiusFactor *
                           dipole_benchmark::Wavelength);
  initializeBallAtRest(Particles, N, Vector3<Real>::zero(), Radius,
                       PS_Electron, /*Seed=*/20210412);
}

/// The paper's time step (a fixed fraction of the wave period).
template <typename Real> Real paperTimeStep() {
  return Real(dipole_benchmark::TimeStepFraction * 2.0 * constants::Pi /
              dipole_benchmark::WaveFrequency);
}

/// The push-stage backend named by HICHI_BENCH_BACKEND, or \p Fallback.
/// Values are whitespace-trimmed (getEnvTrimmed), so an `export` line
/// with a stray space cannot silently fail the registry lookup; the
/// precedence everywhere is CLI flag > environment > default.
inline std::string envPushBackendName(const char *Fallback = "serial") {
  return getEnvTrimmed("HICHI_BENCH_BACKEND").value_or(Fallback);
}

/// True if a sweep bench should include \p Backend: HICHI_BENCH_BACKEND
/// unset (full sweep) or naming exactly \p Backend (restricted run).
inline bool envBackendSelected(const std::string &Backend) {
  auto V = getEnvTrimmed("HICHI_BENCH_BACKEND");
  return !V || *V == Backend;
}

/// \returns the backend named \p Name from the registry, or dies with a
/// message listing what is available.
inline std::unique_ptr<exec::ExecutionBackend>
requireBackend(const std::string &Name, const MeasureConfig &Config = {}) {
  exec::BackendConfig BC;
  BC.Threads = Config.Threads;
  BC.Grain = Config.Grain;
  auto Backend = exec::createBackend(Name, BC);
  if (!Backend) {
    std::fprintf(stderr, "unknown backend '%s' (known: %s)\n", Name.c_str(),
                 exec::listBackendNames(", ").c_str());
    fatalError("benchmark requested an unregistered execution backend");
  }
  return Backend;
}

/// Shared measurement loop: warmup once, then time Iterations runs of
/// StepsPerIteration steps each over \p Fields.
template <typename Array, typename FieldSource>
MeasuredSeries measureSeries(Array &Particles, const FieldSource &Fields,
                             const std::string &BackendName,
                             const BenchSizes &Sizes, minisycl::queue *Queue,
                             const gpusim::KernelProfile *GpuProfile,
                             const MeasureConfig &Config) {
  using Real = typename Array::Scalar;
  auto Types = ParticleTypeTable<Real>::cgs();
  auto Backend = requireBackend(BackendName, Config);
  exec::ExecutionContext Ctx;
  Ctx.Queue = Queue;
  Ctx.GpuWorkload = GpuProfile;
  exec::StepLoopOptions<Real> Opts;
  Opts.FuseSteps = Config.FuseSteps;
  const Real Dt = paperTimeStep<Real>();

  // Warmup iteration (the paper's first-iteration effect is measured by
  // its own dedicated bench; the tables use steady state).
  exec::runStepLoop(*Backend, Ctx, Particles, Fields, Types, Dt,
                    Sizes.StepsPerIteration, Opts);

  MeasuredSeries Out;
  double TotalNs = 0;
  for (int It = 0; It < Sizes.Iterations; ++It) {
    RunStats Stats =
        exec::runStepLoop(*Backend, Ctx, Particles, Fields, Types, Dt,
                          Sizes.StepsPerIteration, Opts);
    const double IterNs = GpuProfile ? Stats.ModeledNs : Stats.HostNs;
    Out.IterationNs.push_back(IterNs);
    TotalNs += IterNs;
  }
  Out.Nsps = nsPerParticlePerStep(TotalNs, Sizes.Iterations,
                                  double(Sizes.Particles),
                                  double(Sizes.StepsPerIteration));
  return Out;
}

/// Measures the analytical-fields scenario for one configuration.
template <typename Array>
MeasuredSeries
measureAnalyticalSeries(const std::string &Backend, const BenchSizes &Sizes,
                        minisycl::queue *Queue,
                        const gpusim::KernelProfile *GpuProfile = nullptr,
                        const MeasureConfig &Config = {}) {
  using Real = typename Array::Scalar;
  Array Particles(Sizes.Particles);
  initPaperEnsemble(Particles, Sizes.Particles);
  auto Wave = DipoleWaveSource<Real>::paperBenchmark();
  return measureSeries(Particles, Wave, Backend, Sizes, Queue, GpuProfile,
                       Config);
}

/// Measures the precalculated-fields scenario.
template <typename Array>
MeasuredSeries
measurePrecalculatedSeries(const std::string &Backend, const BenchSizes &Sizes,
                           minisycl::queue *Queue,
                           const gpusim::KernelProfile *GpuProfile = nullptr,
                           const MeasureConfig &Config = {}) {
  using Real = typename Array::Scalar;
  Array Particles(Sizes.Particles);
  initPaperEnsemble(Particles, Sizes.Particles);
  auto Wave = DipoleWaveSource<Real>::paperBenchmark();
  PrecalculatedFields<Real> Stored(Sizes.Particles);
  Stored.precompute(Particles, Wave, Real(0));
  return measureSeries(Particles, Stored.source(), Backend, Sizes, Queue,
                       GpuProfile, Config);
}

/// Dispatches on scenario; \returns the NSPS metric only.
template <typename Array>
double measureNsps(perfmodel::Scenario S, const std::string &Backend,
                   const BenchSizes &Sizes, minisycl::queue *Queue,
                   const gpusim::KernelProfile *GpuProfile = nullptr,
                   const MeasureConfig &Config = {}) {
  if (S == perfmodel::Scenario::PrecalculatedFields)
    return measurePrecalculatedSeries<Array>(Backend, Sizes, Queue,
                                             GpuProfile, Config)
        .Nsps;
  return measureAnalyticalSeries<Array>(Backend, Sizes, Queue, GpuProfile,
                                        Config)
      .Nsps;
}

/// Prints a horizontal rule of width \p Width.
inline void printRule(int Width) {
  for (int I = 0; I < Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

} // namespace bench
} // namespace hichi

#endif // HICHI_BENCH_BENCHMARKHARNESS_H
