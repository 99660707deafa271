//===-- bench/paper_repro.cpp - Regenerates the paper's results ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One program, one section per result of the paper:
///
///   Table 1/3  — hardware parameters and GPU NSPS (simulated GPUs);
///   Table 2    — CPU NSPS, 6 implementations x 2 scenarios x 2 precisions;
///   Fig. 1     — strong-scaling speedup;
///   Sec. 5.3   — first-iteration overhead;
///   Sec. 4.3   — scheduling ablation (backends, grain, kernel fusion);
///   Sec. 3     — storage ablation (flat array + sort vs per-cell lists).
///
/// Each cell has up to three columns: `paper` (the published value,
/// perfmodel/PaperData.h), `model` (the calibrated roofline/gpusim model
/// of the paper's hardware) and `host` (a real run on this machine at the
/// reduced size below; NSPS is size-intensive). The host runs use the
/// paper's Section 5.2 setup: electrons at rest in a 0.6-lambda ball
/// pushed through the m-dipole wave, one warm-up iteration, then the
/// mean over the measured iterations (the median in the scheduling
/// ablation).
///
/// The model columns are asserted by tests/perfmodel/PerfModelTest.cpp;
/// each section names the cases that gate it. The host columns are
/// printed, not checked: on a shared host a cell can move several-fold
/// between back-to-back runs.
///
/// \code
///   ./build/paper_repro
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "fields/PrecalculatedFields.h"
#include "perfmodel/PaperData.h"
#include "perfmodel/RooflineModel.h"
#include "pic/CellListEnsemble.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace hichi;
using namespace hichi::perfmodel;

namespace {

// Host-run sizes: the paper's 1e7 particles x 1e3 steps x 10 iterations,
// reduced so that all six sections finish in well under a minute.
constexpr Index Particles = 60000;
constexpr int Steps = 30;
constexpr int Iterations = 3;

const CpuMachine Node = CpuMachine::xeon8260LNode();

/// Scheduling knobs of one host measurement on top of the backend name.
struct MeasureConfig {
  int Threads = 0;   ///< 0 = all workers
  Index Grain = 0;   ///< 0 = default dynamic grain
  int FuseSteps = 1; ///< time steps per kernel/parallel region
};

/// The Section 5.2 initial condition in CGS units.
template <typename Array> void initPaperEnsemble(Array &Ensemble) {
  using Real = typename Array::Scalar;
  const Real Radius = Real(dipole_benchmark::SeedRadiusFactor *
                           dipole_benchmark::Wavelength);
  initializeBallAtRest(Ensemble, Particles, Vector3<Real>::zero(), Radius,
                       PS_Electron, /*Seed=*/20210412);
}

/// The paper's time step (a fixed fraction of the wave period).
template <typename Real> Real paperTimeStep() {
  return Real(dipole_benchmark::TimeStepFraction * 2.0 * constants::Pi /
              dipole_benchmark::WaveFrequency);
}

std::unique_ptr<exec::ExecutionBackend>
requireBackend(const std::string &Name, const MeasureConfig &Config = {}) {
  exec::BackendConfig BC;
  BC.Threads = Config.Threads;
  BC.Grain = Config.Grain;
  auto Backend = exec::createBackend(Name, BC);
  if (!Backend)
    fatalError("paper_repro: unregistered execution backend");
  return Backend;
}

/// Maps the model's Parallelization axis onto exec registry names.
const char *backendOf(Parallelization Par) {
  switch (Par) {
  case Parallelization::OpenMP:
    return "openmp";
  case Parallelization::Dpcpp:
    return "dpcpp";
  case Parallelization::DpcppNuma:
    return "dpcpp-numa";
  }
  unreachable("bad Parallelization");
}

/// One warm-up iteration, then \c Iterations timed ones over \p Fields.
/// \returns the per-iteration time: host wall of the whole call, or the
/// device model's time when \p GpuProfile is set.
template <typename Array, typename FieldSource>
std::vector<double> measureIterations(Array &Ensemble,
                                      const FieldSource &Fields,
                                      const std::string &BackendName,
                                      minisycl::queue *Queue,
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

  exec::runStepLoop(*Backend, Ctx, Ensemble, Fields, Types, Dt, Steps, Opts);
  std::vector<double> IterNs;
  for (int It = 0; It < Iterations; ++It) {
    // Host rows time the whole call: RunStats::HostNs sums kernel time
    // over lanes on multi-lane asynchronous backends, not elapsed time.
    Stopwatch Watch;
    RunStats Stats = exec::runStepLoop(*Backend, Ctx, Ensemble, Fields, Types,
                                       Dt, Steps, Opts);
    IterNs.push_back(GpuProfile ? Stats.ModeledNs
                                : double(Watch.elapsedNanoseconds()));
  }
  return IterNs;
}

/// measureIterations over a fresh paper ensemble in scenario \p S.
template <typename Array>
std::vector<double> measureScenario(Scenario S, const std::string &Backend,
                                    minisycl::queue *Queue,
                                    const gpusim::KernelProfile *GpuProfile,
                                    const MeasureConfig &Config) {
  using Real = typename Array::Scalar;
  Array Ensemble(Particles);
  initPaperEnsemble(Ensemble);
  auto Wave = DipoleWaveSource<Real>::paperBenchmark();
  if (S == Scenario::AnalyticalFields)
    return measureIterations(Ensemble, Wave, Backend, Queue, GpuProfile,
                             Config);
  PrecalculatedFields<Real> Stored(Particles);
  Stored.precompute(Ensemble, Wave, Real(0));
  return measureIterations(Ensemble, Stored.source(), Backend, Queue,
                           GpuProfile, Config);
}

/// The paper's metric over one measured series.
double nspsOf(const std::vector<double> &IterNs) {
  return nsPerParticlePerStep(
      std::accumulate(IterNs.begin(), IterNs.end(), 0.0), Iterations,
      double(Particles), double(Steps));
}

/// measureScenario's NSPS, dispatched on layout and precision.
template <typename Real>
double measureNsps(Layout L, Scenario S, const std::string &Backend,
                   minisycl::queue *Queue,
                   const gpusim::KernelProfile *GpuProfile = nullptr,
                   const MeasureConfig &Config = {}) {
  if (L == Layout::AoS)
    return nspsOf(measureScenario<ParticleArrayAoS<Real>>(
        S, Backend, Queue, GpuProfile, Config));
  return nspsOf(measureScenario<ParticleArraySoA<Real>>(S, Backend, Queue,
                                                        GpuProfile, Config));
}

Scenario scenarioAt(int SI) {
  return SI == 0 ? Scenario::PrecalculatedFields : Scenario::AnalyticalFields;
}

void printRule(int Width) {
  std::printf("%s\n", std::string(std::size_t(Width), '-').c_str());
}

void printSection(const char *Title) {
  std::printf("\n=== %s ===\n\n", Title);
}

/// Names the PerfModelTest cases that assert this section's model column.
void printGates(const char *Cases) {
  std::printf("\nmodel gated by PerfModelTest: %s\n", Cases);
}

//===----------------------------------------------------------------------===//
// Table 1/3: GPUs
//===----------------------------------------------------------------------===//

void table1() {
  auto P630 = gpusim::GpuParameters::p630();
  auto Iris = gpusim::GpuParameters::irisXeMax();
  std::printf("Table 1 cross-check (hardware parameters from the device "
              "models)\n");
  std::printf("%-34s %-22s %-22s %-22s\n", "Parameter", "2x Xeon 8260L",
              "P630", "Iris Xe Max");
  printRule(102);
  std::printf("%-34s %-22d %-22d %-22d\n", "CPU cores / GPU EUs",
              Node.coreCount(), P630.ExecutionUnits, Iris.ExecutionUnits);
  std::printf("%-34s %-22s %-22s %-22s\n", "Clock (base/boost) GHz",
              "2.4 / 3.9", "0.35 / 1.15", "0.3 / 1.65");
  std::printf("%-34s %-22.2f %-22.3f %-22.2f\n",
              "Peak single precision, TFlops", Node.peakFlopsSingle() / 1e12,
              P630.PeakFlopsSingle / 1e12, Iris.PeakFlopsSingle / 1e12);
  std::printf("%-34s %-22s %-22.0f %-22.0f\n", "RAM, GB", "192 (DDR4)",
              P630.MemoryBytes / double(1u << 30),
              Iris.MemoryBytes / double(1u << 30));
  std::printf("\n");
}

/// Kernels really execute (on host threads) through simulated-GPU
/// queues; their events carry the gpusim time of the kernel being run.
/// Single precision only, as in the paper (the Iris Xe Max emulates
/// double).
void table3() {
  std::printf("Table 3 reproduction: NSPS on GPUs, DPC++, single "
              "precision\n");
  std::printf("(model = gpusim device model of the paper's GPUs; kernels "
              "are executed for real and timed by the model)\n\n");
  std::printf("%-8s | %-32s | %-32s\n", "", "Precalculated Fields",
              "Analytical Fields");
  std::printf("%-8s | %-10s %-10s %-10s | %-10s %-10s %-10s\n", "Pattern",
              "CPU", "P630", "XeMax", "CPU", "P630", "XeMax");
  printRule(96);

  for (Layout L : {Layout::AoS, Layout::SoA}) {
    double Model[2][3], Paper[2][3];
    for (int SI = 0; SI < 2; ++SI) {
      const Scenario S = scenarioAt(SI);
      Paper[SI][0] = paperCpuNsps(L, Parallelization::DpcppNuma, S,
                                  Precision::Single);
      Paper[SI][1] = paperGpuNsps(L, PaperGpu::P630, S);
      Paper[SI][2] = paperGpuNsps(L, PaperGpu::IrisXeMax, S);
      Model[SI][0] = predictCpuNsps(Node, S, L, Precision::Single,
                                    Parallelization::DpcppNuma, 48)
                         .Nsps;
      auto Profile = gpuKernelProfile(S, L, Precision::Single);
      Model[SI][1] = gpusim::modelNsPerItem(gpusim::GpuParameters::p630(),
                                            Profile, 10'000'000);
      Model[SI][2] = gpusim::modelNsPerItem(
          gpusim::GpuParameters::irisXeMax(), Profile, 10'000'000);
    }
    std::printf("%-8s | %-10s %-10s %-10s | %-10s %-10s %-10s\n",
                toString(L), "paper/model", "", "", "", "", "");
    std::printf("%-8s | %-4.2f/%-5.2f %-4.2f/%-5.2f %-4.2f/%-5.2f | "
                "%-4.2f/%-5.2f %-4.2f/%-5.2f %-4.2f/%-5.2f\n",
                "", Paper[0][0], Model[0][0], Paper[0][1], Model[0][1],
                Paper[0][2], Model[0][2], Paper[1][0], Model[1][0],
                Paper[1][1], Model[1][1], Paper[1][2], Model[1][2]);
  }
  printRule(96);

  // The modeled per-item time at this size includes the amortized
  // launch overhead, so it sits slightly above the 1e7-particle column.
  std::printf("\nFunctional runs through simulated-GPU queues (%lld "
              "particles):\n",
              (long long)Particles);
  for (Layout L : {Layout::AoS, Layout::SoA})
    for (int SI = 0; SI < 2; ++SI) {
      const Scenario S = scenarioAt(SI);
      auto Profile = gpuKernelProfile(S, L, Precision::Single);
      auto OnGpu = [&](minisycl::device Dev) {
        minisycl::queue Q{Dev};
        return measureNsps<float>(L, S, "dpcpp", &Q, &Profile);
      };
      const double P630 = OnGpu(minisycl::gpu_device_p630());
      const double Iris = OnGpu(minisycl::gpu_device_iris_xe_max());
      std::printf("  %-4s %-22s  P630 %-7.2f  XeMax %-7.2f  (modeled NSPS "
                  "incl. launch overhead)\n",
                  toString(L), toString(S), P630, Iris);
    }

  printGates("Table3Test.ModelWithin35PercentOfPaper, "
             "Table3StructureTest.LayoutMattersOnGpusButNotCpus, "
             "Table3StructureTest.CpuToGpuSlowdownFactorsMatchPaper, "
             "MachineModelTest.PaperNodePeakFlopsNearTable1");
}

//===----------------------------------------------------------------------===//
// Table 2: CPUs
//===----------------------------------------------------------------------===//

void table2() {
  minisycl::queue Queue{minisycl::cpu_device()};
  std::printf("Table 2 reproduction: NSPS on CPU, 6 implementations x 2 "
              "scenarios x {float,double}\n");
  std::printf("paper hardware: %s; measured on this host with %lld "
              "particles x %d steps x %d iterations\n\n",
              Node.Name.c_str(), (long long)Particles, Steps, Iterations);
  std::printf("%-8s %-12s | %-28s | %-28s\n", "", "", "Precalculated Fields",
              "Analytical Fields");
  std::printf("%-8s %-12s | %-9s %-9s %-9s| %-9s %-9s %-9s  (float rows, "
              "then double)\n",
              "Pattern", "Parallel", "paper", "model", "host", "paper",
              "model", "host");
  printRule(100);

  for (Precision P : {Precision::Single, Precision::Double}) {
    std::printf("# %s precision\n", toString(P));
    for (Layout L : {Layout::AoS, Layout::SoA})
      for (Parallelization Par :
           {Parallelization::OpenMP, Parallelization::Dpcpp,
            Parallelization::DpcppNuma}) {
        minisycl::queue *Q =
            Par == Parallelization::OpenMP ? nullptr : &Queue;
        double Cells[2][3]; // [scenario][paper|model|host]
        for (int SI = 0; SI < 2; ++SI) {
          const Scenario S = scenarioAt(SI);
          Cells[SI][0] = paperCpuNsps(L, Par, S, P);
          Cells[SI][1] =
              predictCpuNsps(Node, S, L, P, Par, Node.coreCount()).Nsps;
          Cells[SI][2] =
              P == Precision::Single
                  ? measureNsps<float>(L, S, backendOf(Par), Q)
                  : measureNsps<double>(L, S, backendOf(Par), Q);
        }
        std::printf(
            "%-8s %-12s | %-9.2f %-9.2f %-9.2f| %-9.2f %-9.2f %-9.2f\n",
            toString(L), toString(Par), Cells[0][0], Cells[0][1],
            Cells[0][2], Cells[1][0], Cells[1][1], Cells[1][2]);
      }
  }
  printRule(100);

  printGates("Table2Test.ModelWithin40PercentOfPaper, "
             "Table2StructureTest.MeanAbsoluteErrorUnder20Percent, "
             "Table2StructureTest.PlainDpcppIsAlwaysSlowest, "
             "Table2StructureTest.NumaDpcppWithinFifteenPercentOfOpenMp, "
             "Table2StructureTest.DoubleIsAboutTwiceSingleInPrecalculated");
}

//===----------------------------------------------------------------------===//
// Fig. 1: strong scaling
//===----------------------------------------------------------------------===//

/// Precalculated fields, single precision; speedup over one core of the
/// same implementation. The model is the paper's node (per-core bandwidth
/// saturating each socket in turn, compact placement); the host series
/// runs over this machine's hardware threads.
void fig1() {
  struct Series {
    const char *Name;
    Layout L;
    Parallelization Par;
  };
  constexpr Series AllSeries[] = {
      {"OpenMP AoS", Layout::AoS, Parallelization::OpenMP},
      {"OpenMP SoA", Layout::SoA, Parallelization::OpenMP},
      {"DPC++ NUMA AoS", Layout::AoS, Parallelization::DpcppNuma},
      {"DPC++ NUMA SoA", Layout::SoA, Parallelization::DpcppNuma},
  };

  std::printf("Fig. 1 reproduction: strong-scaling speedup, Precalculated "
              "Fields, single precision\n");
  std::printf("model = paper's 2x24-core node; speedup relative to one "
              "core of the same implementation\n\n");

  const int Cores[] = {1, 2, 4, 8, 12, 16, 24, 32, 40, 48};
  std::printf("%-18s", "threads (model)");
  for (int C : Cores)
    std::printf("%7d", C);
  std::printf("\n");
  printRule(18 + 7 * int(std::size(Cores)));
  for (const Series &S : AllSeries) {
    std::printf("%-18s", S.Name);
    for (int C : Cores)
      std::printf("%7.1f", predictSpeedup(Node, Scenario::PrecalculatedFields,
                                          S.L, Precision::Single, S.Par, C));
    std::printf("\n");
  }

  double Eff48 = predictSpeedup(Node, Scenario::PrecalculatedFields,
                                Layout::AoS, Precision::Single,
                                Parallelization::DpcppNuma, 48) /
                 48.0;
  std::printf("\nDPC++ NUMA 48-core strong-scaling efficiency (model): "
              "%.0f%% (paper: ~63%%)\n",
              100.0 * Eff48);

  minisycl::queue Queue{minisycl::cpu_device()};
  const int HostCores = int(std::thread::hardware_concurrency());
  std::printf("\nMeasured on this host (%d hardware threads, %lld "
              "particles):\n",
              HostCores, (long long)Particles);
  std::printf("%-18s", "threads (host)");
  std::vector<int> HostPoints;
  for (int C = 1; C <= HostCores; C *= 2)
    HostPoints.push_back(C);
  if (HostPoints.empty() || HostPoints.back() != HostCores)
    HostPoints.push_back(HostCores);
  for (int C : HostPoints)
    std::printf("%9d", C);
  std::printf("\n");
  for (const Series &S : AllSeries) {
    std::printf("%-18s", S.Name);
    minisycl::queue *Q =
        S.Par == Parallelization::OpenMP ? nullptr : &Queue;
    double Serial = 0;
    for (int C : HostPoints) {
      MeasureConfig Config;
      Config.Threads = C;
      double Nsps = measureNsps<float>(S.L, Scenario::PrecalculatedFields,
                                       backendOf(S.Par), Q, nullptr, Config);
      if (C == 1)
        Serial = Nsps;
      std::printf("%9.2f", Serial / Nsps);
    }
    std::printf("\n");
  }
  std::printf("(on a single-core container all host speedups are ~1; the "
              "model column carries the Fig. 1 shape)\n");

  printGates("Fig1Test.SpeedupIsMonotoneNonDecreasing, "
             "Fig1Test.NearLinearUntilSocketBandwidthSaturates, "
             "Fig1Test.SecondSocketResumesScaling, "
             "Fig1Test.DpcppNumaShowsSuperlinearStart, "
             "Fig1Test.FortyEightCoreEfficiencyNearPaperValue");
}

//===----------------------------------------------------------------------===//
// Section 5.3: first-iteration overhead
//===----------------------------------------------------------------------===//

/// "The first iteration takes 50% longer time than the subsequent ones":
/// first-touch page placement and cold caches, plus the JIT compilation
/// of the kernel at first launch. The host runs the paper's 10 iterations
/// with no warm-up on the dpcpp runner (JIT and first touch are a
/// dynamic-kernel story); the model adds both terms for the paper's setup.
void firstIteration() {
  constexpr int PaperIterations = 10;
  std::printf("First-iteration overhead (paper Section 5.3: first "
              "iteration ~50%% slower)\n\n");

  ParticleArrayAoS<float> Ensemble(Particles);
  initPaperEnsemble(Ensemble);
  auto Types = ParticleTypeTable<float>::cgs();
  auto Wave = DipoleWaveSource<float>::paperBenchmark();
  PrecalculatedFields<float> Stored(Particles);
  Stored.precompute(Ensemble, Wave, 0.0f);

  minisycl::queue Queue{minisycl::cpu_device()};
  const std::string BackendName = "dpcpp";
  auto Backend = requireBackend(BackendName);
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  const float Dt = paperTimeStep<float>();

  std::vector<double> IterNs;
  for (int It = 0; It < PaperIterations; ++It)
    IterNs.push_back(exec::runStepLoop(*Backend, Ctx, Ensemble,
                                       Stored.source(), Types, Dt, Steps)
                         .HostNs);
  double Steady =
      median(std::vector<double>(IterNs.begin() + 1, IterNs.end()));
  std::printf("measured on this host (%lld particles x %d steps, '%s' "
              "runner):\n",
              (long long)Particles, Steps, BackendName.c_str());
  for (std::size_t I = 0; I < IterNs.size(); ++I)
    std::printf("  iteration %2zu: %8.2f ms  (%.2fx steady state)\n", I,
                IterNs[I] / 1e6, IterNs[I] / Steady);

  double Nsps = predictCpuNsps(Node, Scenario::PrecalculatedFields,
                               Layout::AoS, Precision::Single,
                               Parallelization::Dpcpp, 48)
                    .Nsps;
  double IterationNs = Nsps * 1e7 * 1e3; // 1e7 particles x 1e3 steps
  double JitNs = 1.5e9; // SPIR-V -> AVX-512 JIT of the pusher kernel
  double Factor =
      predictFirstIterationFactor(Parallelization::Dpcpp, IterationNs, JitNs);
  std::printf("\nmodeled for the paper's setup (1e7 particles, 1e3 steps, "
              "48 cores):\n");
  std::printf("  steady iteration: %.2f s; first iteration factor: %.2fx "
              "(paper: ~1.5x)\n",
              IterationNs / 1e9, Factor);

  printGates("FirstIterationTest.DpcppFirstIterationAboutFiftyPercentSlower");
}

//===----------------------------------------------------------------------===//
// Section 4.3: scheduling ablation
//===----------------------------------------------------------------------===//

/// Static vs dynamic scheduling, dynamic grain, NUMA arenas vs flat
/// dynamic and multi-step kernel fusion, all through the backend
/// registry, on the analytical-fields scenario (SoA, float: the paper's
/// fastest CPU row). Fusion pays the per-step submit/join cost once per K
/// steps. The model line shows the NUMA term a one-domain host cannot.
void scheduling() {
  minisycl::queue Queue{minisycl::cpu_device()};
  auto MedianNs = [&Queue](const std::string &Backend,
                           const MeasureConfig &Config) {
    return median(measureScenario<ParticleArraySoA<float>>(
        Scenario::AnalyticalFields, Backend, &Queue, nullptr, Config));
  };
  auto Relative = [](double Ns, double RefNs) {
    return RefNs > 0 ? 100.0 * (Ns - RefNs) / RefNs : 0.0;
  };

  std::printf("Scheduling ablation (Section 4.3) through the backend "
              "registry: %lld particles x %d steps x %d iterations\n\n",
              (long long)Particles, Steps, Iterations);

  std::printf("%-34s %10s  %s\n", "backend", "median ms", "per-iteration");
  printRule(72);
  double StaticNs = 0;
  auto &Registry = exec::BackendRegistry::instance();
  for (const std::string &Name : Registry.names()) {
    double Ns = MedianNs(Name, {});
    if (Name == "openmp")
      StaticNs = Ns;
    std::printf("%-34s %10.3f  (%s)\n", Name.c_str(), Ns / 1e6,
                Registry.description(Name).c_str());
  }

  std::printf("\n%-34s %10s  vs openmp static\n", "dpcpp dynamic grain",
              "median ms");
  printRule(72);
  for (Index Grain : {Index(16), Index(64), Index(256), Index(1024),
                      Index(4096), Index(16384)}) {
    MeasureConfig Config;
    Config.Grain = Grain;
    double Ns = MedianNs("dpcpp", Config);
    std::printf("%-34s %10.3f  (%+5.1f%%)\n",
                ("grain " + std::to_string((long long)Grain)).c_str(),
                Ns / 1e6, Relative(Ns, StaticNs));
  }

  std::printf("\n%-34s %10s  vs unfused dpcpp\n", "kernel fusion (dpcpp)",
              "median ms");
  printRule(72);
  double UnfusedNs = 0;
  for (int Fuse : {1, 2, 4, 8, 16}) {
    MeasureConfig Config;
    Config.FuseSteps = Fuse;
    double Ns = MedianNs("dpcpp", Config);
    if (Fuse == 1)
      UnfusedNs = Ns;
    std::printf("%-34s %10.3f  (%+5.1f%%)\n",
                ("fuse " + std::to_string(Fuse) + " steps/kernel").c_str(),
                Ns / 1e6, Relative(Ns, UnfusedNs));
  }
  for (int Fuse : {1, 8}) {
    MeasureConfig Config;
    Config.FuseSteps = Fuse;
    std::printf("%-34s %10.3f\n",
                ("openmp, fuse " + std::to_string(Fuse)).c_str(),
                MedianNs("openmp", Config) / 1e6);
  }

  double Flat = predictCpuNsps(Node, Scenario::AnalyticalFields, Layout::SoA,
                               Precision::Single, Parallelization::Dpcpp, 48)
                    .Nsps;
  double Arena = predictCpuNsps(Node, Scenario::AnalyticalFields, Layout::SoA,
                                Precision::Single,
                                Parallelization::DpcppNuma, 48)
                     .Nsps;
  std::printf("\nmodeled on the paper's 2-socket node: flat dynamic %.2f "
              "NSPS vs NUMA arenas %.2f NSPS (%.0f%% penalty removed)\n",
              Flat, Arena, 100.0 * (Flat - Arena) / Flat);

  printGates("Table2StructureTest.PlainDpcppIsAlwaysSlowest");
}

//===----------------------------------------------------------------------===//
// Section 3: storage ablation
//===----------------------------------------------------------------------===//

/// "Each cell stores its own array of particles" (per-cell lists plus
/// migration) against "the entire ensemble of particles in a single
/// array" (flat array plus a periodic sort, Hi-Chi's choice): push cost
/// plus upkeep on a thermal ensemble drifting through a periodic box.
void storage() {
  using namespace hichi::pic;
  const GridSize Grid{16, 16, 16};
  const Vector3<double> Origin(0, 0, 0), Step(1, 1, 1);
  auto Types = ParticleTypeTable<double>::natural();
  UniformFieldSource<double> Source{{{0.01, 0, 0}, {0, 0, 0.3}}};
  const double Dt = 0.05;
  auto ThermalParticle = [](RandomStream<double> &Rng) {
    ParticleT<double> P;
    P.Position = {Rng.uniform(0, 16), Rng.uniform(0, 16), Rng.uniform(0, 16)};
    P.Momentum = Rng.inBall(Vector3<double>::zero(), 0.5);
    P.Gamma = lorentzGamma(P.Momentum, 1.0, 1.0);
    return P;
  };

  std::printf("Storage-scheme ablation (paper Section 3): %lld particles, "
              "%d steps, 16^3 cells\n\n",
              (long long)Particles, Steps);

  ParticleArrayAoS<double> Flat(Particles);
  RandomStream<double> Rng(9);
  for (Index I = 0; I < Particles; ++I)
    Flat.pushBack(ThermalParticle(Rng));
  CellIndexer<double> Indexer(Grid, Origin, Step);
  auto Backend = requireBackend("serial");
  minisycl::queue Queue{minisycl::cpu_device()};
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  exec::StepLoopOptions<double> Opts;
  Opts.LightVelocity = 1.0;

  for (int SortEvery : {0, 10, 1}) {
    // Re-randomize order so each configuration starts equally unsorted.
    RandomStream<double> Shuffle(11);
    for (Index I = Particles - 1; I > 0; --I) {
      Index J = Index(Shuffle.uniformIndex(std::uint64_t(I + 1)));
      ParticleT<double> Tmp = Flat[I].load();
      Flat[I].store(Flat[J].load());
      Flat[J].store(Tmp);
    }
    Stopwatch Watch;
    // Each segment between sorts is one fused step-loop call (the
    // uniform field makes the fused launch exact); a sort follows every
    // full SortEvery-step segment.
    int Done = 0;
    while (Done < Steps) {
      const int Segment =
          SortEvery > 0 ? std::min(SortEvery, Steps - Done) : Steps - Done;
      Opts.FuseSteps = Segment;
      exec::runStepLoop(*Backend, Ctx, Flat, Source, Types, Dt, Segment,
                        Opts);
      Done += Segment;
      if (SortEvery > 0 && Segment == SortEvery)
        sortByCell(Flat, Indexer);
    }
    double Ns = double(Watch.elapsedNanoseconds());
    std::printf("flat array, sort every %-3s  %8.2f ns/particle/step "
                "(locality %.2f)\n",
                SortEvery == 0 ? "-" : std::to_string(SortEvery).c_str(),
                Ns / double(Particles) / Steps,
                cellLocalityScore(Flat, Indexer));
  }

  CellListEnsemble<double> Cells(Grid, Origin, Step);
  RandomStream<double> CellRng(9);
  for (Index I = 0; I < Particles; ++I)
    Cells.addParticle(ThermalParticle(CellRng));
  Stopwatch Watch;
  Index TotalMigrations = 0;
  for (int S = 0; S < Steps; ++S)
    TotalMigrations += pushCellList(Cells, Source, Types, Dt, 0.0, 1.0);
  double Ns = double(Watch.elapsedNanoseconds());
  std::printf("per-cell lists + migration  %8.2f ns/particle/step "
              "(%.1f%% of particles migrate per step)\n",
              Ns / double(Particles) / Steps,
              100.0 * double(TotalMigrations) / double(Particles) / Steps);

  std::printf("\nTrade-off (paper Section 3): per-cell storage keeps "
              "locality implicitly but pays migration bookkeeping every "
              "step and complicates parallelization; the flat array pays "
              "an occasional O(N) sort instead — the scheme Hi-Chi "
              "adopts.\n");
  std::printf("\nno model column: host-only, nothing in PerfModelTest "
              "gates it\n");
}

} // namespace

int main() {
  printSection("Tables 1 and 3: GPUs");
  table1();
  table3();
  printSection("Table 2: CPUs");
  table2();
  printSection("Fig. 1: strong scaling");
  fig1();
  printSection("Section 5.3: first iteration");
  firstIteration();
  printSection("Section 4.3: scheduling ablation");
  scheduling();
  printSection("Section 3: storage ablation");
  storage();
  return 0;
}
