//===-- tools/hichi_push.cpp - The pusher benchmark as a CLI -------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the paper's benchmark: pick scenario, layout,
/// execution backend, precision, pusher, device and sizes; get NSPS. This
/// is the "run one cell of Table 2/3 yourself" tool:
///
/// \code
///   hichi_push --scenario analytical --layout soa --runner dpcpp-numa
///       --precision float --particles 1000000 --steps 100
///   hichi_push --device xemax --layout aos     # Table 3 flavour
///   hichi_push --list-runners                  # what can --runner be?
///   hichi_push --runner dpcpp --fuse 8
/// \endcode
///
/// Backends are resolved by name from the exec registry, so newly
/// registered strategies appear in --runner / --list-runners without
/// touching this file. The printed state hash is identical across
/// backends and fuse factors for a given configuration (the Section 4
/// equivalence claim) — compare two runs with `--runner` swapped.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "core/RadiationReaction.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "fields/PrecalculatedFields.h"
#include "perfmodel/WorkloadModel.h"
#include "support/ArgParse.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

using namespace hichi;

namespace {

struct Config {
  bool Analytical = false;
  bool SoA = false;
  bool SinglePrecision = true;
  std::string Runner = "dpcpp";
  std::string Device = "cpu";
  std::string Pusher = "boris";
  Index Particles = 1'000'000;
  int Steps = 50;
  int Iterations = 3;
  int FuseSteps = 1;
  int Threads = 0;
  Index Grain = 0;
  bool Chain = false; ///< event-chained submission instead of mega-kernels
  bool Graph = false; ///< capture the first step, replay the rest
};

/// FNV-1a over the final particle states (positions, momenta, gamma), so
/// two runs can be compared for bitwise equality from the console.
template <typename Array> std::uint64_t stateHash(Array &Particles) {
  using Real = typename Array::Scalar;
  std::uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&Hash](Real V) {
    unsigned char Bytes[sizeof(Real)];
    std::memcpy(Bytes, &V, sizeof(Real));
    for (unsigned char B : Bytes) {
      Hash ^= B;
      Hash *= 1099511628211ULL;
    }
  };
  for (Index I = 0, E = Particles.view().size(); I < E; ++I) {
    auto P = Particles[I].load();
    for (Real V : {P.Position.X, P.Position.Y, P.Position.Z, P.Momentum.X,
                   P.Momentum.Y, P.Momentum.Z, P.Gamma})
      Mix(V);
  }
  return Hash;
}

template <typename Real, typename Array, typename Pusher>
int runBenchmark(const Config &Cfg) {
  Array Particles(Cfg.Particles);
  const Real Radius = Real(dipole_benchmark::SeedRadiusFactor *
                           dipole_benchmark::Wavelength);
  initializeBallAtRest(Particles, Cfg.Particles, Vector3<Real>::zero(),
                       Radius, PS_Electron);
  auto Types = ParticleTypeTable<Real>::cgs();
  auto Wave = DipoleWaveSource<Real>::paperBenchmark();
  const Real Dt = Real(dipole_benchmark::TimeStepFraction * 2.0 *
                       constants::Pi / dipole_benchmark::WaveFrequency);

  minisycl::device Dev = Cfg.Device == "p630"
                             ? minisycl::gpu_device_p630()
                         : Cfg.Device == "xemax"
                             ? minisycl::gpu_device_iris_xe_max()
                             : minisycl::cpu_device();
  minisycl::queue Queue{Dev};

  exec::BackendConfig BackendCfg;
  BackendCfg.Threads = Cfg.Threads;
  BackendCfg.Grain = Cfg.Grain;
  auto Backend = exec::createBackend(Cfg.Runner, BackendCfg);
  if (!Backend) {
    std::fprintf(stderr, "error: unknown runner '%s' (known: %s)\n",
                 Cfg.Runner.c_str(), exec::listBackendNames(", ").c_str());
    return 1;
  }
  auto Profile = perfmodel::gpuKernelProfile(
      Cfg.Analytical ? perfmodel::Scenario::AnalyticalFields
                     : perfmodel::Scenario::PrecalculatedFields,
      Cfg.SoA ? perfmodel::Layout::SoA : perfmodel::Layout::AoS,
      Cfg.SinglePrecision ? perfmodel::Precision::Single
                          : perfmodel::Precision::Double);
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  if (Dev.is_gpu())
    Ctx.GpuWorkload = &Profile;

  PrecalculatedFields<Real> Stored(Cfg.Particles);
  if (!Cfg.Analytical)
    Stored.precompute(Particles, Wave, Real(0));

  exec::StepLoopOptions<Real> Opts;
  Opts.FuseSteps = Cfg.FuseSteps;
  if (Cfg.Graph)
    Opts.Fusion = exec::FusionMode::Graph;
  else if (Cfg.Chain)
    Opts.Fusion = exec::FusionMode::EventChain;
  auto RunOnce = [&]() -> RunStats {
    if (Cfg.Analytical)
      return exec::runStepLoop<Pusher>(*Backend, Ctx, Particles, Wave, Types,
                                       Dt, Cfg.Steps, Opts);
    return exec::runStepLoop<Pusher>(*Backend, Ctx, Particles,
                                     Stored.source(), Types, Dt, Cfg.Steps,
                                     Opts);
  };

  RunOnce(); // warmup (JIT + first touch)
  double TotalNs = 0;
  for (int It = 0; It < Cfg.Iterations; ++It) {
    // CPU rows time the whole call: RunStats::HostNs sums kernel time
    // over lanes on multi-lane asynchronous backends, not elapsed time.
    Stopwatch Watch;
    RunStats Stats = RunOnce();
    double IterNs =
        Dev.is_gpu() ? Stats.ModeledNs : double(Watch.elapsedNanoseconds());
    TotalNs += IterNs;
    std::printf("iteration %d: %.2f ms\n", It, IterNs / 1e6);
  }
  const double Nsps = nsPerParticlePerStep(
      TotalNs, Cfg.Iterations, double(Cfg.Particles), double(Cfg.Steps));
  std::printf("\nNSPS = %.3f ns/particle/step on '%s'%s\n", Nsps,
              Dev.name().c_str(),
              Dev.is_gpu() ? " (device-modeled)" : " (measured)");
  std::printf("final state hash = %016llx (backend-independent)\n",
              (unsigned long long)stateHash(Particles));

  return 0;
}

template <typename Real, typename Array> int dispatchPusher(const Config &C) {
  if (C.Pusher == "vay")
    return runBenchmark<Real, Array, VayPusher>(C);
  if (C.Pusher == "higuera-cary")
    return runBenchmark<Real, Array, HigueraCaryPusher>(C);
  if (C.Pusher == "boris-rr")
    return runBenchmark<Real, Array, RadiationReactionPusher<BorisPusher>>(C);
  return runBenchmark<Real, Array, BorisPusher>(C);
}

template <typename Real> int dispatchLayout(const Config &C) {
  if (C.SoA)
    return dispatchPusher<Real, ParticleArraySoA<Real>>(C);
  return dispatchPusher<Real, ParticleArrayAoS<Real>>(C);
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("hichi_push: run one configuration of the paper's Boris "
                 "pusher benchmark and report NSPS");
  Args.addOption("scenario", "precalculated | analytical", "precalculated");
  Args.addOption("layout", "aos | soa", "aos");
  Args.addOption("runner",
                 "execution backend (see --list-runners)", "dpcpp");
  Args.addOption("precision", "float | double", "float");
  Args.addOption("pusher", "boris | vay | higuera-cary | boris-rr", "boris");
  Args.addOption("device", "cpu | p630 | xemax", "cpu");
  Args.addOption("particles", "ensemble size", "1000000");
  Args.addOption("steps", "steps per iteration", "50");
  Args.addOption("iterations", "measured iterations", "3");
  Args.addOption("fuse", "time steps per kernel (multi-step fusion)", "1");
  Args.addOption("threads", "worker threads (0 = all)", "0");
  Args.addOption("grain", "dynamic chunk size (0 = auto)", "0");
  Args.addFlag("chain", "submit steps as an event chain (non-blocking "
                        "submit + one wait) instead of fused mega-kernels");
  Args.addFlag("graph", "capture the first step's launch as a step graph "
                        "and replay it for the remaining steps");
  Args.addFlag("list-runners", "list registered execution backends and exit");

  if (!Args.parse(Argc, Argv)) {
    std::fprintf(stderr, "error: %s\n", Args.error().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    Args.printHelp(Argv[0]);
    return 0;
  }
  if (Args.getFlag("list-runners")) {
    auto &Registry = exec::BackendRegistry::instance();
    std::printf("registered execution backends:\n");
    for (const std::string &Name : Registry.names())
      std::printf("  %-12s %s\n", Name.c_str(),
                  Registry.description(Name).c_str());
    return 0;
  }

  Config Cfg;
  Cfg.Analytical = Args.getString("scenario") == "analytical";
  Cfg.SoA = Args.getString("layout") == "soa";
  Cfg.SinglePrecision = Args.getString("precision") != "double";
  Cfg.Pusher = Args.getString("pusher");
  Cfg.Device = Args.getString("device");
  Cfg.Runner = Args.getString("runner");
  Cfg.Particles = Index(Args.getInt("particles").value_or(1'000'000));
  Cfg.Steps = std::max(1, int(Args.getInt("steps").value_or(50)));
  Cfg.Iterations = std::max(1, int(Args.getInt("iterations").value_or(3)));
  Cfg.FuseSteps = int(Args.getInt("fuse").value_or(1));
  Cfg.Threads = int(Args.getInt("threads").value_or(0));
  Cfg.Grain = Index(Args.getInt("grain").value_or(0));
  Cfg.Chain = Args.getFlag("chain");
  Cfg.Graph = Args.getFlag("graph");

  std::printf("scenario=%s layout=%s runner=%s precision=%s pusher=%s "
              "device=%s N=%lld steps=%d fuse=%d submit=%s\n\n",
              Args.getString("scenario").c_str(),
              Args.getString("layout").c_str(), Cfg.Runner.c_str(),
              Args.getString("precision").c_str(), Cfg.Pusher.c_str(),
              Cfg.Device.c_str(), (long long)Cfg.Particles, Cfg.Steps,
              Cfg.FuseSteps,
              Cfg.Graph ? "graph" : Cfg.Chain ? "event-chain" : "auto");

  if (Cfg.SinglePrecision)
    return dispatchLayout<float>(Cfg);
  return dispatchLayout<double>(Cfg);
}
