//===-- perfbench/src/Workloads.cpp - The three benchmark workloads ------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// paper_push, pic_uniform and pic_window (perfbench/README.md says why
/// each exists). Every workload sets up SetupRepeats times (setup_s is
/// their median; the last set-up is the one measured), runs timed blocks
/// through timeBlocks, and then checks its end state against the serial
/// backend.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Core.h"
#include "core/EnsembleInit.h"
#include "exec/BackendRegistry.h"
#include "exec/ShardedBackend.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "perfmodel/Calibration.h"
#include "perfmodel/RooflineModel.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "support/Timer.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

using namespace hichi;

namespace perfbench {
namespace {

using Array = ParticleArrayAoS<double>;
using Sim = pic::PicSimulation<double>;

/// Set-ups per run: a single set-up of ~0.15 s scatters by 10-30%
/// between runs, so setup_s is the median of several.
constexpr int SetupRepeats = 5;

/// paper_push: 2^20 electrons (paper Section 5.2) in blocks of 5 steps
/// (~150 ms at ~30 ns per particle-step), after 10 untimed warm-up steps.
constexpr Index PaperParticles = Index(1) << 20;
constexpr int PaperBlockSteps = 5;
constexpr int PaperWarmupSteps = 10;

/// Every PaperVerifyStride-th particle is replayed on the serial backend
/// through the run's whole call sequence: particles are independent, so
/// the sample's end states must match the measured ones bit for bit.
constexpr Index PaperVerifyStride = 64;

/// pic_uniform: bound on |E_end - E_start| / E_start, the total (kinetic
/// + field) energy drift of the cold plasma over the timed blocks. The
/// two energies are sampled half a step apart (leapfrog), so their sum
/// swings by about +-8% at twice the plasma frequency; over 2400 steps it
/// shows no secular growth, and two samples never differed by more than
/// 16%. A heating or unstable step exceeds the bound within a run.
constexpr double UniformEnergyDriftBound = 0.25;

/// pic_window runs every stage on this many shards. Sharded lanes pin to
/// cores in the order their first task runs; on a 4-core host 3 or 4
/// shards scattered run to run by up to 50%, 2 shards by a few percent.
constexpr int WindowShards = 2;

/// FNV-1a over position, momentum and gamma of every \p Stride-th
/// particle (hichi_push's final-state hash, over a sample).
template <typename ViewT>
std::uint64_t particleHash(const ViewT &View, Index Stride) {
  std::uint64_t Hash = 1469598103934665603ULL;
  for (Index I = 0; I < View.size(); I += Stride) {
    const auto P = View[I];
    const Vector3<double> Pos = P.position(), Mom = P.momentum();
    for (double V : {Pos.X, Pos.Y, Pos.Z, Mom.X, Mom.Y, Mom.Z, P.gamma()}) {
      unsigned char Bytes[sizeof(double)];
      std::memcpy(Bytes, &V, sizeof(double));
      for (unsigned char B : Bytes) {
        Hash ^= B;
        Hash *= 1099511628211ULL;
      }
    }
  }
  return Hash;
}

std::string format(const char *Fmt, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

std::string hex(std::uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

/// The measured end state against the serial backend's. --wrong-hash
/// flips one bit of the expectation so the check itself can be tested.
Check hashCheck(std::uint64_t Measured, std::uint64_t Serial,
                const RunArgs &Args) {
  if (Args.WrongHash)
    Serial ^= 1;
  return {"final_hash_vs_serial", Measured == Serial,
          "measured " + hex(Measured) + ", serial " + hex(Serial)};
}

/// This host's roofline: a bounded STREAM + FMA calibration at the
/// workloads' thread count, measured once, after the timed blocks.
const perfmodel::CpuMachine &hostMachine() {
  static const perfmodel::CpuMachine Machine = [] {
    perfmodel::CalibrationConfig Config = perfmodel::CalibrationConfig::fast();
    Config.Threads = benchThreads();
    return perfmodel::CpuMachine::fromProfile(
        perfmodel::Calibration::measure(Config));
  }();
  return Machine;
}

/// The share of this host's roofline ceiling a stage reaches:
/// predictStageNs per item over the measured ns per item (0 when the
/// stage recorded no time).
double rooflineFrac(const perfmodel::StageWorkload &Work, int Threads,
                    double MeasuredNsPerItem) {
  if (!(MeasuredNsPerItem > 0))
    return 0;
  return perfmodel::predictStageNs(hostMachine(), Work, Threads).NsPerItem /
         MeasuredNsPerItem;
}

/// Cumulative counters of a simulation, read through its accessors.
struct Counters {
  double PushNs = 0, DepositNs = 0, FieldNs = 0, GraphNs = 0, SubmitNs = 0;
  long long Launches = 0;

  static Counters of(const Sim &S) {
    const RunStats Submit = S.submitOverhead();
    return {S.pushStats().HostNs,  S.depositStats().HostNs,
            S.fieldStats().HostNs, S.graphStats().HostNs,
            Submit.SubmitNs,       Submit.Launches};
  }

  double stageNs() const { return PushNs + DepositNs + FieldNs; }

  Counters operator-(const Counters &O) const {
    return {PushNs - O.PushNs,     DepositNs - O.DepositNs,
            FieldNs - O.FieldNs,   GraphNs - O.GraphNs,
            SubmitNs - O.SubmitNs, Launches - O.Launches};
  }

  Counters &operator+=(const Counters &O) {
    PushNs += O.PushNs;
    DepositNs += O.DepositNs;
    FieldNs += O.FieldNs;
    GraphNs += O.GraphNs;
    SubmitNs += O.SubmitNs;
    Launches += O.Launches;
    return *this;
  }
};

/// How a PIC workload builds its simulation and checks its end state.
struct PicSpec {
  int Threads = 1; ///< parallel width: threads, or shards
  int BlockSteps = 1;
  int WarmupSteps = 0;
  /// Builds the measured simulation (Serial = false, seeded) or the
  /// serial-backend reference the verify step restores into (Serial =
  /// true, unseeded).
  std::function<std::unique_ptr<Sim>(bool Serial)> Make;
  /// Workload checks on the state right after the timed blocks; the
  /// second argument is the total energy right before them.
  std::function<void(const Sim &, double, RawResult &)> Checks;
};

/// Event counts of a simulation; the difference of two readings is what
/// happened in between.
struct EventCounts {
  long long Captures, Replays, Shifts, Retired, Injected, Fires;

  static EventCounts of(const Sim &S) {
    return {S.graphCaptureCount(),  S.graphReplayCount(),
            S.windowShiftCount(),   S.windowRetiredCount(),
            S.windowInjectedCount(), S.rebalanceStats().Fires};
  }
};

/// What the traced steps of a PIC run add up to.
struct TraceTotals {
  Counters Stages;       ///< stage counters summed over traced steps
  long long Steps = 0;   ///< traced steps
  double EpilogueNs = 0; ///< step wall minus stage (or graph) time
  /// exec::shardImbalance after each traced step: a shift or rebalance
  /// restarts the shard counters, so a single end-of-run reading can be
  /// empty.
  double ImbalanceSum = 0;
  long long ImbalanceSamples = 0;
};

void picLayers(const Sim &S, const PicSpec &Spec, const TraceTotals &T,
               const EventCounts &Start, SpanRecorder &Spans, int Root,
               RawResult &Out) {
  auto &L = Out.Layers;
  const double Steps = double(T.Steps);
  const EventCounts End = EventCounts::of(S);
  L["exec.launches_per_step"] = double(T.Stages.Launches) / Steps;
  L["exec.submit_us_per_step"] = T.Stages.SubmitNs / 1e3 / Steps;
  L["pic.push_ms"] = T.Stages.PushNs / 1e6 / Steps;
  L["pic.deposit_ms"] = T.Stages.DepositNs / 1e6 / Steps;
  L["pic.field_ms"] = T.Stages.FieldNs / 1e6 / Steps;
  L["pic.graph_ms"] = T.Stages.GraphNs / 1e6 / Steps;
  L["pic.epilogue_ms"] = T.EpilogueNs / 1e6 / Steps;
  if (S.usesStepGraph()) {
    const double Captures = double(End.Captures - Start.Captures);
    const double Replays = double(End.Replays - Start.Replays);
    L["exec.graph_captures"] = Captures;
    L["exec.graph_reuse_frac"] = Replays / (Replays + Captures);
  }
  if (T.ImbalanceSamples > 0)
    L["exec.shard_imbalance"] = T.ImbalanceSum / double(T.ImbalanceSamples);
  if (S.windowOriginPlanes() > 0) {
    L["pic.window_shifts"] = double(End.Shifts - Start.Shifts);
    L["pic.window_retired"] = double(End.Retired - Start.Retired);
    L["pic.window_injected"] = double(End.Injected - Start.Injected);
    L["fields.shift_elems_per_plane"] =
        double(S.grid().shiftTouchedElems()) / double(S.windowOriginPlanes());
  }
  if (S.rebalanceStats().Checks > 0)
    L["pic.rebalance_fires"] = double(End.Fires - Start.Fires);
  if (S.usesStepGraph())
    return; // replay leaves the stage counters at 0: no per-stage roofline
  ScopedSpan Calibrate(Spans, "perfmodel.calibrate", Root);
  const double ParticleSteps = Steps * double(S.particles().size());
  const double CellSteps = Steps * double(S.grid().size().count());
  const auto P = perfmodel::Precision::Double;
  L["perfmodel.push_roofline_frac"] =
      rooflineFrac(perfmodel::pushStageWorkload(P), Spec.Threads,
                   T.Stages.PushNs / ParticleSteps);
  L["perfmodel.deposit_roofline_frac"] =
      rooflineFrac(perfmodel::depositStageWorkload(P), Spec.Threads,
                   T.Stages.DepositNs / ParticleSteps);
  L["perfmodel.field_roofline_frac"] =
      rooflineFrac(perfmodel::fieldStageWorkload(P), Spec.Threads,
                   T.Stages.FieldNs / CellSteps);
}

void runPic(const RunArgs &Args, SpanRecorder &Spans, int Root,
            RawResult &Out, const PicSpec &Spec) {
  Out.Threads = Spec.Threads;
  Out.BlockSteps = Spec.BlockSteps;
  std::unique_ptr<Sim> S;
  for (int R = 0; R < SetupRepeats; ++R) {
    S.reset(); // one simulation alive at a time
    ScopedSpan Setup(Spans, "setup", Root);
    Stopwatch Watch;
    S = Spec.Make(/*Serial=*/false);
    {
      ScopedSpan Warmup(Spans, "warmup", Setup.id());
      S->run(Spec.WarmupSteps);
    }
    Out.SetupS.push_back(Watch.elapsedSeconds());
  }
  Out.Particles = (long long)S->particles().size();

  const double EnergyBefore = S->kineticEnergy() + S->fieldEnergy();
  const EventCounts Start = EventCounts::of(*S);
  TraceTotals Traced;
  timeBlocks(
      Args, Spans, Root, Out,
      [&](bool Trace, int BlockSpan) {
        if (!Trace) {
          S->run(Spec.BlockSteps);
          return;
        }
        for (int K = 0; K < Spec.BlockSteps; ++K) {
          const Counters Before = Counters::of(*S);
          const int Span = Spans.begin("pic.step", BlockSpan);
          Stopwatch Watch;
          S->step();
          const double Ns = double(Watch.elapsedNanoseconds());
          Spans.end(Span);
          const Counters Delta = Counters::of(*S) - Before;
          Traced.Stages += Delta;
          // The step wall minus its stage counters is the host epilogue
          // (sort, shift, retire, inject, rebalance; on the classic path
          // also the wrap and J clear). Under replay the graph wall takes
          // the place of the stage split.
          Traced.EpilogueNs +=
              Ns - (S->usesStepGraph() ? Delta.GraphNs : Delta.stageNs());
          Out.StepMs.push_back(Ns / 1e6);
          ++Traced.Steps;
          const std::vector<exec::ShardStat> Shards = S->shardStats();
          long long Items = 0;
          for (const exec::ShardStat &Shard : Shards)
            Items += Shard.Items;
          if (Items > 0) {
            Traced.ImbalanceSum += exec::shardImbalance(Shards);
            ++Traced.ImbalanceSamples;
          }
        }
      },
      [&] { return (long long)S->particles().size(); });
  Out.PeakRssMb = peakRssMb();
  Spec.Checks(*S, EnergyBefore, Out);
  if (Args.Trace)
    picLayers(*S, Spec, Traced, Start, Spans, Root, Out);

  // Verify: checkpoint the measured state, restore it into a serial
  // simulation, advance both one more block, and compare state hashes.
  ScopedSpan Verify(Spans, "verify", Root);
  const std::string Path = Args.ScratchDir + "/" + Out.RunId + ".ckpt";
  std::string Error;
  std::unique_ptr<Sim> Reference = Spec.Make(/*Serial=*/true);
  const bool Restored =
      S->saveState(Path, &Error) && Reference->restoreState(Path, &Error);
  std::remove(Path.c_str());
  if (!Restored) {
    Out.Checks.push_back({"final_hash_vs_serial", false,
                          "checkpoint round trip failed: " + Error});
    return;
  }
  Stopwatch ParallelWatch;
  S->run(Spec.BlockSteps);
  const double ParallelNs = double(ParallelWatch.elapsedNanoseconds());
  Stopwatch SerialWatch;
  Reference->run(Spec.BlockSteps);
  const double SerialNs = double(SerialWatch.elapsedNanoseconds());
  ScopedSpan Hash(Spans, "pic.picStateHash", Verify.id());
  Out.Checks.push_back(
      hashCheck(pic::picStateHash(S->particles(), S->grid()),
                pic::picStateHash(Reference->particles(), Reference->grid()),
                Args));
  if (Args.Trace)
    Out.Layers["exec.parallel_efficiency"] =
        SerialNs / (double(Spec.Threads) * ParallelNs);
}

} // namespace

void runPaperPush(const RunArgs &Args, SpanRecorder &Spans, int Root,
                  RawResult &Out) {
  const int Threads = benchThreads();
  Out.Threads = Threads;
  Out.Particles = (long long)PaperParticles;
  Out.BlockSteps = PaperBlockSteps;
  const auto Types = ParticleTypeTable<double>::cgs();
  const auto Wave = DipoleWaveSource<double>::paperBenchmark();
  const double Dt = dipole_benchmark::TimeStepFraction * 2.0 * constants::Pi /
                    dipole_benchmark::WaveFrequency;
  const double Radius =
      dipole_benchmark::SeedRadiusFactor * dipole_benchmark::Wavelength;
  const exec::ExecutionContext Ctx;
  auto seedBall = [&](Array &P) {
    initializeBallAtRest(P, PaperParticles, Vector3<double>::zero(), Radius,
                         short(PS_Electron), Args.Seed);
  };
  // One runStepLoop call over steps [First, First + Steps). The serial
  // reference replays the same calls, so every kernel sees the same
  // start times bit for bit.
  auto push = [&](exec::ExecutionBackend &Backend, Array &P, int First,
                  int Steps) {
    exec::StepLoopOptions<double> Opts;
    Opts.StartTime = double(First) * Dt;
    Opts.Fusion = exec::FusionMode::MegaKernel;
    return exec::runStepLoop(Backend, Ctx, P, Wave, Types, Dt, Steps, Opts);
  };
  std::unique_ptr<exec::ExecutionBackend> Backend =
      exec::createBackend("openmp", {Threads, 0});

  std::unique_ptr<Array> Particles;
  for (int R = 0; R < SetupRepeats; ++R) {
    Particles.reset(); // one ensemble alive at a time
    ScopedSpan Setup(Spans, "setup", Root);
    Stopwatch Watch;
    Particles = std::make_unique<Array>(PaperParticles);
    seedBall(*Particles);
    {
      ScopedSpan Warmup(Spans, "warmup", Setup.id());
      push(*Backend, *Particles, 0, PaperWarmupSteps);
    }
    Out.SetupS.push_back(Watch.elapsedSeconds());
  }

  std::vector<std::pair<int, int>> Calls{{0, PaperWarmupSteps}};
  Calls.reserve(4096);
  int NextStep = PaperWarmupSteps;
  RunStats Traced;
  long long TracedSteps = 0;
  timeBlocks(
      Args, Spans, Root, Out,
      [&](bool Trace, int BlockSpan) {
        const int Span =
            Trace ? Spans.begin("exec.runStepLoop", BlockSpan) : -1;
        const RunStats Stats =
            push(*Backend, *Particles, NextStep, PaperBlockSteps);
        Spans.end(Span);
        Calls.emplace_back(NextStep, PaperBlockSteps);
        NextStep += PaperBlockSteps;
        if (Trace) {
          Traced.Launches += Stats.Launches;
          Traced.SubmitNs += Stats.SubmitNs;
          TracedSteps += PaperBlockSteps;
        }
      },
      [] { return (long long)PaperParticles; });
  Out.PeakRssMb = peakRssMb();

  ScopedSpan Verify(Spans, "verify", Root);
  Array Sample((PaperParticles + PaperVerifyStride - 1) / PaperVerifyStride);
  {
    Array Fresh(PaperParticles);
    seedBall(Fresh);
    const auto View = Fresh.view();
    for (Index I = 0; I < PaperParticles; I += PaperVerifyStride)
      Sample.pushBack(View[I].load());
  }
  std::unique_ptr<exec::ExecutionBackend> Serial =
      exec::createBackend("serial", {1, 0});
  Stopwatch SerialWatch;
  for (const auto &[First, Steps] : Calls)
    push(*Serial, Sample, First, Steps);
  const double SerialNsps = double(SerialWatch.elapsedNanoseconds()) /
                            (double(Sample.size()) * double(NextStep));
  Out.Checks.push_back(
      hashCheck(particleHash(Particles->view(), PaperVerifyStride),
                particleHash(Sample.view(), 1), Args));
  if (!Args.Trace)
    return;

  auto &L = Out.Layers;
  const double Nsps = median(Out.TracedBlockNsps);
  L["exec.launches_per_step"] = double(Traced.Launches) / double(TracedSteps);
  L["exec.submit_us_per_step"] = Traced.SubmitNs / 1e3 / double(TracedSteps);
  L["exec.parallel_efficiency"] = SerialNsps / (double(Threads) * Nsps);
  // The Section 5.2 analytical-field push: dipole evaluation + Boris.
  const auto S = perfmodel::Scenario::AnalyticalFields;
  const auto Layout = perfmodel::Layout::AoS;
  const auto P = perfmodel::Precision::Double;
  perfmodel::StageWorkload Push;
  Push.Stage = "push";
  Push.BytesPerItem =
      perfmodel::trafficPerParticleStep(S, Layout, P).totalWithRfo();
  Push.FlopsPerItem = perfmodel::flopsPerParticleStep(S, P);
  Push.VectorEfficiency = perfmodel::vectorEfficiency(S, Layout, P);
  ScopedSpan Calibrate(Spans, "perfmodel.calibrate", Root);
  L["perfmodel.push_roofline_frac"] = rooflineFrac(Push, Threads, Nsps);
}

void runPicUniform(const RunArgs &Args, SpanRecorder &Spans, int Root,
                   RawResult &Out) {
  // pic_langmuir's cold plasma (omega_p = 1, natural units) scaled up;
  // the seed sets the phase of the velocity perturbation.
  const GridSize N{64, 16, 16};
  const Vector3<double> Step(0.5, 0.5, 0.5);
  const int PerCell = 8;
  const Index NumParticles = N.count() * PerCell;
  const double BoxLength = double(N.Nx) * Step.X;
  const double Volume = BoxLength * double(N.Ny) * Step.Y * double(N.Nz) * Step.Z;
  const double Weight = Volume / (4.0 * constants::Pi * double(NumParticles));
  const double V0 = 0.02;
  const double K = 2.0 * constants::Pi / BoxLength;
  const double Phase = 2.0 * constants::Pi * unitFromSeed(Args.Seed, 1);
  const int Threads = benchThreads();

  PicSpec Spec;
  Spec.Threads = Threads;
  Spec.BlockSteps = 4;
  Spec.WarmupSteps = 16;
  Spec.Make = [=](bool Serial) {
    pic::PicOptions<double> O;
    O.LightVelocity = 1.0;
    O.SortEveryNSteps = 20;
    const char *Backend = Serial ? "serial" : "openmp";
    const int Width = Serial ? 1 : Threads;
    O.PushBackend = O.DepositBackend = O.FieldBackend = Backend;
    O.PushThreads = O.DepositThreads = O.FieldThreads = Width;
    auto S = std::make_unique<Sim>(N, Vector3<double>(0, 0, 0), Step,
                                   NumParticles,
                                   ParticleTypeTable<double>::natural(), O);
    if (Serial)
      return S;
    for (Index C = 0; C < N.count(); ++C) {
      const Index I = C / (N.Ny * N.Nz), J = (C / N.Nz) % N.Ny, L = C % N.Nz;
      for (int P = 0; P < PerCell; ++P) {
        ParticleT<double> Part;
        Part.Position = {(double(I) + (P + 0.5) / PerCell) * Step.X,
                         (double(J) + 0.5) * Step.Y,
                         (double(L) + 0.5) * Step.Z};
        const double Vx = V0 * std::sin(K * Part.Position.X + Phase);
        Part.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
        Part.Weight = Weight;
        Part.Type = PS_Electron;
        S->addParticle(Part);
      }
    }
    return S;
  };
  Spec.Checks = [](const Sim &S, double EnergyBefore, RawResult &Out) {
    const double Drift =
        std::abs(S.kineticEnergy() + S.fieldEnergy() - EnergyBefore) /
        EnergyBefore;
    Out.Checks.push_back({"energy_drift", Drift <= UniformEnergyDriftBound,
                          "relative drift " + format("%.3g", Drift) +
                              " (bound " +
                              format("%.3g", UniformEnergyDriftBound) + ")"});
  };
  runPic(Args, Spans, Root, Out, Spec);
}

void runPicWindow(const RunArgs &Args, SpanRecorder &Spans, int Root,
                  RawResult &Out) {
  // The pulse-tracking pair plasma on 64x16x16 cells x 2 pairs (65536
  // particles): at 7 steps per block, 100 blocks then fit in ~20 s. The
  // seed jitters each co-located pair transversely inside its cell (both
  // members together, so their currents still cancel bitwise until the
  // pulse separates them). x stays on the injection lattice: a pair
  // pushed across a plane boundary would be retired one shift late.
  pic::ScenarioSetup<double> Scenario =
      pic::makeMovingWindowScenario<double>(GridSize{64, 16, 16}, 2);
  const Vector3<double> D = Scenario.Step;
  for (std::size_t I = 0; I + 1 < Scenario.Particles.size(); I += 2) {
    const Vector3<double> Jitter{
        0.0, (unitFromSeed(Args.Seed, 2 * I) - 0.5) * 0.8 * D.Y,
        (unitFromSeed(Args.Seed, 2 * I + 1) - 0.5) * 0.8 * D.Z};
    Scenario.Particles[I].Position += Jitter;
    Scenario.Particles[I + 1].Position += Jitter;
  }
  const Index Capacity =
      Index(Scenario.Particles.size()) + Scenario.ExtraCapacity;

  PicSpec Spec;
  Spec.Threads = WindowShards;
  Spec.BlockSteps = 7; // two shifts (and two recaptures) per block
  Spec.WarmupSteps = 14;
  Spec.Make = [&Scenario, Capacity](bool Serial) {
    pic::PicOptions<double> O;
    O.LightVelocity = 1.0;
    O.SortEveryNSteps = 20;
    O.MovingWindow = Scenario.MovingWindow;
    O.RebalanceThreshold = 1.5;
    O.RebalanceEveryNSteps = 10;
    O.UseStepGraph = !Serial;
    const char *Backend = Serial ? "serial" : "sharded";
    const int Width = Serial ? 1 : WindowShards;
    O.PushBackend = O.DepositBackend = O.FieldBackend = Backend;
    O.PushThreads = O.DepositThreads = O.FieldThreads = Width;
    auto S = std::make_unique<Sim>(Scenario.Grid, Scenario.Origin,
                                   Scenario.Step, Capacity, Scenario.Types, O);
    if (!Serial)
      pic::seedScenario(*S, Scenario);
    return S;
  };
  Spec.Checks = [](const Sim &S, double, RawResult &Out) {
    const long long Retired = S.windowRetiredCount();
    const long long Injected = S.windowInjectedCount();
    Out.Checks.push_back(
        {"window_retired_eq_injected", Injected > 0 && Retired == Injected,
         std::to_string(Retired) + " retired, " + std::to_string(Injected) +
             " injected"});
    const GridSize Sz = S.grid().size();
    const long long Planes = (long long)S.windowOriginPlanes();
    const long long Touched = (long long)S.grid().shiftTouchedElems();
    const long long Expected = 9LL * Sz.Ny * Sz.Nz * Planes;
    Out.Checks.push_back(
        {"window_shift_elems_per_plane", Planes > 0 && Touched == Expected,
         std::to_string(Touched) + " elements touched over " +
             std::to_string(Planes) + " shifted planes (expected " +
             std::to_string(Expected) + ")"});
  };
  runPic(Args, Spans, Root, Out, Spec);
}

} // namespace perfbench
