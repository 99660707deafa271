//===-- examples/pic_langmuir.cpp - Full PIC: plasma oscillation ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full self-consistent PIC loop (paper Section 2): FDTD Maxwell
/// solver + Boris pusher + Esirkepov current deposition, demonstrated on
/// the textbook cold Langmuir oscillation. A uniform electron plasma gets
/// a sinusoidal velocity perturbation; the space-charge field oscillates
/// at the plasma frequency omega_p = sqrt(4 pi n e^2 / m). The example
/// prints the field-energy trace and the measured vs analytic frequency.
///
/// All three backend-parallel PIC stages are configurable from the
/// command line, and the final state hash is backend-independent — swap
/// --push-backend / --deposit-backend / --field-backend (or any tile
/// knob) and the hash must not move (the `cli_*` hash rows in
/// CMakeLists.txt pin exactly that):
///
/// \code
///   pic_langmuir --push-backend dpcpp --deposit-backend openmp
///   pic_langmuir --deposit-backend dpcpp-numa --deposit-tiles 8 --steps 50
///   pic_langmuir --field-backend openmp --field-tiles 5 --solver spectral
///   pic_langmuir --list-runners
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "exec/Autotuner.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "support/ArgParse.h"

#include <cstdio>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

int main(int Argc, char **Argv) {
  ArgParser Args("pic_langmuir: cold Langmuir oscillation through the full "
                 "PIC loop, with both parallel stages on configurable "
                 "execution backends");
  Args.addOption("push-backend", "exec backend of the interpolate+push stage",
                 "openmp");
  Args.addOption("deposit-backend",
                 "exec backend of the current-deposition stage", "openmp");
  Args.addOption("threads", "push worker threads (0 = all)", "0");
  Args.addOption("deposit-threads", "deposit worker threads (0 = all)", "0");
  Args.addOption("deposit-tiles",
                 "current tiles (x-slabs) for the deposit stage (0 = auto)",
                 "0");
  Args.addOption("field-backend",
                 "exec backend of the Maxwell field-solve stage", "openmp");
  Args.addOption("field-threads", "field-solve worker threads (0 = all)",
                 "0");
  Args.addOption("field-tiles",
                 "field-solve tiles: x-slabs for FDTD, k-space chunks for "
                 "spectral (0 = auto)",
                 "0");
  Args.addOption("solver", "Maxwell solver: fdtd or spectral", "fdtd");
  Args.addOption("shards",
                 "partition the run into this many persistent shards: every "
                 "stage whose backend flag was not given explicitly runs on "
                 "the sharded backend with this shard count (0 = off; "
                 "explicit --*-backend flags win)",
                 "0");
  Args.addOption("steps", "time steps to run (0 = two plasma periods)", "0");
  Args.addOption("rebalance",
                 "occupancy-skew threshold of the between-steps rebalancer "
                 "(pic/Rebalancer.h; 0 = off). The uniform Langmuir ensemble "
                 "never trips a threshold > 1, so enabling this here "
                 "demonstrates the no-op bit-equivalence guarantee",
                 "0");
  Args.addOption("rebalance-every", "steps between rebalance skew checks",
                 "10");
  Args.addFlag("moving-window",
               "slide the simulation window along +x (pic/YeeGrid.h ring "
               "window): retire particles at the trailing edge, inject the "
               "same uniform plasma at the leading edge. FDTD only");
  Args.addOption("window-speed",
                 "moving-window speed in units of c (with --moving-window)",
                 "1");
  Args.addOption("checkpoint-every",
                 "save a full-state checkpoint (particles + fields + step "
                 "index; core/Checkpoint.h) every N steps (0 = off)",
                 "0");
  Args.addOption("checkpoint-file", "checkpoint file path",
                 "langmuir.ckpt");
  Args.addOption("restore",
                 "restore from this checkpoint file before stepping: the "
                 "run continues from the saved step index and must land on "
                 "the same final state hash as an uninterrupted run",
                 "");
  Args.addFlag("graph", "capture the step's launch DAG (stage 1, the J "
                        "clear, the deposit chain and the field chain) on "
                        "the first step and replay it on every later one "
                        "(bit-identical; see exec/StepGraph.h)");
  Args.addFlag("tune",
               "pick backend/thread/tile knobs from the host's measured "
               "machine profile (exec/Autotuner.h) for every stage whose "
               "flag was not given explicitly; prints the chosen knobs. "
               "Tuned knobs are hash-invariant");
  Args.addOption("tune-trials",
                 "measured hill-climb trials refining the roofline seed "
                 "(short scratch runs; 0 = roofline seed only)",
                 "0");
  Args.addFlag("stats", "print per-step submit-overhead counters (launches, "
                        "microseconds inside submit) per stage");
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

  // Natural units (c = m = |e| = 1): the sinusoidally perturbed cold
  // ensemble (pic/Scenarios.h) with the weight that makes omega_p = 1,
  // seeded into the real run and into the autotuner's trial runs below.
  // Its grid, step and species table are the simulation's.
  const int PerCell = 4;
  const ScenarioSetup<double> Langmuir =
      makeLangmuirScenario<double>({32, 4, 4}, PerCell, 0.0);
  const GridSize N = Langmuir.Grid;
  const Index NumParticles = Index(Langmuir.Particles.size());

  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 100;
  // Route both parallel PIC stages through registered execution
  // backends — the same layer the standalone pusher benchmarks use.
  Options.PushBackend = Args.getString("push-backend");
  Options.PushThreads = int(Args.getInt("threads").value_or(0));
  Options.DepositBackend = Args.getString("deposit-backend");
  Options.DepositThreads = int(Args.getInt("deposit-threads").value_or(0));
  Options.DepositTiles = int(Args.getInt("deposit-tiles").value_or(0));
  Options.FieldBackend = Args.getString("field-backend");
  Options.FieldThreads = int(Args.getInt("field-threads").value_or(0));
  Options.FieldTiles = int(Args.getInt("field-tiles").value_or(0));
  // --shards routes every stage not explicitly configured onto the
  // sharded backend, then sets the shard count of every stage that ends
  // up sharded — including one the user spelled out redundantly with
  // --push-backend sharded. Explicit flags always win (CLI flag > env >
  // default): a stage's explicit backend choice is never overridden,
  // and an explicit thread-count flag beats the shard count.
  const int Shards = int(Args.getInt("shards").value_or(0));
  if (Shards > 0) {
    if (!Args.seen("push-backend"))
      Options.PushBackend = "sharded";
    if (!Args.seen("deposit-backend"))
      Options.DepositBackend = "sharded";
    if (!Args.seen("field-backend"))
      Options.FieldBackend = "sharded";
    if (Options.PushBackend == "sharded" && !Args.seen("threads"))
      Options.PushThreads = Shards;
    if (Options.DepositBackend == "sharded" && !Args.seen("deposit-threads"))
      Options.DepositThreads = Shards;
    if (Options.FieldBackend == "sharded" && !Args.seen("field-threads"))
      Options.FieldThreads = Shards;
  }
  Options.UseStepGraph = Args.getFlag("graph");
  Options.RebalanceThreshold = Args.getDouble("rebalance").value_or(0.0);
  Options.RebalanceEveryNSteps =
      int(Args.getInt("rebalance-every").value_or(10));
  if (Args.getFlag("moving-window")) {
    Options.MovingWindow.Enabled = true;
    Options.MovingWindow.Speed = Args.getDouble("window-speed").value_or(1.0);
    Options.MovingWindow.InjectPerCell = PerCell;
    Options.MovingWindow.InjectType = short(PS_Electron);
    Options.MovingWindow.InjectWeight = Langmuir.Particles.front().Weight;
  }
  const std::string SolverName = Args.getString("solver");
  if (SolverName == "spectral") {
    Options.Solver = FieldSolverKind::Spectral;
  } else if (SolverName != "fdtd") {
    std::fprintf(stderr, "error: unknown solver '%s' (fdtd or spectral)\n",
                 SolverName.c_str());
    return 1;
  }
  // --tune fills every knob whose flag was not given explicitly from the
  // autotuner plan (same precedence rule as --shards: explicit flags
  // win), optionally refined by short measured trial runs. Every tuned
  // knob is hash-invariant, so the final hash below must still equal the
  // serial reference — a --tune row sits among the CLI hash rows in
  // CMakeLists.txt.
  if (Args.getFlag("tune")) {
    auto applyPlan = [&](PicOptions<double> &O, const exec::TunePlan &Plan) {
      if (!Args.seen("push-backend"))
        O.PushBackend = Plan.Push.Backend;
      if (!Args.seen("threads"))
        O.PushThreads = Plan.Push.Threads;
      if (!Args.seen("deposit-backend"))
        O.DepositBackend = Plan.Deposit.Backend;
      if (!Args.seen("deposit-threads"))
        O.DepositThreads = Plan.Deposit.Threads;
      if (!Args.seen("deposit-tiles"))
        O.DepositTiles = Plan.Deposit.Tiles;
      if (!Args.seen("field-backend"))
        O.FieldBackend = Plan.Field.Backend;
      if (!Args.seen("field-threads"))
        O.FieldThreads = Plan.Field.Threads;
      if (!Args.seen("field-tiles"))
        O.FieldTiles = Plan.Field.Tiles;
      if (!Args.getFlag("graph"))
        O.UseStepGraph = Plan.UseStepGraph;
    };
    exec::TunePlan Plan = exec::Autotuner::hostPlan();
    const int Trials = int(Args.getInt("tune-trials").value_or(0));
    if (Trials > 0) {
      const int TrialSteps = 4;
      int Used = 0;
      Plan = exec::Autotuner::refine(
          Plan,
          [&](const exec::TunePlan &Candidate) {
            PicOptions<double> TrialOptions = Options;
            applyPlan(TrialOptions, Candidate);
            PicSimulation<double> Trial(N, Langmuir.Origin, Langmuir.Step,
                                        NumParticles, Langmuir.Types,
                                        TrialOptions);
            seedScenario(Trial, Langmuir);
            for (int S = 0; S < TrialSteps; ++S)
              Trial.step();
            // The whole step wall, so a graph-mode candidate (whose
            // stage walls stay zero) is charged for its steps too.
            return Trial.stepWallNs();
          },
          Trials, &Used);
      std::printf("autotuner: %d measured trial run(s) refined the roofline "
                  "seed\n",
                  Used);
    }
    applyPlan(Options, Plan);
    std::printf("%s\n", Plan.report().c_str());
  }
  if (!exec::BackendRegistry::instance().contains(Options.PushBackend) ||
      !exec::BackendRegistry::instance().contains(Options.DepositBackend) ||
      !exec::BackendRegistry::instance().contains(Options.FieldBackend)) {
    std::fprintf(stderr, "error: unknown backend (known: %s)\n",
                 exec::listBackendNames(", ").c_str());
    return 1;
  }
  // Injection lands after retirement within a shift, so the live count
  // stays at NumParticles; a few planes of slack covers the transient.
  const Index Capacity =
      Options.MovingWindow.Enabled
          ? NumParticles + Index(4) * N.Ny * N.Nz * Index(PerCell)
          : NumParticles;
  PicSimulation<double> Sim(N, Langmuir.Origin, Langmuir.Step, Capacity,
                            Langmuir.Types, Options);
  seedScenario(Sim, Langmuir);

  std::printf("Cold Langmuir oscillation: %lld macro-electrons on a "
              "%lldx%lldx%lld grid, omega_p = 1\n\n",
              (long long)NumParticles, (long long)N.Nx, (long long)N.Ny,
              (long long)N.Nz);

  // Run two plasma periods (or the requested step count); record the
  // field-energy trace and locate its maxima (the E energy peaks twice
  // per plasma period).
  const double Dt = Sim.timeStep();
  const int AutoSteps = int(2.0 * 2.0 * constants::Pi / Dt);
  const int TotalSteps = int(Args.getInt("steps").value_or(0)) > 0
                             ? int(*Args.getInt("steps"))
                             : AutoSteps;
  // --restore replaces the seeded initial state with a checkpoint and
  // continues from its saved step index — so N steps + save + restore +
  // N steps prints the same final hash as 2N uninterrupted steps
  // (a ctest fixture pair in CMakeLists.txt gates on exactly that).
  const std::string RestoreFile = Args.getString("restore");
  const std::string CheckpointFile = Args.getString("checkpoint-file");
  const int CheckpointEvery =
      int(Args.getInt("checkpoint-every").value_or(0));
  std::string CheckpointError;
  if (!RestoreFile.empty()) {
    if (!Sim.restoreState(RestoreFile, &CheckpointError)) {
      std::fprintf(stderr, "error: cannot restore %s: %s\n",
                   RestoreFile.c_str(), CheckpointError.c_str());
      return 1;
    }
    std::printf("restored %s: continuing from step %d (t = %.2f)\n",
                RestoreFile.c_str(), Sim.stepCount(), Sim.time());
  }
  std::vector<double> Energy(std::size_t(Sim.stepCount()), 0.0);
  for (int S = Sim.stepCount(); S < TotalSteps; ++S) {
    Sim.step();
    Energy.push_back(Sim.fieldEnergy());
    if (CheckpointEvery > 0 && (S + 1) % CheckpointEvery == 0 &&
        S + 1 < TotalSteps) {
      if (!Sim.saveState(CheckpointFile, &CheckpointError)) {
        std::fprintf(stderr, "error: cannot checkpoint to %s: %s\n",
                     CheckpointFile.c_str(), CheckpointError.c_str());
        return 1;
      }
      std::printf("checkpointed step %d -> %s\n", S + 1,
                  CheckpointFile.c_str());
    }
  }

  std::printf("%-10s %-14s\n", "t", "field energy");
  for (int S = 9; S < TotalSteps; S += 20)
    if (Energy[std::size_t(S)] > 0)
      std::printf("%-10.2f %-14.4e\n", (S + 1) * Dt, Energy[std::size_t(S)]);

  // Peak-to-peak spacing of the energy trace = half the plasma period.
  std::vector<double> PeakTimes;
  for (int S = 1; S + 1 < TotalSteps; ++S)
    if (Energy[size_t(S)] > Energy[size_t(S - 1)] &&
        Energy[size_t(S)] >= Energy[size_t(S + 1)] &&
        Energy[size_t(S)] > 0.2 * *std::max_element(Energy.begin(),
                                                    Energy.end()))
      PeakTimes.push_back((S + 1) * Dt);
  if (PeakTimes.size() >= 2) {
    double MeanSpacing =
        (PeakTimes.back() - PeakTimes.front()) / double(PeakTimes.size() - 1);
    double MeasuredOmega = constants::Pi / MeanSpacing;
    std::printf("\nmeasured omega_p = %.3f (analytic: 1.000, error %.1f%%)\n",
                MeasuredOmega, 100.0 * std::abs(MeasuredOmega - 1.0));
  } else {
    std::printf("\n(not enough energy peaks found to fit omega_p)\n");
  }
  std::printf("energy exchange: kinetic %.3e <-> field %.3e (erg-equivalents)\n",
              Sim.kineticEnergy(), Sim.fieldEnergy());
  // Classic steps time each stage's wall. A replayed graph step has no
  // stage boundaries, so graph mode prints each stage's launch-ledger
  // kernel time instead (summed over lanes on a sharded backend).
  const bool Graphed = Sim.usesStepGraph();
  auto PrintStageTime = [&](const exec::ExecutionBackend &Exec,
                            const RunStats &Wall, const RunStats &Ledger) {
    if (!Graphed)
      std::printf("%.2f ms total\n", Wall.HostNs / 1e6);
    else if (Exec.shardCount() > 0)
      std::printf("%.2f ms kernel time (summed over %d lanes)\n",
                  Ledger.HostNs / 1e6, Exec.shardCount());
    else
      std::printf("%.2f ms kernel time\n", Ledger.HostNs / 1e6);
  };
  std::printf("push stage ran on '%s': ", Sim.pushBackend().name());
  PrintStageTime(Sim.pushBackend(), Sim.pushStats(), Sim.pushLaunchStats());
  const std::vector<exec::ShardStat> ShardStats = Sim.shardStats();
  if (!ShardStats.empty()) {
    std::printf("  sharded execution: %zu shards, item imbalance %.2fx "
                "(max over mean)\n",
                ShardStats.size(), exec::shardImbalance(ShardStats));
    for (std::size_t S = 0; S < ShardStats.size(); ++S)
      std::printf("    shard %zu: %lld launches, %lld items, %.2f ms busy "
                  "(occupancy %.0f%%)\n",
                  S, ShardStats[S].Launches, ShardStats[S].Items,
                  ShardStats[S].BusyNs / 1e6,
                  100.0 * exec::shardOccupancy(ShardStats, S));
  }
  std::printf("deposit stage ran on '%s' (%d tiles): ",
              Sim.depositBackend().name(), Sim.depositTileCount());
  PrintStageTime(Sim.depositBackend(), Sim.depositStats(),
                 Sim.depositLaunchStats());
  std::printf("field solve (%s) ran on '%s' (%d tiles): ", SolverName.c_str(),
              Sim.fieldBackend().name(), Sim.fieldTileCount());
  PrintStageTime(Sim.fieldBackend(), Sim.fieldStats(), Sim.fieldLaunchStats());
  if (Sim.rebalanceStats().Checks > 0) {
    const RebalanceStats RS = Sim.rebalanceStats();
    std::printf("rebalancer: %lld checks, %lld fires (threshold %.2f, last "
                "skew %.2f, max %.2f)\n",
                RS.Checks, RS.Fires, Options.RebalanceThreshold, RS.LastSkew,
                RS.MaxSkew);
  }
  if (Options.MovingWindow.Enabled)
    std::printf("moving window: %lld shifts (%lld planes), %lld retired, "
                "%lld injected, %lld live\n",
                Sim.windowShiftCount(),
                (long long)Sim.windowOriginPlanes(),
                Sim.windowRetiredCount(), Sim.windowInjectedCount(),
                (long long)Sim.particles().size());
  if (Sim.usesStepGraph()) {
    const exec::StepGraph *Graph = Sim.stepGraph();
    std::printf("step graph: %zu nodes, %zu edges; %lld capture(s), %lld "
                "replays, %.2f ms graph-step wall\n",
                Graph ? Graph->nodeCount() : 0,
                Graph ? Graph->edgeCount() : 0, Sim.graphCaptureCount(),
                Sim.graphReplayCount(), Sim.graphStats().HostNs / 1e6);
  }
  if (Args.getFlag("stats")) {
    // The submit-overhead ledger: what the step spends driving submit()
    // outside kernel bodies — the cost a
    // captured graph exists to collapse (launches stay at the capture
    // step's count under --graph).
    const double Steps = double(TotalSteps > 0 ? TotalSteps : 1);
    auto PrintLedger = [Steps](const char *Label, const RunStats &S) {
      std::printf("  %-12s %8lld launches (%6.2f/step)  "
                  "%10.2f us submit (%8.3f us/step)\n",
                  Label, S.Launches, double(S.Launches) / Steps,
                  S.SubmitNs / 1e3, S.SubmitNs / 1e3 / Steps);
    };
    std::printf("submit-overhead ledger over %d steps:\n", TotalSteps);
    PrintLedger("push", Sim.pushLaunchStats());
    PrintLedger("deposit", Sim.depositLaunchStats());
    PrintLedger("field", Sim.fieldLaunchStats());
    PrintLedger("total", Sim.submitOverhead());
  }
  std::printf("final state hash = %016llx (backend-independent)\n",
              (unsigned long long)picStateHash(Sim.particles(), Sim.grid()));
  return 0;
}
