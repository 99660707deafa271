//===-- bench/bench_pic_async.cpp - PIC step-graph submit overhead -------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the step-graph win (exec/StepGraph.h) on the asynchronous
/// PIC loop: resubmit-vs-replay over a ladder of grid sizes with every
/// stage on the "sharded" backend (2 lanes), reporting the launch-ledger
/// and submit-overhead deltas of the measured window as stage "submit"
/// records (submit = "graph" / "resubmit"). A classic step issues every
/// node of the captured graph as a counted launch, so the two ledgers
/// compare like with like. The two modes run as interleaved iterations
/// (at least 15 each). The bench fails unless, at the smallest grid
/// (where per-submit overhead dominates), graph mode is strictly lower
/// in launches/step and in the median per-iteration submit cost — and
/// bit-identical. Set
/// HICHI_BENCH_JSON=<path> to also write the hichi-bench-v1 records;
/// HICHI_BENCH_BACKEND (and the per-stage variables) pick other stage
/// backends.
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

using namespace hichi;
using namespace hichi::bench;
using namespace hichi::pic;

namespace {

/// Seeds the Langmuir-style standing oscillation (PerCell electrons per
/// cell, x-velocity sine over the box).
void seedLangmuir(PicSimulation<double> &Sim, const GridSize &N,
                  int PerCell) {
  const Index NumParticles = N.count() * PerCell;
  const double BoxLength = double(N.Nx) * 0.5;
  const double Volume = BoxLength * double(N.Ny) * 0.5 * double(N.Nz) * 0.5;
  const double Weight =
      Volume / (4.0 * constants::Pi * double(NumParticles));
  for (Index C = 0; C < N.count(); ++C) {
    const Index I = C / (N.Ny * N.Nz);
    const Index J = (C / N.Nz) % N.Ny;
    const Index K = C % N.Nz;
    for (int P = 0; P < PerCell; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {(double(I) + (P + 0.5) / PerCell) * 0.5,
                           (double(J) + 0.5) * 0.5, (double(K) + 0.5) * 0.5};
      const double Vx =
          0.02 * std::sin(2.0 * constants::Pi * Particle.Position.X /
                          BoxLength);
      Particle.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
      Particle.Weight = Weight;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
  }
}

BenchRecord recordOf(const char *Stage, const std::string &Backend,
                     int Threads, Index Particles, const BenchSizes &Sizes,
                     const MeasuredSeries &Series) {
  BenchRecord R;
  R.Backend = Backend;
  R.Stage = Stage;
  R.Scenario = "langmuir";
  R.Layout = "aos";
  R.Precision = "double";
  R.Particles = (long long)Particles;
  R.Steps = Sizes.StepsPerIteration;
  R.Iterations = Sizes.Iterations;
  R.Threads = Threads;
  R.setSeries(Series);
  return R;
}

struct SubmitResult {
  double LaunchesPerStep = 0; ///< counted submits per step, measured window
  double SpecsPerStep = 0;    ///< LaunchSpecs built per step
  double SubmitUsPerStep = 0; ///< µs inside submit() outside kernel bodies
  MeasuredSeries Submit;      ///< submit-overhead ns per iteration
  std::uint64_t Hash = 0;
};

/// One grid size in one submission mode: every stage on the sharded
/// backend (each launch is a counted non-blocking submit, so the ledger
/// isolates issue cost), warmed up on construction — where graph mode
/// captures. Each iterate() records one iteration's submitOverhead()
/// SubmitNs delta; replay keeps accruing SubmitNs (per-node re-issue
/// cost) but not Launches/SpecsBuilt, which stay at the capture step's
/// counts.
class SubmitTrial {
public:
  SubmitTrial(const GridSize &N, int PerCell, bool UseGraph,
              const BenchSizes &Sizes)
      : NumParticles(N.count() * PerCell), Sizes(Sizes) {
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.SortEveryNSteps = 20;
    // Env-resolved stage backends (default: every stage sharded); the
    // sweep's own mode knob overrides the HICHI_BENCH_GRAPH default.
    applyEnvPicBackends(Options, "sharded");
    Options.PushThreads = 2;
    Options.DepositThreads = 2;
    Options.FieldThreads = 2;
    Options.UseStepGraph = UseGraph;
    Sim = std::make_unique<PicSimulation<double>>(
        N, Vector3<double>{0, 0, 0}, Vector3<double>{0.5, 0.5, 0.5},
        NumParticles, ParticleTypeTable<double>::natural(), Options);
    seedLangmuir(*Sim, N, PerCell);
    Sim->run(Sizes.StepsPerIteration); // warmup; graph mode captures here
    Before = Sim->submitOverhead();
  }

  void iterate() {
    const double SubmitBefore = Sim->submitOverhead().SubmitNs;
    Sim->run(Sizes.StepsPerIteration);
    Out.Submit.IterationNs.push_back(Sim->submitOverhead().SubmitNs -
                                     SubmitBefore);
  }

  /// The measured window's ledger deltas, series and final state hash.
  SubmitResult result() {
    const RunStats After = Sim->submitOverhead();
    const int Iterations = int(Out.Submit.IterationNs.size());
    const double Steps = double(Iterations) * double(Sizes.StepsPerIteration);
    double Total = 0;
    for (double Ns : Out.Submit.IterationNs)
      Total += Ns;
    Out.LaunchesPerStep = double(After.Launches - Before.Launches) / Steps;
    Out.SpecsPerStep = double(After.SpecsBuilt - Before.SpecsBuilt) / Steps;
    Out.SubmitUsPerStep = (After.SubmitNs - Before.SubmitNs) / Steps / 1e3;
    Out.Submit.Nsps = nsPerParticlePerStep(Total, Iterations,
                                           double(NumParticles),
                                           double(Sizes.StepsPerIteration));
    Out.Hash = picStateHash(Sim->particles(), Sim->grid());
    return Out;
  }

private:
  Index NumParticles;
  BenchSizes Sizes;
  std::unique_ptr<PicSimulation<double>> Sim;
  RunStats Before;
  SubmitResult Out;
};

/// Interleaved iterations per mode and grid: at least this many however
/// small HICHI_BENCH_ITERATIONS is, so the gate compares medians of real
/// series rather than two short means.
constexpr int MinGateIterations = 15;

/// Runs the resubmit-vs-replay ladder and \returns true iff at the
/// smallest grid graph mode beat resubmission in launches/step and in the
/// median per-iteration submit cost, with every hash pair matching. The
/// two modes' iterations interleave (ABBA), so host speed drift lands on
/// both series alike.
bool sweepSubmitOverhead(BenchSizes Sizes, JsonReport &Report) {
  Sizes.Iterations = std::max(Sizes.Iterations, MinGateIterations);
  const std::vector<GridSize> Grids = {{8, 4, 4}, {16, 8, 8}, {32, 8, 8}};
  const int PerCell = 2; // small ensembles — submit overhead dominates
  std::printf("step-graph replay vs per-step resubmission (all stages on "
              "'sharded', 2 lanes, %d particles/cell, %d interleaved "
              "iterations of %d steps):\n",
              PerCell, Sizes.Iterations, Sizes.StepsPerIteration);
  std::printf("%-12s %10s %14s %12s %15s %17s\n", "grid", "mode",
              "launches/step", "specs/step", "submit us/step",
              "median us/step");
  printRule(86);

  bool GraphWinsSmallest = false;
  bool AllHashesAgree = true;
  for (std::size_t G = 0; G < Grids.size(); ++G) {
    const GridSize &N = Grids[G];
    const Index NumParticles = N.count() * PerCell;
    char GridName[32];
    std::snprintf(GridName, sizeof(GridName), "%lldx%lldx%lld",
                  (long long)N.Nx, (long long)N.Ny, (long long)N.Nz);
    SubmitTrial ResubmitTrial(N, PerCell, false, Sizes);
    SubmitTrial GraphTrial(N, PerCell, true, Sizes);
    for (int It = 0; It < Sizes.Iterations; ++It) {
      SubmitTrial &First = It % 2 ? GraphTrial : ResubmitTrial;
      SubmitTrial &Second = It % 2 ? ResubmitTrial : GraphTrial;
      First.iterate();
      Second.iterate();
    }
    const SubmitResult Resubmit = ResubmitTrial.result();
    const SubmitResult Graph = GraphTrial.result();
    const bool HashOk = Graph.Hash == Resubmit.Hash;
    AllHashesAgree = AllHashesAgree && HashOk;
    if (G == 0)
      GraphWinsSmallest =
          Graph.LaunchesPerStep < Resubmit.LaunchesPerStep &&
          Graph.Submit.medianNs() < Resubmit.Submit.medianNs();
    for (const SubmitResult *R : {&Resubmit, &Graph}) {
      const bool IsGraph = R == &Graph;
      BenchRecord Rec =
          recordOf("submit", "sharded", 2, NumParticles, Sizes, R->Submit);
      Rec.Submit = IsGraph ? "graph" : "resubmit";
      Rec.Scenario = std::string("langmuir-") + GridName;
      Report.add(Rec);
      std::printf("%-12s %10s %14.2f %12.2f %15.3f %17.3f%s\n", GridName,
                  IsGraph ? "graph" : "resubmit", R->LaunchesPerStep,
                  R->SpecsPerStep, R->SubmitUsPerStep,
                  R->Submit.medianNs() / Sizes.StepsPerIteration / 1e3,
                  IsGraph && !HashOk ? "  HASH MISMATCH" : "");
    }
  }
  std::printf("\nstep-graph gate: %s (smallest grid: graph %s strictly "
              "lower in launches/step and median submit-us/step; hashes "
              "%s)\n",
              GraphWinsSmallest && AllHashesAgree ? "OK" : "FAIL",
              GraphWinsSmallest ? "is" : "is NOT",
              AllHashesAgree ? "match" : "DIFFER");
  return GraphWinsSmallest && AllHashesAgree;
}

} // namespace

int main() {
  const BenchSizes Sizes = BenchSizes::fromEnv();
  JsonReport Report("bench_pic_async");
  const bool GateOk = sweepSubmitOverhead(Sizes, Report);
  Report.writeEnvRequested();
  return GateOk ? 0 : 1;
}
