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
/// compare like with like. The bench fails unless, at the smallest grid
/// (where per-submit overhead dominates), graph mode is strictly lower
/// in both launches/step and submit-µs/step — and bit-identical. Set
/// HICHI_BENCH_JSON=<path> to also write the hichi-bench-v1 records;
/// HICHI_BENCH_BACKEND (and the per-stage variables) pick other stage
/// backends.
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"

#include <cstdio>
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

/// Submit overhead of one grid size in one submission mode: every stage
/// on the sharded backend (each launch is a counted non-blocking submit,
/// so the ledger isolates issue cost), warmup — where graph mode
/// captures — then the submitOverhead() ledger deltas of the measured
/// window. Replay keeps accruing SubmitNs (per-node re-issue cost) but
/// not Launches/SpecsBuilt, which stay at the capture step's counts.
SubmitResult measureSubmit(const GridSize &N, int PerCell, bool UseGraph,
                           const BenchSizes &Sizes) {
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
  const Index NumParticles = N.count() * PerCell;
  PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, NumParticles,
                            ParticleTypeTable<double>::natural(), Options);
  seedLangmuir(Sim, N, PerCell);

  SubmitResult Out;
  Sim.run(Sizes.StepsPerIteration); // warmup; graph mode captures here
  const RunStats Before = Sim.submitOverhead();
  double Total = 0;
  for (int It = 0; It < Sizes.Iterations; ++It) {
    const double SubmitBefore = Sim.submitOverhead().SubmitNs;
    Sim.run(Sizes.StepsPerIteration);
    Out.Submit.IterationNs.push_back(Sim.submitOverhead().SubmitNs -
                                     SubmitBefore);
    Total += Out.Submit.IterationNs.back();
  }
  const RunStats After = Sim.submitOverhead();
  const double Steps = double(Sizes.Iterations) *
                       double(Sizes.StepsPerIteration);
  Out.LaunchesPerStep = double(After.Launches - Before.Launches) / Steps;
  Out.SpecsPerStep = double(After.SpecsBuilt - Before.SpecsBuilt) / Steps;
  Out.SubmitUsPerStep = (After.SubmitNs - Before.SubmitNs) / Steps / 1e3;
  Out.Submit.Nsps = nsPerParticlePerStep(Total, Sizes.Iterations,
                                         double(NumParticles),
                                         double(Sizes.StepsPerIteration));
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  return Out;
}

/// Runs the resubmit-vs-replay ladder and \returns true iff at the
/// smallest grid graph mode beat resubmission in both launches/step and
/// submit-µs/step with every hash pair matching.
bool sweepSubmitOverhead(const BenchSizes &Sizes, JsonReport &Report) {
  const std::vector<GridSize> Grids = {{8, 4, 4}, {16, 8, 8}, {32, 8, 8}};
  const int PerCell = 2; // small ensembles — submit overhead dominates
  std::printf("step-graph replay vs per-step resubmission (all stages on "
              "'sharded', 2 lanes, %d particles/cell):\n", PerCell);
  std::printf("%-12s %10s %14s %12s %15s\n", "grid", "mode",
              "launches/step", "specs/step", "submit us/step");
  printRule(68);

  bool GraphWinsSmallest = false;
  bool AllHashesAgree = true;
  for (std::size_t G = 0; G < Grids.size(); ++G) {
    const GridSize &N = Grids[G];
    const Index NumParticles = N.count() * PerCell;
    char GridName[32];
    std::snprintf(GridName, sizeof(GridName), "%lldx%lldx%lld",
                  (long long)N.Nx, (long long)N.Ny, (long long)N.Nz);
    const SubmitResult Resubmit = measureSubmit(N, PerCell, false, Sizes);
    const SubmitResult Graph = measureSubmit(N, PerCell, true, Sizes);
    const bool HashOk = Graph.Hash == Resubmit.Hash;
    AllHashesAgree = AllHashesAgree && HashOk;
    if (G == 0)
      GraphWinsSmallest =
          Graph.LaunchesPerStep < Resubmit.LaunchesPerStep &&
          Graph.SubmitUsPerStep < Resubmit.SubmitUsPerStep;
    for (const SubmitResult *R : {&Resubmit, &Graph}) {
      const bool IsGraph = R == &Graph;
      BenchRecord Rec =
          recordOf("submit", "sharded", 2, NumParticles, Sizes, R->Submit);
      Rec.Submit = IsGraph ? "graph" : "resubmit";
      Rec.Scenario = std::string("langmuir-") + GridName;
      Report.add(Rec);
      std::printf("%-12s %10s %14.2f %12.2f %15.3f%s\n", GridName,
                  IsGraph ? "graph" : "resubmit", R->LaunchesPerStep,
                  R->SpecsPerStep, R->SubmitUsPerStep,
                  IsGraph && !HashOk ? "  HASH MISMATCH" : "");
    }
  }
  std::printf("\nstep-graph gate: %s (smallest grid: graph %s strictly "
              "lower in launches/step and submit-us/step; hashes %s)\n",
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
