//===-- tests/pic/GraphReplayWallTest.cpp - Replay beats resubmit --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The step-graph payoff, gated in CI as the `pic_graph_replay_wall`
/// ctest target: on a grid small enough that issue overhead dominates
/// (8x4x4, 2 particles per cell, every stage on 2 sharded lanes),
/// replaying the captured step graph must beat resubmitting every launch
/// in launches per step and in the median per-iteration step wall
/// (PicSimulation::stepWallNs), and land on the same state hash.
///
/// The step wall, not the submit ledger, is what the graph saves: both
/// modes issue a node through the same submitImpl, so their SubmitNs
/// match by construction; replay drops the per-step spec and body
/// construction around it and the classic step's wait between stage 1
/// and the rest. The two modes run as ABBA-interleaved iterations, so
/// host speed drift lands on both series alike.
///
/// This is a wall-time comparison, so the target runs alone
/// (RUN_SERIAL), is filtered out of the plain `pic` target, and is left
/// out of the sanitizer builds, where it would measure contention. Every
/// comparison is judged; a loss is confirmed by one fresh comparison
/// before the test fails, the two-strike rule of the CI perf gate.
///
//===----------------------------------------------------------------------===//

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

constexpr int StepsPerIteration = 8;
constexpr int Iterations = 31;

/// The Langmuir-style standing oscillation (2 electrons per cell on an
/// 8x4x4 grid, every stage on 2 sharded lanes), warmed up for one
/// iteration — where graph mode captures.
std::unique_ptr<PicSimulation<double>> makeSimulation(bool UseGraph) {
  const ScenarioSetup<double> S =
      makeLangmuirScenario<double>({8, 4, 4}, 2, 0.0);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.PushBackend = "sharded";
  Options.DepositBackend = "sharded";
  Options.FieldBackend = "sharded";
  Options.PushThreads = 2;
  Options.DepositThreads = 2;
  Options.FieldThreads = 2;
  Options.UseStepGraph = UseGraph;
  auto Sim = std::make_unique<PicSimulation<double>>(
      S.Grid, S.Origin, S.Step, Index(S.Particles.size()), S.Types, Options);
  seedScenario(*Sim, S);
  Sim->run(StepsPerIteration);
  return Sim;
}

/// One ABBA-interleaved comparison of fresh resubmit and graph runs.
struct Comparison {
  double LaunchesPerStep[2] = {0, 0}; ///< [resubmit, graph]
  double MedianWallNs[2] = {0, 0};    ///< per iteration
  std::uint64_t Hash[2] = {0, 0};

  static Comparison run() {
    std::unique_ptr<PicSimulation<double>> Sims[2] = {makeSimulation(false),
                                                       makeSimulation(true)};
    const long long LaunchesBefore[2] = {Sims[0]->submitOverhead().Launches,
                                         Sims[1]->submitOverhead().Launches};
    std::vector<double> WallNs[2];
    for (int It = 0; It < Iterations; ++It)
      for (int Mode : {It % 2, 1 - It % 2}) {
        const double StepWallBefore = Sims[Mode]->stepWallNs();
        Sims[Mode]->run(StepsPerIteration);
        WallNs[Mode].push_back(Sims[Mode]->stepWallNs() - StepWallBefore);
      }
    Comparison C;
    for (int Mode : {0, 1}) {
      C.LaunchesPerStep[Mode] =
          double(Sims[Mode]->submitOverhead().Launches - LaunchesBefore[Mode]) /
          (double(Iterations) * StepsPerIteration);
      C.MedianWallNs[Mode] = median(WallNs[Mode]);
      C.Hash[Mode] = picStateHash(Sims[Mode]->particles(), Sims[Mode]->grid());
    }
    return C;
  }

  bool graphWins() const { return MedianWallNs[1] < MedianWallNs[0]; }
};

TEST(GraphReplayWallTest, ReplayBeatsResubmitInLaunchesAndStepWall) {
  // A comparison that replay loses is confirmed once before the test
  // fails: on a quiet 4-vCPU host replay's median was 0.79-0.99 of
  // resubmission's, and 1 run in 60 landed at or above it.
  Comparison C = Comparison::run();
  if (!C.graphWins())
    C = Comparison::run();
  const int Resubmit = 0, Graph = 1;
  EXPECT_LT(C.LaunchesPerStep[Graph], C.LaunchesPerStep[Resubmit]);
  EXPECT_EQ(C.Hash[Graph], C.Hash[Resubmit]);
  EXPECT_TRUE(C.graphWins())
      << "median step wall over " << Iterations << " iterations of "
      << StepsPerIteration << " steps: graph "
      << C.MedianWallNs[Graph] / StepsPerIteration / 1e3
      << " us/step, resubmit "
      << C.MedianWallNs[Resubmit] / StepsPerIteration / 1e3
      << " us/step";
}

} // namespace
