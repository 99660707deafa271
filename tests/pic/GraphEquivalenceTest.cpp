//===-- tests/pic/GraphEquivalenceTest.cpp - Graph-replay equivalence ----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The step-graph contracts beyond bit-identity (PicOptions::UseStepGraph,
/// exec/StepGraph.h). Replay must be cheaper to issue: the launch ledger
/// of a graph run stays at the capture step's counts while the
/// resubmitting run pays them every step. And a captured graph must be
/// invalidated and recaptured exactly when its baked-in shape goes
/// stale: after the ensemble grows and after every fired repartition.
/// That graph replay lands on the resubmitting run's bits for every
/// backend x solver x layout x shard and tile count is pinned by the
/// `graph` rows of tests/pic/EquivalenceMatrixTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

using namespace hichi;
using namespace hichi::pic;

namespace {

/// The submit-overhead claim behind the whole feature: over the same
/// run, graph mode submits (counts) launches only on the capture step,
/// so its ledger is strictly below the resubmitting run's.
TEST(GraphEquivalenceTest, ReplayLedgerStaysAtCaptureCounts) {
  auto Run = [](bool UseGraph) {
    const GridSize N{8, 4, 4};
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.PushBackend = "openmp";
    Options.DepositBackend = "openmp";
    Options.FieldBackend = "openmp";
    Options.PushThreads = 2;
    Options.DepositThreads = 2;
    Options.FieldThreads = 2;
    Options.UseStepGraph = UseGraph;
    PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 64,
                              ParticleTypeTable<double>::natural(), Options);
    for (int P = 0; P < 64; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {0.1 + 0.05 * P, 0.3, 0.7};
      Particle.Momentum = {0.01, 0, 0};
      Particle.Weight = 0.05;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
    Sim.run(20);
    return Sim.submitOverhead();
  };
  const RunStats Graph = Run(true);
  const RunStats Resubmit = Run(false);
  EXPECT_GT(Graph.Launches, 0);
  EXPECT_LT(Graph.Launches, Resubmit.Launches);
  EXPECT_LT(Graph.SpecsBuilt, Resubmit.SpecsBuilt);
}

/// Invalidation: growing the ensemble mid-run must discard the captured
/// graph (its pointers and item counts are stale), recapture, and stay
/// bit-identical to the resubmitting run doing the same thing.
TEST(GraphEquivalenceTest, RecapturesAfterEnsembleGrowth) {
  auto Run = [](bool UseGraph, long long *Captures) {
    const GridSize N{8, 4, 4};
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.SortEveryNSteps = 7;
    Options.PushBackend = "sharded";
    Options.DepositBackend = "sharded";
    Options.FieldBackend = "sharded";
    Options.PushThreads = 3;
    Options.DepositThreads = 3;
    Options.FieldThreads = 3;
    Options.UseStepGraph = UseGraph;
    PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 96,
                              ParticleTypeTable<double>::natural(), Options);
    auto Seed = [&Sim](int Count, double Shift) {
      for (int P = 0; P < Count; ++P) {
        ParticleT<double> Particle;
        Particle.Position = {0.1 + 0.04 * P + Shift, 0.6, 1.1};
        Particle.Momentum = {0.01, 0.002 * P, 0};
        Particle.Weight = 0.05;
        Particle.Type = PS_Electron;
        Sim.addParticle(Particle);
      }
    };
    Seed(48, 0.0);
    Sim.run(50);
    Seed(32, 0.02); // reallocation + size change invalidates the graph
    Sim.run(50);
    if (Captures)
      *Captures = Sim.graphCaptureCount();
    return picStateHash(Sim.particles(), Sim.grid());
  };
  long long Captures = 0;
  const std::uint64_t GraphHash = Run(true, &Captures);
  const std::uint64_t ClassicHash = Run(false, nullptr);
  EXPECT_EQ(GraphHash, ClassicHash);
  EXPECT_EQ(Captures, 2); // one per ensemble shape
}

/// Rebalance x graph interplay: a fired repartition bumps the partition
/// epoch, so the captured graph (whose launch ranges bake in the old
/// split) must be invalidated — exactly one recapture per fire, every
/// other step replays, and the replayed run stays bit-identical to the
/// same rebalanced run resubmitting every launch.
TEST(GraphEquivalenceTest, RecapturesAfterRebalanceFires) {
  auto Run = [](bool UseGraph, long long *Captures, long long *Replays,
                long long *Fires) {
    const ScenarioSetup<double> S = makeDriftingSlabScenario<double>();
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.SortEveryNSteps = 20;
    Options.PushBackend = "sharded";
    Options.DepositBackend = "sharded";
    Options.FieldBackend = "sharded";
    Options.PushThreads = 4;
    Options.DepositThreads = 4;
    Options.FieldThreads = 4;
    Options.UseStepGraph = UseGraph;
    Options.RebalanceThreshold = 1.3; // the slab trips this repeatedly
    PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                              Index(S.Particles.size()), S.Types, Options);
    seedScenario(Sim, S);
    Sim.run(100);
    if (Captures)
      *Captures = Sim.graphCaptureCount();
    if (Replays)
      *Replays = Sim.graphReplayCount();
    if (Fires)
      *Fires = Sim.rebalanceStats().Fires;
    return picStateHash(Sim.particles(), Sim.grid());
  };
  long long Captures = 0, Replays = 0, Fires = 0;
  const std::uint64_t GraphHash = Run(true, &Captures, &Replays, &Fires);
  const std::uint64_t ClassicHash = Run(false, nullptr, nullptr, nullptr);
  EXPECT_EQ(GraphHash, ClassicHash);
  EXPECT_GE(Fires, 1);
  EXPECT_EQ(Captures, 1 + Fires); // the initial capture + one per fire
  EXPECT_EQ(Replays, 100 - Captures);
}

} // namespace
