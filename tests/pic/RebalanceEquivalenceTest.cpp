//===-- tests/pic/RebalanceEquivalenceTest.cpp - Rebalance guarantees ----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rebalancer's contract (pic/Rebalancer.h). That an armed but never
/// fired rebalancer is a bitwise no-op, and that fired runs agree
/// bitwise across backends, are the `rebalance` rows of
/// tests/pic/EquivalenceMatrixTest.cpp. Here:
///
///  - weightedSlabBoundaries is a strict generalization of the static
///    split: uniform weights reproduce slabRange's boundaries exactly,
///    concentrated weights track the concentration, and every result is
///    a valid partition (monotone, nonempty slabs) whatever the input;
///  - the flat-array and cell-list occupancy histograms agree;
///  - when repartitions fire (the drifting slab), the run conserves
///    exactly what the scenario's bitwise current cancellation
///    promises: particle count, the multiset of particle states,
///    kinetic energy, zero field energy, zero net charge;
///  - a fired repartition actually moves the deposit tile plane
///    boundaries off the uniform split.
///
//===----------------------------------------------------------------------===//

#include "exec/SlabPartition.h"
#include "pic/CellListEnsemble.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// weightedSlabBoundaries unit coverage
//===----------------------------------------------------------------------===//

/// Every weighted split must be a valid partition: Count+1 boundaries,
/// 0 and Items at the ends, strictly increasing (no empty slab).
void expectValidPartition(const std::vector<Index> &Bounds, Index Items,
                          Index Count) {
  ASSERT_EQ(Index(Bounds.size()), Count + 1);
  EXPECT_EQ(Bounds.front(), 0);
  EXPECT_EQ(Bounds.back(), Items);
  for (std::size_t S = 0; S + 1 < Bounds.size(); ++S)
    EXPECT_LT(Bounds[S], Bounds[S + 1]) << "empty slab " << S;
}

TEST(RebalanceEquivalenceTest, UniformWeightsReproduceTheEvenSplit) {
  // When Count divides Items the weighted and static splits are the
  // same partition; otherwise the two place the remainder differently
  // (cumulative ceiling vs front-loading) but both stay balanced to
  // within one item — which is the property the rebalancer relies on.
  for (Index Items : {8, 17, 64})
    for (Index Count : {1, 3, 4, 7}) {
      const std::vector<double> Uniform(std::size_t(Items), 1.0);
      const std::vector<Index> Bounds =
          exec::weightedSlabBoundaries(Uniform, Count);
      expectValidPartition(Bounds, Items, Count);
      for (Index S = 0; S < Count; ++S) {
        const exec::SlabRange R = exec::slabRange(Items, Count, S);
        const Index Size = Bounds[std::size_t(S) + 1] - Bounds[std::size_t(S)];
        if (Items % Count == 0) {
          EXPECT_EQ(Bounds[std::size_t(S)], R.Begin)
              << "items=" << Items << " count=" << Count << " slab=" << S;
          EXPECT_EQ(Bounds[std::size_t(S) + 1], R.End);
        }
        EXPECT_GE(Size, Items / Count) << "items=" << Items << " count="
                                       << Count << " slab=" << S;
        EXPECT_LE(Size, Items / Count + 1);
      }
    }
}

TEST(RebalanceEquivalenceTest, ConcentratedWeightsTrackTheConcentration) {
  // All the weight in planes [16, 32) of 64: with 4 slabs, the interior
  // boundaries must land inside the loaded window so each loaded slab
  // carries ~1/4 of the weight; the empty planes get swept into the
  // outermost slabs.
  std::vector<double> W(64, 0.0);
  for (int P = 16; P < 32; ++P)
    W[std::size_t(P)] = 5.0;
  const std::vector<Index> Bounds = exec::weightedSlabBoundaries(W, 4);
  expectValidPartition(Bounds, 64, 4);
  for (std::size_t S = 1; S + 1 < Bounds.size(); ++S) {
    EXPECT_GE(Bounds[S], 16);
    EXPECT_LE(Bounds[S], 32);
  }
  // Each slab's weight is within one plane's worth of the even share.
  for (std::size_t S = 0; S + 1 < Bounds.size(); ++S) {
    double Slab = 0;
    for (Index P = Bounds[S]; P < Bounds[S + 1]; ++P)
      Slab += W[std::size_t(P)];
    EXPECT_NEAR(Slab, 80.0 / 4.0, 5.0) << "slab " << S;
  }
}

TEST(RebalanceEquivalenceTest, DegenerateWeightsStillPartition) {
  // Zero total falls back to the static split; negative weights are
  // treated as zero; a single loaded plane cannot produce empty slabs.
  const std::vector<double> Zero(16, 0.0);
  const std::vector<Index> ZeroBounds = exec::weightedSlabBoundaries(Zero, 4);
  expectValidPartition(ZeroBounds, 16, 4);
  for (Index S = 0; S < 4; ++S)
    EXPECT_EQ(ZeroBounds[std::size_t(S)], exec::slabRange(16, 4, S).Begin);

  std::vector<double> OnePlane(16, -1.0);
  OnePlane[7] = 100.0;
  expectValidPartition(exec::weightedSlabBoundaries(OnePlane, 4), 16, 4);

  // Requesting more slabs than items clamps like clampSlabCount.
  const std::vector<double> Few(3, 1.0);
  const std::vector<Index> Clamped = exec::weightedSlabBoundaries(Few, 8);
  expectValidPartition(Clamped, 3, exec::clampSlabCount(3, 8));
}

//===----------------------------------------------------------------------===//
// Histogram cross-check: flat-array vs cell-list organization
//===----------------------------------------------------------------------===//

TEST(RebalanceEquivalenceTest, OccupancyHistogramMatchesCellLists) {
  const ScenarioSetup<double> S = makeDensityGradientScenario<double>();
  ParticleArrayAoS<double> Flat(Index(S.Particles.size()));
  CellListEnsemble<double> Cells(S.Grid, S.Origin, S.Step);
  for (const ParticleT<double> &P : S.Particles) {
    Flat.pushBack(P);
    Cells.addParticle(P);
  }
  const CellIndexer<double> Indexer(S.Grid, S.Origin, S.Step);
  const std::vector<double> FromArray = xPlaneOccupancy(Flat, Indexer);
  const std::vector<double> FromCells = Cells.xPlaneOccupancy();
  ASSERT_EQ(FromArray.size(), FromCells.size());
  for (std::size_t P = 0; P < FromArray.size(); ++P)
    EXPECT_EQ(FromArray[P], FromCells[P]) << "plane " << P;
  // The ramp is a ramp: later interior planes hold more particles.
  EXPECT_LT(FromArray[8], FromArray[55]);
}

//===----------------------------------------------------------------------===//
// Fired repartitions: exact conservation, moved tile boundaries
//===----------------------------------------------------------------------===//

struct SlabRun {
  std::uint64_t Hash = 0;
  long long Fires = 0;
  double KineticEnergy = 0;
  double FieldEnergy = 0;
  Index Count = 0;
  double TotalCharge = 0;
  std::vector<std::array<double, 8>> SortedStates;
  std::vector<Index> TileBounds;
};

/// 100 steps of the drifting slab with every stage on \p Backend.
/// \p Threshold 1.3 trips on the default 10-step cadence (the slab
/// loads a quarter of the 8 evaluation blocks, skew ~4); 0 disables.
SlabRun runSlab(const std::string &Backend, int Threads, double Threshold,
                int DepositTiles = 0) {
  const ScenarioSetup<double> S = makeDriftingSlabScenario<double>();
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.PushBackend = Backend;
  Options.DepositBackend = Backend;
  Options.FieldBackend = Backend;
  Options.PushThreads = Threads;
  Options.DepositThreads = Threads;
  Options.FieldThreads = Threads;
  Options.DepositTiles = DepositTiles;
  Options.RebalanceThreshold = Threshold;
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()), S.Types, Options);
  seedScenario(Sim, S);
  Sim.run(100);

  SlabRun Out;
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  Out.Fires = Sim.rebalanceStats().Fires;
  Out.KineticEnergy = Sim.kineticEnergy();
  Out.FieldEnergy = Sim.fieldEnergy();
  Out.Count = Sim.particles().size();
  Out.TileBounds = Sim.depositTileBoundaries();
  auto View = Sim.particles().view();
  const ParticleTypeTable<double> &Types = Sim.types();
  for (Index I = 0; I < View.size(); ++I) {
    const ParticleT<double> P = View[I].load();
    Out.TotalCharge += Types[P.Type].Charge * P.Weight;
    Out.SortedStates.push_back({P.Position.X, P.Position.Y, P.Position.Z,
                                P.Momentum.X, P.Momentum.Y, P.Momentum.Z,
                                P.Weight, double(P.Type)});
  }
  std::sort(Out.SortedStates.begin(), Out.SortedStates.end());
  return Out;
}

TEST(RebalanceEquivalenceTest, FiredRebalanceConservesExactly) {
  const SlabRun Plain = runSlab("serial", 0, 0.0);
  const SlabRun Rebalanced = runSlab("sharded", 4, 1.3);
  ASSERT_GE(Rebalanced.Fires, 1);

  // No particle created or destroyed; the multiset of particle states
  // is *exactly* the plain run's (a rebalanced run is at most a
  // permutation of a non-rebalanced one).
  EXPECT_EQ(Rebalanced.Count, Plain.Count);
  EXPECT_EQ(Rebalanced.SortedStates, Plain.SortedStates);

  // The pair slab's currents cancel bitwise, so the fields never leave
  // exact zero and the kinetic energy is bit-frozen at its seed value.
  EXPECT_EQ(Rebalanced.FieldEnergy, 0.0);
  EXPECT_EQ(Rebalanced.KineticEnergy, Plain.KineticEnergy);

  // Electron–positron pairs stay array-adjacent (stable sort), so the
  // signed charge sum cancels pair by pair — exactly.
  EXPECT_EQ(Rebalanced.TotalCharge, 0.0);
}

TEST(RebalanceEquivalenceTest, FiredRepartitionMovesTileBoundaries) {
  // 4 explicit deposit tiles: the static split is {0,16,32,48,64}; the
  // slab occupies a quarter of the box, so a fired repartition must pull
  // the interior boundaries toward the occupied planes.
  const SlabRun Static = runSlab("openmp", 3, 0.0, /*DepositTiles=*/4);
  const SlabRun Rebalanced = runSlab("openmp", 3, 1.3, /*DepositTiles=*/4);
  ASSERT_GE(Rebalanced.Fires, 1);
  ASSERT_EQ(Static.TileBounds.size(), Rebalanced.TileBounds.size());
  EXPECT_NE(Static.TileBounds, Rebalanced.TileBounds);
  expectValidPartition(Rebalanced.TileBounds, 64, 4);
  // ... without perturbing the result (same hash: boundary placement is
  // bit-invisible, only the sort permutation could show, and here it is
  // the identity).
  EXPECT_EQ(Static.Hash, Rebalanced.Hash);
}

} // namespace
