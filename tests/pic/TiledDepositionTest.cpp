//===-- tests/pic/TiledDepositionTest.cpp - Parallel deposition ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel-deposition guarantees. The decisive one: the tiled,
/// backend-parallel current scatter (TiledCurrentAccumulator) is
/// *bit-identical* to the serial particle-order scatter — for every
/// registered backend, both particle layouts, both deposition schemes and
/// any tile count — because every J node is owned by exactly one tile and
/// folded in global particle order (the determinism argument in
/// docs/ARCHITECTURE.md). On top sits the discrete continuity equation
/// d(rho)/dt + div J = 0 under a parallel deposit; whole-simulation
/// state hashes across deposit configurations are rows of
/// tests/pic/EquivalenceMatrixTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "minisycl/minisycl.h"
#include "pic/PicSimulation.h"
#include "pic/TiledCurrentAccumulator.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Accumulator-level bitwise equivalence against the serial scatter
//===----------------------------------------------------------------------===//

/// A random ensemble of sub-cell moves (at most \p MaxMove cells per
/// axis) spanning the whole periodic box (including edge positions whose
/// stencils wrap).
template <typename Array>
void fillMoves(Array &Particles, std::vector<Vector3<double>> &OldPos,
               std::vector<Vector3<double>> &NewPos, const YeeGrid<double> &G,
               Index N, unsigned Seed, double MaxMove = 0.45) {
  RandomStream<double> Rng(Seed);
  const Vector3<double> O = G.origin(), D = G.step();
  const GridSize Size = G.size();
  for (Index I = 0; I < N; ++I) {
    const Vector3<double> From(
        O.X + Rng.uniform(0.0, double(Size.Nx)) * D.X,
        O.Y + Rng.uniform(0.0, double(Size.Ny)) * D.Y,
        O.Z + Rng.uniform(0.0, double(Size.Nz)) * D.Z);
    const Vector3<double> To(From.X + Rng.uniform(-MaxMove, MaxMove) * D.X,
                             From.Y + Rng.uniform(-MaxMove, MaxMove) * D.Y,
                             From.Z + Rng.uniform(-MaxMove, MaxMove) * D.Z);
    ParticleT<double> P;
    P.Position = To;
    P.Weight = Rng.uniform(0.5, 2.0);
    P.Type = PS_Electron;
    Particles.pushBack(P);
    OldPos.push_back(From);
    NewPos.push_back(To);
  }
}

/// Bitwise lattice comparison (memcmp, stricter than operator==).
void expectBitwiseEqual(const ScalarLattice<double> &A,
                        const ScalarLattice<double> &B, const char *What) {
  ASSERT_EQ(A.raw().size(), B.raw().size());
  EXPECT_EQ(std::memcmp(A.raw().data(), B.raw().data(),
                        A.raw().size() * sizeof(double)),
            0)
      << What;
}

/// One accumulator-vs-oracle row: N random moves on a Size grid whose
/// window has first been shifted by ShiftPlanes planes (so the ring base
/// is nonzero), deposited through every registered backend at every tile
/// count in TileCounts and compared by memcmp with the serial
/// depositCurrent* oracle (GridCurrentSink, per-write wrap).
struct DepositRow {
  GridSize Size{8, 5, 6};
  Index N = 400;
  std::vector<int> TileCounts{1, 2, 3, 5, 8, 64};
  Index ShiftPlanes = 0;
  double MaxMove = 0.45;
  unsigned Seed = 17;
};

template <typename Array>
void checkAccumulatorAgainstSerial(bool ChargeConserving,
                                   const DepositRow &Row = {}) {
  const GridSize Size = Row.Size;
  const Index N = Row.N, ShiftPlanes = Row.ShiftPlanes;
  const Vector3<double> Origin(-2.0, 1.0, 0.0), Step(0.5, 1.0, 0.8);
  const double Dt = 0.31;
  auto MakeGrid = [&] {
    YeeGrid<double> G(Size, Origin, Step);
    if (ShiftPlanes > 0)
      G.shiftWindow(ShiftPlanes);
    return G;
  };

  Array Particles(N);
  std::vector<Vector3<double>> OldPos, NewPos;
  fillMoves(Particles, OldPos, NewPos, MakeGrid(), N, Row.Seed,
            Row.MaxMove);
  auto Types = ParticleTypeTable<double>::natural();
  auto View = Particles.view();

  // Serial reference: the classic particle-order scatter.
  YeeGrid<double> Ref = MakeGrid();
  for (Index I = 0; I < N; ++I) {
    const double Q = Types[View[I].type()].Charge * View[I].weight();
    if (ChargeConserving) {
      depositCurrentEsirkepov(Ref, OldPos[I], NewPos[I], Q, Dt);
    } else {
      depositCurrentDirect(Ref, (OldPos[I] + NewPos[I]) * 0.5,
                           (NewPos[I] - OldPos[I]) / Dt, Q);
    }
  }

  minisycl::queue Queue{minisycl::cpu_device()};
  for (const std::string &Name : exec::BackendRegistry::instance().names()) {
    auto Backend = exec::createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    exec::ExecutionContext Ctx;
    Ctx.Queue = &Queue;
    for (int Tiles : Row.TileCounts) {
      TiledCurrentAccumulator<double> Accumulator(Size, Origin, Step, Tiles);
      YeeGrid<double> G = MakeGrid();
      RunStats Stats;
      Accumulator.deposit(G, View, OldPos.data(), NewPos.data(), Types.data(),
                          Dt, ChargeConserving, *Backend, Ctx, Stats);
      SCOPED_TRACE("backend=" + Name + " grid=" + std::to_string(Size.Nx) +
                   "x" + std::to_string(Size.Ny) + "x" +
                   std::to_string(Size.Nz) + " N=" + std::to_string(N) +
                   " shift=" + std::to_string(ShiftPlanes) + " seed=" +
                   std::to_string(Row.Seed) + " tiles=" +
                   std::to_string(Accumulator.tileCount()));
      expectBitwiseEqual(G.Jx, Ref.Jx, "Jx");
      expectBitwiseEqual(G.Jy, Ref.Jy, "Jy");
      expectBitwiseEqual(G.Jz, Ref.Jz, "Jz");
    }
  }
}

TEST(TiledDepositionTest, EsirkepovBitwiseMatchesSerialAoS) {
  checkAccumulatorAgainstSerial<ParticleArrayAoS<double>>(true);
}

TEST(TiledDepositionTest, EsirkepovBitwiseMatchesSerialSoA) {
  checkAccumulatorAgainstSerial<ParticleArraySoA<double>>(true);
}

TEST(TiledDepositionTest, DirectSchemeBitwiseMatchesSerialAoS) {
  checkAccumulatorAgainstSerial<ParticleArrayAoS<double>>(false);
}

TEST(TiledDepositionTest, DirectSchemeBitwiseMatchesSerialSoA) {
  checkAccumulatorAgainstSerial<ParticleArraySoA<double>>(false);
}

/// Grids with Ny or Nz in {1, 2} (and Nx in {1, 2}) fold several stencil
/// nodes of one particle onto the same J node, so these rows pin the
/// sink's write order: only the kernel's own order reproduces the
/// oracle's fold. Near-cell moves make most particles cross nodes, so the
/// aliased adds are nonzero, and three seeds per grid keep a reordered
/// write sequence from slipping through on rounding luck.
TEST(TiledDepositionTest, AliasingGridsBitwiseMatchSerial) {
  const std::vector<GridSize> Grids = {{8, 1, 6}, {8, 2, 6}, {8, 5, 1},
                                       {8, 5, 2}, {8, 1, 2}, {2, 2, 2},
                                       {1, 2, 3}, {1, 1, 1}};
  for (bool CC : {true, false})
    for (const GridSize &Size : Grids)
      for (unsigned Seed : {17u, 18u, 19u}) {
        DepositRow Row;
        Row.Size = Size;
        Row.N = 300;
        Row.TileCounts = {1, 2, 3, int(Size.Nx)};
        Row.MaxMove = 0.95;
        Row.Seed = Seed;
        checkAccumulatorAgainstSerial<ParticleArrayAoS<double>>(CC, Row);
      }
}

/// A window-shifted grid: the owned logical planes ring-map onto physical
/// storage with a nonzero base (3, and 13 = one wrap past 8 planes).
TEST(TiledDepositionTest, WindowShiftedGridBitwiseMatchesSerial) {
  for (bool CC : {true, false})
    for (Index Shift : {3, 13}) {
      DepositRow Row;
      Row.TileCounts = {1, 2, 3, 8};
      Row.ShiftPlanes = Shift;
      checkAccumulatorAgainstSerial<ParticleArraySoA<double>>(CC, Row);
    }
}

/// Empty ensembles and ensembles smaller than the bin chunk count leave
/// most chunks empty.
TEST(TiledDepositionTest, TinyEnsemblesBitwiseMatchSerial) {
  ASSERT_GT(TiledCurrentAccumulator<double>::BinChunks, 5);
  for (bool CC : {true, false})
    for (Index N : {0, 1, 5}) {
      DepositRow Row;
      Row.N = N;
      Row.TileCounts = {1, 2, 3, 8};
      checkAccumulatorAgainstSerial<ParticleArrayAoS<double>>(CC, Row);
    }
}

TEST(TiledDepositionTest, TileCountClampsToPlaneCount) {
  TiledCurrentAccumulator<double> A({8, 4, 4}, {0, 0, 0}, {1, 1, 1}, 100);
  EXPECT_EQ(A.tileCount(), 8);
  TiledCurrentAccumulator<double> B({8, 4, 4}, {0, 0, 0}, {1, 1, 1}, 0);
  EXPECT_EQ(B.tileCount(), 1);
}

//===----------------------------------------------------------------------===//
// Discrete continuity under a parallel tiled deposit
//===----------------------------------------------------------------------===//

TEST(TiledDepositionTest, ContinuityHoldsUnderParallelDeposit) {
  // The Esirkepov property test extended to the full PIC step with a
  // multi-tile, multi-threaded deposit: (rho^{n+1} - rho^n)/dt + div J
  // must still vanish at every node, which it can only do if the tiles
  // jointly reproduce the exact serial scatter.
  const GridSize N{8, 6, 4};
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 0;
  Options.DepositBackend = "openmp";
  Options.DepositTiles = 5;
  PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 256,
                            ParticleTypeTable<double>::natural(), Options);
  RandomStream<double> Rng(23);
  for (int P = 0; P < 128; ++P) {
    ParticleT<double> Particle;
    Particle.Position = {Rng.uniform(0.0, 4.0), Rng.uniform(0.0, 3.0),
                         Rng.uniform(0.0, 2.0)};
    Particle.Momentum = {Rng.uniform(-0.4, 0.4), Rng.uniform(-0.4, 0.4),
                         Rng.uniform(-0.4, 0.4)};
    Particle.Weight = Rng.uniform(0.5, 1.5);
    Particle.Type = P % 2 == 0 ? PS_Electron : PS_Positron;
    Sim.addParticle(Particle);
  }

  const double Dt = Sim.timeStep();
  ScalarLattice<double> RhoOld(N), RhoNew(N);
  for (int Step = 0; Step < 5; ++Step) {
    Sim.depositCharge(RhoOld);
    Sim.step();
    Sim.depositCharge(RhoNew);
    const YeeGrid<double> &G = Sim.grid();
    for (Index I = 0; I < N.Nx; ++I)
      for (Index J = 0; J < N.Ny; ++J)
        for (Index K = 0; K < N.Nz; ++K) {
          const double DivJ =
              (G.Jx(I, J, K) - G.Jx(I - 1, J, K)) / G.step().X +
              (G.Jy(I, J, K) - G.Jy(I, J - 1, K)) / G.step().Y +
              (G.Jz(I, J, K) - G.Jz(I, J, K - 1)) / G.step().Z;
          const double DRhoDt = (RhoNew(I, J, K) - RhoOld(I, J, K)) / Dt;
          ASSERT_NEAR(DRhoDt + DivJ, 0.0, 1e-10)
              << "step " << Step << " node " << I << "," << J << "," << K;
        }
  }
}

} // namespace
