//===-- tests/pic/FdtdSolverTest.cpp - FDTD Maxwell solver tests ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct unit coverage of the FDTD solver (previously tested only
/// through the PIC integration suites): the Courant limit, the *known*
/// numerical dispersion relation sin(w dt/2) = (c dt/dx) sin(k dx/2) for
/// plane waves, bounded-energy (non-dissipative) long-time behaviour —
/// and the decisive parallelization guarantee: the x-slab-tiled,
/// halo-exchanged, backend-launched step (FdtdSolver::step over an
/// FdtdSlabPartition, and the spectral solver's k-space launches) is
/// *bitwise* identical to the serial solver for every registered
/// backend and tile count.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "exec/SlabPartition.h"
#include "minisycl/minisycl.h"
#include "pic/FdtdSolver.h"
#include "pic/SpectralSolver.h"
#include "pic/TiledCurrentAccumulator.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

/// Fills one lattice with reproducible uniform noise in [-1, 1].
void fillRandom(ScalarLattice<double> &L, RandomStream<double> &Rng) {
  for (double &V : L.raw())
    V = Rng.uniform(-1.0, 1.0);
}

/// A grid whose nine lattices are all non-trivial (E, B and J), so every
/// curl term and the current term exercise real data.
YeeGrid<double> randomGrid(GridSize Size, Vector3<double> Origin,
                           Vector3<double> Step, unsigned Seed) {
  YeeGrid<double> G(Size, Origin, Step);
  RandomStream<double> Rng(Seed);
  for (ScalarLattice<double> *L :
       {&G.Ex, &G.Ey, &G.Ez, &G.Bx, &G.By, &G.Bz, &G.Jx, &G.Jy, &G.Jz})
    fillRandom(*L, Rng);
  return G;
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

void expectFieldsBitwiseEqual(const YeeGrid<double> &A,
                              const YeeGrid<double> &B) {
  expectBitwiseEqual(A.Ex, B.Ex, "Ex");
  expectBitwiseEqual(A.Ey, B.Ey, "Ey");
  expectBitwiseEqual(A.Ez, B.Ez, "Ez");
  expectBitwiseEqual(A.Bx, B.Bx, "Bx");
  expectBitwiseEqual(A.By, B.By, "By");
  expectBitwiseEqual(A.Bz, B.Bz, "Bz");
}

TEST(FdtdSolverTest, CourantLimitMatchesClosedForm) {
  FdtdSolver<double> S(2.0);
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {0.5, 1.0, 2.0});
  const double Inv2 = 1.0 / 0.25 + 1.0 / 1.0 + 1.0 / 4.0;
  EXPECT_NEAR(S.courantLimit(G), 1.0 / (2.0 * std::sqrt(Inv2)), 1e-14);
}

TEST(FdtdSolverTest, PlaneWaveDispersionMatchesYeeTheory) {
  // A mode-2 plane wave along x, tracked through the complex Fourier
  // coefficient of Ey: its phase must advance at the Yee scheme's
  // numerical frequency sin(w dt/2) = (c dt/dx) sin(k dx/2), which on
  // this coarse grid differs measurably from the exact w = c k — the
  // solver must show the *right* dispersion error, not none and not an
  // arbitrary one.
  const Index NX = 16;
  const double K = 2.0 * constants::Pi * 2.0 / double(NX);
  const double Dt = 0.25;
  const int Steps = 400;
  YeeGrid<double> G({NX, 4, 4}, {0, 0, 0}, {1, 1, 1});
  for (Index I = 0; I < NX; ++I)
    for (Index J = 0; J < 4; ++J)
      for (Index K3 = 0; K3 < 4; ++K3) {
        G.Ey(I, J, K3) = std::sin(K * double(I));
        G.Bz(I, J, K3) = std::sin(K * double(I));
      }
  FdtdSolver<double> S(1.0);

  auto FourierPhase = [&]() {
    std::complex<double> C(0, 0);
    for (Index I = 0; I < NX; ++I)
      C += G.Ey(I, 0, 0) *
           std::exp(std::complex<double>(0, -K * double(I)));
    return std::arg(C);
  };

  // Accumulate the unwrapped phase advance over the run; per-step
  // deltas are ~0.19 rad, far from the wrap boundary, and the small
  // counter-propagating admixture of the collocated initialization
  // averages out over 400 steps.
  double Advance = 0;
  double Prev = FourierPhase();
  for (int T = 0; T < Steps; ++T) {
    S.step(G, Dt);
    const double Phase = FourierPhase();
    double Delta = Phase - Prev;
    while (Delta > constants::Pi)
      Delta -= 2.0 * constants::Pi;
    while (Delta < -constants::Pi)
      Delta += 2.0 * constants::Pi;
    Prev = Phase;
    Advance += Delta;
  }
  // Rightward traveller: the phase decreases by w dt per step.
  const double MeasuredOmega = -Advance / (Steps * Dt);
  const double YeeOmega =
      2.0 / Dt * std::asin(Dt * std::sin(K / 2.0)); // c = dx = 1
  const double ExactOmega = K;
  // The scheme's dispersion is real on this grid (w_yee differs from
  // c k by >1.5%), and the measured frequency must match the Yee value,
  // not the exact one.
  ASSERT_GT(std::abs(YeeOmega - ExactOmega), 0.015 * ExactOmega);
  EXPECT_NEAR(MeasuredOmega, YeeOmega, 0.01 * YeeOmega);
  EXPECT_GT(std::abs(MeasuredOmega - ExactOmega),
            std::abs(MeasuredOmega - YeeOmega));
}

TEST(FdtdSolverTest, EnergyStaysBoundedOverManySteps) {
  // The Yee leapfrog is non-dissipative: over hundreds of steps at 87%
  // of the Courant limit, the field energy of a propagating wave must
  // neither decay nor grow secularly.
  YeeGrid<double> G({16, 4, 4}, {0, 0, 0}, {1, 1, 1});
  const double K = 2.0 * constants::Pi * 3.0 / 16.0;
  for (Index I = 0; I < 16; ++I)
    for (Index J = 0; J < 4; ++J)
      for (Index K3 = 0; K3 < 4; ++K3) {
        G.Ey(I, J, K3) = std::sin(K * double(I));
        G.Bz(I, J, K3) = std::sin(K * double(I));
      }
  FdtdSolver<double> S(1.0);
  const double Dt = 0.5; // Courant limit here: 1/sqrt(3) ~ 0.577
  const double E0 = G.fieldEnergy();
  double MinE = E0, MaxE = E0;
  for (int T = 0; T < 400; ++T) {
    S.step(G, Dt);
    const double E = G.fieldEnergy();
    MinE = std::min(MinE, E);
    MaxE = std::max(MaxE, E);
  }
  EXPECT_GT(MinE / E0, 0.95);
  EXPECT_LT(MaxE / E0, 1.05);
  EXPECT_NEAR(G.fieldEnergy() / E0, 1.0, 0.05);
}

TEST(FdtdSolverTest, TiledStepBitwiseMatchesSerial) {
  // The decisive guarantee: the backend-launched x-slab step (halo
  // exchange included) equals the serial leapfrog bit for bit, for
  // every registered backend and tile count — including tiles = Nx
  // (every plane its own tile, every x-neighbour read through a halo).
  const GridSize Size{8, 5, 6};
  const Vector3<double> Origin(-2.0, 1.0, 0.0), Step(0.5, 1.0, 0.8);
  const double Dt = 0.2; // well under the Courant limit for these steps
  const int Steps = 3;

  const YeeGrid<double> Initial = randomGrid(Size, Origin, Step, 99);
  FdtdSolver<double> Solver(1.0);
  YeeGrid<double> Ref = Initial;
  for (int T = 0; T < Steps; ++T)
    Solver.step(Ref, Dt);

  minisycl::queue Queue{minisycl::cpu_device()};
  for (const std::string &Name : exec::BackendRegistry::instance().names()) {
    auto Backend = exec::createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    exec::ExecutionContext Ctx;
    Ctx.Queue = &Queue;
    for (int Tiles : {1, 2, 3, 5, 8, 64}) {
      FdtdSlabPartition<double> Partition(Size, Tiles);
      YeeGrid<double> G = Initial;
      RunStats Stats;
      exec::KernelCache Cache;
      for (int T = 0; T < Steps; ++T)
        Solver
            .submitStep(G, Dt, Partition, *Backend, Ctx, Stats,
                        exec::ExecEvent(), Cache)
            .wait();
      SCOPED_TRACE("backend=" + Name + " tiles=" +
                   std::to_string(Partition.tileCount()));
      expectFieldsBitwiseEqual(G, Ref);
    }
  }

  // Shard axis: the sharded backend partitions the slab launches across
  // its persistent lanes (threads = shard count); every shard count x
  // tile count must still produce the serial bits.
  for (int Shards : {1, 2, 5, 13}) {
    auto Backend = exec::createBackend("sharded", {Shards, 0});
    ASSERT_NE(Backend, nullptr);
    exec::ExecutionContext Ctx;
    for (int Tiles : {1, 3, 8, 64}) {
      FdtdSlabPartition<double> Partition(Size, Tiles);
      YeeGrid<double> G = Initial;
      RunStats Stats;
      exec::KernelCache Cache;
      for (int T = 0; T < Steps; ++T)
        Solver
            .submitStep(G, Dt, Partition, *Backend, Ctx, Stats,
                        exec::ExecEvent(), Cache)
            .wait();
      SCOPED_TRACE("shards=" + std::to_string(Shards) + " tiles=" +
                   std::to_string(Partition.tileCount()));
      expectFieldsBitwiseEqual(G, Ref);
    }
  }
}

TEST(FdtdSolverTest, SpectralTiledStepBitwiseMatchesSerial) {
  // Same guarantee for the spectral solver: the event-chained k-space
  // launch graph (gather → per-line FFT passes → mode update → inverse
  // → scatter) equals the serial step bit for bit for every backend and
  // chunk count.
  const GridSize Size{8, 4, 4};
  const Vector3<double> Origin(0, 0, 0), Step(1, 1, 1);
  const double Dt = 0.4;
  const int Steps = 3;

  const YeeGrid<double> Initial = randomGrid(Size, Origin, Step, 1234);
  SpectralSolver<double> Serial(Size, Step, 1.0);
  YeeGrid<double> Ref = Initial;
  for (int T = 0; T < Steps; ++T)
    Serial.step(Ref, Dt);

  minisycl::queue Queue{minisycl::cpu_device()};
  for (const std::string &Name : exec::BackendRegistry::instance().names()) {
    auto Backend = exec::createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    exec::ExecutionContext Ctx;
    Ctx.Queue = &Queue;
    for (int Tiles : {1, 2, 3, 7, 16}) {
      SpectralSolver<double> Par(Size, Step, 1.0);
      YeeGrid<double> G = Initial;
      RunStats Stats;
      exec::KernelCache Cache;
      for (int T = 0; T < Steps; ++T)
        Par.submitStep(G, Dt, *Backend, Ctx, Tiles, Stats, exec::ExecEvent(),
                       Cache)
            .wait();
      SCOPED_TRACE("backend=" + Name + " tiles=" + std::to_string(Tiles));
      expectFieldsBitwiseEqual(G, Ref);
    }
  }
}

TEST(FdtdSolverTest, SlabPartitionClampsAndCovers) {
  FdtdSlabPartition<double> A({8, 4, 4}, 100);
  EXPECT_EQ(A.tileCount(), 8);
  FdtdSlabPartition<double> B({8, 4, 4}, 0);
  EXPECT_EQ(B.tileCount(), 1);
  FdtdSlabPartition<double> C({7, 4, 4}, 3);
  EXPECT_EQ(C.tileCount(), 3);
  Index Covered = 0;
  for (Index T = 0; T < 3; ++T) {
    EXPECT_EQ(C.tile(T).PlaneBegin, Covered);
    Covered = C.tile(T).PlaneEnd;
  }
  EXPECT_EQ(Covered, 7);
}

TEST(FdtdSolverTest, SlabPartitionDegenerateRequestsMatchDepositTiles) {
  // The degenerate clamp cases both partitions must agree on (they now
  // share exec/SlabPartition.h): negative requests, Nx == 1, and
  // requests past Nx collapse identically on both stages.
  FdtdSlabPartition<double> Negative({8, 4, 4}, -5);
  EXPECT_EQ(Negative.tileCount(), 1);
  FdtdSlabPartition<double> SinglePlane({1, 4, 4}, 100);
  EXPECT_EQ(SinglePlane.tileCount(), 1);
  EXPECT_EQ(SinglePlane.tile(0).PlaneBegin, 0);
  EXPECT_EQ(SinglePlane.tile(0).PlaneEnd, 1);

  // Cross-stage agreement on every clamp outcome, ragged splits
  // included: the deposit tiles and the field slabs must report the
  // same count and identical plane ranges for the same request.
  for (Index Nx : {Index(1), Index(7), Index(8)})
    for (int Requested : {-5, 0, 1, 3, 7, 100}) {
      FdtdSlabPartition<double> Field({Nx, 4, 4}, Requested);
      TiledCurrentAccumulator<double> Deposit({Nx, 4, 4}, {0, 0, 0},
                                              {1, 1, 1}, Requested);
      ASSERT_EQ(Field.tileCount(), Deposit.tileCount())
          << "Nx=" << Nx << " requested=" << Requested;
      for (Index T = 0; T < Index(Field.tileCount()); ++T) {
        const exec::SlabRange R =
            exec::slabRange(Nx, Index(Field.tileCount()), T);
        EXPECT_EQ(Field.tile(T).PlaneBegin, R.Begin);
        EXPECT_EQ(Field.tile(T).PlaneEnd, R.End);
      }
    }
}

} // namespace
