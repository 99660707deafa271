//===-- tests/pic/ShardEquivalenceTest.cpp - Shard-axis equivalence ------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded backend's kernel-level determinism: bitwise memcmp checks
/// of the two kernels the shards actually split, the deposit (J
/// lattices) and the push (particle positions/momenta), against the
/// serial ones at every shard count. Whole-simulation state hashes with
/// sharded stages are the `shard` rows of
/// tests/pic/EquivalenceMatrixTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
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

/// The shard counts: one shard (degenerate), even/odd splits, and more
/// shards than the grid has x-planes per tile group (13 over 16
/// planes — ragged everywhere).
const int ShardAxis[] = {1, 2, 5, 13};

//===----------------------------------------------------------------------===//
// Bitwise memcmp: the sharded deposit against the serial scatter
//===----------------------------------------------------------------------===//

void expectBitwiseEqual(const ScalarLattice<double> &A,
                        const ScalarLattice<double> &B, const char *What) {
  ASSERT_EQ(A.raw().size(), B.raw().size());
  EXPECT_EQ(std::memcmp(A.raw().data(), B.raw().data(),
                        A.raw().size() * sizeof(double)),
            0)
      << What;
}

TEST(ShardEquivalenceTest, DepositBitwiseMatchesSerialScatter) {
  // Random sub-cell moves spanning the periodic box, deposited through
  // the sharded backend, which splits the tiles across its lanes — the J
  // lattices must equal the serial particle-order scatter byte for
  // byte, for every shard count x tile count.
  const GridSize Size{16, 5, 6};
  const Vector3<double> Origin(-2.0, 1.0, 0.0), Step(0.5, 1.0, 0.8);
  const Index N = 400;
  const double Dt = 0.31;

  ParticleArrayAoS<double> Particles(N);
  std::vector<Vector3<double>> OldPos, NewPos;
  RandomStream<double> Rng(17);
  for (Index I = 0; I < N; ++I) {
    const Vector3<double> From(
        Origin.X + Rng.uniform(0.0, double(Size.Nx)) * Step.X,
        Origin.Y + Rng.uniform(0.0, double(Size.Ny)) * Step.Y,
        Origin.Z + Rng.uniform(0.0, double(Size.Nz)) * Step.Z);
    const Vector3<double> To(From.X + Rng.uniform(-0.45, 0.45) * Step.X,
                             From.Y + Rng.uniform(-0.45, 0.45) * Step.Y,
                             From.Z + Rng.uniform(-0.45, 0.45) * Step.Z);
    ParticleT<double> P;
    P.Position = To;
    P.Weight = Rng.uniform(0.5, 2.0);
    P.Type = PS_Electron;
    Particles.pushBack(P);
    OldPos.push_back(From);
    NewPos.push_back(To);
  }
  auto Types = ParticleTypeTable<double>::natural();
  auto View = Particles.view();

  YeeGrid<double> Ref(Size, Origin, Step);
  for (Index I = 0; I < N; ++I)
    depositCurrentEsirkepov(Ref, OldPos[I], NewPos[I],
                            Types[View[I].type()].Charge * View[I].weight(),
                            Dt);

  for (int Shards : ShardAxis) {
    auto Backend = exec::createBackend("sharded", {Shards, 0});
    ASSERT_NE(Backend, nullptr);
    for (int Tiles : {1, 5, 8, 64}) {
      TiledCurrentAccumulator<double> Accumulator(Size, Origin, Step, Tiles);
      YeeGrid<double> G(Size, Origin, Step);
      RunStats Stats;
      exec::KernelCache Cache;
      Accumulator
          .submitDeposit(G, View, OldPos.data(), NewPos.data(), Types.data(),
                         Dt, /*ChargeConserving=*/true, *Backend, {}, Stats,
                         Cache)
          .wait();
      SCOPED_TRACE("shards=" + std::to_string(Shards) + " tiles=" +
                   std::to_string(Accumulator.tileCount()));
      expectBitwiseEqual(G.Jx, Ref.Jx, "Jx");
      expectBitwiseEqual(G.Jy, Ref.Jy, "Jy");
      expectBitwiseEqual(G.Jz, Ref.Jz, "Jz");
    }
  }
}

//===----------------------------------------------------------------------===//
// Bitwise memcmp: the sharded push against the serial step loop
//===----------------------------------------------------------------------===//

template <typename Array>
std::vector<ParticleT<double>> runPush(const std::string &BackendName,
                                       int Shards) {
  const Index N = 257; // prime: ragged shard blocks
  Array Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), 1e-4,
                       PS_Electron, /*Seed=*/4242);
  auto Wave = DipoleWaveSource<double>::paperBenchmark();
  auto Types = ParticleTypeTable<double>::cgs();
  auto Backend = exec::createBackend(BackendName, {Shards, 0});
  EXPECT_NE(Backend, nullptr);
  exec::StepLoopOptions<double> Opts; // Auto fusion: chains on sharded
  exec::runStepLoop(*Backend, {}, Particles, Wave, Types, 1e-13, 8, Opts);

  std::vector<ParticleT<double>> Out;
  auto View = Particles.view();
  for (Index I = 0; I < N; ++I) {
    ParticleT<double> P;
    P.Position = View[I].position();
    P.Momentum = View[I].momentum();
    P.Gamma = View[I].gamma();
    Out.push_back(P);
  }
  return Out;
}

template <typename Array> void checkPushBitwise() {
  const std::vector<ParticleT<double>> Reference =
      runPush<Array>("serial", 0);
  for (int Shards : ShardAxis) {
    const std::vector<ParticleT<double>> Sharded =
        runPush<Array>("sharded", Shards);
    ASSERT_EQ(Sharded.size(), Reference.size());
    for (std::size_t I = 0; I < Reference.size(); ++I) {
      EXPECT_EQ(std::memcmp(&Sharded[I].Position, &Reference[I].Position,
                            sizeof(Vector3<double>)),
                0)
          << "shards=" << Shards << " particle " << I << " position";
      EXPECT_EQ(std::memcmp(&Sharded[I].Momentum, &Reference[I].Momentum,
                            sizeof(Vector3<double>)),
                0)
          << "shards=" << Shards << " particle " << I << " momentum";
      EXPECT_EQ(std::memcmp(&Sharded[I].Gamma, &Reference[I].Gamma,
                            sizeof(double)),
                0)
          << "shards=" << Shards << " particle " << I << " gamma";
    }
  }
}

TEST(ShardEquivalenceTest, PushBitwiseMatchesSerialAoS) {
  checkPushBitwise<ParticleArrayAoS<double>>();
}

TEST(ShardEquivalenceTest, PushBitwiseMatchesSerialSoA) {
  checkPushBitwise<ParticleArraySoA<double>>();
}

} // namespace
