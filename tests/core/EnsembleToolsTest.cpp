//===-- tests/core/EnsembleToolsTest.cpp - Batch pusher, ensemble ops, checkpoints ===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace hichi;

namespace {

//===----------------------------------------------------------------------===//
// BatchPusher: must equal the proxy path bitwise
//===----------------------------------------------------------------------===//

TEST(BatchPusherTest, UniformFieldMatchesProxyPathToUlps) {
  const Index N = 257; // odd size: exercises any remainder handling
  ParticleArraySoA<double> Batch(N), Proxy(N);
  initializeRandomEnsemble(Batch, N, ParticleTypeTable<double>::natural(),
                           Vector3<double>::zero(), 1.0, 3.0, 1.0,
                           PS_Electron, 21);
  copyEnsemble(Batch, Proxy);

  auto Types = ParticleTypeTable<double>::natural();
  const FieldSample<double> F{{0.2, -0.1, 0.05}, {1.0, 0.5, -2.0}};
  for (int Step = 0; Step < 25; ++Step) {
    borisPushBatchSoA(Batch.view(), 0, N, Types[PS_Electron], F, 0.03, 1.0);
    for (Index I = 0; I < N; ++I)
      BorisPusher::push<double>(Proxy[I], F, Types.data(), 0.03, 1.0);
  }
  // The arithmetic is operation-identical, but the compiler may contract
  // multiply-adds into FMAs differently in the two inlining contexts
  // (-ffp-contract is on at -O3), so require agreement to a few ulps
  // rather than bit equality.
  for (Index I = 0; I < N; ++I) {
    const double Scale = Proxy[I].momentum().norm() + 1.0;
    EXPECT_LT((Batch[I].momentum() - Proxy[I].momentum()).norm(),
              1e-14 * Scale)
        << I;
    EXPECT_LT((Batch[I].position() - Proxy[I].position()).norm(), 1e-13)
        << I;
    EXPECT_NEAR(Batch[I].gamma(), Proxy[I].gamma(), 1e-13 * Scale) << I;
  }
}

TEST(BatchPusherTest, PerParticleFieldsMatchProxyPath) {
  const Index N = 128;
  ParticleArraySoA<float> Batch(N), Proxy(N);
  initializeRandomEnsemble(Batch, N, ParticleTypeTable<float>::natural(),
                           Vector3<float>::zero(), 1.0f, 2.0f, 1.0f,
                           PS_Positron, 22);
  copyEnsemble(Batch, Proxy);

  // Per-particle field arrays (the Precalculated scenario's shape).
  std::vector<float> Ex(N), Ey(N), Ez(N), Bx(N), By(N), Bz(N);
  RandomStream<float> Rng(23);
  for (Index I = 0; I < N; ++I) {
    Ex[I] = Rng.uniform(-1, 1);
    Ey[I] = Rng.uniform(-1, 1);
    Ez[I] = Rng.uniform(-1, 1);
    Bx[I] = Rng.uniform(-2, 2);
    By[I] = Rng.uniform(-2, 2);
    Bz[I] = Rng.uniform(-2, 2);
  }
  auto Types = ParticleTypeTable<float>::natural();
  borisPushBatchSoA<float>(Batch.view(), 0, N, Types[PS_Positron], Ex.data(),
                           Ey.data(), Ez.data(), Bx.data(), By.data(),
                           Bz.data(), 0.01f, 1.0f);
  for (Index I = 0; I < N; ++I) {
    FieldSample<float> F{{Ex[I], Ey[I], Ez[I]}, {Bx[I], By[I], Bz[I]}};
    BorisPusher::push<float>(Proxy[I], F, Types.data(), 0.01f, 1.0f);
  }
  for (Index I = 0; I < N; ++I)
    EXPECT_LT((Batch[I].momentum() - Proxy[I].momentum()).norm(),
              1e-6f * (Proxy[I].momentum().norm() + 1.0f))
        << I;
}

TEST(BatchPusherTest, SubRangePushLeavesRestUntouched) {
  const Index N = 100;
  ParticleArraySoA<double> P(N);
  initializeRandomEnsemble(P, N, ParticleTypeTable<double>::natural(),
                           Vector3<double>::zero(), 1.0, 1.0, 1.0,
                           PS_Electron, 24);
  auto Before = P[0].load();
  auto Types = ParticleTypeTable<double>::natural();
  borisPushBatchSoA(P.view(), 50, 100, Types[PS_Electron],
                    FieldSample<double>{{1, 0, 0}, {0, 0, 0}}, 0.1, 1.0);
  EXPECT_EQ(P[0].momentum(), Before.Momentum);
  EXPECT_NE(P[60].momentum(), Vector3<double>::zero());
}

//===----------------------------------------------------------------------===//
// EnsembleOps
//===----------------------------------------------------------------------===//

TEST(EnsembleOpsTest, CountIfAndRemoveIf) {
  ParticleArrayAoS<double> P(100);
  for (int I = 0; I < 100; ++I) {
    ParticleT<double> Particle;
    Particle.Position = {double(I), 0, 0};
    Particle.Weight = double(I);
    P.pushBack(Particle);
  }
  auto FarOut = [](const auto &Proxy) { return Proxy.position().X >= 50; };
  EXPECT_EQ(countIf(P, FarOut), 50);
  EXPECT_EQ(removeIf(P, FarOut), 50);
  EXPECT_EQ(P.size(), 50);
  // Survivors keep order and identity.
  for (Index I = 0; I < 50; ++I)
    EXPECT_DOUBLE_EQ(P[I].weight(), double(I));
  EXPECT_EQ(countIf(P, FarOut), 0);
}

TEST(EnsembleOpsTest, RemoveIfOnSoAAndEmptyResult) {
  ParticleArraySoA<double> P(10);
  for (int I = 0; I < 10; ++I)
    P.pushBack(ParticleT<double>{});
  EXPECT_EQ(removeIf(P, [](const auto &) { return true; }), 10);
  EXPECT_EQ(P.size(), 0);
  EXPECT_EQ(removeIf(P, [](const auto &) { return true; }), 0);
}

//===----------------------------------------------------------------------===//
// Checkpoint
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, RoundTripSameLayout) {
  const std::string Path = "/tmp/hichi_ckpt_test.bin";
  ParticleArrayAoS<double> Out(64);
  initializeRandomEnsemble(Out, 64, ParticleTypeTable<double>::natural(),
                           Vector3<double>(1, 2, 3), 2.0, 5.0, 1.0,
                           PS_Positron, 31);
  ASSERT_TRUE(saveCheckpoint(Out, Path));

  ParticleArrayAoS<double> In(64);
  ASSERT_TRUE(loadCheckpoint(In, Path));
  ASSERT_EQ(In.size(), 64);
  for (Index I = 0; I < 64; ++I) {
    EXPECT_EQ(In[I].position(), Out[I].position()) << I;
    EXPECT_EQ(In[I].momentum(), Out[I].momentum()) << I;
    EXPECT_EQ(In[I].weight(), Out[I].weight()) << I;
    EXPECT_EQ(In[I].gamma(), Out[I].gamma()) << I;
    EXPECT_EQ(In[I].type(), Out[I].type()) << I;
  }
  std::remove(Path.c_str());
}

TEST(CheckpointTest, CrossLayoutRestore) {
  const std::string Path = "/tmp/hichi_ckpt_xlayout.bin";
  ParticleArraySoA<float> Out(32);
  initializeRandomEnsemble(Out, 32, ParticleTypeTable<float>::natural(),
                           Vector3<float>::zero(), 1.0f, 2.0f, 1.0f,
                           PS_Electron, 32);
  ASSERT_TRUE(saveCheckpoint(Out, Path));
  ParticleArrayAoS<float> In(32);
  ASSERT_TRUE(loadCheckpoint(In, Path));
  for (Index I = 0; I < 32; ++I)
    EXPECT_EQ(In[I].momentum(), Out[I].momentum()) << I;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, RejectsWrongPrecisionAndGarbage) {
  const std::string Path = "/tmp/hichi_ckpt_bad.bin";
  ParticleArrayAoS<double> Out(4);
  Out.pushBack(ParticleT<double>{});
  ASSERT_TRUE(saveCheckpoint(Out, Path));

  ParticleArrayAoS<float> WrongPrecision(4);
  EXPECT_FALSE(loadCheckpoint(WrongPrecision, Path));

  std::FILE *File = std::fopen(Path.c_str(), "wb");
  std::fputs("not a checkpoint", File);
  std::fclose(File);
  ParticleArrayAoS<double> In(4);
  EXPECT_FALSE(loadCheckpoint(In, Path));
  std::remove(Path.c_str());

  EXPECT_FALSE(loadCheckpoint(In, "/tmp/does_not_exist_hichi.bin"));
}

TEST(CheckpointTest, RejectsInsufficientCapacity) {
  const std::string Path = "/tmp/hichi_ckpt_cap.bin";
  ParticleArrayAoS<double> Out(8);
  for (int I = 0; I < 8; ++I)
    Out.pushBack(ParticleT<double>{});
  ASSERT_TRUE(saveCheckpoint(Out, Path));
  ParticleArrayAoS<double> Small(4);
  EXPECT_FALSE(loadCheckpoint(Small, Path));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// queue::fill / queue::copy
//===----------------------------------------------------------------------===//

TEST(QueueFillCopyTest, FillAndCopyUsm) {
  minisycl::queue Q{minisycl::cpu_device()};
  const std::size_t N = 1000;
  double *A = minisycl::malloc_shared<double>(N, Q);
  double *B = minisycl::malloc_shared<double>(N, Q);
  Q.fill(A, 3.5, N).wait();
  for (std::size_t I = 0; I < N; ++I)
    ASSERT_DOUBLE_EQ(A[I], 3.5);
  Q.copy(A, B, N).wait();
  EXPECT_DOUBLE_EQ(B[N - 1], 3.5);
  minisycl::free(A);
  minisycl::free(B);
}

} // namespace
