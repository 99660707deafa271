//===-- tests/core/RunnerEquivalenceTest.cpp - Strategy equivalence ------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness claim of the port (paper Section 4): the DPC++
/// version computes *the same thing* as the OpenMP reference. Every
/// registered execution backend, over every layout and fusion factor,
/// must produce bitwise-identical particle states through
/// exec::runStepLoop (each particle's update is an identical,
/// order-independent sequence of operations).
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "fields/PrecalculatedFields.h"

#include <gtest/gtest.h>

using namespace hichi;

namespace {

constexpr Index N = 500;
constexpr int Steps = 20;

/// Runs the dipole-wave benchmark kernel in natural-ish units on the
/// registered backend \p Backend (fusing \p FuseSteps steps per launch,
/// its queue on \p Dev) and returns the final particle records.
template <typename Array>
std::vector<ParticleT<double>>
runWith(const std::string &Backend, int FuseSteps = 1,
        minisycl::device Dev = minisycl::cpu_device()) {
  Array Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), 1.0,
                       PS_Electron, /*Seed=*/4242);
  auto Types = ParticleTypeTable<double>::natural();
  // A dipole wave with unit frequency in c = 1 units exercises the full
  // analytic path.
  auto Wave = DipoleWaveSource<double>::fromPower(1.0, 1.0, 1.0);

  auto BackendPtr = exec::createBackend(Backend);
  EXPECT_NE(BackendPtr, nullptr) << Backend;
  minisycl::queue Q{Dev};
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Q;
  exec::StepLoopOptions<double> Opts;
  Opts.LightVelocity = 1.0;
  Opts.FuseSteps = FuseSteps;
  exec::runStepLoop(*BackendPtr, Ctx, Particles, Wave, Types, /*Dt=*/0.05,
                    Steps, Opts);

  std::vector<ParticleT<double>> Out;
  for (Index I = 0; I < N; ++I)
    Out.push_back(Particles[I].load());
  return Out;
}

void expectBitwiseEqual(const std::vector<ParticleT<double>> &A,
                        const std::vector<ParticleT<double>> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Position, B[I].Position) << "particle " << I;
    EXPECT_EQ(A[I].Momentum, B[I].Momentum) << "particle " << I;
    EXPECT_EQ(A[I].Gamma, B[I].Gamma) << "particle " << I;
  }
}

/// The exhaustive cross-product the exec layer must preserve: every
/// registered backend x {AoS, SoA} x {unfused, fused, ragged-fused} is
/// bit-identical to the serial unfused reference. New backends join this
/// matrix just by registering.
TEST(RunnerEquivalenceTest, AllRegisteredBackendsBitIdenticalAcrossFusion) {
  auto Reference = runWith<ParticleArrayAoS<double>>("serial");
  for (const std::string &Backend :
       exec::BackendRegistry::instance().names()) {
    for (int Fuse : {1, 4, 7}) { // 7 does not divide Steps: ragged tail
      expectBitwiseEqual(Reference,
                         runWith<ParticleArrayAoS<double>>(Backend, Fuse));
      expectBitwiseEqual(Reference,
                         runWith<ParticleArraySoA<double>>(Backend, Fuse));
    }
  }
}

/// Sharing one queue between configurations must not leak scheduling
/// state: a dpcpp-numa run used to leave numa_domains (and a clamped
/// thread count) on the queue, silently reconfiguring the next dpcpp run.
TEST(RunnerEquivalenceTest, QueueConfigurationDoesNotLeakBetweenRuns) {
  minisycl::queue Q{minisycl::cpu_device()};
  const minisycl::cpu_places PlacesBefore = Q.get_cpu_places();
  const int WidthBefore = Q.thread_count();

  ParticleArrayAoS<double> Particles(64);
  initializeBallAtRest(Particles, 64, Vector3<double>::zero(), 1.0,
                       PS_Electron, 7);
  auto Types = ParticleTypeTable<double>::natural();
  UniformFieldSource<double> F{{{0.1, 0, 0}, {0, 0, 1.0}}};
  exec::BackendConfig Config;
  Config.Threads = 1;
  auto Backend = exec::createBackend("dpcpp-numa", Config);
  ASSERT_NE(Backend, nullptr);
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Q;
  exec::StepLoopOptions<double> Opts;
  Opts.LightVelocity = 1.0;
  exec::runStepLoop(*Backend, Ctx, Particles, F, Types, 0.01, 3, Opts);

  EXPECT_EQ(Q.get_cpu_places(), PlacesBefore);
  EXPECT_EQ(Q.thread_count(), WidthBefore);
}

TEST(RunnerEquivalenceTest, SimulatedGpuMatchesCpu) {
  auto Cpu = runWith<ParticleArraySoA<double>>("dpcpp", 1,
                                               minisycl::cpu_device());
  auto Gpu = runWith<ParticleArraySoA<double>>(
      "dpcpp", 1, minisycl::gpu_device_iris_xe_max());
  expectBitwiseEqual(Cpu, Gpu);
}

TEST(RunnerEquivalenceTest, PrecalculatedSourceMatchesAnalyticAtFixedTime) {
  // With fields frozen at t = 0 (the precalculated scenario's semantics),
  // a one-step run through the stored table must equal a one-step run
  // through the analytic source.
  auto Types = ParticleTypeTable<double>::natural();
  auto Wave = DipoleWaveSource<double>::fromPower(1.0, 1.0, 1.0);

  ParticleArrayAoS<double> A(N), B(N);
  initializeBallAtRest(A, N, Vector3<double>::zero(), 1.0, PS_Electron, 7);
  initializeBallAtRest(B, N, Vector3<double>::zero(), 1.0, PS_Electron, 7);

  PrecalculatedFields<double> Stored(N);
  Stored.precompute(A, Wave, /*Time=*/0.0);

  auto Serial = exec::createBackend("serial");
  ASSERT_NE(Serial, nullptr);
  exec::StepLoopOptions<double> Opts;
  Opts.LightVelocity = 1.0;
  exec::runStepLoop(*Serial, {}, A, Stored.source(), Types, 0.05, 1, Opts);
  exec::runStepLoop(*Serial, {}, B, Wave, Types, 0.05, 1, Opts);

  for (Index I = 0; I < N; ++I) {
    EXPECT_EQ(A[I].momentum(), B[I].momentum()) << I;
    EXPECT_EQ(A[I].position(), B[I].position()) << I;
  }
}

TEST(RunnerEquivalenceTest, RunStatsArePopulated) {
  ParticleArrayAoS<double> Particles(100);
  initializeBallAtRest(Particles, 100, Vector3<double>::zero(), 1.0,
                       PS_Electron);
  auto Types = ParticleTypeTable<double>::natural();
  UniformFieldSource<double> F{{{0, 0, 0}, {0, 0, 1}}};

  auto Backend = exec::createBackend("dpcpp");
  ASSERT_NE(Backend, nullptr);
  minisycl::queue Q{minisycl::cpu_device()};
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Q;
  exec::StepLoopOptions<double> Opts;
  Opts.LightVelocity = 1.0;
  auto Stats = exec::runStepLoop(*Backend, Ctx, Particles, F, Types, 0.01, 5,
                                 Opts);
  EXPECT_GT(Stats.HostNs, 0.0);
  EXPECT_FALSE(Stats.Modeled);

  // Through a simulated GPU with a workload hint, modeled time appears.
  minisycl::queue GpuQ{minisycl::gpu_device_p630()};
  gpusim::KernelProfile Profile;
  Profile.StreamedBytesPerItem = 72;
  Ctx.Queue = &GpuQ;
  Ctx.GpuWorkload = &Profile;
  auto GpuStats = exec::runStepLoop(*Backend, Ctx, Particles, F, Types, 0.01,
                                    5, Opts);
  EXPECT_TRUE(GpuStats.Modeled);
  EXPECT_GT(GpuStats.ModeledNs, 0.0);
}

} // namespace
