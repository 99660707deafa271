//===-- tests/integration/SweepTest.cpp - Parameterized sweeps -----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-cutting parameterized sweeps: scheduler correctness over a grid
/// of widths/grains/policies, performance-model monotonicity properties,
/// and a smoke test of the full paper benchmark physics in CGS units
/// (the escape dynamics the examples show, asserted coarsely so it runs
/// in CI time).
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "perfmodel/RooflineModel.h"
#include "threading/TaskScheduler.h"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

using namespace hichi;

namespace {

//===----------------------------------------------------------------------===//
// Scheduler sweep: width x grain x policy
//===----------------------------------------------------------------------===//

using SchedulerCase = std::tuple<int /*Width*/, int /*Grain*/, int /*Policy*/>;

class SchedulerSweepTest : public ::testing::TestWithParam<SchedulerCase> {
protected:
  static threading::ThreadPool &pool() {
    static threading::ThreadPool Pool(7); // 8-wide regardless of host
    return Pool;
  }
};

TEST_P(SchedulerSweepTest, EveryIndexVisitedExactlyOnce) {
  const auto [Width, Grain, Policy] = GetParam();
  const Index N = 4099; // prime: exercises ragged chunking
  std::vector<std::atomic<int>> Visits(static_cast<std::size_t>(N));
  auto Body = [&](Index I) { ++Visits[std::size_t(I)]; };

  switch (Policy) {
  case 0:
    threading::staticParallelFor(pool(), 0, N, Width, Body);
    break;
  case 1:
    threading::dynamicParallelFor(pool(), 0, N, Width, Index(Grain), Body);
    break;
  default: {
    CpuTopology Topology(2, 4);
    threading::numaParallelFor(pool(), Topology, 0, N, Width, Index(Grain),
                               Body);
    break;
  }
  }
  for (Index I = 0; I < N; ++I)
    ASSERT_EQ(Visits[std::size_t(I)].load(), 1)
        << "index " << I << " width " << Width << " grain " << Grain
        << " policy " << Policy;
}

INSTANTIATE_TEST_SUITE_P(
    WidthGrainPolicy, SchedulerSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 7, 64, 5000),
                       ::testing::Values(0, 1, 2)));

//===----------------------------------------------------------------------===//
// Performance-model property sweeps
//===----------------------------------------------------------------------===//

using namespace hichi::perfmodel;

class ModelMonotonicityTest
    : public ::testing::TestWithParam<std::tuple<Scenario, Layout,
                                                 Precision>> {};

TEST_P(ModelMonotonicityTest, NspsNeverIncreasesWithThreads) {
  const auto [S, L, P] = GetParam();
  const CpuMachine Node = CpuMachine::xeon8260LNode();
  for (Parallelization Par :
       {Parallelization::OpenMP, Parallelization::DpcppNuma}) {
    double Prev = 1e300;
    for (int T = 1; T <= Node.coreCount(); ++T) {
      double Nsps = predictCpuNsps(Node, S, L, P, Par, T).Nsps;
      ASSERT_LE(Nsps, Prev * 1.0000001)
          << "threads " << T << " " << toString(Par);
      Prev = Nsps;
    }
  }
}

TEST_P(ModelMonotonicityTest, LegsArePositiveAndFinite) {
  const auto [S, L, P] = GetParam();
  const CpuMachine Node = CpuMachine::xeon8260LNode();
  for (int T : {1, 7, 24, 48}) {
    auto Pred = predictCpuNsps(Node, S, L, P, Parallelization::Dpcpp, T);
    ASSERT_GT(Pred.MemoryNs, 0.0);
    ASSERT_GT(Pred.ComputeNs, 0.0);
    ASSERT_TRUE(std::isfinite(Pred.Nsps));
    ASSERT_GE(Pred.RemoteFraction, 0.0);
    ASSERT_LE(Pred.RemoteFraction, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, ModelMonotonicityTest,
    ::testing::Combine(::testing::Values(Scenario::PrecalculatedFields,
                                         Scenario::AnalyticalFields),
                       ::testing::Values(Layout::AoS, Layout::SoA),
                       ::testing::Values(Precision::Single,
                                         Precision::Double)));

TEST(ModelPropertyTest, GpuTimeDecreasesWithBandwidth) {
  auto Gpu = gpusim::GpuParameters::p630();
  gpusim::KernelProfile Profile;
  Profile.StreamedBytesPerItem = 100;
  double Slow = gpusim::modelNsPerItem(Gpu, Profile, 1e6);
  Gpu.BandwidthBytesPerSec *= 2;
  double Fast = gpusim::modelNsPerItem(Gpu, Profile, 1e6);
  EXPECT_NEAR(Slow / Fast, 2.0, 0.05);
}

TEST(ModelPropertyTest, StridedTrafficNeverFasterThanStreamed) {
  auto Gpu = gpusim::GpuParameters::irisXeMax();
  for (double Bytes : {8.0, 72.0, 144.0}) {
    gpusim::KernelProfile Streamed, Strided;
    Streamed.StreamedBytesPerItem = Bytes;
    Strided.StridedBytesPerItem = Bytes;
    EXPECT_LE(gpusim::modelNsPerItem(Gpu, Streamed, 1e6),
              gpusim::modelNsPerItem(Gpu, Strided, 1e6));
  }
}

//===----------------------------------------------------------------------===//
// Paper-benchmark physics smoke test (CGS, real dipole wave)
//===----------------------------------------------------------------------===//

TEST(PaperPhysicsTest, ElectronsEscapeTheFocalRegionAtTenthPetawatt) {
  // Scaled-down version of the Section 5.2 scenario: at P = 0.1 PW the
  // focal fields are strongly relativistic and most electrons leave the
  // 0.6-lambda seed ball within one wave period (the escape-rate physics
  // the benchmark exists to study). Coarse assertions keep this robust.
  const Index N = 500;
  const double Lambda = dipole_benchmark::Wavelength;
  ParticleArrayAoS<double> Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), 0.6 * Lambda,
                       PS_Electron, 99);
  auto Types = ParticleTypeTable<double>::cgs();
  auto Wave = DipoleWaveSource<double>::paperBenchmark();

  const double Period = 2 * constants::Pi / dipole_benchmark::WaveFrequency;
  const int Steps = 100;
  auto Backend = exec::createBackend("openmp");
  ASSERT_NE(Backend, nullptr);
  exec::runStepLoop(*Backend, {}, Particles, Wave, Types, Period / Steps,
                    Steps);

  Index Escaped = countIf(Particles, [&](const auto &P) {
    return P.position().norm() > 0.6 * Lambda;
  });
  double MaxGamma = 0;
  for (Index I = 0; I < N; ++I)
    MaxGamma = std::max(MaxGamma, double(Particles[I].gamma()));

  EXPECT_GT(double(Escaped) / double(N), 0.5)
      << "most electrons must leave the seed ball within one period";
  EXPECT_GT(MaxGamma, 20.0) << "fields at 0.1 PW are strongly relativistic";
  EXPECT_LT(MaxGamma, 1e4) << "and not absurdly so";
}

TEST(PaperPhysicsTest, SeedBallGeometryMatchesPaper) {
  EXPECT_NEAR(dipole_benchmark::Wavelength, 0.9e-4, 0.01e-4);
  EXPECT_DOUBLE_EQ(dipole_benchmark::SeedRadiusFactor, 0.6);
  EXPECT_EQ(dipole_benchmark::ParticlesPerExperiment, 10'000'000);
  EXPECT_EQ(dipole_benchmark::StepsPerIteration, 1'000);
  EXPECT_EQ(dipole_benchmark::IterationsPerExperiment, 10);
}

//===----------------------------------------------------------------------===//
// Full-matrix mini-integration: every runner x layout x precision once
//===----------------------------------------------------------------------===//

template <typename Real, typename Array>
void runMatrixCell(const std::string &BackendName) {
  const Index N = 64;
  Array Particles(N);
  initializeBallAtRest(Particles, N, Vector3<Real>::zero(), Real(1),
                       PS_Electron, 5);
  auto Types = ParticleTypeTable<Real>::natural();
  UniformFieldSource<Real> F{{{Real(0.1), 0, 0}, {0, 0, Real(1)}}};
  auto Backend = exec::createBackend(BackendName);
  ASSERT_NE(Backend, nullptr) << BackendName;
  minisycl::queue Q{minisycl::cpu_device()};
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Q;
  exec::StepLoopOptions<Real> Opts;
  Opts.LightVelocity = Real(1);
  auto Stats =
      exec::runStepLoop(*Backend, Ctx, Particles, F, Types, Real(0.01), 5, Opts);
  EXPECT_GE(Stats.HostNs, 0.0);
  // Momentum must have changed under E.
  EXPECT_NE(Particles[0].momentum(), Vector3<Real>::zero());
}

TEST(RunnerMatrixTest, AllSixteenConfigurationsRun) {
  for (const char *Backend : {"serial", "openmp", "dpcpp", "dpcpp-numa"}) {
    runMatrixCell<float, ParticleArrayAoS<float>>(Backend);
    runMatrixCell<float, ParticleArraySoA<float>>(Backend);
    runMatrixCell<double, ParticleArrayAoS<double>>(Backend);
    runMatrixCell<double, ParticleArraySoA<double>>(Backend);
  }
}

} // namespace
