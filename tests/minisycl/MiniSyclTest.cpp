//===-- tests/minisycl/MiniSyclTest.cpp - SYCL runtime tests -------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "minisycl/minisycl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace sycl = minisycl;

namespace {

//===----------------------------------------------------------------------===//
// range / id / item
//===----------------------------------------------------------------------===//

TEST(RangeTest, SizesAndTotal) {
  sycl::range<1> R1(10);
  sycl::range<2> R2(4, 5);
  sycl::range<3> R3(2, 3, 4);
  EXPECT_EQ(R1.size(), 10u);
  EXPECT_EQ(R2.size(), 20u);
  EXPECT_EQ(R3.size(), 24u);
  EXPECT_EQ(R3.get(0), 2u);
  EXPECT_EQ(R3[2], 4u);
}

TEST(IdTest, OneDimensionalConvertsToSizeT) {
  sycl::id<1> I(7);
  std::size_t S = I;
  EXPECT_EQ(S, 7u);
}

TEST(IdTest, LinearizeRoundTrip) {
  sycl::range<3> Extent(3, 4, 5);
  for (std::size_t L = 0; L < Extent.size(); ++L) {
    auto I = sycl::id<3>::delinearize(L, Extent);
    EXPECT_EQ(I.linearize(Extent), L);
  }
}

TEST(IdTest, RowMajorOrder) {
  sycl::range<2> Extent(3, 4);
  EXPECT_EQ((sycl::id<2>(0, 1).linearize(Extent)), 1u);
  EXPECT_EQ((sycl::id<2>(1, 0).linearize(Extent)), 4u);
  EXPECT_EQ((sycl::id<2>(2, 3).linearize(Extent)), 11u);
}

TEST(ItemTest, CarriesIdAndRange) {
  sycl::item<2> It(sycl::id<2>(1, 2), sycl::range<2>(4, 4));
  EXPECT_EQ(It.get_id(0), 1u);
  EXPECT_EQ(It.get_id(1), 2u);
  EXPECT_EQ(It.get_linear_id(), 6u);
  EXPECT_EQ(It.get_range().size(), 16u);
}

//===----------------------------------------------------------------------===//
// Devices
//===----------------------------------------------------------------------===//

TEST(DeviceTest, EnumerationHasCpuAndTwoGpus) {
  auto Devices = sycl::device::get_devices();
  ASSERT_EQ(Devices.size(), 3u);
  EXPECT_TRUE(Devices[0].is_cpu());
  EXPECT_TRUE(Devices[1].is_gpu());
  EXPECT_TRUE(Devices[2].is_gpu());
}

TEST(DeviceTest, GpuParametersMatchTable1) {
  // Table 1 of the paper: P630 has 24 EUs, Iris Xe Max has 96; Iris has
  // 4 GB of LPDDR4X.
  auto P630 = sycl::gpu_device_p630();
  auto Iris = sycl::gpu_device_iris_xe_max();
  EXPECT_EQ(P630.max_compute_units(), 24);
  EXPECT_EQ(Iris.max_compute_units(), 96);
  EXPECT_EQ(Iris.global_mem_size(), std::size_t(4) << 30);
  ASSERT_NE(P630.gpu_model(), nullptr);
  EXPECT_DOUBLE_EQ(P630.gpu_model()->PeakFlopsSingle, 0.441e12);
  EXPECT_DOUBLE_EQ(Iris.gpu_model()->PeakFlopsSingle, 2.5e12);
  EXPECT_FALSE(Iris.gpu_model()->NativeDoubleSupport)
      << "Iris Xe Max emulates FP64 (paper Section 5.3)";
}

TEST(DeviceTest, CpuDeviceHasTopology) {
  auto Cpu = sycl::cpu_device();
  EXPECT_TRUE(Cpu.is_cpu());
  EXPECT_FALSE(Cpu.is_gpu());
  EXPECT_EQ(Cpu.gpu_model(), nullptr);
  EXPECT_GE(Cpu.cpu_topology().coreCount(), 1);
  EXPECT_EQ(Cpu.max_compute_units(), Cpu.cpu_topology().coreCount());
}

TEST(DeviceTest, DefaultDeviceHonoursEnv) {
  ::setenv("MINISYCL_DEVICE", "xemax", 1);
  EXPECT_TRUE(sycl::default_device().is_gpu());
  ::setenv("MINISYCL_DEVICE", "cpu", 1);
  EXPECT_TRUE(sycl::default_device().is_cpu());
  ::setenv("MINISYCL_DEVICE", "bogus", 1);
  EXPECT_TRUE(sycl::default_device().is_cpu()) << "unknown filter -> CPU";
  ::unsetenv("MINISYCL_DEVICE");
}

//===----------------------------------------------------------------------===//
// USM
//===----------------------------------------------------------------------===//

TEST(UsmTest, SharedAllocationRoundTrip) {
  auto Before = sycl::usm_live_allocations();
  sycl::queue Q{sycl::cpu_device()};
  int *P = sycl::malloc_shared<int>(100, Q);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(sycl::usm_live_allocations(), Before + 1);
  EXPECT_EQ(sycl::get_pointer_type(P), sycl::usm::alloc::shared);
  std::iota(P, P + 100, 0);
  EXPECT_EQ(P[99], 99);
  sycl::free(P, Q);
  EXPECT_EQ(sycl::usm_live_allocations(), Before);
}

TEST(UsmTest, KindsAreTracked) {
  auto Dev = sycl::cpu_device();
  void *H = sycl::malloc_host<char>(16, Dev);
  void *D = sycl::malloc_device<char>(16, Dev);
  EXPECT_EQ(sycl::get_pointer_type(H), sycl::usm::alloc::host);
  EXPECT_EQ(sycl::get_pointer_type(D), sycl::usm::alloc::device);
  sycl::free(H);
  sycl::free(D);
}

TEST(UsmTest, UnknownPointerReportsUnknown) {
  int Local = 0;
  EXPECT_EQ(sycl::get_pointer_type(&Local), sycl::usm::alloc::unknown);
}

TEST(UsmTest, LiveBytesAccounting) {
  auto Before = sycl::usm_live_bytes();
  auto Dev = sycl::cpu_device();
  double *P = sycl::malloc_shared<double>(1000, Dev);
  EXPECT_EQ(sycl::usm_live_bytes(), Before + 8000);
  sycl::free(P);
  EXPECT_EQ(sycl::usm_live_bytes(), Before);
}

TEST(UsmTest, AllocationsAreCacheLineAligned) {
  auto Dev = sycl::cpu_device();
  for (int I = 0; I < 4; ++I) {
    float *P = sycl::malloc_shared<float>(7, Dev);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % 64, 0u);
    sycl::free(P);
  }
}

//===----------------------------------------------------------------------===//
// Queue and kernels
//===----------------------------------------------------------------------===//

TEST(QueueTest, ParallelForTouchesEveryWorkItem) {
  sycl::queue Q{sycl::cpu_device()};
  const std::size_t N = 10000;
  int *Data = sycl::malloc_shared<int>(N, Q);
  std::fill(Data, Data + N, 0);
  Q.submit([&](sycl::handler &H) {
     H.parallel_for(sycl::range<1>(N),
                    [=](sycl::id<1> I) { Data[I] = int(std::size_t(I)); });
   }).wait_and_throw();
  for (std::size_t I = 0; I < N; ++I)
    ASSERT_EQ(Data[I], int(I));
  sycl::free(Data);
}

TEST(QueueTest, PaperKernelShapeCompilesAndRuns) {
  // The exact shape of the paper's listing (Section 4.2): a command-group
  // lambda, handler::parallel_for, kernel capture by copy.
  sycl::queue Device{sycl::cpu_device()};
  const std::size_t NumParticles = 512;
  float *Buf = sycl::malloc_shared<float>(NumParticles, Device);
  std::fill(Buf, Buf + NumParticles, 1.0f);
  for (int Step = 0; Step < 3; ++Step) {
    auto Kernel = [&](sycl::handler &H) {
      H.parallel_for(sycl::range<1>(NumParticles),
                     [=](sycl::id<1> Ind) { Buf[Ind] *= 2.0f; });
    };
    Device.submit(Kernel).wait_and_throw();
  }
  EXPECT_FLOAT_EQ(Buf[0], 8.0f);
  EXPECT_FLOAT_EQ(Buf[NumParticles - 1], 8.0f);
  sycl::free(Buf);
}

TEST(QueueTest, TwoDimensionalParallelFor) {
  sycl::queue Q{sycl::cpu_device()};
  const std::size_t NX = 32, NY = 17;
  int *Data = sycl::malloc_shared<int>(NX * NY, Q);
  std::fill(Data, Data + NX * NY, 0);
  Q.parallel_for(sycl::range<2>(NX, NY), [=](sycl::id<2> I) {
     Data[I.get(0) * NY + I.get(1)] += 1;
   }).wait();
  for (std::size_t I = 0; I < NX * NY; ++I)
    ASSERT_EQ(Data[I], 1);
  sycl::free(Data);
}

TEST(QueueTest, NdRangeKernelReceivesItems) {
  sycl::queue Q{sycl::cpu_device()};
  const std::size_t N = 256;
  std::atomic<int> Count{0};
  std::atomic<int> *PCount = &Count;
  Q.submit([&](sycl::handler &H) {
     H.parallel_for(sycl::nd_range<1>(sycl::range<1>(N), sycl::range<1>(32)),
                    [=](sycl::item<1> It) {
                      if (It.get_linear_id() < N)
                        PCount->fetch_add(1);
                    });
   }).wait();
  EXPECT_EQ(Count.load(), int(N));
}

TEST(QueueTest, SingleTaskRunsOnce) {
  sycl::queue Q{sycl::cpu_device()};
  int Count = 0;
  int *PCount = &Count;
  Q.submit([&](sycl::handler &H) {
     H.single_task([=] { ++*PCount; });
   }).wait();
  EXPECT_EQ(Count, 1);
}

TEST(QueueTest, MemcpyCopiesBytes) {
  sycl::queue Q{sycl::cpu_device()};
  std::vector<int> Src(100);
  std::iota(Src.begin(), Src.end(), 0);
  int *Dst = sycl::malloc_device<int>(100, Q);
  Q.memcpy(Dst, Src.data(), 100 * sizeof(int)).wait();
  EXPECT_EQ(Dst[42], 42);
  sycl::free(Dst);
}

TEST(QueueTest, EventsMeasureHostTime) {
  sycl::queue Q{sycl::cpu_device()};
  double *Data = sycl::malloc_shared<double>(100000, Q);
  auto Event = Q.parallel_for(sycl::range<1>(100000), [=](sycl::id<1> I) {
    Data[I] = double(std::size_t(I)) * 0.5;
  });
  EXPECT_GT(Event.host_duration_ns(), 0);
  EXPECT_FALSE(Event.is_modeled()) << "CPU events are measured, not modeled";
  sycl::free(Data);
}

TEST(QueueTest, FirstLaunchIsFlaggedAsJit) {
  sycl::queue Q{sycl::cpu_device()};
  auto Kernel = [](sycl::id<1>) {};
  auto First = Q.parallel_for(sycl::range<1>(4), Kernel);
  auto Second = Q.parallel_for(sycl::range<1>(4), Kernel);
  EXPECT_TRUE(First.included_jit());
  EXPECT_FALSE(Second.included_jit());
  Q.reset_jit_cache();
  auto Third = Q.parallel_for(sycl::range<1>(4), Kernel);
  EXPECT_TRUE(Third.included_jit());
}

TEST(QueueTest, CpuPlacesConfigurable) {
  sycl::queue Q{sycl::cpu_device()};
  EXPECT_EQ(Q.get_cpu_places(), sycl::cpu_places::flat);
  Q.set_cpu_places(sycl::cpu_places::numa_domains);
  EXPECT_EQ(Q.get_cpu_places(), sycl::cpu_places::numa_domains);
  // Kernels still execute correctly under arena scheduling.
  int *Data = sycl::malloc_shared<int>(1000, Q);
  std::fill(Data, Data + 1000, 0);
  Q.parallel_for(sycl::range<1>(1000), [=](sycl::id<1> I) { Data[I] = 1; })
      .wait();
  EXPECT_EQ(std::accumulate(Data, Data + 1000, 0), 1000);
  sycl::free(Data);
}

TEST(QueueTest, EnvPlacesSelection) {
  ::setenv("MINISYCL_CPU_PLACES", "numa_domains", 1);
  sycl::queue Q{sycl::cpu_device()};
  EXPECT_EQ(Q.get_cpu_places(), sycl::cpu_places::numa_domains);
  ::unsetenv("MINISYCL_CPU_PLACES");
  sycl::queue Q2{sycl::cpu_device()};
  EXPECT_EQ(Q2.get_cpu_places(), sycl::cpu_places::flat);
}

TEST(QueueTest, ThreadCountClamped) {
  sycl::queue Q{sycl::cpu_device()};
  Q.set_thread_count(100000);
  EXPECT_LE(Q.thread_count(), 100000);
  Q.set_thread_count(0);
  EXPECT_EQ(Q.thread_count(), 1);
}

//===----------------------------------------------------------------------===//
// Simulated GPU queue
//===----------------------------------------------------------------------===//

TEST(GpuQueueTest, ExecutesCorrectlyAndChargesModeledTime) {
  sycl::queue Q{sycl::gpu_device_iris_xe_max()};
  const std::size_t N = 50000;
  float *Data = sycl::malloc_shared<float>(N, Q);
  std::fill(Data, Data + N, 2.0f);

  hichi::gpusim::KernelProfile Profile;
  Profile.StreamedBytesPerItem = 8;
  Profile.FlopsPerItem = 1;

  // One kernel *type* reused across submissions — the JIT cache is keyed
  // by kernel type, exactly like DPC++'s program cache.
  auto Kernel = [=](sycl::id<1> I) { Data[I] *= 3.0f; };
  auto Submit = [&] {
    return Q.submit([&](sycl::handler &H) {
      H.set_workload_hint(Profile);
      H.parallel_for(sycl::range<1>(N), Kernel);
    });
  };

  auto Event = Submit();
  // Simulated GPU queues submit non-blockingly (an in-order device
  // thread executes the command group), so results may only be read
  // after synchronizing — exactly like real SYCL.
  Event.wait();
  EXPECT_FLOAT_EQ(Data[N - 1], 6.0f) << "simulated GPU must still compute";
  EXPECT_TRUE(Event.is_modeled());
  EXPECT_TRUE(Event.included_jit()) << "first launch charges JIT";

  auto Steady = Submit();
  EXPECT_FALSE(Steady.included_jit()); // profiling getters wait internally
  EXPECT_LT(Steady.duration_ns(), Event.duration_ns());
  EXPECT_FLOAT_EQ(Data[N - 1], 18.0f);
  // Steady-state modeled time must equal the analytic model exactly.
  double Expected = hichi::gpusim::modelKernelTimeNs(
      *Q.get_device().gpu_model(), Profile, hichi::Index(N), false);
  EXPECT_NEAR(double(Steady.duration_ns()), Expected, 1.5);
  sycl::free(Data);
}

TEST(GpuQueueTest, WithoutHintFallsBackToHostTime) {
  sycl::queue Q{sycl::gpu_device_p630()};
  int *Data = sycl::malloc_shared<int>(64, Q);
  auto Event =
      Q.parallel_for(sycl::range<1>(64), [=](sycl::id<1> I) { Data[I] = 1; });
  EXPECT_FALSE(Event.is_modeled());
  sycl::free(Data);
}

} // namespace
