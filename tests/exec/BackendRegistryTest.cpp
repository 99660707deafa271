//===-- tests/exec/BackendRegistryTest.cpp - Backend layer units ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the execution-backend layer itself: registry lookup and
/// enumeration semantics, launch coverage (every particle x step pair
/// exactly once, including ragged fused tails), and the queue
/// configuration save/restore that fixes the historic state leak between
/// runs sharing a queue.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "exec/Backends.h"
#include "minisycl/minisycl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace hichi;
using namespace hichi::exec;

namespace {

TEST(BackendRegistryTest, BuiltinsEnumerateInRegistrationOrder) {
  std::vector<std::string> Names = BackendRegistry::instance().names();
  ASSERT_GE(Names.size(), 5u);
  EXPECT_EQ(Names[0], "serial");
  EXPECT_EQ(Names[1], "openmp");
  EXPECT_EQ(Names[2], "dpcpp");
  EXPECT_EQ(Names[3], "dpcpp-numa");
  EXPECT_EQ(Names[4], "sharded");
}

TEST(BackendRegistryTest, CreateResolvesEveryRegisteredName) {
  for (const std::string &Name : BackendRegistry::instance().names()) {
    auto Backend = createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    // "auto" is the one deliberate exception to name() == registry key:
    // its factory returns the planned delegate itself (exec/Autotuner.h),
    // so the created object truthfully reports the concrete strategy.
    if (Name == "auto")
      EXPECT_TRUE(BackendRegistry::instance().contains(Backend->name()));
    else
      EXPECT_EQ(Backend->name(), Name);
    EXPECT_FALSE(BackendRegistry::instance().description(Name).empty());
  }
}

TEST(BackendRegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(createBackend("no-such-backend"), nullptr);
  EXPECT_FALSE(BackendRegistry::instance().contains("no-such-backend"));
  EXPECT_EQ(BackendRegistry::instance().description("no-such-backend"), "");
}

TEST(BackendRegistryTest, ListBackendNamesJoinsWithSeparator) {
  std::string Listing = listBackendNames("|");
  EXPECT_NE(Listing.find("serial|openmp|dpcpp|dpcpp-numa"), std::string::npos);
}

/// A trivial user-provided backend: serial execution under a new name
/// (implementing the event-based submit API synchronously).
class EchoBackend final : public ExecutionBackend {
public:
  const char *name() const override { return "echo"; }

protected:
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &, RunStats &Stats) override {
    waitForDependencies(Spec);
    Kernel(0, Spec.Items, Spec.StepBegin, Spec.StepEnd);
    Stats.HostNs += 1;
    Stats.ModeledNs += 1;
    return ExecEvent();
  }
};

TEST(BackendRegistryTest, CustomBackendRegistersOnceAndAppendsToEnumeration) {
  BackendRegistry &Registry = BackendRegistry::instance();
  const bool First = Registry.contains("echo")
                         ? true // a previous test in this process added it
                         : Registry.registerBackend(
                               "echo", "serial under another name",
                               [](const BackendConfig &) {
                                 return std::make_unique<EchoBackend>();
                               });
  EXPECT_TRUE(First);

  // Duplicate registration must be rejected and change nothing.
  EXPECT_FALSE(Registry.registerBackend("echo", "dup",
                                        [](const BackendConfig &) {
                                          return std::make_unique<EchoBackend>();
                                        }));
  EXPECT_FALSE(
      Registry.registerBackend("serial", "shadow", [](const BackendConfig &) {
        return std::make_unique<EchoBackend>();
      }));

  std::vector<std::string> Names = Registry.names();
  EXPECT_EQ(Names.back(), "echo");
  auto Backend = createBackend("echo");
  ASSERT_NE(Backend, nullptr);
  RunStats Stats;
  int Calls = 0;
  auto Body = [&](Index, Index, int, int) { ++Calls; };
  StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
  Backend->submit({10, 0, 1}, Kernel, {}, Stats).wait();
  EXPECT_EQ(Calls, 1);
}

/// Runs \p BackendName over a 4099-particle x 7-step space in fused
/// groups of \p Fuse and asserts every (particle, step) pair is visited
/// exactly once with steps ascending per particle.
void expectFullCoverage(const std::string &BackendName, int Fuse) {
  const Index N = 4099; // prime: exercises ragged chunking
  const int Steps = 7;  // not divisible by Fuse=2,4: ragged fused tail
  auto Backend = createBackend(BackendName, {/*Threads=*/0, /*Grain=*/128});
  ASSERT_NE(Backend, nullptr);
  minisycl::queue Q{minisycl::cpu_device()};
  ExecutionContext Ctx;
  Ctx.Queue = &Q;

  const std::size_t Slots = static_cast<std::size_t>(N);
  std::vector<std::atomic<int>> Visits(Slots);
  std::vector<std::atomic<int>> LastStep(Slots);
  for (Index I = 0; I < N; ++I)
    LastStep[std::size_t(I)] = -1;

  auto Body = [&](Index Begin, Index End, int StepBegin, int StepEnd) {
    for (int S = StepBegin; S < StepEnd; ++S)
      for (Index I = Begin; I < End; ++I) {
        ++Visits[std::size_t(I)];
        int Prev = LastStep[std::size_t(I)].exchange(S);
        EXPECT_LT(Prev, S) << "steps must ascend per particle";
      }
  };
  StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());

  RunStats Stats;
  for (int S = 0; S < Steps; S += Fuse)
    Backend->submit({N, S, std::min(S + Fuse, Steps)}, Kernel, Ctx, Stats)
        .wait();

  for (Index I = 0; I < N; ++I)
    ASSERT_EQ(Visits[std::size_t(I)].load(), Steps) << "particle " << I;
  EXPECT_GE(Stats.HostNs, 0.0);
}

class BackendCoverageTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BackendCoverageTest, EveryParticleStepPairVisitedExactlyOnce) {
  const auto &[Name, Fuse] = GetParam();
  expectFullCoverage(Name, Fuse);
}

INSTANTIATE_TEST_SUITE_P(
    AllBuiltins, BackendCoverageTest,
    ::testing::Combine(::testing::Values("serial", "openmp", "dpcpp",
                                         "dpcpp-numa"),
                       ::testing::Values(1, 2, 4, 7)),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param) + "_fuse" +
                         std::to_string(std::get<1>(Info.param));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(BackendQueueStateTest, DpcppNumaLaunchRestoresQueueConfiguration) {
  minisycl::queue Q{minisycl::cpu_device()};
  const minisycl::cpu_places PlacesBefore = Q.get_cpu_places();
  const int WidthBefore = Q.thread_count();
  ASSERT_EQ(PlacesBefore, minisycl::cpu_places::flat);

  auto Numa = createBackend("dpcpp-numa", {/*Threads=*/1});
  ASSERT_NE(Numa, nullptr);
  ExecutionContext Ctx;
  Ctx.Queue = &Q;
  auto Body = [](Index, Index, int, int) {};
  StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
  RunStats Stats;
  Numa->submit({64, 0, 1}, Kernel, Ctx, Stats).wait();

  // The historic leak: numa_domains / thread_count=1 used to stick to the
  // queue and silently reconfigure the next dpcpp run.
  EXPECT_EQ(Q.get_cpu_places(), PlacesBefore);
  EXPECT_EQ(Q.thread_count(), WidthBefore);
}

TEST(BackendQueueStateTest, DpcppBackendsRequireAQueue) {
  auto Backend = createBackend("dpcpp");
  ASSERT_NE(Backend, nullptr);
  EXPECT_TRUE(Backend->needsQueue());
  EXPECT_FALSE(createBackend("serial")->needsQueue());
  EXPECT_FALSE(createBackend("openmp")->needsQueue());

  auto Body = [](Index, Index, int, int) {};
  StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
  RunStats Stats;
  EXPECT_DEATH(Backend->submit({8, 0, 1}, Kernel, {}, Stats).wait(),
               "require a minisycl::queue");
}

TEST(BackendConfigTest, CoarseTileLaunchVisitsEveryItemExactlyOnce) {
  // The deposition launch shape: a handful of coarse read-modify-write
  // items (current tiles) with GrainHint = 1 so dynamic backends schedule
  // one chunk per tile. Every backend must still cover each item exactly
  // once — that is what makes the disjoint-ownership scatter race-free.
  minisycl::queue Q{minisycl::cpu_device()};
  for (const std::string &Name : BackendRegistry::instance().names()) {
    auto Backend = createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    ExecutionContext Ctx;
    Ctx.Queue = &Q;
    const Index Tiles = 13;
    std::vector<std::atomic<int>> Visits(static_cast<std::size_t>(Tiles));
    auto Body = [&](Index Begin, Index End, int, int) {
      for (Index T = Begin; T < End; ++T)
        ++Visits[std::size_t(T)];
    };
    StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
    RunStats Stats;
    LaunchSpec Spec;
    Spec.Items = Tiles;
    Spec.StepBegin = 0;
    Spec.StepEnd = 1;
    Spec.GrainHint = 1;
    Backend->submit(Spec, Kernel, Ctx, Stats).wait();
    for (Index T = 0; T < Tiles; ++T)
      EXPECT_EQ(Visits[std::size_t(T)].load(), 1)
          << Name << " tile " << T;
  }
}

TEST(BackendRegistryTest, ConcurrentUseFromSchedulerThreadsIsSafe) {
  // The serve scheduler's workers hit the registry concurrently: each
  // job construction resolves three backends by name while tools and
  // pools may be registering. Hammer every entry point from many
  // threads; the registrations must have exactly one winner per name
  // and every lookup must resolve consistently (TSan-clean under
  // ctest's threading job when enabled).
  BackendRegistry &Registry = BackendRegistry::instance();
  const int ThreadCount = 8;
  const int Rounds = 50;
  std::atomic<int> RaceWinners{0};
  std::atomic<bool> Failed{false};

  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&, T] {
      // One name all threads race for, and one unique name per thread.
      if (Registry.registerBackend("threaded-race", "race target",
                                   [](const BackendConfig &) {
                                     return std::make_unique<EchoBackend>();
                                   }))
        ++RaceWinners;
      const std::string Mine = "threaded-" + std::to_string(T);
      if (!Registry.registerBackend(Mine, "per-thread entry",
                                    [](const BackendConfig &) {
                                      return std::make_unique<EchoBackend>();
                                    }))
        Failed = true;
      for (int R = 0; R < Rounds; ++R) {
        if (!createBackend("serial") || !createBackend(Mine) ||
            !Registry.contains("threaded-race") ||
            Registry.description("serial").empty())
          Failed = true;
        (void)Registry.names();
        (void)createBackend("no-such-backend");
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_FALSE(Failed.load());
  EXPECT_EQ(RaceWinners.load(), 1)
      << "concurrent duplicate registration must have exactly one winner";
  for (int T = 0; T < ThreadCount; ++T)
    EXPECT_TRUE(Registry.contains("threaded-" + std::to_string(T)));
}

TEST(BackendConfigTest, SerialAndStaticHandleEmptyAndTinyRanges) {
  for (const char *Name : {"serial", "openmp"}) {
    auto Backend = createBackend(Name);
    int Calls = 0;
    auto Body = [&](Index Begin, Index End, int, int) {
      EXPECT_LT(Begin, End);
      ++Calls;
    };
    StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
    RunStats Stats;
    Backend->submit({0, 0, 3}, Kernel, {}, Stats).wait(); // empty range
    Backend->submit({5, 2, 2}, Kernel, {}, Stats).wait(); // empty step group
    EXPECT_EQ(Calls, 0) << Name;
    Backend->submit({1, 0, 1}, Kernel, {}, Stats).wait(); // single particle
    EXPECT_GE(Calls, 1) << Name;
  }
}

} // namespace
