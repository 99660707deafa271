//===-- tests/support/SupportMiscTest.cpp - Stats/timer/env/topology -----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/AlignedAllocator.h"
#include "support/CpuTopology.h"
#include "support/EnvVar.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace hichi;

namespace {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.stddev(), 2.138, 1e-3); // sample stddev
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats S;
  S.add(3.5);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), 3.5);
  EXPECT_DOUBLE_EQ(S.max(), 3.5);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
}

TEST(RelativeDifferenceTest, Properties) {
  EXPECT_DOUBLE_EQ(relativeDifference(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(relativeDifference(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(relativeDifference(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(relativeDifference(2.0, 1.0), 0.5);
}

// Empty extrema are NaN, not +-infinity: a printf of the seeded
// sentinels used to put "inf"/"-inf" in reports when a stage never ran.
TEST(RunningStatsTest, EmptyExtremaAreNaN) {
  RunningStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_TRUE(std::isnan(S.min()));
  EXPECT_TRUE(std::isnan(S.max()));
  S.add(1.0);
  EXPECT_FALSE(std::isnan(S.min()));
}

TEST(PercentileTest, InterpolatesSortedSamples) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); // empty: defined as 0
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
  const std::vector<double> S = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(S, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(S, 0.25), 17.5); // between 10 and 20
  EXPECT_DOUBLE_EQ(percentile(S, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile(S, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(S, -0.5), 10.0); // Q clamps to [0, 1]
  EXPECT_DOUBLE_EQ(percentile(S, 1.5), 40.0);
}

//===----------------------------------------------------------------------===//
// JSON parser hardening
//===----------------------------------------------------------------------===//

// The parser is recursive-descent: without the depth cap a hostile
// [[[[...]]]] document recursed once per bracket and walked off the
// stack (this test crashed instead of failing on the old code).
TEST(JsonParseTest, RejectsTooDeepNesting) {
  const int TooDeep = json::detail::MaxParseDepth + 1;
  std::string Doc(std::size_t(TooDeep), '[');
  Doc.append(std::size_t(TooDeep), ']');
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse(Doc, V, &Error));
  EXPECT_NE(Error.find("nesting too deep"), std::string::npos) << Error;
}

TEST(JsonParseTest, AcceptsNestingBelowTheCap) {
  const int Deep = json::detail::MaxParseDepth - 1;
  std::string Doc(std::size_t(Deep), '[');
  Doc.append(std::size_t(Deep), ']');
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Doc, V, &Error)) << Error;
  // Mixed object/array nesting counts every container level.
  json::Value V2;
  EXPECT_TRUE(json::parse(R"({"a": [{"b": [1, 2]}]})", V2, &Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Timer / NSPS
//===----------------------------------------------------------------------===//

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch W;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + 1.0;
  EXPECT_GT(W.elapsedNanoseconds(), 0);
  EXPECT_GE(W.elapsedSeconds(), 0.0);
}

TEST(NspsTest, MatchesThePaperDefinition) {
  // "the average time of one iteration in nanoseconds, divided by the
  // number of particles (1e7) and by the number of steps in one iteration
  // (1e3)" — Section 5.2. 10 iterations of 5.3 ms each over 1e7 x 1e3
  // particle-steps is 0.53 NSPS (the Table 2 headline cell).
  double TotalNs = 10 * 5.3e9;
  EXPECT_NEAR(nsPerParticlePerStep(TotalNs, 10, 1e7, 1e3), 0.53, 1e-9);
}

//===----------------------------------------------------------------------===//
// Aligned allocation
//===----------------------------------------------------------------------===//

TEST(AlignedAllocTest, ReturnsAlignedPointers) {
  // The last two sizes sit either side of DirectMapBytes.
  for (std::size_t Bytes : {std::size_t(1), std::size_t(63), std::size_t(64),
                            std::size_t(100), std::size_t(4096),
                            DirectMapBytes - 1, DirectMapBytes}) {
    void *P = alignedAlloc(Bytes);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % HICHI_CACHELINE_SIZE, 0u);
    static_cast<char *>(P)[Bytes - 1] = 1; // the whole block is writable
    alignedFree(P, Bytes);
  }
}

TEST(AlignedAllocTest, ZeroBytesGivesNull) {
  EXPECT_EQ(alignedAlloc(0), nullptr);
  alignedFree(nullptr, 0); // must be a no-op
}

TEST(AlignedAllocatorTest, WorksWithStdVector) {
  std::vector<double, AlignedAllocator<double>> V(1000, 1.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(V.data()) % 64, 0u);
  EXPECT_DOUBLE_EQ(V[999], 1.5);
}

//===----------------------------------------------------------------------===//
// Environment variables
//===----------------------------------------------------------------------===//

TEST(EnvVarTest, StringRoundTrip) {
  ::setenv("HICHI_TEST_STR", "hello", 1);
  auto V = getEnvString("HICHI_TEST_STR");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, "hello");
  ::unsetenv("HICHI_TEST_STR");
  EXPECT_FALSE(getEnvString("HICHI_TEST_STR").has_value());
}

TEST(EnvVarTest, IntParsing) {
  ::setenv("HICHI_TEST_INT", "42", 1);
  EXPECT_EQ(getEnvInt("HICHI_TEST_INT"), 42);
  ::setenv("HICHI_TEST_INT", "-7", 1);
  EXPECT_EQ(getEnvInt("HICHI_TEST_INT"), -7);
  ::setenv("HICHI_TEST_INT", "not-a-number", 1);
  EXPECT_FALSE(getEnvInt("HICHI_TEST_INT").has_value());
  ::setenv("HICHI_TEST_INT", "12abc", 1);
  EXPECT_FALSE(getEnvInt("HICHI_TEST_INT").has_value());
  ::unsetenv("HICHI_TEST_INT");
}

TEST(EnvVarTest, IntParsingTrimsWhitespace) {
  // An `export HICHI_STEPS=" 8 "`-style value must parse, not be
  // silently ignored.
  ::setenv("HICHI_TEST_INT", "  42  ", 1);
  EXPECT_EQ(getEnvInt("HICHI_TEST_INT"), 42);
  ::setenv("HICHI_TEST_INT", "\t-7\n", 1);
  EXPECT_EQ(getEnvInt("HICHI_TEST_INT"), -7);
  ::setenv("HICHI_TEST_INT", "   ", 1);
  EXPECT_FALSE(getEnvInt("HICHI_TEST_INT").has_value());
  ::unsetenv("HICHI_TEST_INT");
}

TEST(EnvVarTest, TrimmedStringAccessor) {
  ::setenv("HICHI_TEST_TRIM", "  serial ", 1);
  EXPECT_EQ(getEnvTrimmed("HICHI_TEST_TRIM"), "serial");
  ::setenv("HICHI_TEST_TRIM", "   ", 1);
  EXPECT_FALSE(getEnvTrimmed("HICHI_TEST_TRIM").has_value());
  ::unsetenv("HICHI_TEST_TRIM");
  EXPECT_FALSE(getEnvTrimmed("HICHI_TEST_TRIM").has_value());
}

TEST(EnvVarTest, BoolParsingAcceptsEverySpelling) {
  // The uniform boolean-knob grammar (MINISYCL_ASYNC_SUBMIT and every
  // other boolean knob): 0/1/true/false/on/off/yes/no,
  // case-insensitive, whitespace-trimmed; anything else keeps the
  // caller's default (nullopt).
  for (const char *Truthy : {"1", "true", "TRUE", "on", "On", "yes", " 1 "}) {
    ::setenv("HICHI_TEST_BOOL", Truthy, 1);
    EXPECT_EQ(getEnvBool("HICHI_TEST_BOOL"), true) << "'" << Truthy << "'";
  }
  for (const char *Falsy :
       {"0", "false", "False", "off", "OFF", "no", "  0\t"}) {
    ::setenv("HICHI_TEST_BOOL", Falsy, 1);
    EXPECT_EQ(getEnvBool("HICHI_TEST_BOOL"), false) << "'" << Falsy << "'";
  }
  for (const char *Junk : {"2", "maybe", "", "  "}) {
    ::setenv("HICHI_TEST_BOOL", Junk, 1);
    EXPECT_FALSE(getEnvBool("HICHI_TEST_BOOL").has_value())
        << "'" << Junk << "'";
  }
  ::unsetenv("HICHI_TEST_BOOL");
  EXPECT_FALSE(getEnvBool("HICHI_TEST_BOOL").has_value());
}

TEST(EnvVarTest, EnvEqualsExactMatch) {
  ::setenv("HICHI_TEST_PLACES", "numa_domains", 1);
  EXPECT_TRUE(envEquals("HICHI_TEST_PLACES", "numa_domains"));
  EXPECT_FALSE(envEquals("HICHI_TEST_PLACES", "NUMA_DOMAINS"));
  ::unsetenv("HICHI_TEST_PLACES");
  EXPECT_FALSE(envEquals("HICHI_TEST_PLACES", "numa_domains"));
}

//===----------------------------------------------------------------------===//
// CPU topology
//===----------------------------------------------------------------------===//

TEST(CpuTopologyTest, PaperNodeMatchesTable1) {
  auto T = CpuTopology::paperNode();
  EXPECT_EQ(T.domainCount(), 2);
  EXPECT_EQ(T.coresPerDomain(), 24);
  EXPECT_EQ(T.coreCount(), 48); // Table 1: "48 cores overall"
}

TEST(CpuTopologyTest, DomainOfCoreIsBlockwise) {
  CpuTopology T(2, 4);
  EXPECT_EQ(T.domainOfCore(0), 0);
  EXPECT_EQ(T.domainOfCore(3), 0);
  EXPECT_EQ(T.domainOfCore(4), 1);
  EXPECT_EQ(T.domainOfCore(7), 1);
}

TEST(CpuTopologyTest, CoresOfDomainAreContiguous) {
  CpuTopology T(3, 2);
  EXPECT_EQ(T.coresOfDomain(1), (std::vector<int>{2, 3}));
  EXPECT_EQ(T.coresOfDomain(2), (std::vector<int>{4, 5}));
}

TEST(CpuTopologyTest, DetectHonoursOverride) {
  ::setenv("HICHI_TOPOLOGY", "2x6", 1);
  auto T = CpuTopology::detect();
  EXPECT_EQ(T.domainCount(), 2);
  EXPECT_EQ(T.coresPerDomain(), 6);
  ::unsetenv("HICHI_TOPOLOGY");
}

TEST(CpuTopologyTest, DetectSurvivesMalformedOverride) {
  ::setenv("HICHI_TOPOLOGY", "banana", 1);
  auto T = CpuTopology::detect();
  EXPECT_GE(T.coreCount(), 1);
  ::unsetenv("HICHI_TOPOLOGY");
}

TEST(CpuTopologyTest, PhysicalCoresNeverExceedLogicalCpus) {
  // SMT siblings fold into one core; the override does not apply.
  ::setenv("HICHI_TOPOLOGY", "2x24", 1);
  const int Cores = CpuTopology::physicalCoreCount();
  ::unsetenv("HICHI_TOPOLOGY");
  EXPECT_GE(Cores, 1);
  EXPECT_LE(Cores, std::max(1, int(std::thread::hardware_concurrency())));
}

} // namespace
