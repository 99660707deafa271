//===-- tests/perfmodel/CalibrationTest.cpp - Measured machine profiles ---===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `hichi-machine-v1` contract: profile JSON round-trips every field
/// bit-identically (the %.17g promise), tier lookup picks the right
/// working-set point, CpuMachine::fromProfile maps the measured figures
/// onto the roofline descriptor, a bounded real measurement produces
/// a sane profile, and a truncated profile file or a non-integer count
/// is refused cleanly.
///
//===----------------------------------------------------------------------===//

#include "perfmodel/Calibration.h"
#include "perfmodel/RooflineModel.h"
#include "perfmodel/WorkloadModel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace hichi;
using namespace hichi::perfmodel;

namespace {

/// A synthetic two-socket-looking profile with deliberately awkward
/// doubles (non-terminating binary fractions, accumulated rounding) —
/// exactly the values a lossy writer would corrupt.
MachineProfile syntheticProfile() {
  MachineProfile P;
  P.Host = "synthetic-host";
  P.Threads = 8;
  P.NumaDomains = 2;
  P.FmaFlopsPerCore = 1.0e9 / 3.0;
  P.FmaFlopsSaturated = (0.1 + 0.2) * 1e10;
  P.Tiers = {
      {16.0 * 1024, 200.0e9 / 3.0, 61.3e9, 1000.0e9 / 7.0, 135.0e9},
      {4.0 * 1024 * 1024, 30.000000000000004e9, 28.1e9, 90.1e9, 85.3e9},
      {64.0 * 1024 * 1024, 12.0e9, 11.0e9, 40.0e9, 38.5e9},
  };
  P.Submit = {{"serial", 120.5, 300.25}, {"openmp", 1.0 / 3.0 * 1e4, 4000.0}};
  return P;
}

TEST(CalibrationTest, JsonRoundTripIsBitIdentical) {
  const MachineProfile P = syntheticProfile();
  const std::string Doc = Calibration::toJson(P);

  json::Value Parsed;
  std::string Error;
  ASSERT_TRUE(json::parse(Doc, Parsed, &Error)) << Error;
  EXPECT_EQ(Parsed.stringOr("schema", ""), "hichi-machine-v1");

  MachineProfile Back;
  ASSERT_TRUE(Calibration::fromJson(Parsed, Back, &Error)) << Error;
  EXPECT_TRUE(Back == P); // operator== compares every double exactly
}

TEST(CalibrationTest, SaveLoadRoundTripsThroughAFile) {
  const MachineProfile P = syntheticProfile();
  const std::string Path = ::testing::TempDir() + "hichi_profile_test.json";
  std::string Error;
  ASSERT_TRUE(Calibration::save(P, Path, &Error)) << Error;

  MachineProfile Back;
  ASSERT_TRUE(Calibration::load(Path, Back, &Error)) << Error;
  EXPECT_TRUE(Back == P);
  std::remove(Path.c_str());
}

/// Hostile input: a saved profile cut at every byte offset before its
/// closing brace is refused with a one-line error and never crashes (the
/// perfmodel target runs under HICHI_SANITIZE=address,undefined).
TEST(CalibrationTest, EveryTruncationFailsCleanly) {
  // The bytes Calibration::save writes.
  const std::string Text = Calibration::toJson(syntheticProfile());
  const std::size_t Close = Text.rfind('}');
  ASSERT_NE(Close, std::string::npos);
  const std::string Path = ::testing::TempDir() + "hichi_profile_cut.json";
  for (std::size_t Size = 0; Size <= Text.size(); ++Size) {
    SCOPED_TRACE("cut to " + std::to_string(Size) + " bytes");
    std::FILE *File = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    ASSERT_EQ(std::fwrite(Text.data(), 1, Size, File), Size);
    std::fclose(File);
    MachineProfile Out;
    std::string Error;
    const bool Loaded = Calibration::load(Path, Out, &Error);
    if (Size > Close) { // the closing brace is in: the control
      EXPECT_TRUE(Loaded) << Error;
      EXPECT_TRUE(Out == syntheticProfile());
      continue;
    }
    EXPECT_FALSE(Loaded);
    EXPECT_FALSE(Error.empty());
    EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
  }
  std::remove(Path.c_str());
}

/// Hostile input: an integer field holding a fraction or a value outside
/// int is refused with a one-line error naming the field — never
/// truncated (16.7 -> 16), wrapped (4294967312 -> 16) or cast out of
/// range (1e99).
TEST(CalibrationTest, NonIntegerOrOutOfRangeIntFieldsAreRefused) {
  for (const char *Field : {"threads", "numa_domains"})
    for (const char *Value : {"16.7", "4294967312", "1e99", "-1e99"}) {
      const std::string Doc =
          std::string(R"({"schema": "hichi-machine-v1", ")") + Field +
          "\": " + Value + "}";
      SCOPED_TRACE(Doc);
      json::Value Parsed;
      std::string Error;
      ASSERT_TRUE(json::parse(Doc, Parsed, &Error)) << Error;
      MachineProfile Out;
      EXPECT_FALSE(Calibration::fromJson(Parsed, Out, &Error));
      EXPECT_NE(Error.find(std::string("\"") + Field + "\""),
                std::string::npos)
          << Error;
      EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
    }
}

TEST(CalibrationTest, FromJsonRejectsWrongSchema) {
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(R"({"schema": "hichi-machine-v0"})", Doc, &Error));
  MachineProfile Out;
  EXPECT_FALSE(Calibration::fromJson(Doc, Out, &Error));
}

TEST(CalibrationTest, TierLookupPicksFirstLargeEnoughTier) {
  const MachineProfile P = syntheticProfile();
  // Below / at the smallest tier: the L1-ish point.
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(1024), P.Tiers[0].PerCoreBandwidth);
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(16.0 * 1024),
                   P.Tiers[0].PerCoreBandwidth);
  // Between tiers: the first tier that fits the working set.
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(1.0 * 1024 * 1024),
                   P.Tiers[1].PerCoreBandwidth);
  // Beyond the last tier: DRAM figures.
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(1e12), P.Tiers[2].PerCoreBandwidth);
  EXPECT_DOUBLE_EQ(P.dramPerCoreBandwidth(), P.Tiers[2].PerCoreBandwidth);
  EXPECT_DOUBLE_EQ(P.dramSaturatedBandwidth(),
                   P.Tiers[2].SaturatedBandwidth);
  // Empty profile: all lookups are 0.
  MachineProfile Empty;
  EXPECT_DOUBLE_EQ(Empty.perCoreBandwidthAt(1024), 0.0);
  EXPECT_DOUBLE_EQ(Empty.dramSaturatedBandwidth(), 0.0);
}

TEST(CalibrationTest, BandwidthTiersDescendTowardDram) {
  // The cache hierarchy's defining monotonicity, pinned on the synthetic
  // profile the other tests use: per-core bandwidth must not increase
  // with working-set size.
  const MachineProfile P = syntheticProfile();
  for (std::size_t I = 1; I < P.Tiers.size(); ++I) {
    EXPECT_LE(P.Tiers[I].PerCoreBandwidth, P.Tiers[I - 1].PerCoreBandwidth);
    EXPECT_LE(P.Tiers[I].SaturatedBandwidth,
              P.Tiers[I - 1].SaturatedBandwidth);
  }
}

TEST(CalibrationTest, SubmitOverheadLookup) {
  const MachineProfile P = syntheticProfile();
  EXPECT_DOUBLE_EQ(P.submitOverheadNs("serial", -1.0), 120.5);
  EXPECT_DOUBLE_EQ(P.submitOverheadNs("openmp", -1.0), 1.0 / 3.0 * 1e4);
  EXPECT_DOUBLE_EQ(P.submitOverheadNs("unmeasured", 42.0), 42.0);
}

TEST(CalibrationTest, FromProfileMapsOntoTheRooflineMachine) {
  const MachineProfile P = syntheticProfile();
  const CpuMachine M = CpuMachine::fromProfile(P);

  EXPECT_EQ(M.Sockets, P.NumaDomains);
  EXPECT_EQ(M.coreCount(), P.Threads);
  // The compute product encodes the measured FMA rate: peak double
  // flops of the whole node = FmaFlopsPerCore x cores, so single
  // (twice the lanes) is twice that.
  EXPECT_NEAR(M.peakFlopsSingle(), 2.0 * P.FmaFlopsPerCore * P.Threads,
              1e-3 * M.peakFlopsSingle());
  // The DRAM tier splits across sockets; per-core is the measured
  // single-core DRAM stream.
  EXPECT_NEAR(M.LocalBandwidthPerSocket * M.Sockets,
              P.dramSaturatedBandwidth(), 1.0);
  EXPECT_DOUBLE_EQ(M.PerCoreBandwidth, P.dramPerCoreBandwidth());
}

TEST(CalibrationTest, StagePredictionsScaleUntilBandwidthSaturates) {
  const CpuMachine M = CpuMachine::fromProfile(syntheticProfile());
  const StageWorkload W = pushStageWorkload(Precision::Double);

  const StagePrediction One = predictStageNs(M, W, 1);
  const StagePrediction Four = predictStageNs(M, W, 4);
  const StagePrediction All = predictStageNs(M, W, M.coreCount());
  // More threads never predict slower...
  EXPECT_LE(Four.NsPerItem, One.NsPerItem);
  EXPECT_LE(All.NsPerItem, Four.NsPerItem);
  // ...and the memory leg is capped by the socket ceiling: 4 cores of
  // 12 GB/s would be 48 GB/s, but the synthetic socket delivers 20.
  const double SocketBw = M.LocalBandwidthPerSocket;
  const double FourCoreBw = 4.0 * M.PerCoreBandwidth;
  if (FourCoreBw > SocketBw) {
    EXPECT_GT(Four.MemoryNs, One.MemoryNs / 4.0);
  }
}

TEST(CalibrationTest, SaturatedFmaBelowSevenTenthsOfIdealIsImplausible) {
  MachineProfile P;
  P.Threads = 4;
  P.FmaFlopsPerCore = 5.0e9;
  P.FmaFlopsSaturated = 21.0e9; // near-linear scaling
  EXPECT_TRUE(Calibration::saturatedFmaPlausible(P, 4));
  P.FmaFlopsSaturated = 0.7 * 4 * 5.0e9; // the boundary is accepted
  EXPECT_TRUE(Calibration::saturatedFmaPlausible(P, 4));
  P.FmaFlopsSaturated = 5.59e9; // barely above one core: a lost worker
  EXPECT_FALSE(Calibration::saturatedFmaPlausible(P, 4));
  P.Threads = 1; // fewer threads than cores: the threads set the ideal
  EXPECT_TRUE(Calibration::saturatedFmaPlausible(P, 4));
  P.FmaFlopsSaturated = 3.0e9;
  EXPECT_FALSE(Calibration::saturatedFmaPlausible(P, 4));
  // 8 logical CPUs on 4 two-way SMT cores: the siblings share each
  // core's FMA units, so about 4 one-core rates is all the host gives.
  P.Threads = 8;
  P.FmaFlopsSaturated = 20.0e9;
  EXPECT_TRUE(Calibration::saturatedFmaPlausible(P, 4));
  EXPECT_FALSE(Calibration::saturatedFmaPlausible(P, 8));
}

TEST(CalibrationTest, BoundedMeasurementProducesASaneProfile) {
  // An ultra-small real measurement: sanity of the machinery, not of
  // the numbers (CI hosts are noisy; the profile only has to be
  // positive and well-formed).
  CalibrationConfig Config;
  Config.Threads = 1;
  Config.Repeats = 1;
  Config.BytesPerRepeat = 256.0 * 1024;
  Config.FmaIterations = 10 * 1000;
  Config.WorkingSets = {64.0 * 1024};
  const MachineProfile P = Calibration::measure(Config);

  EXPECT_FALSE(P.Host.empty());
  EXPECT_EQ(P.Threads, 1);
  EXPECT_GE(P.NumaDomains, 1);
  EXPECT_GT(P.FmaFlopsPerCore, 0.0);
  EXPECT_GT(P.FmaFlopsSaturated, 0.0);
  ASSERT_EQ(P.Tiers.size(), 1u);
  EXPECT_DOUBLE_EQ(P.Tiers[0].WorkingSetBytes, 64.0 * 1024);
  EXPECT_GT(P.Tiers[0].PerCoreBandwidth, 0.0);
  EXPECT_GT(P.Tiers[0].SaturatedBandwidth, 0.0);
  // The slow-tail (p95-of-time) bandwidth can never beat the median.
  EXPECT_LE(P.Tiers[0].PerCoreP95Bandwidth,
            P.Tiers[0].PerCoreBandwidth + 1e-9);
  EXPECT_TRUE(P.Submit.empty()); // measure() leaves submit to the bench

  // And the measured profile round-trips like the synthetic one.
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Calibration::toJson(P), Doc, &Error)) << Error;
  MachineProfile Back;
  ASSERT_TRUE(Calibration::fromJson(Doc, Back, &Error)) << Error;
  EXPECT_TRUE(Back == P);
}

} // namespace
