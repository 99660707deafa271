//===-- tests/serve/ServeTest.cpp - Serving-layer contracts --------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The serving layer's four contracts:
//
//   * bit-identity — every job served over the shared pool (several
//     workers, each driving one job on its own slot) hashes identically
//     to a standalone serial run of the same spec;
//   * fairness — quantum rotation lets short jobs complete before a
//     long head-of-queue job monopolizes the pool;
//   * cancellation — a cancelled job stops at a step boundary and its
//     lanes return to the pool, which stays fully usable;
//   * crash recovery — a scheduler killed mid-run (MaxQuanta) leaves
//     checkpoints from which a FRESH scheduler resumes every unfinished
//     job to the same final hash.
//
// Around them, job-spec parsing: well-formed documents parse, and a
// job-spec file cut anywhere, flipped at any bit, or holding an integer
// field that is fractional or out of int range is refused with a
// one-line error (or, for a flip, loads only valid specs).
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace hichi;
using namespace hichi::serve;

namespace {

std::string makeStateDir(const char *Name) {
  const std::string Dir = testing::TempDir() + Name;
  ::mkdir(Dir.c_str(), 0777);
  return Dir;
}

JobSpec smallJob(const std::string &Name, int Steps, int Nx = 16) {
  JobSpec Spec;
  Spec.Name = Name;
  Spec.Nx = Nx;
  Spec.Ny = 4;
  Spec.Nz = 4;
  Spec.PerCell = 2;
  Spec.Steps = Steps;
  return Spec;
}

std::map<std::string, JobResult> resultsByName(const Scheduler &Sched) {
  std::map<std::string, JobResult> Out;
  for (const JobResult &R : Sched.results())
    Out[R.Name] = R;
  return Out;
}

TEST(ServeTest, ServedMatchesStandaloneAcrossTenantsAndWorkers) {
  BackendPool Pool(/*TotalLanes=*/8, /*LanesPerJob=*/2);
  ServeConfig Config;
  Config.Workers = 4; // one job per worker: all 4 slots busy at once
  Scheduler Sched(Pool, Config);

  const std::vector<JobSpec> Specs = syntheticJobMix(8, /*Tenants=*/2);
  for (const JobSpec &Spec : Specs)
    Sched.enqueue(Spec);
  ASSERT_TRUE(Sched.run());

  const auto Results = resultsByName(Sched);
  ASSERT_EQ(Results.size(), Specs.size());
  for (const JobSpec &Spec : Specs) {
    const JobResult &R = Results.at(Spec.Name);
    EXPECT_EQ(R.State, JobState::Completed) << Spec.Name << ": " << R.Error;
    EXPECT_EQ(R.StepsDone, Spec.Steps);
    EXPECT_EQ(R.Hash, runStandalone(Spec))
        << Spec.Name << " diverged from its standalone serial run";
  }
  EXPECT_EQ(Pool.freeSlots(), Pool.slotCount());
}

TEST(ServeTest, QuantumRotationLetsShortJobsFinishFirst) {
  const std::string StateDir = makeStateDir("serve_fairness");
  BackendPool Pool(/*TotalLanes=*/4, /*LanesPerJob=*/2);
  ServeConfig Config;
  Config.Workers = 1;  // deterministic ordering: one worker
  Config.QuantumSteps = 8;
  Config.StateDir = StateDir;
  Scheduler Sched(Pool, Config);

  Sched.enqueue(smallJob("long", /*Steps=*/48));
  Sched.enqueue(smallJob("short-a", /*Steps=*/8));
  Sched.enqueue(smallJob("short-b", /*Steps=*/8));
  ASSERT_TRUE(Sched.run());

  // Completion order: the long head-of-queue job was suspended at each
  // quantum, so both shorts finished before it despite arriving later.
  std::vector<std::string> CompletionOrder;
  for (const JobResult &R : Sched.results())
    if (R.State == JobState::Completed)
      CompletionOrder.push_back(R.Name);
  ASSERT_EQ(CompletionOrder.size(), 3u);
  EXPECT_EQ(CompletionOrder.back(), "long");

  // The rotation's suspend/resume cycles must not cost bit-identity.
  const auto Results = resultsByName(Sched);
  EXPECT_EQ(Results.at("long").Hash, runStandalone(smallJob("long", 48)));
  EXPECT_EQ(Results.at("short-a").Hash,
            runStandalone(smallJob("short-a", 8)));
}

TEST(ServeTest, CancellationMidRunLeavesPoolReusable) {
  const std::string StateDir = makeStateDir("serve_cancel");
  BackendPool Pool(/*TotalLanes=*/4, /*LanesPerJob=*/2);
  ServeConfig Config;
  Config.Workers = 1;
  Config.QuantumSteps = 4;
  Config.StateDir = StateDir;
  Scheduler Sched(Pool, Config);

  // A job big enough that cancellation lands mid-run on any host (600
  // steps could finish inside the 50 ms on a fast host; uncancelled,
  // this one runs for seconds).
  const int VictimSteps = 12000;
  Sched.enqueue(smallJob("victim", VictimSteps, /*Nx=*/32));
  Sched.enqueue(smallJob("bystander", /*Steps=*/8));

  std::thread Runner([&] { Sched.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(Sched.cancel("victim"));
  EXPECT_FALSE(Sched.cancel("no-such-job"));
  Runner.join();

  const auto Results = resultsByName(Sched);
  EXPECT_EQ(Results.at("victim").State, JobState::Cancelled);
  EXPECT_LT(Results.at("victim").StepsDone, VictimSteps);
  EXPECT_EQ(Results.at("bystander").State, JobState::Completed);
  EXPECT_EQ(Results.at("bystander").Hash,
            runStandalone(smallJob("bystander", 8)));

  // Every lane lease returned; the same pool serves a fresh scheduler.
  EXPECT_EQ(Pool.freeSlots(), Pool.slotCount());
  Scheduler After(Pool, ServeConfig{});
  After.enqueue(smallJob("after-cancel", /*Steps=*/12));
  ASSERT_TRUE(After.run());
  EXPECT_EQ(resultsByName(After).at("after-cancel").Hash,
            runStandalone(smallJob("after-cancel", 12)));
}

TEST(ServeTest, CrashRecoveryResumesToBitIdenticalHashes) {
  const std::string StateDir = makeStateDir("serve_crash");
  // Make sure stale state from a previous test run cannot interfere.
  std::remove(Scheduler::manifestPath(StateDir).c_str());

  BackendPool Pool(/*TotalLanes=*/4, /*LanesPerJob=*/2);
  const std::vector<JobSpec> Specs = {smallJob("crash-a", 24),
                                      smallJob("crash-b", 24),
                                      smallJob("crash-c", 24)};

  ServeConfig Crashing;
  Crashing.Workers = 1;
  Crashing.QuantumSteps = 6;
  Crashing.StateDir = StateDir;
  Crashing.MaxQuanta = 2; // "kill" the scheduler after two quanta
  {
    Scheduler Sched(Pool, Crashing);
    for (const JobSpec &Spec : Specs) {
      std::remove(Sched.checkpointPath(Spec.Name).c_str());
      Sched.enqueue(Spec);
    }
    EXPECT_FALSE(Sched.run()) << "MaxQuanta should stop with work left";
    // The crash left at least one mid-run checkpoint behind.
    bool AnyCheckpoint = false;
    for (const JobSpec &Spec : Specs)
      if (std::FILE *F =
              std::fopen(Sched.checkpointPath(Spec.Name).c_str(), "rb")) {
        std::fclose(F);
        AnyCheckpoint = true;
      }
    EXPECT_TRUE(AnyCheckpoint);
  }
  EXPECT_EQ(Pool.freeSlots(), Pool.slotCount());

  // A fresh scheduler over the same StateDir: already-completed jobs
  // keep their recorded hashes, interrupted ones restore from their
  // checkpoints and continue.
  ServeConfig Recovering = Crashing;
  Recovering.MaxQuanta = -1;
  Scheduler Resumed(Pool, Recovering);
  for (const JobSpec &Spec : Specs)
    Resumed.enqueue(Spec);
  ASSERT_TRUE(Resumed.run());

  const auto Results = resultsByName(Resumed);
  for (const JobSpec &Spec : Specs) {
    const JobResult &R = Results.at(Spec.Name);
    EXPECT_EQ(R.State, JobState::Completed) << Spec.Name << ": " << R.Error;
    EXPECT_EQ(R.Hash, runStandalone(Spec))
        << Spec.Name << " did not resume bit-identically after the crash";
  }
}

TEST(ServeTest, JobSpecJsonParsing) {
  std::vector<JobSpec> Specs;
  std::string Error;
  json::Value Doc;
  ASSERT_TRUE(json::parse(R"({"jobs": [
        {"name": "a", "tenant": "t1", "nx": 24, "steps": 10},
        {"name": "b", "solver": "spectral", "graph": false}
      ]})",
                          Doc, &Error))
      << Error;
  ASSERT_TRUE(parseJobSpecs(Doc, Specs, &Error)) << Error;
  ASSERT_EQ(Specs.size(), 2u);
  EXPECT_EQ(Specs[0].Tenant, "t1");
  EXPECT_EQ(Specs[0].Nx, 24);
  EXPECT_EQ(Specs[0].Steps, 10);
  EXPECT_EQ(Specs[1].Solver, "spectral");
  EXPECT_FALSE(Specs[1].UseGraph);

  ASSERT_TRUE(
      json::parse(R"([{"name": "dup"}, {"name": "dup"}])", Doc, &Error));
  EXPECT_FALSE(parseJobSpecs(Doc, Specs, &Error));
  EXPECT_NE(Error.find("duplicate"), std::string::npos) << Error;
  EXPECT_FALSE(json::parse("{not json", Doc, &Error));
  EXPECT_FALSE(Error.empty());
}

/// The spec file the hostile-input tables below start from.
const char *const SpecText = R"({"jobs": [
  {"name": "a", "tenant": "t1", "nx": 24, "steps": 10, "amplitude": 0.05},
  {"name": "b", "solver": "spectral", "graph": false, "sort_every": 7}
]}
)";

/// Writes \p Bytes to \p Path.
void writeFile(const std::string &Path, const std::string &Bytes) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), File), Bytes.size());
  std::fclose(File);
}

/// Hostile input: a job-spec file cut at every byte offset before its
/// closing brace is refused with a one-line error and never crashes (the
/// serve target runs under HICHI_SANITIZE=address,undefined).
TEST(ServeTest, EveryJobSpecTruncationFailsCleanly) {
  const std::string Text = SpecText;
  const std::size_t Close = Text.rfind('}');
  const std::string Path = testing::TempDir() + "hichi_jobs_cut.json";
  for (std::size_t Size = 0; Size <= Text.size(); ++Size) {
    SCOPED_TRACE("cut to " + std::to_string(Size) + " bytes");
    writeFile(Path, Text.substr(0, Size));
    std::vector<JobSpec> Specs;
    std::string Error;
    const bool Loaded = loadJobSpecs(Path, Specs, &Error);
    if (Size > Close) { // the closing brace is in: the control
      EXPECT_TRUE(Loaded) << Error;
      EXPECT_EQ(Specs.size(), 2u);
      continue;
    }
    EXPECT_FALSE(Loaded);
    EXPECT_FALSE(Error.empty());
    EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
  }
  std::remove(Path.c_str());
}

/// Hostile input: the same file with one byte flipped (XOR 0x01 and XOR
/// 0x80, at every offset) is either refused with a one-line error or
/// loads specs that pass validateJobSpec.
TEST(ServeTest, EveryJobSpecBitFlipFailsCleanlyOrLoadsValidSpecs) {
  const std::string Text = SpecText;
  const std::string Path = testing::TempDir() + "hichi_jobs_flip.json";
  for (std::size_t Offset = 0; Offset < Text.size(); ++Offset) {
    for (unsigned char Mask : {0x01, 0x80}) {
      SCOPED_TRACE("byte " + std::to_string(Offset) + " xor " +
                   std::to_string(Mask));
      std::string Mutant = Text;
      Mutant[Offset] = char((unsigned char)Mutant[Offset] ^ Mask);
      writeFile(Path, Mutant);
      std::vector<JobSpec> Specs;
      std::string Error;
      if (!loadJobSpecs(Path, Specs, &Error)) {
        EXPECT_FALSE(Error.empty());
        EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
        continue;
      }
      EXPECT_FALSE(Specs.empty());
      for (const JobSpec &Spec : Specs)
        EXPECT_TRUE(validateJobSpec(Spec, &Error)) << Error;
    }
  }
  std::remove(Path.c_str());
}

/// Hostile input: a field holding another JSON type than its own, or an
/// integer field holding a fraction or a value outside int, is refused
/// with a one-line error naming the field — never read as the default (a
/// quoted "steps": "2" once ran the default 48 steps), truncated
/// (16.7 -> 16), wrapped (4294967312 -> 16) or cast out of range (1e99).
TEST(ServeTest, WrongTypeNonIntegerOrOutOfRangeFieldsAreRefused) {
  std::vector<std::pair<std::string, std::string>> Rows;
  for (const char *Field : {"nx", "ny", "nz", "per_cell", "steps",
                            "sort_every", "energy_every"})
    for (const char *Value : {"16.7", "4294967312", "1e99", "-1e99",
                              "\"8\"", "true", "null", "[4]"})
      Rows.emplace_back(Field, Value);
  for (const char *Field : {"name", "tenant", "scenario", "solver"})
    for (const char *Value : {"7", "false", "null", "{}"})
      Rows.emplace_back(Field, Value);
  for (const char *Value : {"\"0.05\"", "true", "null"})
    Rows.emplace_back("amplitude", Value);
  for (const char *Value : {"\"false\"", "0", "null"})
    Rows.emplace_back("graph", Value);
  for (const auto &Row : Rows) {
    // A small valid spec with the row's field replaced by its value.
    std::map<std::string, std::string> Members = {
        {"name", "\"a\""}, {"nx", "4"}, {"steps", "4"}, {"per_cell", "1"}};
    Members[Row.first] = Row.second;
    std::string Doc = "[{";
    for (const auto &M : Members)
      Doc += (Doc.size() > 2 ? ", \"" : "\"") + M.first + "\": " + M.second;
    Doc += "}]";
    SCOPED_TRACE(Doc);
    json::Value Parsed;
    std::string Error;
    ASSERT_TRUE(json::parse(Doc, Parsed, &Error)) << Error;
    std::vector<JobSpec> Specs;
    EXPECT_FALSE(parseJobSpecs(Parsed, Specs, &Error));
    EXPECT_NE(Error.find("\"" + Row.first + "\" must be"), std::string::npos)
        << Error;
    EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
  }
  // The spec that ran 48 steps instead of 2.
  json::Value Parsed;
  std::string Error;
  ASSERT_TRUE(json::parse(
      R"([{"name":"a","nx":"8","steps":"2","per_cell":1,"graph":"false"}])",
      Parsed, &Error));
  std::vector<JobSpec> Specs;
  EXPECT_FALSE(parseJobSpecs(Parsed, Specs, &Error));
  EXPECT_NE(Error.find("must be"), std::string::npos) << Error;
}

} // namespace
