//===-- tests/pic/CheckpointResumeTest.cpp - Save/restore bit-identity ---===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The full-state checkpoint contract at the simulation level: running N
// steps, saving, restoring into a FRESH simulation, and running N more
// must land on exactly the state-hash of 2N uninterrupted steps — the
// restart replays the same `t += dt` accumulation from the same bits.
// Holds in classic and step-graph mode (a restore discards the captured
// graph; the recapture is part of what is being tested).
//
//===----------------------------------------------------------------------===//

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace hichi;
using namespace hichi::pic;

namespace {

std::unique_ptr<PicSimulation<double>> makeLangmuirSim(bool UseGraph) {
  const ScenarioSetup<double> S =
      makeLangmuirScenario<double>({16, 4, 4}, 2, 0.0);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 5; // exercise sorting on both sides of a restore
  Options.UseStepGraph = UseGraph;
  auto Sim = std::make_unique<PicSimulation<double>>(
      S.Grid, S.Origin, S.Step, Index(S.Particles.size()), S.Types, Options);
  seedScenario(*Sim, S);
  return Sim;
}

std::uint64_t hashOf(const PicSimulation<double> &Sim) {
  return picStateHash(Sim.particles(), Sim.grid());
}

/// The Langmuir setup with the moving window switched on: the window
/// slides ~1 plane every dx/(c dt) steps, so a 12-step half run saves
/// mid-shift state (nonzero ring base, retired/injected history).
std::unique_ptr<PicSimulation<double>> makeMovingWindowSim(bool UseGraph) {
  const int PerCell = 2;
  const ScenarioSetup<double> S =
      makeLangmuirScenario<double>({16, 4, 4}, PerCell, 0.0);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 5;
  Options.UseStepGraph = UseGraph;
  Options.MovingWindow.Enabled = true;
  Options.MovingWindow.Speed = 1.0;
  Options.MovingWindow.InjectPerCell = PerCell;
  Options.MovingWindow.InjectType = short(PS_Electron);
  Options.MovingWindow.InjectWeight = S.Particles.front().Weight;
  auto Sim = std::make_unique<PicSimulation<double>>(
      S.Grid, S.Origin, S.Step,
      Index(S.Particles.size()) + Index(4) * S.Grid.Ny * S.Grid.Nz * PerCell,
      S.Types, Options);
  seedScenario(*Sim, S);
  return Sim;
}

void checkResumeBitIdentical(bool UseGraph) {
  const std::string Path = testing::TempDir() + "pic_resume.ckpt";
  const int N = 12;

  auto Uninterrupted = makeLangmuirSim(UseGraph);
  Uninterrupted->run(2 * N);

  auto FirstHalf = makeLangmuirSim(UseGraph);
  FirstHalf->run(N);
  std::string Error;
  ASSERT_TRUE(FirstHalf->saveState(Path, &Error)) << Error;
  const std::uint64_t MidHash = hashOf(*FirstHalf);

  auto Resumed = makeLangmuirSim(UseGraph);
  ASSERT_TRUE(Resumed->restoreState(Path, &Error)) << Error;
  EXPECT_EQ(Resumed->stepCount(), N);
  EXPECT_EQ(double(Resumed->time()), double(FirstHalf->time()));
  EXPECT_EQ(hashOf(*Resumed), MidHash); // the restore itself is bitwise
  Resumed->run(N);

  EXPECT_EQ(hashOf(*Resumed), hashOf(*Uninterrupted))
      << "N + save + restore + N diverged from 2N uninterrupted steps";
  std::remove(Path.c_str());
}

TEST(CheckpointResumeTest, ResumeBitIdenticalClassic) {
  checkResumeBitIdentical(/*UseGraph=*/false);
}

TEST(CheckpointResumeTest, ResumeBitIdenticalGraphReplay) {
  checkResumeBitIdentical(/*UseGraph=*/true);
}

void checkMovingWindowResumeBitIdentical(bool UseGraph) {
  const std::string Path = testing::TempDir() + "pic_window_resume.ckpt";
  const int N = 12;

  auto Uninterrupted = makeMovingWindowSim(UseGraph);
  Uninterrupted->run(2 * N);

  auto FirstHalf = makeMovingWindowSim(UseGraph);
  FirstHalf->run(N);
  // The save must happen with a displaced window: a nonzero ring base is
  // what v3 exists for.
  ASSERT_GT(FirstHalf->windowShiftCount(), 0);
  ASSERT_GT(FirstHalf->windowOriginPlanes(), 0);
  std::string Error;
  ASSERT_TRUE(FirstHalf->saveState(Path, &Error)) << Error;
  const std::uint64_t MidHash = hashOf(*FirstHalf);

  auto Resumed = makeMovingWindowSim(UseGraph);
  ASSERT_TRUE(Resumed->restoreState(Path, &Error)) << Error;
  EXPECT_EQ(Resumed->stepCount(), N);
  EXPECT_EQ(Resumed->windowOriginPlanes(), FirstHalf->windowOriginPlanes());
  EXPECT_EQ(Resumed->windowShiftCount(), FirstHalf->windowShiftCount());
  EXPECT_EQ(hashOf(*Resumed), MidHash); // the restore itself is bitwise
  Resumed->run(N);

  EXPECT_EQ(hashOf(*Resumed), hashOf(*Uninterrupted))
      << "moving-window N + save + restore + N diverged from 2N "
         "uninterrupted steps";
  EXPECT_EQ(Resumed->windowOriginPlanes(), Uninterrupted->windowOriginPlanes());
  std::remove(Path.c_str());
}

TEST(CheckpointResumeTest, MovingWindowResumeBitIdenticalClassic) {
  checkMovingWindowResumeBitIdentical(/*UseGraph=*/false);
}

TEST(CheckpointResumeTest, MovingWindowResumeBitIdenticalGraphReplay) {
  checkMovingWindowResumeBitIdentical(/*UseGraph=*/true);
}

TEST(CheckpointResumeTest, RestoreFailuresReportReasons) {
  auto Sim = makeLangmuirSim(false);
  std::string Error;
  EXPECT_FALSE(Sim->restoreState(testing::TempDir() + "does_not_exist.ckpt",
                                 &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

} // namespace
