//===-- tests/pic/LaunchParityTest.cpp - Classic vs captured launches ----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-step-path guarantee, gated in CI as the `pic_launch_parity`
/// ctest target: a classic PIC step and a graph-capture step issue the
/// same stage sequence, so the launches one classic step adds to the
/// submitOverhead() ledger equal the captured graph's node count — for
/// every stage shape (serial, openmp, sharded) and both Maxwell
/// solvers. Host-side stage work in the classic step (a J clear,
/// a wrap loop or a binning pass outside the backends) would break the
/// equality. Both step shapes also report one comparable step wall.
///
//===----------------------------------------------------------------------===//

#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

using namespace hichi;
using namespace hichi::pic;

namespace {

std::unique_ptr<PicSimulation<double>>
makeSimulation(FieldSolverKind Solver, const std::string &Backend,
               bool UseGraph) {
  const ScenarioSetup<double> S =
      makeLangmuirScenario<double>({16, 4, 4}, 2, 0.05);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.Solver = Solver;
  Options.PushBackend = Backend;
  Options.DepositBackend = Backend;
  Options.FieldBackend = Backend;
  Options.PushThreads = 3;
  Options.DepositThreads = 3;
  Options.FieldThreads = 3;
  Options.UseStepGraph = UseGraph;
  auto Sim = std::make_unique<PicSimulation<double>>(
      S.Grid, S.Origin, S.Step, Index(S.Particles.size()), S.Types, Options);
  seedScenario(*Sim, S);
  return Sim;
}

void checkLaunchParity(const std::string &Backend) {
  for (FieldSolverKind Solver :
       {FieldSolverKind::Fdtd, FieldSolverKind::Spectral}) {
    const char *SolverName =
        Solver == FieldSolverKind::Fdtd ? "fdtd" : "spectral";
    auto Classic = makeSimulation(Solver, Backend, /*UseGraph=*/false);
    Classic->step(); // first-step effects (lane start-up) out of the window
    const RunStats Before = Classic->submitOverhead();
    Classic->step();
    const RunStats After = Classic->submitOverhead();

    auto Captured = makeSimulation(Solver, Backend, /*UseGraph=*/true);
    Captured->step();
    ASSERT_NE(Captured->stepGraph(), nullptr) << Backend << " " << SolverName;
    const long long Nodes = (long long)Captured->stepGraph()->nodeCount();

    EXPECT_EQ(After.Launches - Before.Launches, Nodes)
        << Backend << " " << SolverName;
  }
}

TEST(LaunchParityTest, Serial) { checkLaunchParity("serial"); }

TEST(LaunchParityTest, Openmp) { checkLaunchParity("openmp"); }

TEST(LaunchParityTest, Sharded) { checkLaunchParity("sharded"); }

/// stepWallNs() is the step cost that compares classic and graph-mode
/// runs (pic_langmuir --tune-trials scores candidates by it), so in
/// either mode it must cover the stage-1 kernel time the steps spent —
/// on synchronous backends that time runs inside the step wall.
TEST(LaunchParityTest, StepWallCoversStage1KernelsInBothModes) {
  for (const char *Backend : {"serial", "openmp"})
    for (bool UseGraph : {false, true}) {
      auto Sim = makeSimulation(FieldSolverKind::Fdtd, Backend, UseGraph);
      for (int S = 0; S < 4; ++S)
        Sim->step();
      const double Stage1Ns = Sim->pushLaunchStats().HostNs;
      EXPECT_GT(Stage1Ns, 0.0) << Backend << " graph=" << UseGraph;
      EXPECT_GE(Sim->stepWallNs(), Stage1Ns)
          << Backend << " graph=" << UseGraph;
    }
}

} // namespace
