//===-- tests/pic/LaunchParityTest.cpp - Classic vs captured launches ----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-step-path guarantee, gated in CI as the `pic_launch_parity`
/// ctest target: a classic PIC step and a graph-capture step issue the
/// same stage sequence, so the launches (and specs) one classic step
/// adds to the submitOverhead() ledger equal the captured graph's node
/// count — for every stage shape (serial, openmp, sharded) and both
/// Maxwell solvers. Host-side stage work in the classic step (a J clear,
/// a wrap loop or a binning pass outside the backends) would break the
/// equality.
///
//===----------------------------------------------------------------------===//

#include "pic/PicSimulation.h"

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
  const GridSize N{16, 4, 4};
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
  const int PerCell = 2;
  auto Sim = std::make_unique<PicSimulation<double>>(
      N, Vector3<double>{0, 0, 0}, Vector3<double>{0.5, 0.5, 0.5},
      N.count() * PerCell, ParticleTypeTable<double>::natural(), Options);
  for (Index C = 0; C < N.count(); ++C) {
    const Index I = C / (N.Ny * N.Nz);
    const Index J = (C / N.Nz) % N.Ny;
    const Index K = C % N.Nz;
    for (int P = 0; P < PerCell; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {(double(I) + 0.25 + 0.5 * P) * 0.5,
                           (double(J) + 0.5) * 0.5, (double(K) + 0.5) * 0.5};
      const double Vx =
          0.02 * std::sin(2.0 * constants::Pi * Particle.Position.X / 8.0);
      Particle.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
      Particle.Weight = 0.05;
      Particle.Type = PS_Electron;
      Sim->addParticle(Particle);
    }
  }
  return Sim;
}

void checkLaunchParity(const std::string &Backend) {
  for (FieldSolverKind Solver :
       {FieldSolverKind::Fdtd, FieldSolverKind::Spectral}) {
    const char *SolverName =
        Solver == FieldSolverKind::Fdtd ? "fdtd" : "spectral";
    auto Classic = makeSimulation(Solver, Backend, /*UseGraph=*/false);
    Classic->step(); // first-step effects (arena growth) out of the window
    const RunStats Before = Classic->submitOverhead();
    Classic->step();
    const RunStats After = Classic->submitOverhead();

    auto Captured = makeSimulation(Solver, Backend, /*UseGraph=*/true);
    Captured->step();
    ASSERT_NE(Captured->stepGraph(), nullptr) << Backend << " " << SolverName;
    const long long Nodes = (long long)Captured->stepGraph()->nodeCount();

    EXPECT_EQ(After.Launches - Before.Launches, Nodes)
        << Backend << " " << SolverName;
    EXPECT_EQ(After.SpecsBuilt - Before.SpecsBuilt, Nodes)
        << Backend << " " << SolverName;
  }
}

TEST(LaunchParityTest, Serial) { checkLaunchParity("serial"); }

TEST(LaunchParityTest, Openmp) { checkLaunchParity("openmp"); }

TEST(LaunchParityTest, Sharded) { checkLaunchParity("sharded"); }

} // namespace
