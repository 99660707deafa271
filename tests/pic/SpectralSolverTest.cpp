//===-- tests/pic/SpectralSolverTest.cpp - FFT Maxwell solver tests ------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FFT-based solver's defining properties: exact (dispersion-free)
/// vacuum propagation at any time step — including steps far beyond the
/// FDTD Courant limit — exact energy conservation, and the correct
/// response to current sources. The last test races it against FDTD on
/// a coarse grid where FDTD's O((k dx)^2) dispersion is visible.
///
//===----------------------------------------------------------------------===//

#include "pic/FdtdSolver.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "pic/SpectralSolver.h"

#include <gtest/gtest.h>

using namespace hichi;
using namespace hichi::pic;

namespace {

/// Travelling plane wave along x (collocated initialization, which is
/// what the spectral solver assumes).
void initWave(YeeGrid<double> &G, int Mode) {
  const GridSize N = G.size();
  const double K = 2 * constants::Pi * Mode / double(N.Nx);
  for (Index I = 0; I < N.Nx; ++I)
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K3 = 0; K3 < N.Nz; ++K3) {
        G.Ey(I, J, K3) = std::sin(K * double(I));
        G.Bz(I, J, K3) = std::sin(K * double(I));
      }
}

TEST(SpectralSolverTest, UniformFieldsAreStationary) {
  YeeGrid<double> G({8, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(2.0);
  G.Bz.fill(-1.0);
  SpectralSolver<double> S({8, 4, 4}, {1, 1, 1}, 1.0);
  S.step(G, 0.7);
  EXPECT_NEAR(G.Ex(3, 1, 2), 2.0, 1e-12);
  EXPECT_NEAR(G.Bz(5, 0, 3), -1.0, 1e-12);
  EXPECT_NEAR(G.Ey(0, 0, 0), 0.0, 1e-12);
}

TEST(SpectralSolverTest, PlaneWaveAdvectsExactly) {
  // After time T, the wave must be sin(k(x - cT)) *exactly* — the
  // spectral solver has no dispersion error.
  const Index NX = 16;
  YeeGrid<double> G({NX, 4, 4}, {0, 0, 0}, {1, 1, 1});
  initWave(G, 2);
  SpectralSolver<double> S({NX, 4, 4}, {1, 1, 1}, 1.0);
  const double Dt = 0.37; // arbitrary; no Courant restriction
  const int Steps = 11;
  for (int T = 0; T < Steps; ++T)
    S.step(G, Dt);
  const double K = 2 * constants::Pi * 2 / double(NX);
  for (Index I = 0; I < NX; ++I) {
    double Expected = std::sin(K * (double(I) - Dt * Steps));
    EXPECT_NEAR(G.Ey(I, 1, 1), Expected, 1e-10) << I;
    EXPECT_NEAR(G.Bz(I, 2, 3), Expected, 1e-10) << I;
  }
}

TEST(SpectralSolverTest, GiantTimeStepStillExact) {
  // One step of 25 time units (the FDTD Courant limit here is ~0.577).
  const Index NX = 16;
  YeeGrid<double> G({NX, 4, 4}, {0, 0, 0}, {1, 1, 1});
  initWave(G, 1);
  SpectralSolver<double> S({NX, 4, 4}, {1, 1, 1}, 1.0);
  const double Dt = 25.0;
  S.step(G, Dt);
  const double K = 2 * constants::Pi / double(NX);
  for (Index I = 0; I < NX; ++I)
    EXPECT_NEAR(G.Ey(I, 0, 0), std::sin(K * (double(I) - Dt)), 1e-9);
}

TEST(SpectralSolverTest, EnergyConservedToRoundoff) {
  YeeGrid<double> G({16, 4, 4}, {0, 0, 0}, {1, 1, 1});
  initWave(G, 3);
  const double E0 = G.fieldEnergy();
  SpectralSolver<double> S({16, 4, 4}, {1, 1, 1}, 1.0);
  for (int T = 0; T < 50; ++T)
    S.step(G, 0.4);
  EXPECT_NEAR(G.fieldEnergy() / E0, 1.0, 1e-10);
}

TEST(SpectralSolverTest, UniformCurrentDrivesMeanEField) {
  // k = 0 mode: E' = -4 pi J exactly.
  YeeGrid<double> G({8, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Jy.fill(0.5);
  SpectralSolver<double> S({8, 4, 4}, {1, 1, 1}, 1.0);
  const double Dt = 0.3;
  S.step(G, Dt);
  EXPECT_NEAR(G.Ey(2, 2, 2), -4 * constants::Pi * Dt * 0.5, 1e-10);
  EXPECT_NEAR(G.Ex(2, 2, 2), 0.0, 1e-12);
}

TEST(SpectralSolverTest, LongitudinalModeIntegratesExactly) {
  // A longitudinal current J_x ~ sin(k x): E_L' = -4 pi J_L with no
  // magnetic response (curl-free). B must stay zero.
  const Index NX = 8;
  YeeGrid<double> G({NX, 4, 4}, {0, 0, 0}, {1, 1, 1});
  const double K = 2 * constants::Pi / double(NX);
  for (Index I = 0; I < NX; ++I)
    for (Index J = 0; J < 4; ++J)
      for (Index K3 = 0; K3 < 4; ++K3)
        G.Jx(I, J, K3) = std::sin(K * double(I));
  SpectralSolver<double> S({NX, 4, 4}, {1, 1, 1}, 1.0);
  const double Dt = 0.25;
  S.step(G, Dt);
  for (Index I = 0; I < NX; ++I) {
    EXPECT_NEAR(G.Ex(I, 1, 1), -4 * constants::Pi * Dt * std::sin(K * I),
                1e-10);
    EXPECT_NEAR(G.Bz(I, 1, 1), 0.0, 1e-11);
    EXPECT_NEAR(G.By(I, 1, 1), 0.0, 1e-11);
  }
}

TEST(SpectralSolverTest, BeatsfdtdDispersionOnCoarseGrid) {
  // 8 points per wavelength, 200 steps: FDTD accumulates a visible phase
  // error, the spectral solver none.
  const Index NX = 8;
  const double K = 2 * constants::Pi / double(NX);
  const double Dt = 0.25;
  const int Steps = 200;

  YeeGrid<double> Spectral({NX, 4, 4}, {0, 0, 0}, {1, 1, 1});
  initWave(Spectral, 1);
  SpectralSolver<double> SSolver({NX, 4, 4}, {1, 1, 1}, 1.0);
  for (int T = 0; T < Steps; ++T)
    SSolver.step(Spectral, Dt);

  YeeGrid<double> Fdtd({NX, 4, 4}, {0, 0, 0}, {1, 1, 1});
  initWave(Fdtd, 1); // collocated init: small extra error, fine here
  FdtdSolver<double> FSolver(1.0);
  for (int T = 0; T < Steps; ++T)
    FSolver.step(Fdtd, Dt);

  double SpectralErr = 0, FdtdErr = 0;
  for (Index I = 0; I < NX; ++I) {
    double Exact = std::sin(K * (double(I) - Dt * Steps));
    SpectralErr = std::max(SpectralErr,
                           std::abs(Spectral.Ey(I, 0, 0) - Exact));
    FdtdErr = std::max(FdtdErr, std::abs(Fdtd.Ey(I, 0, 0) - Exact));
  }
  EXPECT_LT(SpectralErr, 1e-9);
  EXPECT_GT(FdtdErr, 100 * SpectralErr)
      << "FDTD dispersion must dominate on this grid";
}

TEST(SpectralPicTest, LangmuirOscillationWithSpectralSolver) {
  // The full PIC loop with the FFT-based solver: same Langmuir setup as
  // the FDTD integration test, same physics out.
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.Solver = FieldSolverKind::Spectral;
  Options.SortEveryNSteps = 0;
  Options.TimeStep = 0.1; // beyond any FDTD concern; spectral is exact
  const ScenarioSetup<double> S =
      makeLangmuirScenario<double>({16, 4, 4}, 2, 0.0, 0.01);
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()), S.Types, Options);
  seedScenario(Sim, S);

  // First field-energy peak at a quarter plasma period (t = pi/2).
  double PeakEnergy = 0, PeakTime = 0;
  const int Steps = int(2 * constants::Pi / Sim.timeStep());
  for (int I = 0; I < Steps; ++I) {
    Sim.step();
    if (Sim.fieldEnergy() > PeakEnergy) {
      PeakEnergy = Sim.fieldEnergy();
      PeakTime = Sim.time();
    }
  }
  ASSERT_GT(PeakEnergy, 0.0);
  EXPECT_NEAR(PeakTime, constants::Pi / 2, 0.4);
}

} // namespace
