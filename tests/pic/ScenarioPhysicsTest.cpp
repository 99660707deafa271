//===-- tests/pic/ScenarioPhysicsTest.cpp - Scenario physics gates -------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Physics validation of the skew-driving scenarios (pic/Scenarios.h),
/// gated in CI as the `pic_scenario_physics` ctest target. Each
/// scenario carries a closed-form expectation and every check runs on
/// the serial loop; the `scenario` rows of
/// tests/pic/EquivalenceMatrixTest.cpp hold the same runs to the same
/// bits on the openmp and sharded backends:
///
///  - two-stream: the field-energy e-fold rate over the linear phase
///    fits the cold-beam dispersion's growth rate (gamma = w_b/2 at the
///    seeded fastest-growing mode, so 0.5 here);
///  - two-species: the oscillation frequency obeys
///    w^2 = w_pe^2 (1 + 1/M) — the frequency *shift* scales as the
///    inverse ion mass ratio, and the ordering w(M=1) > w(M=4) holds;
///  - density-gradient + open boundary: field energy stays bounded by
///    the sponge, the live count falls monotonically and matches the
///    absorber's ledger, and no current is ever deposited on the deep
///    boundary planes (bitwise zero — drifting particles are removed
///    before their Esirkepov footprint can reach them);
///  - a *fired* rebalance on the gradient (real fields, so the sort is
///    a real permutation) genuinely diverges from the non-rebalanced
///    run while absorbing the same particles.
///
//===----------------------------------------------------------------------===//

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

struct ScenarioRun {
  std::uint64_t Hash = 0;
  std::vector<double> Energy; ///< field energy after each step
  std::vector<double> Times;
  std::vector<Index> LiveCounts; ///< ensemble size after each step
  long long Absorbed = 0;
  long long Fires = 0;
  double MaxDeepJ = 0; ///< max |J| ever seen on the deep boundary planes
};

/// Advances \p S for \p Steps steps on the serial loop, recording the
/// traces the physics checks fit against. The deep-J probe scans the
/// three outermost x-planes on each side after every step (current
/// nodes an absorbed drifting particle must never reach).
ScenarioRun runScenario(const ScenarioSetup<double> &S, int Steps,
                        double RebalanceThreshold = 0) {
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.AbsorbingCells = S.AbsorbingCells;
  Options.RebalanceThreshold = RebalanceThreshold;
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()), S.Types, Options);
  seedScenario(Sim, S);

  ScenarioRun Out;
  const bool ProbeDeepJ = S.AbsorbingCells > 0;
  for (int Step = 0; Step < Steps; ++Step) {
    Sim.step();
    Out.Energy.push_back(Sim.fieldEnergy());
    Out.Times.push_back(Sim.time());
    Out.LiveCounts.push_back(Sim.particles().size());
    if (ProbeDeepJ) {
      const auto &G = Sim.grid();
      for (Index I : {Index(0), Index(1), Index(2), S.Grid.Nx - 3,
                      S.Grid.Nx - 2, S.Grid.Nx - 1})
        for (Index J = 0; J < S.Grid.Ny; ++J)
          for (Index K = 0; K < S.Grid.Nz; ++K)
            Out.MaxDeepJ = std::max(
                {Out.MaxDeepJ, std::abs(double(G.Jx(I, J, K))),
                 std::abs(double(G.Jy(I, J, K))),
                 std::abs(double(G.Jz(I, J, K)))});
    }
  }
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  Out.Absorbed = Sim.absorbedParticleCount();
  Out.Fires = Sim.rebalanceStats().Fires;
  return Out;
}

/// Least-squares slope of log(fieldEnergy) over the linear-growth
/// window [\p T0, \p T1]; the instability's growth rate is half of it
/// (energy ~ e^{2 gamma t}).
double fitGrowthRate(const ScenarioRun &R, double T0, double T1) {
  double Sx = 0, Sy = 0, Sxx = 0, Sxy = 0;
  int Count = 0;
  for (std::size_t I = 0; I < R.Energy.size(); ++I)
    if (R.Times[I] > T0 && R.Times[I] < T1 && R.Energy[I] > 0) {
      const double X = R.Times[I], Y = std::log(R.Energy[I]);
      Sx += X;
      Sy += Y;
      Sxx += X * X;
      Sxy += X * Y;
      ++Count;
    }
  if (Count < 3)
    return 0;
  return (Count * Sxy - Sx * Sy) / (Count * Sxx - Sx * Sx) / 2.0;
}

/// Oscillation frequency from the field-energy peak spacing (the E
/// energy peaks twice per period, so w = pi / spacing).
double fitOmega(const ScenarioRun &R) {
  const double MaxE = *std::max_element(R.Energy.begin(), R.Energy.end());
  std::vector<double> Peaks;
  for (std::size_t I = 1; I + 1 < R.Energy.size(); ++I)
    if (R.Energy[I] > R.Energy[I - 1] && R.Energy[I] >= R.Energy[I + 1] &&
        R.Energy[I] > 0.2 * MaxE)
      Peaks.push_back(R.Times[I]);
  if (Peaks.size() < 2)
    return 0;
  return constants::Pi /
         ((Peaks.back() - Peaks.front()) / double(Peaks.size() - 1));
}

//===----------------------------------------------------------------------===//
// Two-stream instability vs the cold-beam dispersion relation
//===----------------------------------------------------------------------===//

TEST(ScenarioPhysicsTest, TwoStreamGrowthRateMatchesDispersion) {
  const ScenarioSetup<double> S = makeTwoStreamScenario<double>();
  ASSERT_DOUBLE_EQ(double(S.ExpectedGrowthRate), 0.5);
  const ScenarioRun Serial = runScenario(S, 120);
  // Fit over the linear phase: late enough that the seeded mode
  // dominates the lattice noise, early enough that trapping has not
  // saturated it. The dispersion maximum is flat in k, so a generous
  // 25% band is still a sharp test of "this is the right instability"
  // (the rate would be 0 without the resonance and ~1 at twice it).
  const double Gamma = fitGrowthRate(Serial, 4.0, 10.0);
  EXPECT_NEAR(Gamma, 0.5, 0.125) << "measured growth rate " << Gamma;
}

//===----------------------------------------------------------------------===//
// Two-species frequency shift vs the ion mass ratio
//===----------------------------------------------------------------------===//

TEST(ScenarioPhysicsTest, TwoSpeciesFrequencyScalesWithMassRatio) {
  const ScenarioSetup<double> Light = makeTwoSpeciesScenario<double>(1.0);
  const ScenarioSetup<double> Heavy = makeTwoSpeciesScenario<double>(4.0);
  EXPECT_NEAR(double(Light.ExpectedOmega), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(double(Heavy.ExpectedOmega), std::sqrt(1.25), 1e-12);

  const ScenarioRun RunLight = runScenario(Light, 120);
  const ScenarioRun RunHeavy = runScenario(Heavy, 120);
  const double OmegaLight = fitOmega(RunLight);
  const double OmegaHeavy = fitOmega(RunHeavy);

  // w^2 = w_pe^2 (1 + 1/M) with w_pe = 1: the *shift* w^2 - 1 times M
  // recovers 1 for any mass — the scaling law itself, not just two
  // point values. (Measured: ~1.03 for both; 25% tolerance.)
  EXPECT_NEAR((OmegaLight * OmegaLight - 1.0) * 1.0, 1.0, 0.25)
      << "omega(M=1) = " << OmegaLight;
  EXPECT_NEAR((OmegaHeavy * OmegaHeavy - 1.0) * 4.0, 1.0, 0.25)
      << "omega(M=4) = " << OmegaHeavy;
  // Heavier ions oscillate slower — the ordering must hold exactly.
  EXPECT_GT(OmegaLight, OmegaHeavy);
}

//===----------------------------------------------------------------------===//
// Density gradient into an open boundary
//===----------------------------------------------------------------------===//

TEST(ScenarioPhysicsTest, DensityGradientBoundedFieldsMonotoneCount) {
  const ScenarioSetup<double> S = makeDensityGradientScenario<double>();
  const ScenarioRun Serial = runScenario(S, 150);

  // The sponge must keep the field energy bounded (measured ~2e-2; an
  // unbounded reflection blowup would exceed this within the run).
  const double MaxE =
      *std::max_element(Serial.Energy.begin(), Serial.Energy.end());
  EXPECT_LT(MaxE, 0.5);

  // The live count never grows, strictly shrinks overall, and the
  // absorber's ledger accounts for every removed particle.
  for (std::size_t T = 1; T < Serial.LiveCounts.size(); ++T)
    EXPECT_LE(Serial.LiveCounts[T], Serial.LiveCounts[T - 1]) << "step " << T;
  EXPECT_GT(Serial.Absorbed, 0);
  EXPECT_EQ(Index(S.Particles.size()) - Serial.LiveCounts.back(),
            Index(Serial.Absorbed));
}

TEST(ScenarioPhysicsTest, AbsorbingBoundaryKeepsDeepCurrentZero) {
  // Particles are removed at end of step; with drift 0.15 a survivor
  // can reach at most ~plane 6 before the next removal, and the
  // Esirkepov footprint spans +-2 planes — so current nodes on planes
  // {0,1,2} and {Nx-3..Nx-1} must stay at *bitwise* zero all run.
  const ScenarioSetup<double> S = makeDensityGradientScenario<double>();
  const ScenarioRun Serial = runScenario(S, 150);
  EXPECT_EQ(Serial.MaxDeepJ, 0.0);
}

TEST(ScenarioPhysicsTest, FiredGradientRebalanceKeepsTheAbsorption) {
  // The conservation-gated half of the rebalance contract: with real
  // fields the repartition's sort is a real permutation, so the
  // rebalanced run legitimately diverges from the plain one. (That all
  // *rebalanced* runs agree bitwise across backends is the matrix's
  // `scenario_gradientrb` row.)
  const ScenarioSetup<double> S = makeDensityGradientScenario<double>();
  const ScenarioRun Plain = runScenario(S, 150);
  const ScenarioRun Serial = runScenario(S, 150, 1.3);
  ASSERT_GE(Serial.Fires, 1);
  EXPECT_NE(Serial.Hash, Plain.Hash);
  // Same physics either way: identical absorption ledger and final
  // live count.
  EXPECT_EQ(Serial.Absorbed, Plain.Absorbed);
  EXPECT_EQ(Serial.LiveCounts.back(), Plain.LiveCounts.back());
}

} // namespace
