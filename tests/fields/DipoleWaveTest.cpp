//===-- tests/fields/DipoleWaveTest.cpp - m-dipole wave tests ------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validation of the standing m-dipole wave (paper eq. 14-15): radial
/// function identities against spherical Bessel forms, series/direct
/// continuity at the switch point, focus limits, field structure
/// (azimuthal E, div B = 0), the standing-wave time dependence, and the
/// once-per-time binding of the time terms (atTime) to the last bit.
///
//===----------------------------------------------------------------------===//

#include "fields/DipoleWave.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace hichi;

namespace {

double j0(double X) { return std::sin(X) / X; }
double j1(double X) { return std::sin(X) / (X * X) - std::cos(X) / X; }

//===----------------------------------------------------------------------===//
// Radial functions
//===----------------------------------------------------------------------===//

TEST(DipoleRadialTest, MatchesSphericalBesselIdentities) {
  for (double X : {0.5, 1.0, 2.0, 3.14159, 5.0, 10.0, 30.0}) {
    auto F = DipoleRadialFunctions<double>::evaluate(X);
    EXPECT_NEAR(F.F1, j1(X), 1e-12) << X;
    EXPECT_NEAR(F.F2, 3 * j1(X) / X - j0(X), 1e-12) << X;
    EXPECT_NEAR(F.F3, j0(X) - j1(X) / X, 1e-12) << X;
  }
}

TEST(DipoleRadialTest, SeriesMatchesDirectAtThreshold) {
  // Continuity across the series/direct switch (0.02 in double).
  for (double X : {0.019, 0.02, 0.021}) {
    auto F = DipoleRadialFunctions<double>::evaluate(X);
    EXPECT_NEAR(F.F1, j1(X), 1e-14);
    EXPECT_NEAR(F.F2, 3 * j1(X) / X - j0(X), 1e-11);
    EXPECT_NEAR(F.F3, j0(X) - j1(X) / X, 1e-12);
  }
}

TEST(DipoleRadialTest, FocusLimits) {
  auto F = DipoleRadialFunctions<double>::evaluate(1e-8);
  EXPECT_NEAR(F.F1, 1e-8 / 3.0, 1e-20);
  EXPECT_NEAR(F.F2, 0.0, 1e-17);
  EXPECT_NEAR(F.F3, 2.0 / 3.0, 1e-15);
}

TEST(DipoleRadialTest, FloatSeriesAvoidsCatastrophicCancellation) {
  // In float, the direct formula at x = 0.05 loses most digits; the
  // series path must stay within 1e-5 relative of the double reference.
  auto F = DipoleRadialFunctions<float>::evaluate(0.05f);
  auto D = DipoleRadialFunctions<double>::evaluate(0.05);
  EXPECT_NEAR(F.F2 / float(D.F2), 1.0f, 1e-4f);
  EXPECT_NEAR(F.F3 / float(D.F3), 1.0f, 1e-5f);
}

//===----------------------------------------------------------------------===//
// Field structure
//===----------------------------------------------------------------------===//

class DipoleFieldTest : public ::testing::Test {
protected:
  // Unit system c = 1, omega = 1, P = 1.
  DipoleWaveSource<double> Wave = DipoleWaveSource<double>::fromPower(1, 1, 1);
};

TEST_F(DipoleFieldTest, AmplitudeFormula) {
  // A0 = k sqrt(3 P / c) with k = 1: sqrt(3).
  EXPECT_NEAR(Wave.Amplitude, std::sqrt(3.0), 1e-12);
}

TEST_F(DipoleFieldTest, ElectricFieldIsAzimuthal) {
  // E must be perpendicular to both r_hat and z_hat projections: E_z = 0
  // and E . r = 0 everywhere.
  for (double T : {0.0, 0.3, 1.7})
    for (Vector3<double> R : {Vector3<double>(1, 0, 0),
                              Vector3<double>(0.3, -0.4, 0.8),
                              Vector3<double>(-2, 1, 5)}) {
      auto F = Wave(R, T, 0);
      EXPECT_DOUBLE_EQ(F.E.Z, 0.0);
      EXPECT_NEAR(dot(F.E, R), 0.0, 1e-12 * F.E.norm() * R.norm() + 1e-15);
    }
}

TEST_F(DipoleFieldTest, FieldsVanishOnAxisForE) {
  // On the z-axis (x = y = 0) the azimuthal E must vanish.
  auto F = Wave(Vector3<double>(0, 0, 2.0), 0.25, 0);
  EXPECT_NEAR(F.E.norm(), 0.0, 1e-14);
}

TEST_F(DipoleFieldTest, DivergenceOfBIsZero) {
  // Numerical central-difference divergence at assorted points; this is
  // the test that catches the two eq. 14 transcription typos (see the
  // header of fields/DipoleWave.h).
  const double H = 1e-5;
  const double T = 0.4; // sin(w t) != 0 so B != 0
  for (Vector3<double> R : {Vector3<double>(0.5, 0.2, 0.7),
                            Vector3<double>(1, 1, 1),
                            Vector3<double>(-0.3, 0.9, -1.2),
                            Vector3<double>(2, -0.1, 0.4)}) {
    auto BAt = [&](Vector3<double> P) { return Wave(P, T, 0).B; };
    double Div =
        (BAt(R + Vector3<double>(H, 0, 0)).X -
         BAt(R - Vector3<double>(H, 0, 0)).X +
         BAt(R + Vector3<double>(0, H, 0)).Y -
         BAt(R - Vector3<double>(0, H, 0)).Y +
         BAt(R + Vector3<double>(0, 0, H)).Z -
         BAt(R - Vector3<double>(0, 0, H)).Z) /
        (2 * H);
    double Scale = BAt(R).norm() / R.norm() + 1.0;
    EXPECT_NEAR(Div, 0.0, 1e-5 * Scale) << "at " << R.X << "," << R.Y << ","
                                        << R.Z;
  }
}

TEST_F(DipoleFieldTest, FocusFieldIsAxialB) {
  auto F = Wave(Vector3<double>::zero(), 0.5, 0);
  EXPECT_EQ(F.E, Vector3<double>::zero());
  EXPECT_DOUBLE_EQ(F.B.X, 0.0);
  EXPECT_DOUBLE_EQ(F.B.Y, 0.0);
  // B_z(0) = -2 A0 sin(t) * 2/3.
  EXPECT_NEAR(F.B.Z, -2.0 * Wave.Amplitude * std::sin(0.5) * 2.0 / 3.0,
              1e-12);
}

TEST_F(DipoleFieldTest, NearFocusContinuity) {
  // Approaching the focus along any ray, fields must approach the focus
  // values (no NaN/jump from the R = 0 special case).
  auto AtFocus = Wave(Vector3<double>::zero(), 0.9, 0);
  auto Near = Wave(Vector3<double>(1e-10, 1e-10, 1e-10), 0.9, 0);
  EXPECT_NEAR((Near.B - AtFocus.B).norm(), 0.0, 1e-9);
  EXPECT_NEAR(Near.E.norm(), 0.0, 1e-9);
}

TEST_F(DipoleFieldTest, StandingWaveTimeStructure) {
  const Vector3<double> R(0.7, -0.2, 0.4);
  // E ~ cos(w t): vanishes at t = pi/2; B ~ sin(w t): vanishes at t = 0.
  EXPECT_NEAR(Wave(R, constants::Pi / 2, 0).E.norm(), 0.0, 1e-12);
  EXPECT_NEAR(Wave(R, 0.0, 0).B.norm(), 0.0, 1e-15);
  // Full period 2 pi: fields repeat.
  auto F0 = Wave(R, 0.3, 0);
  auto F1 = Wave(R, 0.3 + 2 * constants::Pi, 0);
  EXPECT_NEAR((F0.E - F1.E).norm(), 0.0, 1e-12);
  EXPECT_NEAR((F0.B - F1.B).norm(), 0.0, 1e-12);
}

TEST_F(DipoleFieldTest, AxialSymmetryAboutZ) {
  // Rotating the observation point about z rotates E and the transverse
  // B accordingly; |E| and |B| depend only on (rho, z).
  Vector3<double> A(0.6, 0.0, 0.5), B(0.0, 0.6, 0.5);
  auto FA = Wave(A, 0.8, 0);
  auto FB = Wave(B, 0.8, 0);
  EXPECT_NEAR(FA.E.norm(), FB.E.norm(), 1e-12);
  EXPECT_NEAR(FA.B.norm(), FB.B.norm(), 1e-12);
  EXPECT_NEAR(FA.B.Z, FB.B.Z, 1e-12);
}

TEST_F(DipoleFieldTest, PaperBenchmarkParameters) {
  auto Paper = DipoleWaveSource<double>::paperBenchmark();
  // omega_0 = 2.1e15 s^-1, lambda = 2 pi c / omega ~ 0.9 um = 0.9e-4 cm.
  EXPECT_DOUBLE_EQ(Paper.WaveFrequency, 2.1e15);
  EXPECT_NEAR(2 * constants::Pi * constants::LightVelocity /
                  Paper.WaveFrequency,
              0.9e-4, 0.01e-4);
  EXPECT_GT(Paper.Amplitude, 0.0);
}

//===----------------------------------------------------------------------===//
// Pulsed wave envelope
//===----------------------------------------------------------------------===//

TEST(PulsedDipoleWaveTest, EnvelopeShape) {
  PulsedDipoleWaveSource<double> Pulse;
  Pulse.Carrier = DipoleWaveSource<double>::fromPower(1, 1, 1);
  Pulse.RampPeriods = 2;
  Pulse.PlateauPeriods = 4;
  const double T = 2 * constants::Pi; // one wave period

  EXPECT_DOUBLE_EQ(Pulse.envelope(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(Pulse.envelope(0.0), 0.0);
  EXPECT_NEAR(Pulse.envelope(1.0 * T), 0.5, 1e-12) << "half-way up the ramp";
  EXPECT_DOUBLE_EQ(Pulse.envelope(3.0 * T), 1.0) << "plateau";
  EXPECT_NEAR(Pulse.envelope(7.0 * T), 0.5, 1e-12) << "half-way down";
  EXPECT_NEAR(Pulse.envelope(8.0 * T), 0.0, 1e-30) << "after the pulse";
  // Monotone on the ramp.
  EXPECT_LT(Pulse.envelope(0.5 * T), Pulse.envelope(1.5 * T));
}

TEST(PulsedDipoleWaveTest, ModulatesCarrierFields) {
  PulsedDipoleWaveSource<double> Pulse;
  Pulse.Carrier = DipoleWaveSource<double>::fromPower(1, 1, 1);
  const Vector3<double> R(0.5, 0.3, 0.4);
  const double T = 2 * constants::Pi;
  // On the plateau the pulse equals the carrier exactly.
  auto Carrier = Pulse.Carrier(R, 3.0 * T + 0.37, 0);
  auto Pulsed = Pulse(R, 3.0 * T + 0.37, 0);
  EXPECT_EQ(Pulsed.E, Carrier.E);
  EXPECT_EQ(Pulsed.B, Carrier.B);
  // Before the pulse there is nothing.
  EXPECT_EQ(Pulse(R, -0.1, 0).E, Vector3<double>::zero());
  EXPECT_EQ(Pulse(R, -0.1, 0).B, Vector3<double>::zero());
  // On the ramp, strictly between.
  auto Ramp = Pulse(R, 1.0 * T, 0);
  EXPECT_NEAR(Ramp.B.norm() / Pulse.Carrier(R, 1.0 * T, 0).B.norm(), 0.5,
              1e-9);
}

//===----------------------------------------------------------------------===//
// Binding the time terms once per time (atTime)
//===----------------------------------------------------------------------===//

/// Eq. 14 with every time term evaluated inside the sample, as
/// DipoleWaveSource evaluated it before atTime bound them.
template <typename Real>
FieldSample<Real> unboundDipole(const DipoleWaveSource<Real> &W,
                                const Vector3<Real> &Pos, Real Time) {
  const Real R2 = Pos.norm2();
  const Real R = std::sqrt(R2);
  const auto F = DipoleRadialFunctions<Real>::evaluate(W.WaveNumber * R);
  const Real Phase = W.WaveFrequency * Time;
  const Real CosT = std::cos(Phase);
  const Real SinT = std::sin(Phase);
  const Real TwoA = Real(2) * W.Amplitude;
  FieldSample<Real> Out;
  if (R2 == Real(0)) {
    Out.E = Vector3<Real>::zero();
    Out.B = Vector3<Real>(0, 0, -TwoA * SinT * Real(2) / Real(3));
    return Out;
  }
  const Real InvR = Real(1) / R;
  const Real InvR2 = InvR * InvR;
  Out.E = Vector3<Real>(-Pos.Y * InvR, Pos.X * InvR, Real(0)) *
          (TwoA * CosT * F.F1);
  Out.B = Vector3<Real>(Pos.X * Pos.Z * InvR2 * F.F2,
                        Pos.Y * Pos.Z * InvR2 * F.F2,
                        Pos.Z * Pos.Z * InvR2 * F.F2 + F.F3) *
          (-TwoA * SinT);
  return Out;
}

template <typename Real>
bool sameBits(const FieldSample<Real> &A, const FieldSample<Real> &B) {
  return std::memcmp(&A, &B, sizeof(FieldSample<Real>)) == 0;
}

/// atTime(t) samples both dipole sources exactly as operator()(..., t, ...)
/// and as the unbound eq. 14: at the focus (also -0.0), on both sides of
/// the series threshold, off axis, at times with cos(w0 t) of both signs
/// and on every part of the pulse envelope.
template <typename Real> void checkAtTime() {
  PulsedDipoleWaveSource<Real> Pulse;
  Pulse.Carrier = DipoleWaveSource<Real>::fromPower(Real(0.7), Real(1.3),
                                                    Real(0.9));
  const DipoleWaveSource<Real> &Wave = Pulse.Carrier;
  const Real K = Wave.WaveNumber;
  const Real T = DipoleRadialFunctions<Real>::Threshold;
  const std::vector<Vector3<Real>> Points = {
      {0, 0, 0},
      {-0.0, 0, -0.0},
      {Real(0.5) * T / K, -0.0, 0},
      {0, T / K, Real(0.1)},
      {Real(0.3), Real(-0.7), Real(1.9)},
      {Real(-4.1), Real(2.2), Real(-0.0)},
  };
  const Real Period = Real(2) * Real(constants::Pi) / Wave.WaveFrequency;
  for (Real Cycles : {-0.1, 0.05, 0.4, 1.3, 3.0, 6.9, 7.7, 9.0}) {
    const Real Time = Cycles * Period;
    const auto Bound = Wave.atTime(Time);
    const auto PulseBound = Pulse.atTime(Time);
    for (std::size_t I = 0; I < Points.size(); ++I) {
      const Vector3<Real> &Pos = Points[I];
      SCOPED_TRACE("cycles=" + std::to_string(Cycles) +
                   " point=" + std::to_string(I));
      const FieldSample<Real> Ref = unboundDipole(Wave, Pos, Time);
      EXPECT_TRUE(sameBits(Bound(Pos, Index(I)), Ref));
      EXPECT_TRUE(sameBits(Wave(Pos, Time, Index(I)), Ref));
      FieldSample<Real> PulseRef = Ref;
      PulseRef.E *= Pulse.envelope(Time);
      PulseRef.B *= Pulse.envelope(Time);
      EXPECT_TRUE(sameBits(PulseBound(Pos, Index(I)), PulseRef));
      EXPECT_TRUE(sameBits(Pulse(Pos, Time, Index(I)), PulseRef));
    }
  }
}

TEST(DipoleAtTimeTest, BindingMatchesPerSampleEvaluation) {
  checkAtTime<double>();
  checkAtTime<float>();
}

//===----------------------------------------------------------------------===//
// Plane wave
//===----------------------------------------------------------------------===//

TEST(PlaneWaveTest, VacuumRelationEEqualsB) {
  PlaneWaveSource<double> W;
  W.Amplitude = 2.0;
  W.WaveNumber = 3.0;
  W.Frequency = 3.0; // c = 1
  for (double X : {0.0, 0.4, 1.1})
    for (double T : {0.0, 0.2}) {
      auto F = W(Vector3<double>(X, 5, -2), T, 0);
      EXPECT_DOUBLE_EQ(F.E.Y, F.B.Z) << "E_y = B_z for a +x vacuum wave";
      EXPECT_DOUBLE_EQ(F.E.X, 0.0);
    }
}

TEST(PlaneWaveTest, PropagatesAlongX) {
  PlaneWaveSource<double> W;
  // Value at (x, t) equals value at (x + c dt, t + dt).
  auto F0 = W(Vector3<double>(1.0, 0, 0), 0.5, 0);
  auto F1 = W(Vector3<double>(1.3, 0, 0), 0.8, 0);
  EXPECT_NEAR(F0.E.Y, F1.E.Y, 1e-12);
}

} // namespace
