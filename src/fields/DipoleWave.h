//===-- fields/DipoleWave.h - Standing m-dipole wave ------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standing magnetic-dipole (m-dipole) wave of the paper's benchmark
/// (Section 5.2, equations 14-15): the tightest focusing an
/// electromagnetic wave admits (Bassett's limit, paper Refs. [20,24]),
/// used to study seed-target parameters for vacuum breakdown at 10-PW
/// powers.
///
/// With R = |r|, x = kR, and the radial functions (eq. 15)
///
///   f1(x) = sin x / x^2 - cos x / x            ( = spherical Bessel j1 )
///   f2(x) = (3/x^3 - 1/x) sin x - 3 cos x/x^2  ( = 3 j1(x)/x - j0(x) )
///   f3(x) = (1/x - 1/x^3) sin x + cos x/x^2    ( = j0(x) - j1(x)/x )
///
/// the fields are (eq. 14)
///
///   E = 2 A0 cos(w0 t) f1 * (-y/R, x/R, 0)
///   B = -2 A0 sin(w0 t) * (xz/R^2 f2, yz/R^2 f2, z^2/R^2 f2 + f3)
///
/// A0 = k sqrt(3 P / c). Two transcriptions of eq. 14 in the paper are
/// typos and corrected here against the underlying dipole-pulse theory
/// (Ref. [20]): By's numerator is y*z (not x*y) and Bz carries no extra
/// z^2/R^2 prefactor — both are required for div B = 0, which a property
/// test verifies numerically.
///
/// Near the focus the closed forms cancel catastrophically; below a
/// precision-dependent threshold the implementation switches to Taylor
/// series (f1 ~ x/3, f2 ~ x^2/15, f3 ~ 2/3 - 2x^2/15), making the focal
/// region — where all the physics happens — exact to machine precision.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_FIELDS_DIPOLEWAVE_H
#define HICHI_FIELDS_DIPOLEWAVE_H

#include "core/FieldSample.h"
#include "support/Constants.h"

#include <cmath>

namespace hichi {

/// The three radial profile functions of eq. 15, with series fallback.
template <typename Real> struct DipoleRadialFunctions {
  Real F1, F2, F3;

  /// Below this x the direct formulas lose ~eps/x^3 digits; the
  /// truncated series is then far more accurate.
  static constexpr Real Threshold =
      sizeof(Real) == 4 ? Real(0.25) : Real(0.02);

  static DipoleRadialFunctions evaluate(Real X) {
    DipoleRadialFunctions Out;
    if (X < Threshold) {
      const Real X2 = X * X;
      const Real X4 = X2 * X2;
      Out.F1 = X / Real(3) - X * X2 / Real(30) + X * X4 / Real(840);
      Out.F2 = X2 / Real(15) - X4 / Real(210);
      Out.F3 = Real(2) / Real(3) - Real(2) * X2 / Real(15) + X4 / Real(140);
      return Out;
    }
    const Real Sin = std::sin(X);
    const Real Cos = std::cos(X);
    const Real Inv = Real(1) / X;
    const Real Inv2 = Inv * Inv;
    const Real Inv3 = Inv2 * Inv;
    Out.F1 = Sin * Inv2 - Cos * Inv;
    Out.F2 = (Real(3) * Inv3 - Inv) * Sin - Real(3) * Cos * Inv2;
    Out.F3 = (Inv - Inv3) * Sin + Cos * Inv2;
    return Out;
  }
};

/// The standing m-dipole wave at one instant (DipoleWaveSource::atTime):
/// the sample at a position, with the time terms 2 A0 cos(w0 t) and
/// -2 A0 sin(w0 t) bound. Each bound product is a left-to-right prefix
/// of a product of eq. 14, so binding moves no bit.
template <typename Real> struct DipoleWaveAtTime {
  Real WaveNumber; ///< k
  Real ECoef;      ///< 2 A0 cos(w0 t)
  Real BCoef;      ///< -2 A0 sin(w0 t)
  Real FocusBz;    ///< B_z at R = 0: -2 A0 sin(w0 t) * 2 / 3

  FieldSample<Real> operator()(const Vector3<Real> &Pos, Index) const {
    const Real R2 = Pos.norm2();
    const Real R = std::sqrt(R2);
    const Real X = WaveNumber * R;
    const auto F = DipoleRadialFunctions<Real>::evaluate(X);

    FieldSample<Real> Out;
    if (R2 == Real(0)) {
      // Exactly at the focus: E -> 0, B -> -2 A0 sin(w0 t) (0,0,2/3).
      Out.E = Vector3<Real>::zero();
      Out.B = Vector3<Real>(0, 0, FocusBz);
      return Out;
    }

    const Real InvR = Real(1) / R;
    const Real InvR2 = InvR * InvR;
    Out.E = Vector3<Real>(-Pos.Y * InvR, Pos.X * InvR, Real(0)) *
            (ECoef * F.F1);
    Out.B = Vector3<Real>(Pos.X * Pos.Z * InvR2 * F.F2,
                          Pos.Y * Pos.Z * InvR2 * F.F2,
                          Pos.Z * Pos.Z * InvR2 * F.F2 + F.F3) *
            BCoef;
    return Out;
  }
};

/// The standing m-dipole wave field source. Trivially copyable, so
/// kernels capture it by value (paper Section 4.2 semantics).
template <typename Real> struct DipoleWaveSource {
  Real Amplitude;     ///< A0 = k sqrt(3P/c)
  Real WaveNumber;    ///< k = w0 / c
  Real WaveFrequency; ///< w0

  /// Builds the source from wave power \p PowerErgPerSec and frequency
  /// \p Omega0 in a unit system with light speed \p C.
  static DipoleWaveSource fromPower(Real PowerErgPerSec, Real Omega0, Real C) {
    DipoleWaveSource S;
    S.WaveFrequency = Omega0;
    S.WaveNumber = Omega0 / C;
    S.Amplitude = S.WaveNumber * std::sqrt(Real(3) * PowerErgPerSec / C);
    return S;
  }

  /// The paper's benchmark wave: P = 0.1 PW, w0 = 2.1e15 s^-1, CGS.
  static DipoleWaveSource paperBenchmark() {
    return fromPower(Real(dipole_benchmark::WavePowerErgPerSec),
                     Real(dipole_benchmark::WaveFrequency),
                     Real(constants::LightVelocity));
  }

  /// The wave at \p Time: the time terms of eq. 14, evaluated once for
  /// every particle sampled at that time.
  DipoleWaveAtTime<Real> atTime(Real Time) const {
    const Real Phase = WaveFrequency * Time;
    const Real CosT = std::cos(Phase);
    const Real SinT = std::sin(Phase);
    const Real TwoA = Real(2) * Amplitude;
    const Real BFactor = -TwoA * SinT;
    return {WaveNumber, TwoA * CosT, BFactor, BFactor * Real(2) / Real(3)};
  }

  /// Field-source interface (see core/FieldSample.h).
  FieldSample<Real> operator()(const Vector3<Real> &Pos, Real Time,
                               Index ParticleIndex) const {
    return atTime(Time)(Pos, ParticleIndex);
  }
};

/// The pulsed wave at one instant (PulsedDipoleWaveSource::atTime).
template <typename Real> struct PulsedDipoleWaveAtTime {
  DipoleWaveAtTime<Real> Carrier;
  Real Envelope;

  FieldSample<Real> operator()(const Vector3<Real> &Pos,
                               Index ParticleIndex) const {
    FieldSample<Real> F = Carrier(Pos, ParticleIndex);
    F.E *= Envelope;
    F.B *= Envelope;
    return F;
  }
};

/// A *pulsed* standing m-dipole wave: the steady wave modulated by a
/// smooth sin^2 temporal envelope ramping over \p RampPeriods wave
/// periods and holding for \p PlateauPeriods. This is the paper's
/// production shape ("The pulsed multi-PW incoming m-dipole wave can
/// ionize matter at its leading edge and pull unbound electrons to the
/// wave focus", Section 5.2) — the benchmark itself uses the steady
/// wave, the seed-target studies the pulse.
template <typename Real> struct PulsedDipoleWaveSource {
  DipoleWaveSource<Real> Carrier;
  Real RampPeriods = Real(2);
  Real PlateauPeriods = Real(4);

  /// Envelope in [0, 1]: sin^2 ramp up, flat plateau, sin^2 ramp down.
  Real envelope(Real Time) const {
    const Real Period =
        Real(2) * Real(constants::Pi) / Carrier.WaveFrequency;
    const Real T = Time / Period;
    if (T <= Real(0))
      return Real(0);
    if (T < RampPeriods) {
      const Real S =
          std::sin(Real(0.5) * Real(constants::Pi) * T / RampPeriods);
      return S * S;
    }
    if (T < RampPeriods + PlateauPeriods)
      return Real(1);
    const Real Tail = T - RampPeriods - PlateauPeriods;
    if (Tail >= RampPeriods)
      return Real(0);
    const Real S = std::cos(Real(0.5) * Real(constants::Pi) * Tail /
                            RampPeriods);
    return S * S;
  }

  /// The pulse at \p Time: the carrier's time terms and the envelope.
  PulsedDipoleWaveAtTime<Real> atTime(Real Time) const {
    return {Carrier.atTime(Time), envelope(Time)};
  }

  FieldSample<Real> operator()(const Vector3<Real> &Pos, Real Time,
                               Index ParticleIndex) const {
    return atTime(Time)(Pos, ParticleIndex);
  }
};

/// A linearly polarized plane wave travelling along +x with E along y and
/// B along z: E = B for a vacuum wave in Gaussian units. Used by FDTD
/// validation tests and as a second analytic scenario.
template <typename Real> struct PlaneWaveSource {
  Real Amplitude = Real(1);
  Real WaveNumber = Real(1);  ///< k
  Real Frequency = Real(1);   ///< w = k c

  FieldSample<Real> operator()(const Vector3<Real> &Pos, Real Time,
                               Index) const {
    const Real Phase = WaveNumber * Pos.X - Frequency * Time;
    const Real V = Amplitude * std::sin(Phase);
    return {Vector3<Real>(0, V, 0), Vector3<Real>(0, 0, V)};
  }
};

} // namespace hichi

#endif // HICHI_FIELDS_DIPOLEWAVE_H
