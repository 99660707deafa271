//===-- examples/radiative_trapping.cpp - Extreme-intensity regime -------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Anomalous radiative trapping (the paper's Ref. [25], Gonoskov et al.
/// PRL 113, 014801): the paper's benchmark deliberately sits at
/// P = 0.1 PW where "radiative trapping effects are absent" — at
/// multi-PW powers the radiation-reaction force reverses the escape
/// dynamics, pulling electrons *into* the high-field focal region
/// instead of expelling them.
///
/// This example runs the same escape study as examples/dipole_escape at
/// a 100x higher power (10 PW class), once with the plain Boris pusher
/// and once with the Landau-Lifshitz radiation-reaction adaptor, and
/// prints the retained fraction side by side.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "core/RadiationReaction.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"

#include <cstdio>

using namespace hichi;

namespace {

struct EscapeCurve {
  std::vector<double> InsideFraction;
  double MaxGamma = 1;
};

template <typename Pusher>
EscapeCurve runEscape(double PowerErg, Index N, int Periods) {
  const double Lambda = dipole_benchmark::Wavelength;
  const double Period = 2 * constants::Pi / dipole_benchmark::WaveFrequency;
  const int StepsPerPeriod = 200; // finer than T/100: strong-field orbits
  const double Dt = Period / StepsPerPeriod;

  ParticleArraySoA<double> Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), 0.6 * Lambda,
                       PS_Electron);
  auto Types = ParticleTypeTable<double>::cgs();
  auto Wave = DipoleWaveSource<double>::fromPower(
      PowerErg, dipole_benchmark::WaveFrequency, constants::LightVelocity);

  auto Backend = exec::createBackend("openmp");
  exec::StepLoopOptions<double> Opts;

  EscapeCurve Curve;
  for (int P = 0; P <= Periods; ++P) {
    Index Inside = 0;
    for (Index I = 0; I < N; ++I) {
      if (Particles[I].position().norm() < Lambda)
        ++Inside;
      Curve.MaxGamma = std::max(Curve.MaxGamma, double(Particles[I].gamma()));
    }
    Curve.InsideFraction.push_back(double(Inside) / double(N));
    if (P == Periods)
      break;
    Opts.StartTime = double(P) * Period;
    exec::runStepLoop<Pusher>(*Backend, /*Ctx=*/{}, Particles, Wave, Types,
                              Dt, StepsPerPeriod, Opts);
  }
  return Curve;
}

} // namespace

int main(int Argc, char **Argv) {
  const Index N = Argc > 1 ? Index(std::atoll(Argv[1])) : 4000;
  const int Periods = Argc > 2 ? std::atoi(Argv[2]) : 6;
  // 10 PW = 1e23 erg/s: the regime of the paper's Refs. [21, 25].
  const double Power = 1.0e23;

  std::printf("Radiative trapping at 10 PW (paper Ref. [25] regime); "
              "%lld electrons, fraction within 1 lambda of the focus:\n\n",
              (long long)N);

  auto Plain = runEscape<BorisPusher>(Power, N, Periods);
  auto WithRR =
      runEscape<RadiationReactionPusher<BorisPusher>>(Power, N, Periods);

  std::printf("%-8s %-22s %-22s\n", "t / T", "Boris (no RR)",
              "Boris + Landau-Lifshitz");
  for (int P = 0; P <= Periods; ++P)
    std::printf("%-8d %-22.3f %-22.3f\n", P,
                Plain.InsideFraction[std::size_t(P)],
                WithRR.InsideFraction[std::size_t(P)]);

  std::printf("\nmax gamma reached: %.0f (no RR) vs %.0f (with RR)\n",
              Plain.MaxGamma, WithRR.MaxGamma);
  std::printf("\nWith radiation reaction the electrons shed the energy "
              "that would eject them and stay trapped near the focus — "
              "the effect absent by design at the paper's 0.1 PW "
              "benchmark point (compare examples/dipole_escape).\n");
  return 0;
}
