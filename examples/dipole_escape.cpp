//===-- examples/dipole_escape.cpp - The paper's physics use case --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The study that motivates the paper's benchmark (Section 5.2): "With
/// the help of simulations of the particle motion in the standing
/// m-dipole wave the rate of particle escape from the focal region can be
/// obtained. Based on these results the optimal parameters of the seed
/// target can be chosen."
///
/// Electrons start at rest, uniformly in a ball of radius 0.6 lambda at
/// the focus of a P = 0.1 PW standing m-dipole wave (the paper's P; in
/// the 4 GW - 1 PW window escape is fastest). We integrate their motion
/// with the Boris pusher in full CGS units and report the fraction still
/// inside the focal region (r < 0.6 lambda and r < lambda) over time, in
/// wave periods.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"

#include <cstdio>

using namespace hichi;

int main(int Argc, char **Argv) {
  const Index N = Argc > 1 ? Index(std::atoll(Argv[1])) : 20000;
  const int Periods = Argc > 2 ? std::atoi(Argv[2]) : 5;

  const double Lambda = dipole_benchmark::Wavelength;
  const double SeedRadius = dipole_benchmark::SeedRadiusFactor * Lambda;
  const double Period = 2.0 * constants::Pi / dipole_benchmark::WaveFrequency;
  const int StepsPerPeriod =
      int(1.0 / dipole_benchmark::TimeStepFraction); // dt = T/100
  const double Dt = Period / StepsPerPeriod;

  std::printf("Electron escape from the focal region of a standing "
              "m-dipole wave\n");
  std::printf("P = 0.1 PW, lambda = %.3g um, seed radius 0.6 lambda, "
              "%lld electrons, dt = T/%d\n\n",
              Lambda * 1e4, (long long)N, StepsPerPeriod);

  ParticleArraySoA<double> Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), SeedRadius,
                       PS_Electron);
  auto Types = ParticleTypeTable<double>::cgs();
  auto Wave = DipoleWaveSource<double>::paperBenchmark();

  minisycl::queue Queue{minisycl::cpu_device()};
  auto Backend = exec::createBackend("dpcpp"); // any registered name works
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  exec::StepLoopOptions<double> Options;

  auto CountInside = [&](double Radius) {
    Index Inside = 0;
    for (Index I = 0; I < N; ++I)
      if (Particles[I].position().norm() < Radius)
        ++Inside;
    return Inside;
  };

  std::printf("%-10s %-18s %-18s %-14s\n", "t / T", "inside 0.6 lambda",
              "inside 1.0 lambda", "max gamma");
  for (int P = 0; P <= Periods; ++P) {
    double MaxGamma = 1;
    for (Index I = 0; I < N; ++I)
      MaxGamma = std::max(MaxGamma, Particles[I].gamma());
    std::printf("%-10d %-18.3f %-18.3f %-14.1f\n", P,
                double(CountInside(0.6 * Lambda)) / double(N),
                double(CountInside(Lambda)) / double(N), MaxGamma);
    if (P == Periods)
      break;
    Options.StartTime = double(P) * Period;
    exec::runStepLoop(*Backend, Ctx, Particles, Wave, Types, Dt,
                      StepsPerPeriod, Options);
  }

  std::printf("\nInterpretation: the fraction remaining at the focus when "
              "the wave power ramps past 10 PW seeds the vacuum-breakdown "
              "cascade (paper Refs. [21,22]); a fast-decaying curve means "
              "the seed target must be denser or larger.\n");
  return 0;
}
