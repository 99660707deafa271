//===-- examples/quickstart.cpp - 60-second tour of the API --------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: build an ensemble, pick a field, push particles with the
/// Boris method through the miniSYCL (DPC++-style) runner, and read the
/// results — the whole public API in one page. Units here are natural
/// (c = 1, m_e = 1, |e| = 1) to keep numbers readable.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"

#include <cstdio>

using namespace hichi;

int main() {
  // 1. An ensemble of 1000 electrons in a ball, at rest. Try swapping
  //    ParticleArrayAoS for ParticleArraySoA — nothing else changes.
  const Index N = 1000;
  ParticleArrayAoS<double> Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), /*Radius=*/1.0,
                       PS_Electron);

  // 2. A field source: uniform B along z plus a small E along x. Any
  //    trivially copyable callable (position, time, index) -> {E, B} works.
  UniformFieldSource<double> Field{{{0.05, 0, 0}, {0, 0, 1.0}}};

  // 3. The species table (masses/charges indexed by Particle::Type).
  auto Types = ParticleTypeTable<double>::natural();

  // 4. Run 500 Boris steps through the DPC++-style execution backend,
  //    resolved by name from the registry (try "serial", "openmp" or
  //    "dpcpp-numa" — results are bit-identical by construction).
  minisycl::queue Queue; // default device; MINISYCL_DEVICE=p630 to "offload"
  auto Backend = exec::createBackend("dpcpp");
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  exec::StepLoopOptions<double> Options;
  Options.LightVelocity = 1.0;
  RunStats Stats =
      exec::runStepLoop(*Backend, Ctx, Particles, Field, Types, /*Dt=*/0.01,
                        /*NumSteps=*/500, Options);

  // 5. Inspect the results through proxies.
  double MeanGamma = 0;
  for (Index I = 0; I < N; ++I)
    MeanGamma += Particles[I].gamma();
  MeanGamma /= double(N);

  std::printf("pushed %lld electrons x 500 steps on '%s'\n", (long long)N,
              Queue.get_device().name().c_str());
  std::printf("mean gamma after the run: %.6f\n", MeanGamma);
  std::printf("kernel time: %.2f ms (%.2f ns per particle-step)\n",
              Stats.HostNs / 1e6, Stats.HostNs / double(N) / 500.0);
  std::printf("first particle: p = (%.4f, %.4f, %.4f), r = (%.4f, %.4f, "
              "%.4f)\n",
              Particles[0].momentum().X, Particles[0].momentum().Y,
              Particles[0].momentum().Z, Particles[0].position().X,
              Particles[0].position().Y, Particles[0].position().Z);
  return 0;
}
