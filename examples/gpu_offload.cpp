//===-- examples/gpu_offload.cpp - Device selection and layouts ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The portability story of the paper in one program: the *same* pusher
/// kernel runs on the CPU and on (simulated) Intel GPUs by changing only
/// the queue's device, and the AoS/SoA layout choice — irrelevant on the
/// CPU — decides a >1.5x factor on the GPUs (Table 3's lesson: "the
/// importance of choosing a layout on GPUs must be taken into account
/// when such porting").
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "perfmodel/WorkloadModel.h"

#include <cstdio>

using namespace hichi;
using namespace hichi::perfmodel;

namespace {

template <typename Array>
double runOn(minisycl::device Dev, Layout L, Index N) {
  using Real = typename Array::Scalar;
  Array Particles(N);
  initializeBallAtRest(Particles, N, Vector3<Real>::zero(), Real(1),
                       PS_Electron);
  auto Types = ParticleTypeTable<Real>::natural();
  auto Wave = DipoleWaveSource<Real>::fromPower(1, 1, 1);

  minisycl::queue Queue{Dev};
  auto Backend = exec::createBackend("dpcpp");
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  exec::StepLoopOptions<Real> Opts;
  Opts.LightVelocity = Real(1);

  // On simulated GPUs, attach the workload profile so events report
  // device-modeled times.
  gpusim::KernelProfile Profile =
      gpuKernelProfile(Scenario::AnalyticalFields, L, Precision::Single);
  if (Dev.is_gpu())
    Ctx.GpuWorkload = &Profile;

  // Warmup step: absorbs the (modeled) JIT compilation of the kernel at
  // first launch — the paper's first-iteration effect (Section 5.3).
  exec::runStepLoop(*Backend, Ctx, Particles, Wave, Types, Real(0.01), 1,
                    Opts);
  auto Stats = exec::runStepLoop(*Backend, Ctx, Particles, Wave, Types,
                                 Real(0.01), 20, Opts);
  return Stats.ModeledNs / double(N) / 20.0;
}

} // namespace

int main() {
  const Index N = 100000;
  std::printf("One kernel, three devices, two layouts (NSPS, analytical "
              "fields, float)\n\n");
  std::printf("%-40s %-12s %-12s\n", "device", "AoS", "SoA");
  for (minisycl::device Dev : minisycl::device::get_devices()) {
    double AoS = runOn<ParticleArrayAoS<float>>(Dev, Layout::AoS, N);
    double SoA = runOn<ParticleArraySoA<float>>(Dev, Layout::SoA, N);
    std::printf("%-40s %-12.2f %-12.2f %s\n", Dev.name().c_str(), AoS, SoA,
                Dev.is_gpu() ? "(device-modeled time)" : "(measured here)");
  }
  std::printf("\nNote how the AoS/SoA gap opens up on the GPUs: strided "
              "particle records waste memory transactions that the CPUs' "
              "caches absorb.\n");
  return 0;
}
