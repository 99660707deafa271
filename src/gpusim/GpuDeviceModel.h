//===-- gpusim/GpuDeviceModel.h - Simulated GPU device model ---*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analytic device model of the two Intel GPUs of the paper's Table 1
/// (UHD Graphics P630 and Iris Xe Max). The container this repo builds in
/// has no GPU, so kernels "run on the GPU" by executing on host threads for
/// correctness while an analytic timing model charges the time the device
/// would take. The model is a roofline:
///
///   T = LaunchOverhead + max(EffectiveBytes / Bandwidth, Flops / Peak)
///
/// with a memory-coalescing efficiency term that depends on the access
/// pattern (unit-stride SoA streams at full bandwidth; AoS's strided
/// per-field access wastes a fraction of each transaction). That term is
/// precisely the mechanism behind the paper's Table 3 finding that the
/// AoS/SoA choice, irrelevant on CPUs, costs >2x on GPUs ("this is due to
/// a different organization of the memory subsystem in the GPUs").
///
/// Parameters come from Table 1 plus the public specs of the devices; the
/// derived bandwidth numbers are recorded here as named constants so the
/// calibration is auditable (bench/paper_repro prints the model beside
/// the paper's Table 3).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_GPUSIM_GPUDEVICEMODEL_H
#define HICHI_GPUSIM_GPUDEVICEMODEL_H

#include "support/Config.h"

#include <string>

namespace hichi {
namespace gpusim {

/// How a kernel walks memory; selects the coalescing efficiency.
enum class AccessPattern {
  UnitStride, ///< SoA component arrays: fully coalesced transactions.
  Strided,    ///< AoS particle objects: each field load strides by the
              ///< object size, wasting part of every transaction.
};

/// Static description of one simulated GPU.
struct GpuParameters {
  std::string Name;
  int ExecutionUnits;      ///< Table 1 "GPU execution units".
  double BaseClockGHz;     ///< Table 1 clock.
  double BoostClockGHz;    ///< Table 1 boost clock.
  double PeakFlopsSingle;  ///< Table 1 peak single-precision flops.
  double MemoryBytes;      ///< Table 1 RAM.
  double BandwidthBytesPerSec; ///< Achievable streaming bandwidth.
  double CoalescedEfficiency;  ///< Fraction of bandwidth usable, unit-stride.
  double StridedEfficiency;    ///< Fraction of bandwidth usable, AoS access.
  double LaunchOverheadNs;     ///< Per-kernel submission cost.
  double JitFirstLaunchNs;     ///< One-time SPIR-V -> ISA JIT cost
                               ///< (Section 5.3: first iteration ~50% slower).
  bool NativeDoubleSupport;    ///< Iris Xe Max emulates doubles (Sec. 5.3).
  double DoubleEmulationSlowdown; ///< Flop-rate penalty when emulating.

  /// Intel UHD Graphics P630: 24 EU, 0.35/1.15 GHz, 0.441 TFlops SP
  /// (Table 1); it has no dedicated memory and streams from host DDR4
  /// (dual-channel DDR4-2666, ~42.6 GB/s raw).
  static GpuParameters p630();

  /// Intel Iris Xe Max: 96 EU, 0.3/1.65 GHz, 2.5 TFlops SP (Table 1);
  /// 4 GB LPDDR4X at ~68 GB/s raw.
  static GpuParameters irisXeMax();
};

/// Per-work-item cost of one kernel, supplied by the workload model.
struct KernelProfile {
  double StreamedBytesPerItem = 0; ///< Bytes moved with unit stride.
  double StridedBytesPerItem = 0;  ///< Bytes moved with AoS-style stride.
  double FlopsPerItem = 0;         ///< Arithmetic per work item.
  bool DoublePrecision = false;    ///< Needs native FP64.
};

/// \returns modeled execution time [ns] of one launch of \p Profile over
/// \p WorkItems items on \p Device. \p FirstLaunch adds the JIT cost.
double modelKernelTimeNs(const GpuParameters &Device,
                         const KernelProfile &Profile, Index WorkItems,
                         bool FirstLaunch = false);

/// \returns the modeled NSPS metric (ns/particle/step) for steady-state
/// launches, i.e. modelKernelTimeNs without the JIT term divided by the
/// work-item count.
double modelNsPerItem(const GpuParameters &Device, const KernelProfile &Profile,
                      Index WorkItems);

} // namespace gpusim
} // namespace hichi

#endif // HICHI_GPUSIM_GPUDEVICEMODEL_H
