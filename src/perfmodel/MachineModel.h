//===-- perfmodel/MachineModel.h - Paper hardware descriptors --*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptors of the paper's evaluation hardware (Table 1). The CPU node
/// is 2x Intel Xeon Platinum 8260L (Cascade Lake): 48 cores, 2.4 GHz base
/// (3.9 boost), 3.6 TFlops single precision, 6-channel DDR4-2933 per
/// socket. The bandwidth figures below are the standard sustained numbers
/// for that platform (STREAM-class ~135 GB/s/socket local, ~60 GB/s UPI
/// remote) — they are the only calibration inputs of the CPU model;
/// bench/paper_repro prints the model beside the paper's measurements.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PERFMODEL_MACHINEMODEL_H
#define HICHI_PERFMODEL_MACHINEMODEL_H

#include "numa/NumaCostModel.h"

#include <string>

namespace hichi {
namespace perfmodel {

struct MachineProfile;

/// Static description of a multi-socket CPU node.
struct CpuMachine {
  std::string Name;
  int Sockets;
  int CoresPerSocket;

  /// Clock sustained under full-width SIMD load [GHz] (below base for
  /// AVX-512-heavy code on Cascade Lake).
  double SustainedClockGHz;

  /// SIMD lane count for 4-byte floats (16 for AVX-512); halves for
  /// doubles.
  int SimdLanesSingle;

  /// Peak flops per cycle per lane (2 FMA pipes x 2 flops = 4 on this
  /// core).
  double FlopsPerCyclePerLane;

  /// Sustained local DRAM stream bandwidth per socket [bytes/s].
  double LocalBandwidthPerSocket;

  /// Sustained cross-socket (UPI) bandwidth per socket [bytes/s].
  double RemoteBandwidthPerSocket;

  /// Stream bandwidth achievable by a single core [bytes/s] (limited by
  /// outstanding line fills, not by the DIMMs); drives the Fig. 1 scaling
  /// shape inside one socket.
  double PerCoreBandwidth;

  int coreCount() const { return Sockets * CoresPerSocket; }

  numa::NumaBandwidth numaBandwidth() const {
    return {LocalBandwidthPerSocket, RemoteBandwidthPerSocket};
  }

  /// Peak single-precision flops of the whole node (Table 1 check: the
  /// paper lists 3.6 TFlops for the 2-socket node).
  double peakFlopsSingle() const {
    return double(coreCount()) * SustainedClockGHz * 1e9 *
           double(SimdLanesSingle) * FlopsPerCyclePerLane;
  }

  /// The paper's CPU node (Table 1) — the audit instance every Table-2 /
  /// Fig-1 reproduction test pins.
  static CpuMachine xeon8260LNode();

  /// A machine calibrated from a measured `hichi-machine-v1` profile
  /// (perfmodel/Calibration.h): DRAM-tier stream bandwidths map onto the
  /// socket/per-core fields and the measured FMA rate onto the compute
  /// product (see Calibration.cpp for the exact encoding). Defined in
  /// Calibration.cpp.
  static CpuMachine fromProfile(const MachineProfile &Profile);
};

} // namespace perfmodel
} // namespace hichi

#endif // HICHI_PERFMODEL_MACHINEMODEL_H
