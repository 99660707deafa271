//===-- perfmodel/Calibration.h - Measured machine profiles ----*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measured counterpart of MachineModel.h: a STREAM-sweep micro-suite
/// that calibrates the roofline inputs on the host actually running the
/// code, instead of assuming the paper's Xeon 8260L node. The suite
/// measures
///
///   - stream (triad) bandwidth of one core and of all cores, across a
///     ladder of working-set sizes spanning the cache hierarchy
///     (L1/L2/LLC/DRAM),
///   - sustained FMA throughput (single core and saturated),
///
/// each point as median + p95 over a fixed number of timed repeats
/// (median/p95 robust statistics — one slow repeat on a noisy CI host
/// must not skew the profile). Per-launch submit overhead per registered
/// exec backend is measured by bench_calibrate (the exec layer sits above
/// this library) and stored in the same profile.
///
/// Profiles serialize as `hichi-machine-v1` JSON. Doubles are written
/// with enough digits (%.17g) that save -> load round-trips every field
/// bit-identically — the profile is a calibration artifact, not a
/// pretty-printed report.
///
/// Downstream: CpuMachine::fromProfile() folds a profile into the
/// roofline machine descriptor, and exec::Autotuner plans per-stage
/// knobs from it (see docs/ARCHITECTURE.md, "Calibration, roofline and
/// the autotuner").
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PERFMODEL_CALIBRATION_H
#define HICHI_PERFMODEL_CALIBRATION_H

#include "perfmodel/MachineModel.h"
#include "support/Json.h"

#include <string>
#include <vector>

namespace hichi {
namespace perfmodel {

/// One working-set point of the stream sweep. Bandwidths are bytes/s of
/// bytes *touched* (triad moves 3 streams; RFO write traffic is not
/// inflated here — the roofline's traffic accounting owns that).
struct BandwidthTier {
  double WorkingSetBytes = 0;

  /// One-core triad bandwidth: median repeat, and the repeat at the 95th
  /// percentile of *time* (the slow tail — always <= the median figure).
  double PerCoreBandwidth = 0;
  double PerCoreP95Bandwidth = 0;

  /// All-threads triad bandwidth (each thread streams its own buffers of
  /// WorkingSetBytes), median and slow-tail as above.
  double SaturatedBandwidth = 0;
  double SaturatedP95Bandwidth = 0;
};

/// Per-launch submit overhead of one registered exec backend (median and
/// p95 over batches of empty-kernel launches). Filled by bench_calibrate.
struct SubmitOverhead {
  std::string Backend;
  double MedianNs = 0;
  double P95Ns = 0;
};

/// A measured description of the host: the `hichi-machine-v1` document.
struct MachineProfile {
  std::string Host;    ///< free-form host tag ($HOSTNAME or "unknown-host")
  int Threads = 1;     ///< threads used for the saturated measurements
  int NumaDomains = 1; ///< from CpuTopology::detect (HICHI_TOPOLOGY-aware)

  /// Sustained double-precision FMA throughput [flops/s]: one core, and
  /// all Threads together.
  double FmaFlopsPerCore = 0;
  double FmaFlopsSaturated = 0;

  /// Stream sweep, ascending WorkingSetBytes (L1 -> DRAM).
  std::vector<BandwidthTier> Tiers;

  /// Per-backend submit overhead (may be empty: Calibration::measure does
  /// not fill it; bench_calibrate does).
  std::vector<SubmitOverhead> Submit;

  /// Bandwidth available to a working set of \p Bytes: the first tier at
  /// least that large (the last — DRAM — tier for anything larger).
  /// Returns 0 on an empty profile.
  double perCoreBandwidthAt(double Bytes) const;
  double saturatedBandwidthAt(double Bytes) const;

  /// The DRAM-tier (largest working set) figures; 0 on an empty profile.
  double dramPerCoreBandwidth() const;
  double dramSaturatedBandwidth() const;

  /// Submit overhead (median ns/launch) of \p Backend, or \p Default when
  /// that backend was not measured.
  double submitOverheadNs(const std::string &Backend, double Default) const;
};

bool operator==(const BandwidthTier &L, const BandwidthTier &R);
bool operator==(const SubmitOverhead &L, const SubmitOverhead &R);
bool operator==(const MachineProfile &L, const MachineProfile &R);

/// Measurement knobs. Every count is fixed up front (no time-targeted
/// inner calibration loops), so a given config does a deterministic,
/// bounded amount of work — what `bench_calibrate --fast` relies on to be
/// CI-safe.
struct CalibrationConfig {
  int Threads = 0;  ///< saturated-run threads; 0 = hardware_concurrency
  int Repeats = 9;  ///< timed repeats per point (odd: clean median)

  /// Bytes each timed repeat streams (passes = max(1, this/workingSet)),
  /// so small tiers are timed over many passes and DRAM tiers over one.
  double BytesPerRepeat = 64.0 * 1024 * 1024;

  /// FMA loop iterations per repeat (flops = iterations x lanes x 2).
  long long FmaIterations = 16 * 1000 * 1000;

  /// Working-set ladder [bytes], ascending; empty = the default
  /// L1/L2/LLC/DRAM ladder (16 KiB, 128 KiB, 4 MiB, 64 MiB).
  std::vector<double> WorkingSets;

  /// The bounded CI preset: 5 repeats, 8 MiB per repeat, 2M FMA
  /// iterations, 16 MiB DRAM point.
  static CalibrationConfig fast();
};

/// The calibration suite: measure on this host, and (de)serialize
/// `hichi-machine-v1` profiles.
class Calibration {
public:
  /// Runs the stream sweep + FMA measurement (Submit stays empty). The
  /// saturated FMA run is repeated, up to MaxFmaAttempts times in all,
  /// while it is implausible (saturatedFmaPlausible), and the best
  /// figure is kept.
  static MachineProfile measure(const CalibrationConfig &Config = {});

  /// Lowest plausible saturated-to-ideal FMA ratio, and the number of
  /// saturated FMA runs measure() makes at most to reach it.
  static constexpr double MinFmaSaturationRatio = 0.7;
  static constexpr int MaxFmaAttempts = 3;

  /// True if \p P's saturated FMA rate is at least MinFmaSaturationRatio
  /// x its one-core rate x min(Threads, \p PhysicalCores). A lower figure
  /// says a worker lost its core during the run, not what the host can
  /// do. The ideal counts physical cores, not SMT siblings: one thread's
  /// independent FMA chains already fill its core's FMA units.
  static bool saturatedFmaPlausible(const MachineProfile &P,
                                    int PhysicalCores);

  /// Serializes \p P as a `hichi-machine-v1` document. load(save(P)) is
  /// bit-identical to P for every finite field.
  static std::string toJson(const MachineProfile &P);
  static bool save(const MachineProfile &P, const std::string &Path,
                   std::string *Error = nullptr);

  /// Parses a `hichi-machine-v1` document (schema-checked).
  static bool fromJson(const json::Value &Doc, MachineProfile &Out,
                       std::string *Error = nullptr);
  static bool load(const std::string &Path, MachineProfile &Out,
                   std::string *Error = nullptr);
};

} // namespace perfmodel
} // namespace hichi

#endif // HICHI_PERFMODEL_CALIBRATION_H
