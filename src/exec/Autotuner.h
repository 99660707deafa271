//===-- exec/Autotuner.h - Roofline-seeded knob planning -------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner: per-stage execution knobs (backend, thread count, tile
/// count, step-graph mode) chosen from a *measured*
/// machine profile instead of hand-picked defaults. Planning is two
/// phases:
///
///   1. **Roofline seed** — planFromProfile() folds a
///      `hichi-machine-v1` profile (perfmodel/Calibration.h) into the
///      CpuMachine descriptor and evaluates predictStageNs for each PIC
///      stage (push / deposit / field, WorkloadModel.h descriptors)
///      across a thread-count ladder: the plan takes the smallest thread
///      count within a few percent of the best predicted rate (a
///      saturated memory-bound stage gains nothing from more cores), a
///      backend matched to the stage's character (static pool for the
///      even push, dynamic scheduling for the uneven deposit scatter,
///      NUMA arenas when the stage is memory bound on a multi-domain
///      host), and step-graph replay when the chosen backends' measured
///      per-launch submit overhead is large enough that collapsing it
///      pays. Deterministic: a fixed profile always yields the same
///      plan (tests/exec/AutotunerTest.cpp pins this).
///
///   2. **Measured hill-climb** — refine() takes the seed plan and a
///      caller-supplied trial runner (measured ns for a candidate plan,
///      e.g. a short PicSimulation run reading stepWallNs(), which
///      charges classic and graph-mode steps alike) and
///      coordinate-descends the thread counts and the graph toggle
///      within a bounded trial budget. Every knob it moves is
///      hash-invariant (the repo's cross-backend bit-equality
///      guarantee), so a tuned run's state hash still equals the serial
///      reference — ci/run.sh gates on exactly that for
///      `pic_langmuir --tune`.
///
/// The host's own profile resolves through hostProfile():
/// HICHI_MACHINE_PROFILE names a profile JSON (e.g. the bench_calibrate
/// artifact) to load; otherwise a tiny bounded in-process measurement
/// runs once per process. The plan is surfaced two ways: the "auto"
/// registry entry (a factory that delegates to the planned push
/// backend) and `pic_langmuir --tune`.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_AUTOTUNER_H
#define HICHI_EXEC_AUTOTUNER_H

#include "perfmodel/Calibration.h"

#include <functional>
#include <string>

namespace hichi {
namespace exec {

class BackendRegistry;

/// Chosen knobs of one PIC stage.
struct StagePlan {
  std::string Backend = "serial"; ///< exec registry name
  int Threads = 1;                ///< worker threads (never 0 in a plan)
  int Tiles = 1;   ///< deposit/field tiles (the push stage ignores it)

  /// The roofline's verdict for the chosen point (report/debug only).
  double PredictedNsPerItem = 0;
  bool MemoryBound = false;
};

/// A complete knob assignment for the PIC step: stage 1, the J clear,
/// the deposit chain and the field chain.
struct TunePlan {
  StagePlan Push, Deposit, Field;

  /// Capture the step's launch DAG once and replay it (StepGraph.h);
  /// chosen when the measured per-launch submit overhead of the planned
  /// backends is large enough that collapsing it pays.
  bool UseStepGraph = false;

  std::string ProfileHost; ///< host tag of the profile this plan is for
  std::string Source;      ///< "env:<path>" | "measured" | "synthetic"

  /// Multi-line human-readable chosen-knob report (the `--tune` print).
  std::string report() const;
};

bool operator==(const StagePlan &L, const StagePlan &R);
bool operator==(const TunePlan &L, const TunePlan &R);

/// The planning entry points. Stateless except for the process-wide
/// cached host profile/plan.
class Autotuner {
public:
  /// Phase 1: the deterministic roofline seed for \p Profile.
  static TunePlan planFromProfile(const perfmodel::MachineProfile &Profile);

  /// This host's machine profile: loaded from the file named by
  /// HICHI_MACHINE_PROFILE when set and parseable (a warning is printed
  /// and measurement runs otherwise), else measured in-process with a
  /// tiny bounded config. Cached for the process.
  static const perfmodel::MachineProfile &hostProfile();

  /// planFromProfile(hostProfile()), cached for the process.
  static const TunePlan &hostPlan();

  /// Measured step cost of a candidate plan [ns]; smaller is better.
  /// Must be side-effect free on the caller's real simulation (run a
  /// short trial on a scratch instance).
  using TrialRunner = std::function<double(const TunePlan &)>;

  /// Phase 2: bounded coordinate hill-climb from \p Seed. Tries
  /// halving/doubling each stage's thread count (switching the stage to
  /// "serial" at one thread and back to its planned parallel backend
  /// above) and toggling the step graph, keeping any move that improves
  /// the measured cost by > 2%; stops after \p MaxTrials measurements.
  /// \p TrialsUsed (optional) reports how many trials ran.
  static TunePlan refine(TunePlan Seed, const TrialRunner &MeasureNs,
                         int MaxTrials = 8, int *TrialsUsed = nullptr);
};

/// Registers the "auto" entry on \p Registry: a factory that resolves
/// hostPlan() at creation time and delegates to the planned push-stage
/// backend (the created object *is* the delegate — name(), shardCount()
/// and the ShardResources interface all stay truthful). Called by the
/// BackendRegistry constructor; safe to call again (duplicate names are
/// rejected).
bool registerAutoBackend(BackendRegistry &Registry);

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_AUTOTUNER_H
