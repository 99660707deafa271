//===-- exec/Autotuner.cpp - Roofline-seeded knob planning ----------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "exec/Autotuner.h"

#include "exec/BackendRegistry.h"
#include "perfmodel/RooflineModel.h"
#include "perfmodel/WorkloadModel.h"
#include "support/EnvVar.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace hichi {
namespace exec {

namespace {

using perfmodel::CpuMachine;
using perfmodel::MachineProfile;
using perfmodel::StageWorkload;

/// Predicted ns/item improvements under this fraction do not justify more
/// threads: the plan takes the *smallest* thread count whose prediction
/// is within this factor of the best ladder point (a saturated
/// memory-bound stage predicts flat beyond a few cores, and extra idle
/// threads only add scheduling noise).
constexpr double ThreadSlack = 1.05;

/// Step-graph replay is chosen when the worst measured per-launch submit
/// overhead among the planned backends exceeds this [ns] — below it, the
/// capture bookkeeping costs as much as it saves on the short launches
/// of a tuned step.
constexpr double GraphOverheadThresholdNs = 1500.0;

/// The doubling thread ladder {1, 2, 4, ...} capped at (and always
/// including) \p MaxThreads.
std::vector<int> threadLadder(int MaxThreads) {
  std::vector<int> Ladder;
  for (int T = 1; T < MaxThreads; T *= 2)
    Ladder.push_back(T);
  Ladder.push_back(MaxThreads);
  return Ladder;
}

/// Prefers \p Name if registered, else falls back to "openmp" (always
/// present) — keeps plans valid even if a build strips a backend.
std::string registeredOr(const std::string &Name, const char *Fallback) {
  const BackendRegistry &Registry = BackendRegistry::instance();
  if (Registry.contains(Name))
    return Name;
  return Registry.contains(Fallback) ? std::string(Fallback)
                                     : std::string("serial");
}

/// The roofline leg of planning one stage: thread count from the ladder,
/// then a backend matched to the stage's character.
StagePlan planStage(const CpuMachine &Machine, const MachineProfile &Profile,
                    const StageWorkload &Workload, bool IsDeposit) {
  StagePlan Plan;

  const std::vector<int> Ladder = threadLadder(Machine.coreCount());
  double BestNs = 0;
  std::vector<double> LadderNs;
  LadderNs.reserve(Ladder.size());
  for (int T : Ladder) {
    const perfmodel::StagePrediction P = perfmodel::predictStageNs(
        Machine, Workload, T, perfmodel::Precision::Double);
    LadderNs.push_back(P.NsPerItem);
    if (LadderNs.size() == 1 || P.NsPerItem < BestNs)
      BestNs = P.NsPerItem;
  }
  for (std::size_t I = 0; I < Ladder.size(); ++I) {
    if (LadderNs[I] <= BestNs * ThreadSlack) {
      Plan.Threads = Ladder[I];
      Plan.PredictedNsPerItem = LadderNs[I];
      break;
    }
  }

  const perfmodel::StagePrediction Chosen = perfmodel::predictStageNs(
      Machine, Workload, Plan.Threads, perfmodel::Precision::Double);
  Plan.MemoryBound = Chosen.memoryBound();

  if (Plan.Threads <= 1) {
    Plan.Backend = "serial";
  } else if (Plan.MemoryBound && Profile.NumaDomains > 1) {
    // Memory bound on a multi-domain host: the NUMA-arena backend keeps
    // each worker streaming from its own domain.
    Plan.Backend = registeredOr("dpcpp-numa", "openmp");
  } else if (IsDeposit) {
    // The deposit scatter is load-imbalanced across tiles; the dynamic
    // dpcpp queue steals better than the static pool.
    Plan.Backend = registeredOr("dpcpp", "openmp");
  } else {
    Plan.Backend = registeredOr("openmp", "serial");
  }

  Plan.Tiles = Plan.Backend == "serial" ? 1 : 2 * Plan.Threads;
  return Plan;
}

} // namespace

bool operator==(const StagePlan &L, const StagePlan &R) {
  return L.Backend == R.Backend && L.Threads == R.Threads &&
         L.Tiles == R.Tiles &&
         L.PredictedNsPerItem == R.PredictedNsPerItem &&
         L.MemoryBound == R.MemoryBound;
}

bool operator==(const TunePlan &L, const TunePlan &R) {
  return L.Push == R.Push && L.Deposit == R.Deposit && L.Field == R.Field &&
         L.UseStepGraph == R.UseStepGraph && L.ProfileHost == R.ProfileHost &&
         L.Source == R.Source;
}

std::string TunePlan::report() const {
  char Buf[256];
  std::string Out = "autotuner plan (profile: " + ProfileHost + ", " + Source +
                    ")\n";
  const StagePlan *Stages[] = {&Push, &Deposit, &Field};
  const char *Names[] = {"push", "deposit", "field"};
  for (int I = 0; I < 3; ++I) {
    const StagePlan &S = *Stages[I];
    std::snprintf(Buf, sizeof(Buf),
                  "  %-8s backend=%-12s threads=%-3d tiles=%-3d "
                  "predicted=%.3f ns/item (%s bound)\n",
                  Names[I], S.Backend.c_str(), S.Threads, S.Tiles,
                  S.PredictedNsPerItem, S.MemoryBound ? "memory" : "compute");
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "  step graph: %s\n",
                UseStepGraph ? "on" : "off");
  Out += Buf;
  return Out;
}

TunePlan Autotuner::planFromProfile(const MachineProfile &Profile) {
  const CpuMachine Machine = CpuMachine::fromProfile(Profile);

  TunePlan Plan;
  Plan.ProfileHost = Profile.Host;
  Plan.Source = "profile";
  Plan.Push = planStage(Machine, Profile,
                        perfmodel::pushStageWorkload(perfmodel::Precision::Double),
                        /*IsDeposit=*/false);
  Plan.Deposit =
      planStage(Machine, Profile,
                perfmodel::depositStageWorkload(perfmodel::Precision::Double),
                /*IsDeposit=*/true);
  Plan.Field = planStage(Machine, Profile,
                         perfmodel::fieldStageWorkload(perfmodel::Precision::Double),
                         /*IsDeposit=*/false);

  // Graph replay pays when the planned backends' measured per-launch
  // submit overhead is large. Unmeasured backends contribute 0 — an
  // unmeasured profile conservatively keeps the graph off.
  double WorstSubmitNs = 0;
  for (const StagePlan *S : {&Plan.Push, &Plan.Deposit, &Plan.Field})
    WorstSubmitNs = std::max(
        WorstSubmitNs, Profile.submitOverheadNs(S->Backend, /*Default=*/0));
  Plan.UseStepGraph = WorstSubmitNs > GraphOverheadThresholdNs;

  return Plan;
}

const MachineProfile &Autotuner::hostProfile() {
  static const MachineProfile Profile = [] {
    if (auto Path = getEnvTrimmed("HICHI_MACHINE_PROFILE")) {
      MachineProfile Loaded;
      std::string Error;
      if (perfmodel::Calibration::load(*Path, Loaded, &Error)) {
        if (Loaded.Host.empty())
          Loaded.Host = "unknown-host";
        return Loaded;
      }
      std::fprintf(stderr,
                   "hichi: HICHI_MACHINE_PROFILE=%s not loadable (%s); "
                   "measuring in-process instead\n",
                   Path->c_str(), Error.c_str());
    }
    // Tiny bounded in-process measurement: two tiers (an L2-resident
    // point and a beyond-LLC point), few repeats, small stream volume —
    // ~100-300 ms, run once per process.
    perfmodel::CalibrationConfig Config;
    Config.Repeats = 3;
    Config.BytesPerRepeat = 2.0 * 1024 * 1024;
    Config.FmaIterations = 1000 * 1000;
    Config.WorkingSets = {32.0 * 1024, 8.0 * 1024 * 1024};
    return perfmodel::Calibration::measure(Config);
  }();
  return Profile;
}

const TunePlan &Autotuner::hostPlan() {
  static const TunePlan Plan = [] {
    TunePlan P = planFromProfile(hostProfile());
    P.Source = getEnvTrimmed("HICHI_MACHINE_PROFILE")
                   ? "env:" + *getEnvTrimmed("HICHI_MACHINE_PROFILE")
                   : "measured";
    return P;
  }();
  return Plan;
}

TunePlan Autotuner::refine(TunePlan Seed, const TrialRunner &MeasureNs,
                           int MaxTrials, int *TrialsUsed) {
  int Trials = 0;
  const int HwThreads =
      std::max(1u, std::thread::hardware_concurrency());

  auto Measure = [&](const TunePlan &Candidate) -> double {
    ++Trials;
    return MeasureNs(Candidate);
  };

  TunePlan Best = Seed;
  double BestNs = Measure(Best);

  // One stage-threads move: candidate thread count for stage *S scaled
  // by Factor, with the serial<->parallel backend switch at one thread.
  auto withThreads = [&](const TunePlan &Base, StagePlan TunePlan::*Stage,
                         int NewThreads) {
    TunePlan Candidate = Base;
    StagePlan &S = Candidate.*Stage;
    const StagePlan &SeedStage = Seed.*Stage;
    S.Threads = std::min(std::max(NewThreads, 1), HwThreads);
    if (S.Threads == 1) {
      S.Backend = "serial";
      S.Tiles = 1;
    } else {
      // Leaving one thread: restore the seed's parallel backend (or the
      // always-present pool if the seed itself was serial).
      S.Backend =
          SeedStage.Backend != "serial" ? SeedStage.Backend : "openmp";
      S.Tiles = 2 * S.Threads;
    }
    return Candidate;
  };

  // Coordinate descent: per stage, try halving then doubling the thread
  // count; keep a move only when it wins by > 2% measured. Then one
  // step-graph toggle trial. Deterministic order, bounded by MaxTrials.
  StagePlan TunePlan::*Stages[] = {&TunePlan::Push, &TunePlan::Deposit,
                                   &TunePlan::Field};
  for (StagePlan TunePlan::*Stage : Stages) {
    for (int Factor : {-2, 2}) {
      if (Trials >= MaxTrials)
        break;
      const int Current = (Best.*Stage).Threads;
      const int Next = Factor < 0 ? Current / 2 : Current * 2;
      if (Next == Current || Next < 1 || Next > HwThreads)
        continue;
      TunePlan Candidate = withThreads(Best, Stage, Next);
      const double Ns = Measure(Candidate);
      if (Ns < BestNs * 0.98) {
        Best = Candidate;
        BestNs = Ns;
      }
    }
  }
  if (Trials < MaxTrials) {
    TunePlan Candidate = Best;
    Candidate.UseStepGraph = !Candidate.UseStepGraph;
    const double Ns = Measure(Candidate);
    if (Ns < BestNs * 0.98) {
      Best = Candidate;
      BestNs = Ns;
    }
  }

  if (TrialsUsed)
    *TrialsUsed = Trials;
  return Best;
}

bool registerAutoBackend(BackendRegistry &Registry) {
  // Called from the BackendRegistry constructor with *this — calling
  // BackendRegistry::instance() here would re-enter the magic static's
  // initialization. The factory body below runs at create() time (after
  // construction, outside the registry lock), where instance() is safe.
  return Registry.registerBackend(
      "auto",
      "roofline-planned delegate: picks the backend/threads the measured "
      "machine profile predicts fastest for the push stage",
      [](const BackendConfig &Config) -> std::unique_ptr<ExecutionBackend> {
        const TunePlan &Plan = Autotuner::hostPlan();
        BackendConfig Delegated = Config;
        if (Config.Threads == 0)
          Delegated.Threads = Plan.Push.Threads;
        // Return the delegate itself (no wrapper): name(), shardCount()
        // and dynamic_casts to shard interfaces must stay truthful.
        return createBackend(Plan.Push.Backend, Delegated);
      });
}

} // namespace exec
} // namespace hichi
