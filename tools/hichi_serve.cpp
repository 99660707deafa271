//===-- tools/hichi_serve.cpp - Multi-tenant simulation job runner --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-layer CLI: runs a stream of simulation jobs (a JSON
/// job-spec file, or the deterministic synthetic mix) over one shared
/// execution pool — one job per scheduler worker — with round-robin
/// quanta and checkpoint-based suspend/resume (src/serve/). Prints streamed
/// per-job completions, a throughput/latency summary, and optionally
/// verifies served hashes against standalone serial reruns:
///
/// \code
///   hichi_serve --synthetic 100 --tenants 4 --workers 2 --verify-sample 8
///   hichi_serve --jobs specs.json --quantum 16 --state-dir /tmp/serve
///   hichi_serve --synthetic 12 --quantum 8 --state-dir D --exit-after-quanta 2
///   hichi_serve --synthetic 12 --quantum 8 --state-dir D --resume --verify
/// \endcode
///
/// Exit codes: 0 all jobs completed (and verified, when requested);
/// 1 argument/spec errors or a verification mismatch; 3 the scheduler
/// stopped early via --exit-after-quanta with resumable work left.
///
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"
#include "support/ArgParse.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sys/stat.h>
#include <vector>

using namespace hichi;
using namespace hichi::serve;

namespace {

/// Manifest facts of a previous run over the same StateDir.
struct ManifestEntry {
  std::string State;
  std::uint64_t Hash = 0;
};

bool loadManifest(const std::string &StateDir,
                  std::map<std::string, ManifestEntry> &Out,
                  std::string *Error) {
  json::Value Doc;
  if (!json::parseFile(Scheduler::manifestPath(StateDir), Doc, Error))
    return false;
  const json::Value *Jobs = Doc.find("jobs");
  if (!Jobs || !Jobs->isArray()) {
    if (Error)
      *Error = "manifest has no \"jobs\" array";
    return false;
  }
  for (const json::Value &Entry : Jobs->Items) {
    ManifestEntry M;
    M.State = Entry.stringOr("state", "pending");
    M.Hash = std::strtoull(Entry.stringOr("hash", "0").c_str(), nullptr, 16);
    Out[Entry.stringOr("name", "")] = M;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("hichi_serve: multi-tenant simulation job runner — many "
                 "PIC jobs over one shared backend pool with scheduling "
                 "quanta and checkpointed suspend/resume");
  Args.addOption("jobs", "JSON job-spec file (see docs/ARCHITECTURE.md)", "");
  Args.addOption("synthetic",
                 "generate this many synthetic mixed-size jobs instead of "
                 "reading --jobs",
                 "24");
  Args.addOption("tenants", "tenants of the synthetic mix", "2");
  Args.addOption("workers",
                 "scheduler worker threads (each drives one job at a time)",
                 "2");
  Args.addOption("pool-lanes", "total lanes of the shared backend pool", "8");
  Args.addOption("lanes-per-job", "lanes leased to each running job", "2");
  Args.addOption("quantum",
                 "steps per scheduling quantum (0 = run each job to "
                 "completion)",
                 "0");
  Args.addOption("checkpoint-every",
                 "also checkpoint running jobs every N steps (0 = only at "
                 "quantum boundaries)",
                 "0");
  Args.addOption("state-dir",
                 "directory for checkpoints and the manifest (required for "
                 "suspend/resume; \"\" = stateless)",
                 "");
  Args.addOption("exit-after-quanta",
                 "stop the scheduler after N job quanta (crash injection "
                 "for recovery testing; -1 = off). Exits with code 3 when "
                 "work remains",
                 "-1");
  Args.addOption("verify-sample",
                 "verify every k-th completed job against a standalone "
                 "serial rerun (0 = none)",
                 "0");
  Args.addFlag("verify", "verify EVERY completed job against a standalone "
                         "serial rerun (bit-identical hashes required)");
  Args.addFlag("resume", "resume a previous run from --state-dir: completed "
                         "jobs keep their manifest hashes, interrupted jobs "
                         "restore from their checkpoints");
  Args.addFlag("quiet", "suppress streamed [done]/[quantum]/[diag] lines");
  if (!Args.parse(Argc, Argv)) {
    std::fprintf(stderr, "error: %s\n", Args.error().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    Args.printHelp(Argv[0]);
    return 0;
  }

  // --- the job stream ---
  std::vector<JobSpec> Specs;
  const std::string JobsFile = Args.getString("jobs");
  std::string Error;
  if (!JobsFile.empty()) {
    if (!loadJobSpecs(JobsFile, Specs, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  } else {
    Specs = syntheticJobMix(int(Args.getInt("synthetic").value_or(24)),
                            int(Args.getInt("tenants").value_or(2)));
  }
  if (Specs.empty()) {
    std::fprintf(stderr, "error: no jobs to run\n");
    return 1;
  }

  ServeConfig Config;
  Config.Workers = int(Args.getInt("workers").value_or(2));
  Config.QuantumSteps = int(Args.getInt("quantum").value_or(0));
  Config.CheckpointEvery = int(Args.getInt("checkpoint-every").value_or(0));
  Config.StateDir = Args.getString("state-dir");
  Config.MaxQuanta = Args.getInt("exit-after-quanta").value_or(-1);
  Config.Verbose = !Args.getFlag("quiet");
  if (!Config.StateDir.empty())
    ::mkdir(Config.StateDir.c_str(), 0777); // EEXIST is fine

  // --- resume bookkeeping ---
  // The spec stream must be regenerated with the same arguments as the
  // interrupted run; the manifest tells us which jobs already finished
  // (hash kept, not re-run) and the checkpoint files carry the rest.
  std::map<std::string, ManifestEntry> Manifest;
  if (Args.getFlag("resume")) {
    if (Config.StateDir.empty()) {
      std::fprintf(stderr, "error: --resume needs --state-dir\n");
      return 1;
    }
    if (!loadManifest(Config.StateDir, Manifest, &Error)) {
      std::fprintf(stderr, "error: --resume: %s\n", Error.c_str());
      return 1;
    }
  }

  BackendPool Pool(int(Args.getInt("pool-lanes").value_or(8)),
                   int(Args.getInt("lanes-per-job").value_or(2)));
  Scheduler Sched(Pool, Config);

  std::map<std::string, const JobSpec *> SpecsByName;
  int ResumedComplete = 0;
  for (const JobSpec &Spec : Specs) {
    SpecsByName[Spec.Name] = &Spec;
    auto It = Manifest.find(Spec.Name);
    if (It != Manifest.end() && It->second.State == "completed") {
      Sched.noteCompleted(Spec, It->second.Hash);
      ++ResumedComplete;
    } else {
      Sched.enqueue(Spec);
    }
  }

  std::printf("hichi_serve: %zu jobs (%d already complete), pool of %d "
              "lanes (%d slots x %d lanes), %d workers, quantum %s\n\n",
              Specs.size(), ResumedComplete, Pool.laneCount(),
              Pool.slotCount(), Pool.lanesPerJob(), Config.Workers,
              Config.QuantumSteps > 0
                  ? (std::to_string(Config.QuantumSteps) + " steps").c_str()
                  : "off");

  Stopwatch Wall;
  const bool AllDone = Sched.run();
  const double WallNs = double(Wall.elapsedNanoseconds());

  // --- summary ---
  const std::vector<JobResult> Results = Sched.results();
  int Completed = 0, Cancelled = 0, Failed = 0;
  std::map<std::string, int> PerTenant;
  std::vector<double> Latencies;
  for (const JobResult &R : Results) {
    if (R.State == JobState::Completed) {
      ++Completed;
      ++PerTenant[R.Tenant];
      if (R.LatencyNs > 0) // resumed-complete jobs carry no latency
        Latencies.push_back(R.LatencyNs);
    } else if (R.State == JobState::Cancelled) {
      ++Cancelled;
    } else if (R.State == JobState::Failed) {
      ++Failed;
    }
  }
  const int FreshCompleted = Completed - ResumedComplete;
  std::printf("\n%d/%zu jobs completed (%d cancelled, %d failed), "
              "%lld quanta, %.2f s wall\n",
              Completed, Specs.size(), Cancelled, Failed,
              Sched.quantaExecuted(), WallNs / 1e9);
  for (const auto &Tenant : PerTenant)
    std::printf("  tenant %-12s %d jobs\n", Tenant.first.c_str(),
                Tenant.second);
  std::sort(Latencies.begin(), Latencies.end());
  if (FreshCompleted > 0)
    std::printf("throughput: %.2f jobs/s; latency p50 %.1f ms, p95 %.1f ms\n",
                double(FreshCompleted) / (WallNs / 1e9),
                percentile(Latencies, 0.50) / 1e6,
                percentile(Latencies, 0.95) / 1e6);
  const std::vector<exec::ShardStat> Lanes = Pool.backend().shardStats();
  long long PoolLaunches = 0;
  double PoolBusyNs = 0;
  for (const exec::ShardStat &S : Lanes) {
    PoolLaunches += S.Launches;
    PoolBusyNs += S.BusyNs;
  }
  std::printf("pool: %zu lanes, %lld lane tasks, %.2f ms busy, busy "
              "imbalance %.2fx\n",
              Lanes.size(), PoolLaunches, PoolBusyNs / 1e6,
              exec::shardImbalance(Lanes));

  // --- verification against standalone serial reruns ---
  const bool VerifyAll = Args.getFlag("verify");
  const int SampleEvery = int(Args.getInt("verify-sample").value_or(0));
  if (VerifyAll || SampleEvery > 0) {
    int Checked = 0, Mismatches = 0, Nth = 0;
    for (const JobResult &R : Results) {
      if (R.State != JobState::Completed)
        continue;
      ++Nth;
      if (!VerifyAll && (Nth - 1) % SampleEvery != 0)
        continue;
      const JobSpec *Spec = SpecsByName.count(R.Name)
                                ? SpecsByName[R.Name]
                                : nullptr;
      if (!Spec)
        continue;
      const std::uint64_t Reference = runStandalone(*Spec);
      ++Checked;
      if (Reference != R.Hash) {
        ++Mismatches;
        std::fprintf(stderr,
                     "MISMATCH job=%s served=%016llx standalone=%016llx\n",
                     R.Name.c_str(), (unsigned long long)R.Hash,
                     (unsigned long long)Reference);
      }
    }
    std::printf("verification: %d/%d sampled jobs bit-identical to "
                "standalone serial runs\n",
                Checked - Mismatches, Checked);
    if (Mismatches > 0)
      return 1;
  }

  if (!AllDone) {
    std::printf("stopped early with resumable work remaining (rerun with "
                "--resume --state-dir %s)\n",
                Config.StateDir.c_str());
    return 3;
  }
  return Failed > 0 ? 1 : 0;
}
