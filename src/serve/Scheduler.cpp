//===-- serve/Scheduler.cpp - Multi-tenant job scheduler ------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <thread>

using namespace hichi;
using namespace hichi::serve;

const char *hichi::serve::jobStateName(JobState State) {
  switch (State) {
  case JobState::Pending: return "pending";
  case JobState::Running: return "running";
  case JobState::Suspended: return "suspended";
  case JobState::Completed: return "completed";
  case JobState::Cancelled: return "cancelled";
  case JobState::Failed: return "failed";
  }
  return "unknown";
}

static bool isTerminal(JobState State) {
  return State == JobState::Completed || State == JobState::Cancelled ||
         State == JobState::Failed;
}

static bool fileExists(const std::string &Path) {
  if (std::FILE *File = std::fopen(Path.c_str(), "rb")) {
    std::fclose(File);
    return true;
  }
  return false;
}

Scheduler::Scheduler(BackendPool &Pool, ServeConfig Config)
    : Pool(Pool), Config(std::move(Config)) {
  this->Config.Workers = std::max(this->Config.Workers, 1);
}

std::string Scheduler::checkpointPath(const std::string &Name) const {
  return Config.StateDir + "/job-" + Name + ".ckpt";
}

std::string Scheduler::manifestPath(const std::string &StateDir) {
  return StateDir + "/manifest.json";
}

void Scheduler::enqueue(JobSpec Spec) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(!ByName.count(Spec.Name) && "duplicate job name");
  Jobs.push_back(Job{});
  Job &J = Jobs.back();
  J.Spec = std::move(Spec);
  J.Enqueued.reset();
  ByName[J.Spec.Name] = &J;
  Pending.push_back(&J);
  QueueCV.notify_one();
}

void Scheduler::noteCompleted(const JobSpec &Spec, std::uint64_t Hash) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(!ByName.count(Spec.Name) && "duplicate job name");
  Jobs.push_back(Job{});
  Job &J = Jobs.back();
  J.Spec = Spec;
  J.State = JobState::Completed;
  J.StepsDone = Spec.Steps;
  J.Hash = Hash;
  ByName[J.Spec.Name] = &J;
  Results.push_back(JobResult{J.Spec.Name, J.Spec.Tenant, J.State, J.Hash,
                              J.StepsDone, J.Spec.Steps, 0.0, {}});
}

bool Scheduler::cancel(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = ByName.find(Name);
  if (It == ByName.end() || isTerminal(It->second->State))
    return false;
  Job &J = *It->second;
  J.CancelRequested = true;
  if (J.State == JobState::Pending || J.State == JobState::Suspended) {
    // Still queued: cancel immediately and drop it from the queue.
    Pending.erase(std::remove(Pending.begin(), Pending.end(), &J),
                  Pending.end());
    J.State = JobState::Cancelled;
    J.LatencyNs = double(J.Enqueued.elapsedNanoseconds());
    Results.push_back(JobResult{J.Spec.Name, J.Spec.Tenant, J.State, 0,
                                J.StepsDone, J.Spec.Steps, J.LatencyNs, {}});
    writeManifestLocked();
  }
  // Running jobs are picked up at the next step boundary.
  return true;
}

std::vector<JobResult> Scheduler::results() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Results;
}

long long Scheduler::quantaExecuted() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return QuantaDone;
}

bool Scheduler::run() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = false;
    if (Pending.empty())
      return true;
  }
  std::vector<std::thread> Workers;
  Workers.reserve(std::size_t(Config.Workers));
  for (int W = 0; W < Config.Workers; ++W)
    Workers.emplace_back([this] { workerLoop(); });
  for (std::thread &T : Workers)
    T.join();

  std::lock_guard<std::mutex> Lock(Mutex);
  writeManifestLocked();
  bool AllDone = true;
  for (const Job &J : Jobs)
    AllDone = AllDone && isTerminal(J.State);
  return AllDone;
}

void Scheduler::workerLoop() {
  while (true) {
    Job *J = nullptr;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      QueueCV.wait(Lock, [&] { return Stopping || !Pending.empty(); });
      if (Stopping)
        return;
      J = Pending.front();
      Pending.pop_front();
      J->State = JobState::Running;
      ++RunningJobs;
    }

    const LaneLease Lease = Pool.acquire();
    runJob(*J, Lease);
    Pool.release(Lease);

    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --RunningJobs;
      ++QuantaDone;
      if (Config.MaxQuanta >= 0 && QuantaDone >= Config.MaxQuanta)
        Stopping = true; // crash injection: abandon remaining work
      if (Pending.empty() && RunningJobs == 0)
        Stopping = true; // natural completion
      if (Stopping)
        QueueCV.notify_all();
    }
  }
}

bool Scheduler::saveCheckpoint(Job &J, Simulation &Sim) {
  const std::string Ckpt = checkpointPath(J.Spec.Name);
  std::string Error;
  // tmp + rename: a crash mid-write never corrupts the previous good
  // checkpoint.
  if (Sim.saveState(Ckpt + ".tmp", &Error) &&
      std::rename((Ckpt + ".tmp").c_str(), Ckpt.c_str()) == 0)
    return true;
  finalize(J, JobState::Failed, 0, std::move(Error));
  return false;
}

void Scheduler::runJob(Job &J, LaneLease Lease) {
  // Build (or restore) the job's simulation on its leased lane slice.
  // The BindGuard routes the createBackend("pool") calls inside the
  // PicSimulation constructor to clients over this job's lease.
  std::unique_ptr<Simulation> Sim;
  {
    BackendPool::BindGuard Guard(Pool, Lease);
    Sim = makeSimulation(J.Spec, "pool");
  }
  if (!Config.StateDir.empty()) {
    const std::string Ckpt = checkpointPath(J.Spec.Name);
    if (fileExists(Ckpt)) {
      std::string Error;
      if (!Sim->restoreState(Ckpt, &Error)) {
        finalize(J, JobState::Failed, 0, std::move(Error));
        return;
      }
      // The checkpoint's own step index is the truth (crash-safe
      // against a manifest that lagged the last checkpoint write).
      J.StepsDone = Sim->stepCount();
    }
  }

  for (int Stepped = 0;
       Config.QuantumSteps <= 0 || Stepped < Config.QuantumSteps; ++Stepped) {
    // Cancellation takes effect here, at a step boundary: step() has
    // waited every launch, so dropping the simulation and releasing the
    // lease leave nothing in flight on the leased lanes.
    bool Cancelled;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Cancelled = J.CancelRequested;
    }
    if (Cancelled) {
      finalize(J, JobState::Cancelled, 0, {});
      return;
    }

    Sim->step();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      J.StepsDone = Sim->stepCount();
    }
    if (J.Spec.EnergyEvery > 0 && J.StepsDone % J.Spec.EnergyEvery == 0 &&
        Config.Verbose)
      std::printf("[diag] job=%s tenant=%s step=%d t=%.3f E=%.6e\n",
                  J.Spec.Name.c_str(), J.Spec.Tenant.c_str(), J.StepsDone,
                  double(Sim->time()), Sim->fieldEnergy());
    if (J.StepsDone >= J.Spec.Steps) {
      const std::uint64_t Hash = stateHash(*Sim);
      if (!Config.StateDir.empty())
        std::remove(checkpointPath(J.Spec.Name).c_str());
      finalize(J, JobState::Completed, Hash, {});
      return;
    }
    if (Config.CheckpointEvery > 0 && !Config.StateDir.empty() &&
        J.StepsDone % Config.CheckpointEvery == 0 &&
        !saveCheckpoint(J, *Sim))
      return;
  }

  // Quantum expired with the job unfinished: checkpoint, requeue at the
  // BACK (newly arrived short jobs get their turn before this long job
  // continues — the anti-starvation rotation). Without
  // a StateDir the job restarts from step 0 next quantum — still
  // correct (deterministic), just wasteful; the tool always configures
  // a StateDir when quanta are enabled.
  if (!Config.StateDir.empty() && !saveCheckpoint(J, *Sim))
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    J.State = JobState::Suspended;
    Pending.push_back(&J);
    if (Config.Verbose)
      std::printf("[quantum] job=%s tenant=%s suspended at step %d/%d\n",
                  J.Spec.Name.c_str(), J.Spec.Tenant.c_str(), J.StepsDone,
                  J.Spec.Steps);
    writeManifestLocked();
  }
  QueueCV.notify_all();
}

void Scheduler::finalize(Job &J, JobState State, std::uint64_t Hash,
                         std::string Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  J.State = State;
  J.Hash = Hash;
  J.Error = std::move(Error);
  J.LatencyNs = double(J.Enqueued.elapsedNanoseconds());
  Results.push_back(JobResult{J.Spec.Name, J.Spec.Tenant, J.State, J.Hash,
                              J.StepsDone, J.Spec.Steps, J.LatencyNs,
                              J.Error});
  if (Config.Verbose) {
    if (State == JobState::Completed)
      std::printf("[done] job=%s tenant=%s steps=%d hash=%016llx "
                  "latency=%.1fms\n",
                  J.Spec.Name.c_str(), J.Spec.Tenant.c_str(), J.StepsDone,
                  (unsigned long long)J.Hash, J.LatencyNs / 1e6);
    else
      std::printf("[%s] job=%s tenant=%s steps=%d/%d%s%s\n",
                  jobStateName(State), J.Spec.Name.c_str(),
                  J.Spec.Tenant.c_str(), J.StepsDone, J.Spec.Steps,
                  J.Error.empty() ? "" : " error=",
                  J.Error.c_str());
  }
  writeManifestLocked();
}

void Scheduler::writeManifestLocked() {
  if (Config.StateDir.empty())
    return;
  const std::string Path = manifestPath(Config.StateDir);
  const std::string Tmp = Path + ".tmp";
  std::FILE *File = std::fopen(Tmp.c_str(), "w");
  if (!File)
    return; // manifest is best-effort; checkpoints carry the real state
  std::fprintf(File, "{\n  \"schema\": \"hichi-serve-manifest-v1\",\n"
                     "  \"jobs\": [\n");
  std::size_t I = 0;
  for (const Job &J : Jobs) {
    std::fprintf(
        File,
        "    {\"name\": \"%s\", \"tenant\": \"%s\", \"state\": \"%s\", "
        "\"steps_done\": %d, \"steps_total\": %d, \"hash\": \"%016llx\", "
        "\"checkpoint\": \"%s\"}%s\n",
        json::escapeJsonString(J.Spec.Name).c_str(),
        json::escapeJsonString(J.Spec.Tenant).c_str(),
        jobStateName(J.State), J.StepsDone, J.Spec.Steps,
        (unsigned long long)J.Hash,
        json::escapeJsonString(isTerminal(J.State)
                                   ? std::string()
                                   : checkpointPath(J.Spec.Name))
            .c_str(),
        ++I < Jobs.size() ? "," : "");
  }
  std::fprintf(File, "  ]\n}\n");
  std::fclose(File);
  std::rename(Tmp.c_str(), Path.c_str());
}
