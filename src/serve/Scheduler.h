//===-- serve/Scheduler.h - Multi-tenant job scheduler ----------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's job queue and scheduler: many simulation jobs
/// (serve/JobSpec.h) run concurrently over ONE shared BackendPool, each
/// on its own leased lane slice, with round-robin quanta, per-job
/// checkpointing and cancellation:
///
///   * **Queue + workers** — jobs are FIFO; each scheduler worker
///     claims the oldest pending job, leases one pool slot for it, and
///     drives it with PicSimulation::step() (which replays the job's
///     captured step graph on its own lanes). Concurrency is the number
///     of workers: each worker holds exactly one job at a time.
///   * **Quanta + suspend/resume** — with QuantumSteps > 0 a job runs
///     at most that many steps per claim, then is checkpointed
///     (core/Checkpoint.h v3: particles, fields, step index, time),
///     destroyed, and requeued at the back — long jobs cannot starve
///     short ones. A requeued (or crash-recovered) job restores from
///     its checkpoint file and continues bit-identically: the
///     checkpoint's own step index is the truth, so a run killed
///     between manifest writes still resumes correctly.
///   * **Lifecycle** — cancel() takes effect at the next step boundary
///     (no in-flight work is left behind; the lease returns to the
///     pool); MaxQuanta stops the whole scheduler after N quanta (the
///     crash-injection hook the recovery tests and --exit-after-quanta
///     use); a JSON manifest in StateDir records every job's state and
///     final hash for resume tooling.
///
/// Bit-identity: each job's final picStateHash equals a standalone
/// serial run of the same spec — regardless of quantum length, worker
/// count, or how many suspend/resume cycles the job lived through
/// (tests/serve/).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SERVE_SCHEDULER_H
#define HICHI_SERVE_SCHEDULER_H

#include "serve/BackendPool.h"
#include "serve/JobRunner.h"
#include "serve/JobSpec.h"
#include "support/Timer.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hichi {
namespace serve {

/// Lifecycle of one job. Terminal states: Completed, Cancelled, Failed.
enum class JobState {
  Pending,   ///< queued (never run, or requeued after a quantum)
  Running,   ///< claimed by a worker
  Suspended, ///< checkpointed mid-run; scheduler stopped before requeue ran it
  Completed, ///< all steps done, hash recorded
  Cancelled, ///< cancel() honoured at a step boundary
  Failed,    ///< backend/checkpoint error (see JobResult::Error)
};

const char *jobStateName(JobState State);

/// Scheduler knobs.
struct ServeConfig {
  int Workers = 2;        ///< scheduler worker threads (one job each)
  int QuantumSteps = 0;   ///< steps per scheduling quantum (0 = to completion)
  int CheckpointEvery = 0;///< also checkpoint every N steps mid-quantum
  std::string StateDir;   ///< checkpoints + manifest.json ("" = stateless)
  long long MaxQuanta = -1; ///< stop after N quanta (crash injection; -1 = off)
  bool Verbose = false;   ///< stream [done]/[quantum] lines to stdout
};

/// Terminal record of one job, in completion order.
struct JobResult {
  std::string Name;
  std::string Tenant;
  JobState State = JobState::Pending;
  std::uint64_t Hash = 0;   ///< final picStateHash (Completed only)
  int StepsDone = 0;
  int StepsTotal = 0;
  double LatencyNs = 0;     ///< enqueue -> terminal state
  std::string Error;
};

/// The multi-tenant scheduler. enqueue jobs, then run() to completion;
/// cancel() may be called from any thread while run() is active.
class Scheduler {
public:
  Scheduler(BackendPool &Pool, ServeConfig Config);

  /// Queues \p Spec. Names must be unique across the scheduler's life.
  void enqueue(JobSpec Spec);

  /// Records \p Spec as already completed with \p Hash (resume
  /// bookkeeping: the manifest said so; the job is not re-run).
  void noteCompleted(const JobSpec &Spec, std::uint64_t Hash);

  /// Requests cancellation. Pending jobs cancel immediately; running
  /// jobs at their next step boundary. \returns false for unknown or
  /// already-terminal jobs.
  bool cancel(const std::string &Name);

  /// Runs every queued job to a terminal state (or until MaxQuanta).
  /// \returns true when all jobs reached a terminal state, false when
  /// the scheduler stopped early with work remaining (jobs are then
  /// Pending/Suspended with checkpoints on disk, resumable by a fresh
  /// scheduler over the same StateDir).
  bool run();

  /// Terminal results in completion order (includes noteCompleted
  /// entries). Call after run().
  std::vector<JobResult> results() const;

  /// Job quanta executed (a job running to completion in one claim
  /// counts 1).
  long long quantaExecuted() const;

  /// The checkpoint file of job \p Name under the configured StateDir.
  std::string checkpointPath(const std::string &Name) const;

  /// The manifest file under \p StateDir.
  static std::string manifestPath(const std::string &StateDir);

private:
  struct Job {
    JobSpec Spec;
    JobState State = JobState::Pending;
    int StepsDone = 0;
    std::uint64_t Hash = 0;
    std::string Error;
    Stopwatch Enqueued;
    double LatencyNs = 0;
    bool CancelRequested = false;
  };

  void workerLoop();
  /// Drives \p J on \p Lease for one quantum, or to a terminal state.
  /// The caller releases the lease afterwards.
  void runJob(Job &J, LaneLease Lease);
  /// Writes \p J's checkpoint (tmp + rename). On failure finalizes the
  /// job as Failed and \returns false.
  bool saveCheckpoint(Job &J, Simulation &Sim);
  /// Moves \p J to terminal \p State under the lock; records the
  /// result, streams the line, updates the manifest.
  void finalize(Job &J, JobState State, std::uint64_t Hash,
                std::string Error);
  void writeManifestLocked();

  BackendPool &Pool;
  ServeConfig Config;

  mutable std::mutex Mutex;
  std::condition_variable QueueCV;
  std::list<Job> Jobs;                         ///< stable addresses
  std::unordered_map<std::string, Job *> ByName;
  std::deque<Job *> Pending;
  std::vector<JobResult> Results;
  int RunningJobs = 0;
  long long QuantaDone = 0;
  bool Stopping = false;
};

} // namespace serve
} // namespace hichi

#endif // HICHI_SERVE_SCHEDULER_H
