//===-- exec/ShardedBackend.cpp - Persistent-shard backend ----------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "exec/ShardedBackend.h"

#include "exec/SlabPartition.h"
#include "support/Timer.h"
#include "threading/CoreBinding.h"

#include <algorithm>

using namespace hichi;
using namespace hichi::exec;

ShardedBackend::ShardedBackend(const BackendConfig &Config) {
  // Threads = shard count. Shard workers mostly sleep between
  // launches (in dependency waits or on their lane), so honouring an
  // oversubscribed request up to a sanity cap beats clamping to the
  // core count — correctness tests sweep shard counts well past it.
  const int Count = Config.Threads > 0 ? std::min(Config.Threads, 64) : 4;
  Shards.resize(std::size_t(Count));
  for (int S = 0; S < Count; ++S)
    Shards[std::size_t(S)].Lane =
        std::make_unique<threading::InOrderWorkQueue<Task>>(
            [this, S](Task &T) { runWorkerTask(S, T); });
}

ShardedBackend::~ShardedBackend() { drain(); }

void ShardedBackend::drain() {
  for (Shard &Sh : Shards)
    Sh.Lane->drain();
}

ExecEvent ShardedBackend::submitImpl(const LaunchSpec &Spec,
                                     const StepKernel &Kernel,
                                     const ExecutionContext &,
                                     RunStats &Stats) {
  return submitSlice(Spec, Kernel, Stats, 0, shardCount());
}

ExecEvent ShardedBackend::submitSlice(const LaunchSpec &Spec,
                                      const StepKernel &Kernel,
                                      RunStats &Stats, int LaneBegin,
                                      int LaneCount) {
  const int K = LaneCount;
  const bool Empty = Spec.Items <= 0 || Spec.StepEnd <= Spec.StepBegin;

  // Whole-launch routing: explicit shard affinity, single-lane slices,
  // and empty (ordering-only) launches — the latter still ride a lane
  // so their event completes after their dependencies, and always the
  // slice's own first lane (never a foreign tenant's).
  if (Spec.ShardAffinity >= 0 || K == 1 || Empty) {
    const int S =
        LaneBegin + (Spec.ShardAffinity >= 0 ? Spec.ShardAffinity % K : 0);
    ExecEvent Done = ExecEvent::pending();
    pushBlock(S, Spec, Kernel, 0, Empty ? 0 : Spec.Items, Stats, Done,
              nullptr);
    return Done;
  }

  // Partitioned launch: one contiguous block per slice lane, the shared
  // slab split — so for a fixed item count lane s owns the same slice
  // every launch (persistent residency). The last retiring block
  // signals.
  const Index Blocks = clampSlabCount(Spec.Items, Index(K));
  ExecEvent Done = ExecEvent::pending();
  auto Remaining = std::make_shared<std::atomic<int>>(int(Blocks));
  for (Index B = 0; B < Blocks; ++B) {
    const SlabRange R = slabRange(Spec.Items, Blocks, B);
    pushBlock(LaneBegin + int(B), Spec, Kernel, R.Begin, R.End, Stats, Done,
              Remaining);
  }
  return Done;
}

void ShardedBackend::pushBlock(int S, const LaunchSpec &Spec,
                               const StepKernel &Kernel, Index Begin,
                               Index End, RunStats &Stats, ExecEvent Done,
                               std::shared_ptr<std::atomic<int>> Remaining) {
  Task T;
  T.Done = std::move(Done);
  T.Remaining = std::move(Remaining);
  // The closure owns copies of everything it touches after submit()
  // returns (the asynchronous lifetime contract covers the kernel
  // referee and Stats).
  T.Run = [this, S, Kernel, Deps = Spec.DependsOn, Begin, End,
           StepBegin = Spec.StepBegin, StepEnd = Spec.StepEnd,
           StatsPtr = &Stats] {
    // Dependencies belong to earlier submissions (see the header's
    // progress guarantee), then the block runs serially on this lane:
    // ascending items, ascending steps, bit-identical to serial.
    for (const ExecEvent &Dep : Deps)
      Dep.wait();
    Stopwatch Watch;
    if (End > Begin && StepEnd > StepBegin)
      Kernel(Begin, End, StepBegin, StepEnd);
    const double Ns = double(Watch.elapsedNanoseconds());
    std::lock_guard<std::mutex> StatsLock(StatsMutex);
    StatsPtr->HostNs += Ns;
    StatsPtr->ModeledNs += Ns;
    Shard &Sh = Shards[std::size_t(S)];
    Sh.Stats.Launches += 1;
    Sh.Stats.Items += (long long)(End > Begin ? End - Begin : 0);
    Sh.Stats.BusyNs += Ns;
  };
  Shards[std::size_t(S)].Lane->push(std::move(T));
}

void ShardedBackend::runWorkerTask(int S, Task &T) {
  Shard &Sh = Shards[std::size_t(S)];
  if (!Sh.WorkerBound) { // lane-thread-only field, no synchronization
    // Round-robin, not core S: several sharded instances coexist (one
    // per PIC stage) and their lanes must spread across the host's
    // cores rather than all pinning onto cores 0..K-1.
    threading::tryBindCurrentThreadToNextCore();
    Sh.WorkerBound = true;
  }
  T.Run();
  // Publishes side effects (stats above) to whoever waits the event;
  // for partitioned launches only the last retiring block signals.
  if (!T.Remaining || T.Remaining->fetch_sub(1) == 1)
    T.Done.signal();
}

std::vector<ShardStat> ShardedBackend::shardStats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  std::vector<ShardStat> Out;
  Out.reserve(Shards.size());
  for (const Shard &Sh : Shards)
    Out.push_back(Sh.Stats);
  return Out;
}

void ShardedBackend::resetShardStats() {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  for (Shard &Sh : Shards)
    Sh.Stats = ShardStat{};
}

void ShardedBackend::resetShardStats(int Begin, int End) {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  Begin = std::max(Begin, 0);
  End = std::min(End, int(Shards.size()));
  for (int S = Begin; S < End; ++S)
    Shards[std::size_t(S)].Stats = ShardStat{};
}
