//===-- serve/BackendPool.h - Shared exec pool with lane leases -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's shared execution substrate: ONE persistent
/// ShardedBackend (exec/ShardedBackend.h — pinned workers, per-lane
/// FIFO queues) whose lanes are carved into fixed-size contiguous
/// **slots** and leased to jobs:
///
///   * **BackendPool** — owns the sharded backend and the slot
///     free-list. acquire(N) blocks until N whole slots are free and
///     hands them over atomically (all-or-nothing, so two scheduler
///     workers can never deadlock holding partial batches); release()
///     returns a slot and wakes waiters.
///   * **PoolClientBackend** — an ExecutionBackend + ShardResources a
///     job's PicSimulation runs on. It forwards every submission
///     through ShardedBackend::submitSlice confined to its leased lane
///     range — affinities resolve inside the slice, no-affinity
///     launches partition across the slice only, and empty launches
///     ride the slice's first lane — so concurrent jobs share the
///     pool's warm workers while their kernels, ordering chains and
///     latency stay isolated per lane set. Per-job RunStats isolation
///     is structural: every stats object the client touches belongs to
///     the job's simulation.
///   * **The "pool" registry entry** — registered on first
///     BackendPool construction. PicSimulation creates its stage
///     backends by registry name; a BindGuard on the constructing
///     thread routes createBackend("pool") to fresh clients over the
///     bound lease, so the whole PIC stack (stage-1 blocks split across lanes,
///     tiled deposit chains, step-graph capture/replay) runs on leased
///     lanes without a single PicSimulation change. Outside a bind the
///     factory returns nullptr (the name is visible but unusable, like
///     a backend whose device is absent).
///
/// Determinism: a client is the sharded backend confined to L lanes,
/// and sharded execution is bit-identical to serial for every lane
/// count — so a job served on leased lanes prints the same
/// picStateHash as a standalone serial run of the same spec
/// (tests/serve/ServeEquivalenceTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SERVE_BACKENDPOOL_H
#define HICHI_SERVE_BACKENDPOOL_H

#include "exec/ShardedBackend.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace hichi {
namespace serve {

/// One leased slot: lanes [Base, Base + Lanes) of the pool's backend.
struct LaneLease {
  int Slot = -1; ///< slot index (release token); -1 = invalid
  int Base = 0;  ///< first pool lane of the slice
  int Lanes = 0; ///< lanes in the slice
};

/// The shared lane pool. Thread-safe; one instance serves many
/// concurrent scheduler workers.
class BackendPool {
public:
  /// \p TotalLanes lanes split into TotalLanes / \p LanesPerJob slots
  /// (both clamped to at least 1; TotalLanes is rounded down to a
  /// whole number of slots and capped at the sharded backend's 64-lane
  /// limit).
  BackendPool(int TotalLanes, int LanesPerJob);

  int laneCount() const { return SlotCount * PerJob; }
  int lanesPerJob() const { return PerJob; }
  int slotCount() const { return SlotCount; }

  /// Blocks until \p Slots whole slots are free, then leases them
  /// atomically (all-or-nothing — a waiter never holds a partial
  /// batch). \p Slots is clamped to slotCount().
  std::vector<LaneLease> acquire(int Slots);

  /// Returns \p Lease's slot to the free list and wakes waiters. The
  /// caller must have waited all of the lease's in-flight launches
  /// first (every PicSimulation step mode does before returning).
  void release(const LaneLease &Lease);

  /// Free slots right now (diagnostics; racy by nature).
  int freeSlots() const;

  /// The underlying sharded backend (pool-wide shard stats, drain).
  exec::ShardedBackend &backend() { return *Pool; }

  /// Blocks until every launch on every lane completed. Call only while
  /// no job is active.
  void drain() { Pool->drain(); }

  /// Routes createBackend("pool") on this thread to clients over
  /// \p Lease of \p Pool for the guard's lifetime. Guards don't nest.
  class BindGuard {
  public:
    BindGuard(BackendPool &Pool, const LaneLease &Lease);
    ~BindGuard();

    BindGuard(const BindGuard &) = delete;
    BindGuard &operator=(const BindGuard &) = delete;
  };

private:
  friend class PoolClientBackend;

  /// The active bind of the calling thread (null Pool = none).
  struct Bind {
    BackendPool *Pool = nullptr;
    LaneLease Lease;
  };
  static Bind &threadBind();

  std::unique_ptr<exec::ShardedBackend> Pool;
  int PerJob = 1;
  int SlotCount = 1;

  mutable std::mutex Mutex;
  std::condition_variable SlotFreed;
  std::vector<bool> SlotBusy; ///< guarded by Mutex
};

/// A job's view of its leased lane slice, as a full ExecutionBackend +
/// ShardResources — PicSimulation's sharded code paths (stage-1 shard
/// routing, per-shard stats windows, tile resolution) work unchanged.
class PoolClientBackend final : public exec::ExecutionBackend,
                                public exec::ShardResources {
public:
  PoolClientBackend(BackendPool &Owner, const LaneLease &Lease)
      : Owner(Owner), Lease(Lease) {}

  const char *name() const override { return "pool"; }
  bool isAsynchronous() const override { return true; }
  int shardCount() const override { return Lease.Lanes; }

  /// The slice's lanes only (a tenant never sees neighbours' counters).
  std::vector<exec::ShardStat> shardStats() const override {
    std::vector<exec::ShardStat> All = Owner.backend().shardStats();
    return std::vector<exec::ShardStat>(
        All.begin() + Lease.Base, All.begin() + Lease.Base + Lease.Lanes);
  }

  /// Slice-local reset (a pool-wide reset would clobber other tenants'
  /// measurement windows).
  void resetShardStats() override {
    Owner.backend().resetShardStats(Lease.Base, Lease.Base + Lease.Lanes);
  }

protected:
  exec::ExecEvent submitImpl(const exec::LaunchSpec &Spec,
                             const exec::StepKernel &Kernel,
                             const exec::ExecutionContext &,
                             RunStats &Stats) override {
    return Owner.backend().submitSlice(Spec, Kernel, Stats, Lease.Base,
                                       Lease.Lanes);
  }

private:
  BackendPool &Owner;
  LaneLease Lease;
};

} // namespace serve
} // namespace hichi

#endif // HICHI_SERVE_BACKENDPOOL_H
