//===-- exec/ExecutionBackend.h - Pluggable execution backends -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-backend abstraction: the paper's parallelization
/// strategies (Section 4's OpenMP-style static loop, the DPC++ dynamic
/// kernel, and the NUMA-arena variant) as first-class, registrable
/// objects instead of a hard-coded switch.
///
/// A backend executes a type-erased *block kernel* over the cross product
/// of an item range and a fused group of time steps. The type erasure
/// happens at block granularity — one indirect call per contiguous block
/// of items, never per item — so the concrete inner loop is still
/// compiled (and vectorized) at the instantiation site of the templated
/// driver (StepLoop.h), exactly as the old monolithic runner was.
///
/// An *item* is any unit of work that is independent of its peers within
/// one launch. The step loop's items are particles; the PIC deposition's
/// items are current tiles — read-modify-write blocks that each own a
/// disjoint slab of the grid and are themselves loops over many
/// particles (pic/TiledCurrentAccumulator.h). Coarse items like tiles
/// set LaunchSpec::GrainHint = 1 so dynamically scheduled backends treat
/// each item as one schedulable chunk.
///
/// **Submission model.** Every launch is counted and timed in one
/// place, submit() (RunStats::Launches / SubmitNs). It enqueues one
/// launch and returns an ExecEvent — an awaitable completion handle.
/// Launches chain through LaunchSpec::DependsOn: a backend must not start
/// a launch before every listed event has completed. Synchronous
/// backends (serial, openmp, dpcpp on CPU queues) run the launch inside
/// submit() and return an already-complete event; asynchronous backends
/// (sharded, dpcpp on non-blocking simulated-GPU queues) return early and
/// execute later. A caller that wants blocking semantics waits the event:
/// `submit(...).wait()`. The PIC and solver drivers reach submit()
/// through one helper, submitCachedLaunch(), which parks the kernel body
/// in a KernelCache and builds a single-step LaunchSpec; only runStepLoop
/// (StepLoop.h), whose fused groups span several steps, builds its specs
/// itself.
///
/// Lifetime contract for asynchronous submission: the kernel body and
/// the RunStats object must outlive the launch — keep them alive until
/// the returned event (or a dependent one) has been waited on, and read
/// the stats only after that wait. A KernelCache provides the body
/// storage: a driver that issues the same chain every step keeps one as
/// a member, a one-shot call site keeps a local one until its final
/// wait. Dependencies must point to events of launches submitted
/// *earlier* (on any backend or queue); forward or cyclic dependencies
/// are user error and may deadlock.
///
/// Layering: this header is dependency-light (no minisycl/threading
/// includes) so that templated drivers anywhere in the tree can accept an
/// ExecutionBackend&. The concrete backends live in Backends.h/.cpp and
/// ShardedBackend.h/.cpp, and the string-keyed factory in
/// BackendRegistry.h/.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_EXECUTIONBACKEND_H
#define HICHI_EXEC_EXECUTIONBACKEND_H

#include "exec/ExecEvent.h"
#include "support/Config.h"
#include "support/Timer.h"

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace minisycl {
class queue;
} // namespace minisycl

namespace hichi {

namespace gpusim {
struct KernelProfile;
} // namespace gpusim

/// Aggregate timing of a sequence of backend launches (one runStepLoop
/// call, or one PIC stage over a run).
struct RunStats {
  /// Kernel time on this host. Synchronous backends measure the wall of
  /// each launch; multi-lane asynchronous backends (sharded, pool) add
  /// each lane block's busy time, so this is kernel time summed over
  /// lanes, not elapsed time — time a call with a Stopwatch for that.
  double HostNs = 0;
  double ModeledNs = 0; ///< gpusim-modeled time (== HostNs on CPU paths)
  bool Modeled = false; ///< true if ModeledNs came from the device model

  /// Submit-overhead counters (maintained by ExecutionBackend::submit):
  /// how many launches were submitted against this stats object (graph
  /// replays re-issue captured nodes without counting them), and the
  /// wall nanoseconds spent inside submit() *outside* kernel bodies —
  /// the per-launch overhead a compiled step graph exists to collapse.
  long long Launches = 0;
  double SubmitNs = 0;
};

namespace exec {

/// Per-backend tuning knobs, fixed at construction time (a backend
/// instance is an immutable strategy + configuration pair).
struct BackendConfig {
  /// Worker threads; 0 means every worker the pool / queue has (for the
  /// sharded backend: its shard count, default 4).
  int Threads = 0;

  /// Dynamic-scheduling chunk size in particles; 0 picks the same
  /// heuristic DPC++'s CPU device uses (threading::defaultGrain). Static
  /// backends ignore it.
  Index Grain = 0;
};

/// Per-launch resources a backend may need: the queue for the
/// minisycl-backed kinds (its device decides CPU vs simulated GPU) and an
/// optional gpusim workload profile so simulated-GPU events carry modeled
/// times.
struct ExecutionContext {
  minisycl::queue *Queue = nullptr;
  const gpusim::KernelProfile *GpuWorkload = nullptr;
};

/// \returns a stable identity for kernel type \p KernelFn without RTTI:
/// the address of a function-template-static is unique per instantiation.
/// Backends hand it to the minisycl JIT-cost model so each distinct
/// step-loop kernel is charged its first-launch cost exactly once.
template <typename KernelFn> const void *kernelIdentity() {
  static const char Tag = 0;
  return &Tag;
}

/// Non-owning type-erased reference to a block kernel
///
///   void operator()(Index Begin, Index End, int StepBegin, int StepEnd)
///
/// which advances particles [Begin, End) through time steps
/// [StepBegin, StepEnd) in step-major order. The referee must outlive the
/// launch: through the submit() call for synchronous backends, until the
/// returned event has been waited on for asynchronous ones (stack
/// lambdas are fine as long as the wait happens in the same scope).
class StepKernel {
public:
  template <typename Fn>
  StepKernel(const Fn &Body, const void *TypeId)
      : Ctx(&Body), TypeId(TypeId),
        Invoke([](const void *C, Index Begin, Index End, int StepBegin,
                  int StepEnd) {
          (*static_cast<const Fn *>(C))(Begin, End, StepBegin, StepEnd);
        }) {}

  void operator()(Index Begin, Index End, int StepBegin, int StepEnd) const {
    Invoke(Ctx, Begin, End, StepBegin, StepEnd);
  }

  /// Identity of the underlying kernel type (see kernelIdentity()).
  const void *typeId() const { return TypeId; }

private:
  const void *Ctx;
  const void *TypeId;
  void (*Invoke)(const void *, Index, Index, int, int);
};

/// One backend launch: every item in [0, Items) through the fused
/// step group [StepBegin, StepEnd).
struct LaunchSpec {
  Index Items = 0;
  int StepBegin = 0;
  int StepEnd = 0;

  /// Preferred items per type-erased kernel call for dynamically
  /// scheduled backends; 0 = backend heuristic. Launches whose items are
  /// coarse read-modify-write blocks (current tiles) rather than single
  /// particles set 1 so every item is one schedulable chunk. An explicit
  /// BackendConfig::Grain still wins; statically scheduled backends
  /// ignore the hint (they always hand each worker one contiguous
  /// block).
  Index GrainHint = 0;

  /// Shard-affinity hint: >= 0 routes the *whole* launch to that shard's
  /// FIFO lane on sharded backends (modulo the shard count), so a driver
  /// that partitioned its data per shard can keep submitting each
  /// shard's work to its owning lane without any cross-shard barrier.
  /// -1 (the default) lets a sharded backend partition [0, Items) across
  /// its shards itself; backends without shards ignore the hint.
  int ShardAffinity = -1;

  /// Events this launch must not start before. Every backend honours the
  /// list (synchronous ones wait inline at submit); each listed event
  /// must belong to a launch submitted earlier, else deadlock. Complete
  /// events (including default-constructed ones) are free.
  std::vector<ExecEvent> DependsOn = {};
};

/// An execution strategy for item loops. Implementations must be
/// result-deterministic: any partitioning of [0, Items) is legal because
/// block kernels are order-independent across items, but every
/// item must be visited exactly once per step and steps must be
/// ascending per item — that is what keeps all backends bit-identical
/// (the paper Section 4 equivalence claim, enforced by
/// tests/core/RunnerEquivalenceTest.cpp and tests/exec/ExecEventTest.cpp).
class ExecutionBackend {
public:
  virtual ~ExecutionBackend() = default;

  /// The registry key this backend was created under, e.g. "dpcpp-numa".
  virtual const char *name() const = 0;

  /// True if submit() requires ExecutionContext::Queue.
  virtual bool needsQueue() const { return false; }

  /// True if asynchronous submission is this backend's *intrinsic*
  /// model — submit() returns before the launch executes regardless of
  /// context (sharded). Drivers use it to pick event-chained submission
  /// over mega-kernels (StepLoop.h, FusionMode::Auto) and to decide
  /// whether a stage wall needs an explicit wait to stay exact
  /// (pic/PicSimulation.h). Note: dpcpp also returns deferred events
  /// when the per-launch ExecutionContext carries a non-blocking queue,
  /// but the backend cannot see the queue at query time, so it reports
  /// false — callers who want chained submission there opt in explicitly
  /// via FusionMode::EventChain (hichi_push --chain).
  virtual bool isAsynchronous() const { return false; }

  /// Number of persistent shards this backend partitions work into, or
  /// 0 for non-sharded backends. Drivers that route per-shard work
  /// (LaunchSpec::ShardAffinity) key off this (pic/PicSimulation.h).
  virtual int shardCount() const { return 0; }

  /// Enqueues \p Kernel over \p Spec (after Spec.DependsOn) and returns
  /// the launch's completion event. Timing accumulates into \p Stats no
  /// later than the returned event completes; read \p Stats only after
  /// waiting. See the file comment for the asynchronous lifetime
  /// contract.
  ///
  /// Non-virtual: counts the launch and times the backend's submitImpl()
  /// (see timedSubmitImpl). This is the only place a launch is counted.
  ExecEvent submit(const LaunchSpec &Spec, const StepKernel &Kernel,
                   const ExecutionContext &Ctx, RunStats &Stats) {
    ExecEvent Ev = timedSubmitImpl(Spec, Kernel, Ctx, Stats);
    Stats.Launches += 1;
    return Ev;
  }

protected:
  /// Backend-specific submission; called only through submit().
  virtual ExecEvent submitImpl(const LaunchSpec &Spec,
                               const StepKernel &Kernel,
                               const ExecutionContext &Ctx,
                               RunStats &Stats) = 0;

  /// Helper for synchronous implementations: blocks until every
  /// dependency of \p Spec has completed.
  static void waitForDependencies(const LaunchSpec &Spec) {
    for (const ExecEvent &Dep : Spec.DependsOn)
      Dep.wait();
  }

  /// Synchronous submitImpl implementations report the wall time they
  /// spent executing (or blocked on) kernel bodies, so the submit()
  /// wrapper can subtract it from the measured overhead. Asynchronous
  /// backends, whose kernels run on lane/pool threads, report nothing —
  /// their whole submit wall *is* overhead.
  static void noteInlineKernelNs(double Ns) { inlineKernelNs() += Ns; }

private:
  /// Graph replay re-issues captured nodes through timedSubmitImpl (one
  /// graph issue, not N counted launches), and graph capture forwards
  /// each submission to the wrapped backend's submitImpl, so the outer
  /// submit() counts it once (StepGraph.h).
  friend class StepGraph;
  friend class GraphCapture;

  /// Runs submitImpl() and adds its wall time, minus the kernel time a
  /// synchronous backend reported running inline, to \p Stats.SubmitNs.
  ExecEvent timedSubmitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                            const ExecutionContext &Ctx, RunStats &Stats) {
    const double InlineBefore = inlineKernelNs();
    Stopwatch Watch;
    ExecEvent Ev = submitImpl(Spec, Kernel, Ctx, Stats);
    const double WallNs = double(Watch.elapsedNanoseconds());
    const double InlineNs = inlineKernelNs() - InlineBefore;
    Stats.SubmitNs += WallNs > InlineNs ? WallNs - InlineNs : 0.0;
    return Ev;
  }

  /// This thread's monotonic inline-kernel-time ledger.
  static double &inlineKernelNs() {
    thread_local double Ns = 0;
    return Ns;
  }
};

/// Owning storage for kernel bodies (StepKernel is non-owning). A
/// driver that submits the same kernel sequence every step keeps one
/// across steps, calls rewind() at the top of the step and emplace()s
/// each body in submission order; a slot whose previous
/// occupant has the same closure type is rebuilt *in place* (destroy +
/// copy-construct into the existing heap allocation), so the steady
/// state allocates nothing and kernel storage addresses stay stable —
/// which is also what lets a captured step graph keep referencing the
/// bodies across replays. A type mismatch at the cursor (the driver took
/// a different path this step) truncates the stale tail and falls back
/// to fresh allocation.
///
/// Lifetime contract: rewinding and re-emplacing is only legal once
/// every launch still referencing the cached bodies has been waited on —
/// the same per-step wait the asynchronous submit contract already
/// requires.
class KernelCache {
public:
  /// Resets the cursor so the next emplace() reuses the first slot.
  void rewind() { Cursor = 0; }

  /// Drops every slot (use on shape/config changes that alter the kernel
  /// sequence).
  void clear() {
    Slots.clear();
    Cursor = 0;
  }

  std::size_t size() const { return Slots.size(); }

  /// Stores \p Block and \returns a reference valid until the slot is
  /// re-emplaced or the cache cleared.
  template <typename BlockFn> const BlockFn &emplace(BlockFn Block) {
    const void *Id = kernelIdentity<BlockFn>();
    if (Cursor < Slots.size() && Slots[Cursor].TypeId == Id) {
      BlockFn *Stored = static_cast<BlockFn *>(Slots[Cursor].Body.get());
      Stored->~BlockFn();
      new (Stored) BlockFn(std::move(Block));
      ++Cursor;
      return *Stored;
    }
    Slots.resize(Cursor); // different kernel sequence: drop the stale tail
    auto Body = std::make_shared<BlockFn>(std::move(Block));
    Slots.push_back({Body, Id});
    ++Cursor;
    return *Body;
  }

private:
  struct Slot {
    std::shared_ptr<void> Body; ///< owns the BlockFn (deleter knows the type)
    const void *TypeId;         ///< kernelIdentity of the stored closure
  };
  std::vector<Slot> Slots;
  std::size_t Cursor = 0;
};

/// The one launch helper: parks \p Block in \p Cache and submits it
/// as one single-step launch over \p Items items after \p DependsOn,
/// on shard lane \p ShardAffinity (-1 = any). Every driver (stage 1,
/// the J clear, tiled deposition, FDTD slabs, spectral passes) submits
/// through it; only Items, GrainHint, the dependency list and the
/// affinity vary.
template <typename BlockFn>
ExecEvent submitCachedLaunch(ExecutionBackend &Backend,
                             const ExecutionContext &Ctx, RunStats &Stats,
                             Index Items, Index GrainHint, BlockFn Block,
                             const std::vector<ExecEvent> &DependsOn,
                             KernelCache &Cache, int ShardAffinity = -1) {
  const BlockFn &Body = Cache.emplace(std::move(Block));
  LaunchSpec Spec;
  Spec.Items = Items;
  Spec.StepBegin = 0;
  Spec.StepEnd = 1;
  Spec.GrainHint = GrainHint;
  Spec.ShardAffinity = ShardAffinity;
  Spec.DependsOn = DependsOn;
  return Backend.submit(Spec, StepKernel(Body, kernelIdentity<BlockFn>()),
                        Ctx, Stats);
}

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_EXECUTIONBACKEND_H
