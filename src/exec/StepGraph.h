//===-- exec/StepGraph.h - Step-graph capture & replay ---------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step-graph capture and replay: compile the per-step launch DAG once,
/// then re-issue it every step with only the step scalars rebound — the
/// exec layer's analogue of CUDA Graphs / SYCL command-graphs, and the
/// logical end point of the submit-overhead story the paper measures in
/// Section 5.3 (per-launch submission cost is what separated DPC++ from
/// OpenMP there; fusing launches amortized it, capturing the whole step
/// removes the per-step spec construction and event bookkeeping too).
///
/// Three pieces cooperate:
///
///   * **GraphCapture** — a decorator ExecutionBackend wrapping a real
///     backend. The first time a driver runs its step through the
///     wrapper, every submit() is *recorded* into a StepGraph (items,
///     grain, shard affinity, stable kernel identity, and edges
///     recovered from LaunchSpec::DependsOn via ExecEvent::identity())
///     and then forwarded to the wrapped backend, so the capture step
///     executes normally and produces bit-identical results.
///   * **StepGraph** — the recorded DAG. instantiate() freezes it:
///     verifies the capture order is a topological order (every edge
///     points backwards — guaranteed by the exec layer's
///     depend-on-earlier-submissions contract), snapshots the base step
///     index, and pre-resolves each node's LaunchSpec once. replay()
///     re-issues the whole step against the captured backends with only
///     the ParamBlock rebound: step indices are rebased by the delta
///     from the captured base step, dependency lists are refilled in
///     place from this replay's events, and no new specs, kernel
///     bodies or keep-alive entries are constructed.
///   * **ParamBlock** — the per-step indirection. Kernel bodies that
///     need per-step values (the simulation time, buffer pointers that
///     may be swapped) read them through a `const ParamBlock *` captured
///     at record time instead of capturing the values themselves; the
///     driver updates the block before each replay.
///
/// Replay bypasses the counting submit() wrapper (StepGraph is a friend
/// of ExecutionBackend and calls submitImpl directly): a replayed step
/// is *one* compiled-graph issue, not N launches, so
/// RunStats::Launches/SpecsBuilt stay flat while the residual per-node
/// re-issue cost still lands in RunStats::SubmitNs. The
/// `pic_graph_replay_wall` ctest target
/// (tests/pic/GraphReplayWallTest.cpp) holds replay to fewer launches
/// per step and a lower step wall than resubmission.
///
/// Determinism: replay submits the same kernels over the same item
/// ranges with the same dependency shape on the same backends, in the
/// captured (topological) submission order. On synchronous backends the
/// replay therefore degenerates to the same ordered loop the capture
/// ran; on asynchronous backends the events enforce the captured
/// partial order. Either way the results are bit-identical to
/// resubmission (tests/pic/GraphEquivalenceTest.cpp).
///
/// Invalidation is the driver's job: a captured graph bakes in data
/// pointers, item counts and tile/shard splits, so any shape or knob
/// change (particle count, tile count, backend swap) must discard the
/// graph and recapture (PicSimulation keys its graph on the ensemble
/// size; tests/exec/StepGraphTest.cpp exercises the contract).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_STEPGRAPH_H
#define HICHI_EXEC_STEPGRAPH_H

#include "exec/ExecutionBackend.h"

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace hichi {
namespace exec {

/// The per-step rebinding surface of a captured graph: everything a
/// replayed step is allowed to change. Kernel bodies recorded into a
/// graph capture a `const ParamBlock *` and read per-step scalars
/// (slot conventions are the driver's, e.g. Scalars[0] = simulation
/// time) and swappable buffer pointers through it at execution time.
struct ParamBlock {
  /// The step index this replay stands for; replay() rebases every
  /// node's StepBegin/StepEnd by the delta from the captured base step,
  /// so time-dependent kernels that derive t from the step index keep
  /// working under replay.
  int StepIndex = 0;

  /// Per-step scalar slots (simulation time, ramp factors, ...).
  double Scalars[8] = {};

  /// Per-step pointer slots (double-buffer swaps, externally rebound
  /// arrays); unused slots stay null.
  void *Pointers[8] = {};
};

class GraphCapture;

/// A recorded per-step launch DAG: capture once through GraphCapture,
/// instantiate(), then replay() every subsequent step.
class StepGraph {
public:
  /// \p External, when non-null, becomes the graph's ParamBlock (for
  /// drivers whose kernel bodies must keep reading one block whether or
  /// not a graph is active); otherwise the graph owns its own block.
  explicit StepGraph(ParamBlock *External = nullptr)
      : Params(External ? External : &OwnBlock) {}

  StepGraph(const StepGraph &) = delete;
  StepGraph &operator=(const StepGraph &) = delete;

  /// The per-replay rebinding block (see ParamBlock).
  ParamBlock &params() { return *Params; }
  const ParamBlock &params() const { return *Params; }

  /// Read-only view of one captured node, for tests and diagnostics.
  struct NodeInfo {
    const ExecutionBackend *Backend; ///< backend the node re-issues on
    const void *KernelType;          ///< kernelIdentity of the body
    Index Items;
    int StepBegin;  ///< as captured (replay rebases by the step delta)
    int StepEnd;
    Index GrainHint;
    int ShardAffinity;
    std::vector<int> Deps; ///< indices of earlier nodes (the edges)
  };

  std::size_t nodeCount() const { return Nodes.size(); }

  /// Total number of edges across all nodes.
  std::size_t edgeCount() const {
    std::size_t E = 0;
    for (const Node &N : Nodes)
      E += N.Deps.size();
    return E;
  }

  NodeInfo node(std::size_t I) const {
    const Node &N = Nodes[I];
    return {N.Backend,        N.Kernel.typeId(), N.Spec.Items,
            N.CapturedBegin,  N.CapturedEnd,     N.Spec.GrainHint,
            N.Spec.ShardAffinity, N.Deps};
  }

  bool instantiated() const { return Instantiated; }

  /// Freezes the captured DAG: verifies every edge points at an earlier
  /// node (capture order is a topological order), snapshots
  /// params().StepIndex as the base step for replay rebasing, drops the
  /// capture-time event map, and pre-sizes each node's dependency list
  /// so replay() allocates nothing in steady state. \returns false (and
  /// leaves the graph un-instantiated) if the graph is empty or an edge
  /// violates the topological contract.
  bool instantiate();

  /// Re-issues the whole captured step: rebases step indices by
  /// params().StepIndex - baseStep, refills each node's DependsOn from
  /// this replay's events, submits every node in captured order
  /// directly through the backend's submitImpl (one graph issue, not N
  /// counted launches), and waits all events in submission order before
  /// returning — so on synchronous backends the replay degenerates to
  /// the captured ordered loop, and the caller may touch results and
  /// stats immediately after. Residual per-node re-issue cost
  /// accumulates into each node's captured RunStats::SubmitNs.
  /// Equivalent to replayNoWait(Ctx); waitReplay().
  void replay(const ExecutionContext &Ctx);

  /// The issue half of replay(): submits every node (with the rebasing
  /// and dependency refill above) but does *not* wait — on asynchronous
  /// backends the whole step is in flight when this returns. A driver
  /// that owns several graphs on disjoint backend lanes (the serve
  /// layer's cross-job batcher) issues all of them back to back, then
  /// waits each, so the jobs' steps genuinely overlap as one fused
  /// launch round. Must be paired with waitReplay() before the next
  /// replayNoWait(), before touching results/stats, and before the
  /// driver's own step epilogue.
  void replayNoWait(const ExecutionContext &Ctx);

  /// The wait half of replay(): blocks until every node issued by the
  /// matching replayNoWait() has completed (waits in submission order,
  /// which is a topological order, so every node retires and publishes
  /// its stats). No-op if nothing is in flight.
  void waitReplay();

  /// Discards every node (the driver recaptures after a shape change).
  void clear() {
    Nodes.clear();
    EventNodes.clear();
    ReplayEvents.clear();
    Instantiated = false;
  }

private:
  friend class GraphCapture;

  struct Node {
    Node(ExecutionBackend &Backend, const StepKernel &Kernel,
         const LaunchSpec &Spec, RunStats &Stats)
        : Backend(&Backend), Kernel(Kernel), Spec(Spec),
          CapturedBegin(Spec.StepBegin), CapturedEnd(Spec.StepEnd),
          Stats(&Stats) {}

    ExecutionBackend *Backend;
    StepKernel Kernel; ///< body owned by the driver (KernelCache)
    LaunchSpec Spec;   ///< replay working copy; DependsOn refilled per replay
    int CapturedBegin; ///< step range as captured (rebased on replay)
    int CapturedEnd;
    RunStats *Stats;        ///< must outlive the graph (driver members)
    std::vector<int> Deps;  ///< edges: indices of earlier nodes
  };

  /// Records one submission (called by GraphCapture before forwarding):
  /// maps Spec.DependsOn onto earlier nodes via the capture-time event
  /// map — events the graph has not seen (complete events, events from
  /// outside the capture) are external inputs and carry no edge.
  /// \returns the new node's index.
  int record(ExecutionBackend &Base, const LaunchSpec &Spec,
             const StepKernel &Kernel, RunStats &Stats);

  /// Associates \p Identity (ExecEvent::identity of the event handed
  /// back to the driver) with node \p NodeIndex for edge recovery.
  void noteEvent(const void *Identity, int NodeIndex) {
    if (Identity)
      EventNodes[Identity] = NodeIndex;
  }

  std::vector<Node> Nodes;
  std::unordered_map<const void *, int> EventNodes; ///< capture-time only
  std::vector<ExecEvent> ReplayEvents; ///< reused per replay
  ParamBlock OwnBlock;
  ParamBlock *Params;
  int BaseStep = 0;
  bool Instantiated = false;
};

/// Decorator backend that records every submission into a StepGraph
/// while forwarding it to the wrapped backend — so the capture step
/// executes normally (bit-identical results, normal stats) and the
/// graph learns the full DAG as a side effect. Forwards every query
/// (name, shard count, asynchrony, ...) so drivers that key tiling or
/// routing decisions off backend properties capture the same shape they
/// would run without the wrapper.
class GraphCapture final : public ExecutionBackend {
public:
  GraphCapture(ExecutionBackend &Base, StepGraph &Graph)
      : Base(Base), Graph(Graph) {}

  const char *name() const override { return Base.name(); }
  bool needsQueue() const override { return Base.needsQueue(); }
  bool isAsynchronous() const override { return Base.isAsynchronous(); }
  int shardCount() const override { return Base.shardCount(); }

protected:
  /// Records the node, forwards to the wrapped backend (an inner,
  /// uncounted submit — the thread-local depth in ExecutionBackend::
  /// submit keeps the ledger at one launch per capture submission), and
  /// returns a wrapper event whose identity the graph can map back to
  /// the node. The wrapper is deferred rather than a pass-through so
  /// even synchronous backends' (stateless, complete) events get a
  /// distinct identity for edge recovery.
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &Ctx, RunStats &Stats) override {
    const int NodeIndex = Graph.record(Base, Spec, Kernel, Stats);
    ExecEvent BaseEvent = Base.submit(Spec, Kernel, Ctx, Stats);
    ExecEvent Wrapped = ExecEvent::deferred([BaseEvent] { BaseEvent.wait(); });
    Graph.noteEvent(Wrapped.identity(), NodeIndex);
    return Wrapped;
  }

private:
  ExecutionBackend &Base;
  StepGraph &Graph;
};

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_STEPGRAPH_H
