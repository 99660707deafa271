//===-- exec/StepGraph.cpp - Step-graph capture & replay ------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "exec/StepGraph.h"

#include <cassert>

using namespace hichi;
using namespace hichi::exec;

int StepGraph::record(ExecutionBackend &Base, const LaunchSpec &Spec,
                      const StepKernel &Kernel, RunStats &Stats) {
  assert(!Instantiated && "capturing into an instantiated graph");
  Nodes.emplace_back(Base, Kernel, Spec, Stats);
  Node &N = Nodes.back();
  // Recover edges: dependencies whose event identity the graph has seen
  // point at earlier nodes; anything else (complete events, events from
  // outside the capture) is an external input with no edge to record.
  for (const ExecEvent &Dep : Spec.DependsOn) {
    auto It = EventNodes.find(Dep.identity());
    if (It != EventNodes.end())
      N.Deps.push_back(It->second);
  }
  return int(Nodes.size()) - 1;
}

bool StepGraph::instantiate() {
  if (Nodes.empty())
    return false;
  for (std::size_t I = 0; I < Nodes.size(); ++I)
    for (int D : Nodes[I].Deps)
      if (D < 0 || std::size_t(D) >= I)
        return false; // capture order must be a topological order
  // Pre-resolve the replay form of every node once: the working spec
  // keeps the captured items/grain/affinity; only the step range and
  // the dependency events change per replay, so reserve the dependency
  // storage here and replay() allocates nothing in steady state.
  for (Node &N : Nodes) {
    N.Spec.DependsOn.clear();
    N.Spec.DependsOn.reserve(N.Deps.size());
  }
  ReplayEvents.reserve(Nodes.size());
  EventNodes.clear(); // capture-time state, not needed for replay
  BaseStep = Params->StepIndex;
  Instantiated = true;
  return true;
}

void StepGraph::replay(const ExecutionContext &Ctx) {
  assert(Instantiated && "replay of an un-instantiated graph");
  const int Delta = Params->StepIndex - BaseStep;
  ReplayEvents.clear();
  for (Node &N : Nodes) {
    N.Spec.StepBegin = N.CapturedBegin + Delta;
    N.Spec.StepEnd = N.CapturedEnd + Delta;
    N.Spec.DependsOn.clear();
    for (int D : N.Deps)
      N.Spec.DependsOn.push_back(ReplayEvents[std::size_t(D)]);
    // Issue through the timed submitImpl (StepGraph is a friend of
    // ExecutionBackend): a replayed node is part of one compiled graph
    // issue, not a counted launch, so Launches stays flat while the
    // residual re-issue cost lands in the node's SubmitNs.
    ReplayEvents.push_back(
        N.Backend->timedSubmitImpl(N.Spec, N.Kernel, Ctx, *N.Stats));
  }
  // Waiting in submission (topological) order retires every node and
  // publishes its stats; later waits are no-ops once the terminals have
  // completed.
  for (const ExecEvent &Ev : ReplayEvents)
    Ev.wait();
}
