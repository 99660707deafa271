//===-- exec/StepLoop.h - The time-integration driver ----------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The templated time-integration driver over an ExecutionBackend: builds
/// the concrete (sample field, push particle) block kernel for a pusher x
/// layout x field-source combination, slices the step range into fused
/// groups, and hands each group to the backend.
///
/// Two submission shapes produce bit-identical results:
///
///   * **Mega-kernels** (FusionMode::MegaKernel): one blocking launch per
///     fused group of FuseSteps steps. Because the standalone pusher has
///     no particle-particle coupling, each particle's update sequence is
///     unchanged — while the per-step submit/join overhead (the
///     DPC++-vs-OpenMP gap the paper measures in Section 5.3) is
///     amortized over the group.
///   * **Event chains** (FusionMode::EventChain): every step is its own
///     non-blocking submit(), chained through LaunchSpec::DependsOn, with
///     a single wait at the end. On asynchronous backends this amortizes
///     the same overhead by *overlapping* submission with execution —
///     the submit/event shape of the DPC++ runtime — instead of by
///     merging kernels. The chain serializes the steps, so each
///     particle's update sequence is again unchanged.
///
///   * **Graph replay** (FusionMode::Graph): the first step is captured
///     through a GraphCapture wrapper into a StepGraph (exec/StepGraph.h)
///     and every later step *replays* the compiled launch — no specs
///     rebuilt, no counted launches, only the step index rebound. The
///     kernel derives the simulation time from the spec's step range,
///     which replay rebases exactly, so the per-particle operation
///     sequence is again unchanged.
///
/// FusionMode::Auto picks event chains on asynchronous backends and
/// mega-kernels otherwise. Fusion of either shape is NOT legal for loops
/// with cross-particle coupling (e.g. the PIC current deposition); such
/// callers must launch one step at a time (or capture the whole coupled
/// step as a graph, as PicSimulation does).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_STEPLOOP_H
#define HICHI_EXEC_STEPLOOP_H

#include "core/BorisPusher.h"
#include "core/ParticleTypes.h"
#include "exec/ExecutionBackend.h"
#include "exec/StepGraph.h"
#include "support/Constants.h"

#include <algorithm>
#include <utility>

namespace hichi {
namespace exec {

/// How runStepLoop turns the step range into backend submissions.
enum class FusionMode {
  Auto,       ///< EventChain on asynchronous backends, else MegaKernel
  MegaKernel, ///< one blocking launch per fused group (classic fusion)
  EventChain, ///< one chained non-blocking submit per step, wait at end
  Graph,      ///< capture the first step, replay the rest (StepGraph)
};

/// Options of one runStepLoop call (the physics knobs; scheduling knobs
/// live in the backend's BackendConfig).
template <typename Real> struct StepLoopOptions {
  /// Speed of light of the active unit system (CGS by default; tests use
  /// 1).
  Real LightVelocity = Real(constants::LightVelocity);

  /// Simulation time at the first step (fields may be time-dependent).
  Real StartTime = Real(0);

  /// Time steps per backend launch (kernel fusion); values < 1 mean 1.
  /// Ignored by the EventChain shape, which always submits single steps.
  int FuseSteps = 1;

  /// Submission shape (see the file comment).
  FusionMode Fusion = FusionMode::Auto;
};

/// Advances every particle of \p Particles by \p NumSteps steps of \p Dt
/// under \p Fields on \p Backend. \p Ctx supplies the queue for
/// minisycl-backed backends (ignored otherwise). Blocking either way:
/// even the event-chained shape waits its final event before returning,
/// so the returned RunStats are complete.
template <typename Pusher = BorisPusher, typename Array, typename FieldSource,
          typename Real>
RunStats runStepLoop(ExecutionBackend &Backend, const ExecutionContext &Ctx,
                     Array &Particles, const FieldSource &Fields,
                     const ParticleTypeTable<Real> &Types, Real Dt,
                     int NumSteps, const StepLoopOptions<Real> &Opts = {}) {
  const auto View = Particles.view();
  const Index N = View.size();
  const ParticleTypeInfo<Real> *TypesPtr = Types.data();
  const Real C = Opts.LightVelocity;
  const Real StartTime = Opts.StartTime;

  // The block kernel every backend runs: step-major so a fused group
  // replays the exact per-particle operation sequence of unfused launches.
  // Capture-by-copy views only (SYCL kernel semantics).
  auto Block = [=](Index Begin, Index End, int StepBegin, int StepEnd) {
    for (int Step = StepBegin; Step < StepEnd; ++Step) {
      const Real Time = StartTime + Real(Step) * Dt;
      for (Index I = Begin; I < End; ++I) {
        auto P = View[I];
        const FieldSample<Real> F = Fields(P.position(), Time, I);
        Pusher::template push<Real>(P, F, TypesPtr, Dt, C);
      }
    }
  };
  const StepKernel Kernel(Block, kernelIdentity<decltype(Block)>());

  const bool Chain =
      Opts.Fusion == FusionMode::EventChain ||
      (Opts.Fusion == FusionMode::Auto && Backend.isAsynchronous());

  RunStats Stats;
  if (Opts.Fusion == FusionMode::Graph) {
    if (NumSteps <= 0)
      return Stats;
    // Capture step 0 as a one-node graph (executing it normally in the
    // process), then replay it NumSteps-1 times with only the step
    // index rebound — replay rebases the spec's step range, and the
    // kernel derives t from the step index, so the trajectory is
    // bit-identical to resubmission while the launch ledger stays at
    // the capture step's single entry.
    StepGraph Graph;
    GraphCapture Capture(Backend, Graph);
    LaunchSpec Spec;
    Spec.Items = N;
    Spec.StepBegin = 0;
    Spec.StepEnd = 1;
    Capture.submit(Spec, Kernel, Ctx, Stats).wait();
    Graph.instantiate();
    for (int Step = 1; Step < NumSteps; ++Step) {
      Graph.params().StepIndex = Step;
      Graph.replay(Ctx);
    }
    return Stats;
  }
  if (Chain) {
    // Every step is one submission depending on its predecessor. All
    // events are waited in submission order at the end: the chain makes
    // later waits no-ops, but each wait also finalizes that launch's
    // stats accumulation (deferred events publish their profiling
    // numbers in the first wait).
    std::vector<ExecEvent> Events;
    Events.reserve(std::size_t(NumSteps));
    for (int Step = 0; Step < NumSteps; ++Step) {
      LaunchSpec Spec;
      Spec.Items = N;
      Spec.StepBegin = Step;
      Spec.StepEnd = Step + 1;
      if (!Events.empty())
        Spec.DependsOn.push_back(Events.back());
      Events.push_back(Backend.submit(Spec, Kernel, Ctx, Stats));
    }
    for (const ExecEvent &Ev : Events)
      Ev.wait();
    return Stats;
  }

  const int Fuse = std::max(1, Opts.FuseSteps);
  for (int Step = 0; Step < NumSteps; Step += Fuse) {
    LaunchSpec Spec;
    Spec.Items = N;
    Spec.StepBegin = Step;
    Spec.StepEnd = std::min(Step + Fuse, NumSteps);
    Backend.submit(Spec, Kernel, Ctx, Stats).wait();
  }
  return Stats;
}

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_STEPLOOP_H
