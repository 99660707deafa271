//===-- serve/JobRunner.h - Job spec -> PIC simulation ----------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Materializes a JobSpec into a running PicSimulation: the
/// parameterized cold Langmuir setup (the same initialization
/// examples/pic_langmuir.cpp performs, with grid/density/amplitude from
/// the spec), on any registered backend triple. Two entry points:
///
///   * makeSimulation(Spec, Backend, Threads) — the scheduler calls
///     this under a BackendPool::BindGuard with Backend = "pool", so
///     all three PIC stages run on the job's leased lane slice.
///   * runStandalone(Spec) — the whole job on the serial backend in
///     one call, returning the final picStateHash: the bit-identity
///     reference every served job is compared against (the strongest
///     form of the serve layer's correctness claim — not "pool equals
///     pool", but "pool equals the bitwise-reference serial loop").
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SERVE_JOBRUNNER_H
#define HICHI_SERVE_JOBRUNNER_H

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "serve/JobSpec.h"

#include <memory>
#include <string>

namespace hichi {
namespace serve {

using Simulation = pic::PicSimulation<double>;

/// Builds the job's simulation and seeds the scenario's particles.
/// Simulations are heap-held and never moved: a captured step graph
/// bakes in member addresses. \p Backend names the exec backend of all
/// three PIC stages ("pool" requires an active BindGuard on this
/// thread); \p Threads is its per-stage thread/lane count (0 = the
/// backend default — for "pool", the lease's width wins regardless).
inline std::unique_ptr<Simulation> makeSimulation(const JobSpec &Spec,
                                                  const std::string &Backend,
                                                  int Threads = 0) {
  // The cold Langmuir seed, omega_p = 1 (pic/Scenarios.h).
  const pic::ScenarioSetup<double> S = pic::makeLangmuirScenario<double>(
      {Index(Spec.Nx), Index(Spec.Ny), Index(Spec.Nz)}, Spec.PerCell, 0.0,
      Spec.Amplitude);

  pic::PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = Spec.SortEvery;
  Options.PushBackend = Backend;
  Options.PushThreads = Threads;
  Options.DepositBackend = Backend;
  Options.DepositThreads = Threads;
  Options.FieldBackend = Backend;
  Options.FieldThreads = Threads;
  Options.UseStepGraph = Spec.UseGraph;
  Options.Solver = Spec.Solver == "spectral" ? pic::FieldSolverKind::Spectral
                                             : pic::FieldSolverKind::Fdtd;

  auto Sim = std::make_unique<Simulation>(S.Grid, S.Origin, S.Step,
                                          Index(S.Particles.size()), S.Types,
                                          Options);
  pic::seedScenario(*Sim, S);
  return Sim;
}

/// Final state hash of \p Sim (the cross-backend bit-identity metric).
inline std::uint64_t stateHash(const Simulation &Sim) {
  return pic::picStateHash(Sim.particles(), Sim.grid());
}

/// Runs the whole job start-to-finish on the serial backend and
/// \returns its final state hash — the reference a served run of the
/// same spec must match bit-for-bit.
inline std::uint64_t runStandalone(const JobSpec &Spec) {
  std::unique_ptr<Simulation> Sim = makeSimulation(Spec, "serial");
  Sim->run(Spec.Steps);
  return stateHash(*Sim);
}

} // namespace serve
} // namespace hichi

#endif // HICHI_SERVE_JOBRUNNER_H
