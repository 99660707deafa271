//===-- pic/PicSimulation.h - The full PIC loop -----------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-consistent Particle-in-Cell loop (paper Section 2): per step,
///
///   1. interpolate grid fields to particles (form factor),
///   2. push particles (Boris method — the paper's kernel),
///   3. deposit particle currents to the grid (Esirkepov,
///      charge-conserving),
///   4. advance Maxwell's equations (FDTD on the Yee grid, or the
///      spectral solver),
///
/// with periodic boundaries for particles and fields. Stages 1+2 and the
/// position wrap run as one independent-particle kernel over blocks of
/// SIMD lanes, one particle per lane (LaneKernels.h), stage 3 as a tiled
/// read-modify-write kernel, and stage 4 as x-slab halo-exchange tiles
/// (FDTD) or k-space line/row launches (spectral) — each stage on its
/// own configurable execution backend
/// (PicOptions::PushBackend / DepositBackend / FieldBackend) — see
/// docs/ARCHITECTURE.md for the full stage-to-backend map. This is the
/// substrate the standalone pusher benchmarks carve their kernel out of.
///
/// One function, issueStep(), writes the step: stage 1 (gather + push +
/// wrap), the J clear, the deposit chain (bin -> accumulate) and the
/// field chain, every one of them a backend launch ordered by event
/// dependencies rather than by host waits. A classic step issues that
/// sequence straight through the stage backends; a graph-mode step
/// issues the very same sequence through GraphCapture wrappers once and
/// replays the recorded DAG afterwards (exec/StepGraph.h). The field
/// chain waits the deposit only at the first launch that reads J (the
/// FDTD E advance / the spectral gather), so on asynchronous backends
/// the first FDTD half-step overlaps the deposit — while the chain keeps
/// the per-node operation order, and hence the state hash, bit-identical
/// to the all-serial loop.
///
/// On a sharded push backend the stage-1 launch splits into one particle
/// slice per shard lane, as any plain launch does (occupancy-weighted
/// slices after a fired rebalance).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_PICSIMULATION_H
#define HICHI_PIC_PICSIMULATION_H

#include "core/Checkpoint.h"
#include "core/Core.h"
#include "core/EnsembleOps.h"
#include "exec/BackendRegistry.h"
#include "exec/ShardedBackend.h"
#include "exec/SlabPartition.h"
#include "exec/StepGraph.h"
#include "pic/AbsorbingBoundary.h"
#include "pic/CurrentDeposition.h"
#include "pic/FdtdSolver.h"
#include "pic/LaneKernels.h"
#include "pic/ParticleSorter.h"
#include "pic/Rebalancer.h"
#include "pic/SpectralSolver.h"
#include "pic/TiledCurrentAccumulator.h"
#include "pic/YeeGrid.h"
#include "support/AlignedAllocator.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hichi {
namespace pic {

/// Which Maxwell solver advances the grid fields (paper Section 2:
/// "These equations can be solved using FDTD or FFT-based techniques").
enum class FieldSolverKind {
  Fdtd,     ///< staggered Yee leapfrog; Courant-limited dt
  Spectral, ///< FFT/PSATD; exact per mode, needs power-of-two extents
};

/// Moving-window configuration (the paper's laser–plasma pulse-tracking
/// use case): the window slides along +x at Speed * c, retiring
/// particles the trailing edge passes and injecting fresh plasma into
/// the planes the leading edge uncovers. The shift trigger is a pure
/// function of the accumulated simulation time — floor(Speed * c * t /
/// dx) planes are due after time t — so every backend shifts on the
/// same steps by the same plane counts and moving-window runs stay
/// bit-comparable across backends, layouts and shard counts. Injected
/// particles replicate appendColdBeam's deterministic placement in
/// *global* plane coordinates, so a window run's fresh plasma is
/// record-identical to what a big fixed domain would have seeded there.
/// FDTD only: the spectral solver's global FFTs cannot address a ring
/// window and the constructor rejects the combination.
template <typename Real> struct MovingWindowOptions {
  bool Enabled = false;
  Real Speed = Real(1);   ///< window speed in units of the light velocity
  int InjectPerCell = 0;  ///< leading-edge particles per cell (0 = vacuum)
  short InjectType = 0;   ///< species of the injected plasma
  Real InjectWeight = Real(0); ///< statistical weight per injected particle

  /// Second co-located species emitted record-adjacent to every
  /// injected particle (-1 = none): the drifting-slab pair idiom, so a
  /// neutral plasma injects as electron–positron pairs whose current
  /// contributions cancel bitwise until a field separates them.
  short InjectPairType = -1;
};

/// Configuration of a PIC run.
template <typename Real> struct PicOptions {
  Real TimeStep = Real(0);       ///< 0 = half the Courant limit
  Real LightVelocity = Real(constants::LightVelocity);
  int SortEveryNSteps = 50;      ///< 0 disables the locality sort
  bool ChargeConserving = true;  ///< Esirkepov vs direct deposition
  FieldSolverKind Solver = FieldSolverKind::Fdtd;

  /// Execution backend (exec registry name) for the interpolate+push
  /// stage. Particles are independent during the push, so any registered
  /// backend gives bit-identical results. The sharded backend splits the
  /// stage into one particle slice per shard lane.
  std::string PushBackend = "serial";

  /// Worker threads for the push stage; 0 means all (for "sharded": the
  /// shard count, default 4).
  int PushThreads = 0;

  /// Execution backend for the current-deposition stage. The scatter
  /// couples particles through the grid, so it runs as a parallel bin
  /// launch and per-tile blocks that each add, in particle order, into
  /// the grid x-planes their tile owns (TiledCurrentAccumulator);
  /// results are bit-identical to the serial scatter for every backend,
  /// thread count and tile count.
  std::string DepositBackend = "serial";

  /// Worker threads for the deposit stage; 0 means all.
  int DepositThreads = 0;

  /// Current tiles (x-slabs) for the deposit stage; 0 = auto (1 for the
  /// serial backend, else two tiles per worker, capped at the grid's Nx).
  int DepositTiles = 0;

  /// Execution backend for the Maxwell field-solve stage. The FDTD
  /// advance runs as x-slab tiles with a one-plane halo exchange per
  /// face, the spectral solver as k-space line/row launches; both are
  /// bit-identical to the serial solver for every backend, thread count
  /// and tile count. Asynchronous backends event-chain the solve against
  /// the deposit.
  std::string FieldBackend = "serial";

  /// Worker threads for the field-solve stage; 0 means all.
  int FieldThreads = 0;

  /// Tiles of the field-solve stage — x-slabs for FDTD (capped at Nx),
  /// schedulable k-space chunks per launch for the spectral solver;
  /// 0 = auto (1 for the serial backend, else two per worker).
  int FieldTiles = 0;

  /// Capture the four-stage step's launch DAG on the first step and
  /// *replay* it on every later one (exec/StepGraph.h): specs, kernel
  /// bodies and dependency edges are resolved once, and each replayed
  /// step only rebinds the step index and simulation time through the
  /// ParamBlock. Bit-identical to the per-step resubmission path for
  /// every backend, solver, layout and tile/shard count; the graph is
  /// invalidated (and recaptured) when the ensemble size changes.
  bool UseStepGraph = false;

  /// Occupancy-skew threshold that arms the between-steps rebalancer
  /// (pic/Rebalancer.h): every RebalanceEveryNSteps steps the per-x-plane
  /// particle occupancy is measured, and when its skew (max block weight
  /// over mean across SkewEvalBlocks x-blocks) exceeds this threshold
  /// the ensemble is cell-sorted and the deposit tiles + sharded push
  /// blocks are re-split weighted by the measured occupancy. <= 0
  /// disables rebalancing entirely. The trigger reads particle positions
  /// only (never timing), so it fires on the same steps on every backend
  /// — rebalanced runs stay bit-identical across backends. A fired
  /// repartition re-sorts, which permutes the order-sensitive state hash
  /// relative to a non-rebalanced run (conservation-gated, not
  /// bit-gated); the re-split itself never changes bits.
  double RebalanceThreshold = 0;

  /// Steps between skew checks (rebalancing must be cheap relative to
  /// the work it balances; the check is one O(N) histogram pass).
  int RebalanceEveryNSteps = 10;

  /// Absorbing/open boundary along x: > 0 damps E and B inside a sponge
  /// frame this many cells deep on the two x faces after every step
  /// (damping exponent SpongeStrength at the outermost cell) and
  /// removes particles that entered it (open particle boundary; y/z stay
  /// periodic). The boundary is host-side and runs in every step mode —
  /// classic, capture and replay — after the captured DAG completes, so
  /// all backends apply the identical damping arithmetic.
  Index AbsorbingCells = 0;

  /// Moving-window configuration; Enabled = false leaves every logical↔
  /// physical mapping the identity, so fixed-window runs are untouched
  /// bit-for-bit.
  MovingWindowOptions<Real> MovingWindow;
};

/// Evaluation blocks of the rebalancer's skew metric (clamped to the
/// grid's Nx). Deliberately independent of the backend's shard/tile
/// counts so the metric — and hence the firing steps — are
/// backend-invariant.
constexpr Index SkewEvalBlocks = 8;

/// Damping exponent at the outermost cell of the open-boundary sponge
/// per application (AbsorbingLayer's quadratic-ramp profile).
constexpr double SpongeStrength = 0.5;

/// A complete electromagnetic PIC simulation over one periodic box.
template <typename Real, typename Array = ParticleArrayAoS<Real>>
class PicSimulation {
public:
  PicSimulation(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step,
                Index ParticleCapacity, ParticleTypeTable<Real> Types,
                PicOptions<Real> Options = {})
      : Grid(Size, Origin, Step), Particles(ParticleCapacity),
        Types(std::move(Types)), Solver(Options.LightVelocity),
        Indexer(Grid), Options(Options) {
    if (this->Options.MovingWindow.Enabled &&
        this->Options.Solver == FieldSolverKind::Spectral)
      fatalError("moving window requires the FDTD solver (global FFTs "
                 "cannot address a ring window)");
    Backend = exec::createBackend(this->Options.PushBackend,
                                  {this->Options.PushThreads, /*Grain=*/0});
    if (!Backend)
      fatalError("PicOptions::PushBackend names no registered backend");
    DepositExec =
        exec::createBackend(this->Options.DepositBackend,
                            {this->Options.DepositThreads, /*Grain=*/0});
    if (!DepositExec)
      fatalError("PicOptions::DepositBackend names no registered backend");
    FieldExec = exec::createBackend(this->Options.FieldBackend,
                                    {this->Options.FieldThreads, /*Grain=*/0});
    if (!FieldExec)
      fatalError("PicOptions::FieldBackend names no registered backend");
    if (Backend->needsQueue() || DepositExec->needsQueue() ||
        FieldExec->needsQueue())
      Queue = std::make_unique<minisycl::queue>(minisycl::cpu_device());
    Accumulator = std::make_unique<TiledCurrentAccumulator<Real>>(
        Size, Origin, Step,
        resolveStageTiles(this->Options.DepositTiles, *DepositExec,
                          this->Options.DepositThreads));
    FieldTileCount = resolveStageTiles(this->Options.FieldTiles, *FieldExec,
                                       this->Options.FieldThreads);
    if (this->Options.RebalanceThreshold > 0)
      Rebal = std::make_unique<Rebalancer<Real>>(
          Size, Origin, Step, this->Options.RebalanceThreshold,
          SkewEvalBlocks);
    if (this->Options.AbsorbingCells > 0)
      Absorber = std::make_unique<AbsorbingLayer<Real>>(
          Size, this->Options.AbsorbingCells, Real(SpongeStrength),
          AbsorbingLayer<Real>::Faces::XOnly);
    if (this->Options.TimeStep <= Real(0))
      this->Options.TimeStep = Solver.courantLimit(Grid) / Real(2);
    if (this->Options.Solver == FieldSolverKind::Spectral) {
      Spectral = std::make_unique<SpectralSolver<Real>>(
          Size, Step, Options.LightVelocity);
    } else {
      FieldPartition =
          std::make_unique<FdtdSlabPartition<Real>>(Size, FieldTileCount);
      FieldTileCount = FieldPartition->tileCount(); // clamped to Nx
      assert(this->Options.TimeStep <= Solver.courantLimit(Grid) &&
             "time step violates the Courant condition");
    }
  }

  YeeGrid<Real> &grid() { return Grid; }
  const YeeGrid<Real> &grid() const { return Grid; }
  Array &particles() { return Particles; }
  const Array &particles() const { return Particles; }
  const ParticleTypeTable<Real> &types() const { return Types; }
  Real timeStep() const { return Options.TimeStep; }
  Real time() const { return CurrentTime; }
  int stepCount() const { return Steps; }

  /// Adds a particle (positions are wrapped into the box).
  void addParticle(ParticleT<Real> P) {
    P.Position = Grid.wrapPosition(P.Position);
    P.Gamma = lorentzGamma(P.Momentum, Types[P.Type].Mass,
                           Options.LightVelocity);
    Particles.pushBack(P);
  }

  /// Advances the simulation by one step. Without PicOptions::UseStepGraph
  /// the step is issued straight through the stage backends; with it,
  /// the first step issues the same sequence through graph-capturing
  /// wrappers and every later step replays the captured launch DAG with
  /// only the step index and simulation time rebound (both
  /// bit-identical, tests/pic/GraphEquivalenceTest.cpp).
  void step() {
    bindStepParams();
    if (!Options.UseStepGraph) {
      StageCache.rewind();
      ChainCache.rewind();
      issueStep(*Backend, *DepositExec, *FieldExec, /*TimeStages=*/true);
    } else {
      Stopwatch Wall;
      if (graphIsCurrent()) {
        // sortByCell between replays is safe: it permutes particle
        // storage in place, so every captured pointer stays valid.
        Graph->replay(context());
        ++GraphReplays;
      } else {
        captureStep();
      }
      addWall(GraphTiming, Wall);
    }
    finishStep();
  }

private:
  /// True when the next step can replay the captured graph: graph mode
  /// is on and the DAG is valid for the current ensemble size and
  /// partition epoch (a fired rebalance or a window shift re-splits the
  /// ranges the graph baked in). False on the capture step and after
  /// any invalidation — step() then captures/recaptures.
  bool graphIsCurrent() const {
    return Options.UseStepGraph && Graph && Graph->instantiated() &&
           GraphN == Particles.size() && GraphEpoch == PartitionEpoch;
  }

  /// The one four-stage step sequence, issued through \p PushX,
  /// \p DepositX and \p FieldX: the stage backends themselves on a
  /// classic step, or their GraphCapture wrappers on a capture step
  /// (which records exactly these launches). In issue order:
  ///
  ///   1. stage 1, gather + push + wrap in one particle pass (one
  ///      launch; one per shard after a rebalance), keeping the old and
  ///      the unwrapped new positions aside, since the deposition needs
  ///      the physical displacement;
  ///   2. the J clear, a launch over the Nx x-planes the deposit chain
  ///      waits;
  ///   3. the deposit chain (bin -> accumulate) gated on the stage-1
  ///      launches and the clear, bit-identical to the serial
  ///      particle-order scatter (TiledCurrentAccumulator.h);
  ///   4. the field chain, gated on the deposit at the first launch
  ///      that reads J, and for FDTD also on stage 1: advanceB writes
  ///      the B lattice stage 1 reads, and under replay no host wait
  ///      orders the two (the spectral gather is ordered through the
  ///      deposit already).
  ///
  /// Every stage is a launch, so a classic step's launch ledger equals
  /// the captured graph's node count. Everything is waited on return.
  /// \p TimeStages accumulates the push, deposit and field stage walls
  /// (the classic step's per-stage attribution; a capture step is timed
  /// as a whole by its caller).
  void issueStep(exec::ExecutionBackend &PushX,
                 exec::ExecutionBackend &DepositX,
                 exec::ExecutionBackend &FieldX, bool TimeStages) {
    const Real Dt = Options.TimeStep;
    auto View = Particles.view();
    const Index N = View.size();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    OldPositions.resize(std::size_t(N));
    NewPositions.resize(std::size_t(N));
    Vector3<Real> *OldPos = OldPositions.data();
    Vector3<Real> *NewPos = NewPositions.data();
    const exec::ExecutionContext Ctx = context();

    Stopwatch Watch;
    const std::vector<exec::ExecEvent> Pushed = submitStage1(
        PushX,
        FusedPushBody{View, &Grid, OldPos, NewPos, TypesPtr, 0, Dt,
                      Options.LightVelocity},
        N, Ctx);
    if (TimeStages) {
      for (const exec::ExecEvent &Ev : Pushed)
        Ev.wait();
      addWall(PushTiming, Watch);
    }

    // The J clear is off stage 1's critical path, so it is issued after
    // it: stage 1's lanes start first, and under replay the clear runs
    // while stage 1 is still in flight.
    Watch.reset();
    std::vector<exec::ExecEvent> DepositAfter = Pushed;
    DepositAfter.push_back(exec::submitCachedLaunch(
        DepositX, Ctx, DepositLaunchStats, Grid.size().Nx, /*GrainHint=*/0,
        ClearCurrentBody{&Grid}, {}, StageCache));
    const exec::ExecEvent JReady = Accumulator->submitDeposit(
        Grid, View, OldPos, NewPos, TypesPtr, Dt, Options.ChargeConserving,
        DepositX, Ctx, DepositLaunchStats, ChainCache, DepositAfter);
    if (!FieldX.isAsynchronous())
      JReady.wait(); // keep the serial stage-wall attribution exact
    if (TimeStages)
      addWall(DepositTiming, Watch);

    // On an asynchronous field backend this wall includes the deposit
    // tail the chain hides — the stage boundary blurs by design.
    Watch.reset();
    const exec::ExecEvent FieldsDone =
        Spectral ? Spectral->submitStep(Grid, Dt, FieldX, Ctx, FieldTileCount,
                                        FieldLaunchStats, JReady, ChainCache)
                 : Solver.submitStep(Grid, Dt, *FieldPartition, FieldX, Ctx,
                                     FieldLaunchStats, JReady, ChainCache,
                                     Pushed);
    FieldsDone.wait();
    JReady.wait(); // retire the deposit launches' stats publication too
    if (TimeStages)
      addWall(FieldTiming, Watch);
  }

  /// Graph-mode first step (and every recapture): issueStep() through
  /// graph-capturing wrappers, so every launch is recorded into a fresh
  /// StepGraph while executing normally. A fresh graph owns nothing:
  /// kernel bodies live in the member caches (cleared, then rebuilt by
  /// this capture so replays keep pointing at stable storage) and stats
  /// in member RunStats. The graph is keyed on the ensemble size and the
  /// partition epoch; any change to either discards it and recaptures.
  void captureStep() {
    Graph = std::make_unique<exec::StepGraph>(&StepParams);
    exec::GraphCapture PushCap(*Backend, *Graph);
    exec::GraphCapture DepositCap(*DepositExec, *Graph);
    exec::GraphCapture FieldCap(*FieldExec, *Graph);
    StageCache.clear();
    ChainCache.clear();
    issueStep(PushCap, DepositCap, FieldCap, /*TimeStages=*/false);
    if (!Graph->instantiate())
      Graph.reset(); // empty capture (defensive); next step recaptures
    GraphN = Particles.size();
    GraphEpoch = PartitionEpoch;
    ++GraphCaptures;
  }

  /// Publishes the step index and simulation time through the
  /// ParamBlock, where kernel bodies read them also under replay (no PIC
  /// stage reads either today: the Yee gather is time-independent).
  void bindStepParams() {
    StepParams.StepIndex = Steps;
    StepParams.Scalars[0] = double(CurrentTime);
  }

  exec::ExecutionContext context() const {
    exec::ExecutionContext Ctx;
    Ctx.Queue = Queue.get();
    return Ctx;
  }

  /// Adds \p Watch's elapsed wall time to \p Stats.
  static void addWall(RunStats &Stats, const Stopwatch &Watch) {
    const double Ns = double(Watch.elapsedNanoseconds());
    Stats.HostNs += Ns;
    Stats.ModeledNs += Ns;
  }

  /// The host epilogue every step mode shares (classic, capture,
  /// replay): advances the counters, runs the periodic locality sort,
  /// the open boundary, and the rebalance check. Everything here is
  /// host-side and backend-independent, so each piece either preserves
  /// bits exactly (the sponge damping: identical arithmetic everywhere)
  /// or changes them identically on every backend (the sorts'
  /// permutations).
  void finishStep() {
    CurrentTime += Options.TimeStep;
    ++Steps;
    if (Options.SortEveryNSteps > 0 && Steps % Options.SortEveryNSteps == 0)
      sortByCell(Particles, Indexer, SortBuffers);
    if (Absorber) {
      Absorber->apply(Grid);
      // A shrunk ensemble invalidates the captured graph through the
      // GraphN key on the next step().
      AbsorbedTotal += Absorber->removeAbsorbedParticles(Particles, Grid);
    }
    maybeShiftWindow();
    maybeRebalance();
  }

  /// The moving-window trigger: after time t the window owes
  /// floor(Speed * c * t / dx) planes of travel; shift by whatever is
  /// outstanding. A pure function of the accumulated simulation time —
  /// never of timing or scheduling — so every backend shifts on the
  /// same steps by the same plane counts (the rebalancer-trigger
  /// determinism argument).
  void maybeShiftWindow() {
    if (!Options.MovingWindow.Enabled)
      return;
    const Index Due = Index(std::floor(
        double(Options.MovingWindow.Speed) * double(Options.LightVelocity) *
        double(CurrentTime) / double(Grid.step().X)));
    const Index Planes = Due - Grid.window().OriginPlanes;
    if (Planes > 0)
      shiftWindow(Planes);
  }

  /// One window advance by \p Planes x-planes: slide the grid's ring
  /// window (O(Planes * plane), zeroing only the uncovered planes),
  /// retire the particles the trailing edge passed, inject fresh plasma
  /// into the uncovered leading-edge planes, re-base every logical-
  /// coordinate consumer (cell indexer, rebalancer histogram), and bump
  /// the partition epoch so a captured step graph recaptures exactly
  /// once per shift. Shard-stat windows restart so post-shift imbalance
  /// reflects the new plasma, not the retired history.
  void shiftWindow(Index Planes) {
    Grid.shiftWindow(Planes);
    WindowRetiredTotal += retireParticlesBelowX(Particles, Grid.origin().X);
    WindowInjectedTotal += injectLeadingEdge(Planes);
    Indexer = CellIndexer<Real>(Grid);
    if (Rebal)
      Rebal->refreshOrigin(Grid.origin());
    newPartitionEpoch();
  }

  /// Injects fresh plasma into the \p Planes leading-edge planes the
  /// window just uncovered (logical [Nx - Planes, Nx)), mirroring
  /// appendColdBeam's deterministic placement in *global* plane
  /// coordinates — base origin plus the global plane index — so an
  /// injected record is bit-identical to what a fixed big-domain run
  /// would have seeded at the same plane (gamma recomputed from the
  /// momentum exactly like addParticle; no wrap, the positions are
  /// inside the box by construction). \returns the number injected;
  /// aborts with a one-line error if the ensemble capacity lacks
  /// injection headroom (pushBack's guard is debug-only).
  Index injectLeadingEdge(Index Planes) {
    const MovingWindowOptions<Real> &W = Options.MovingWindow;
    if (W.InjectPerCell <= 0)
      return 0;
    const GridSize Sz = Grid.size();
    const Vector3<Real> O = Grid.baseOrigin();
    const Vector3<Real> D = Grid.step();
    const Real C = Options.LightVelocity;
    const Real Mass = Types[W.InjectType].Mass;
    const Index First = Planes >= Sz.Nx ? Index(0) : Sz.Nx - Planes;
    Index Injected = 0;
    for (Index L = First; L < Sz.Nx; ++L) {
      const Index Global = Grid.window().OriginPlanes + L;
      const int PerCell = W.InjectPerCell;
      const Index Emitted = W.InjectPairType >= 0 ? Index(2) : Index(1);
      const Index PlaneCount = Emitted * Index(PerCell) * Sz.Ny * Sz.Nz;
      if (Particles.size() + PlaneCount > Particles.capacity())
        fatalError("moving-window injection exceeds the particle capacity "
                   "(allocate leading-edge headroom)");
      for (Index J = 0; J < Sz.Ny; ++J)
        for (Index K = 0; K < Sz.Nz; ++K)
          for (int P = 0; P < PerCell; ++P) {
            ParticleT<Real> Part;
            Part.Position = {
                O.X + (Real(Global) + Real(P + 0.5) / Real(PerCell)) * D.X,
                O.Y + (Real(J) + Real(0.5)) * D.Y,
                O.Z + (Real(K) + Real(0.5)) * D.Z};
            Part.Momentum = {Real(0), Real(0), Real(0)};
            Part.Weight = W.InjectWeight;
            Part.Type = W.InjectType;
            Part.Gamma = lorentzGamma(Part.Momentum, Mass, C);
            Particles.pushBack(Part);
            ++Injected;
            if (W.InjectPairType >= 0) {
              Part.Type = W.InjectPairType;
              Part.Gamma = lorentzGamma(Part.Momentum,
                                        Types[W.InjectPairType].Mass, C);
              Particles.pushBack(Part);
              ++Injected;
            }
          }
    }
    return Injected;
  }

  /// The rebalance check (every RebalanceEveryNSteps steps when armed):
  /// measures the occupancy skew and, past the threshold, repartitions —
  /// cell-sort for slab locality (the one bit-visible effect: a
  /// permutation), occupancy-weighted deposit tiles, occupancy-weighted
  /// sharded push blocks, and a partition-epoch bump so graph mode
  /// recaptures exactly once per fire.
  void maybeRebalance() {
    if (!Rebal || Options.RebalanceEveryNSteps <= 0 ||
        Steps % Options.RebalanceEveryNSteps != 0)
      return;
    if (!Rebal->check(Particles))
      return;
    sortByCell(Particles, Indexer, SortBuffers);
    Accumulator->retile(
        Rebal->planeBoundaries(Index(Accumulator->tileCount())));
    PushFractions.clear();
    if (Backend->shardCount() > 0)
      PushFractions = Rebal->particleFractions(Index(Backend->shardCount()));
    newPartitionEpoch();
  }

  /// Bumps the partition epoch, so a captured step graph recaptures
  /// exactly once, and starts a fresh shardStats() window on every
  /// sharded stage backend, so the imbalance reported afterwards
  /// reflects the new split or plasma, not the history.
  void newPartitionEpoch() {
    ++PartitionEpoch;
    for (exec::ExecutionBackend *E :
         {Backend.get(), DepositExec.get(), FieldExec.get()})
      if (auto *Sharded = dynamic_cast<exec::ShardResources *>(E))
        Sharded->resetShardStats();
  }

public:
  /// Advances \p N steps.
  void run(int N) {
    for (int I = 0; I < N; ++I)
      step();
  }

  /// Writes the full simulation state (particles with exact gamma bits,
  /// all nine field lattices in raw physical order, the moving-window
  /// state, step index and simulation time) as a v3 checkpoint, so a
  /// restored run — including a mid-shift moving-window one — continues
  /// bit-identically to an uninterrupted one. \returns false with a
  /// reason in \p Error on I/O failure.
  bool saveState(const std::string &Path, std::string *Error = nullptr) const {
    CheckpointWindow Win;
    Win.OriginPlanes = std::int64_t(Grid.window().OriginPlanes);
    Win.PhysBase = std::int64_t(Grid.window().PhysBase);
    Win.ShiftCount = std::int64_t(Grid.window().ShiftCount);
    return saveSimulationCheckpoint(Particles, std::int64_t(Steps),
                                    double(CurrentTime), Win, fieldRefs(),
                                    Path, Error);
  }

  /// Restores a saveState() checkpoint: particles, fields, step index
  /// and simulation time. The grid shape and scalar width must match
  /// the run that saved it. Any captured step graph is discarded (the
  /// next step recaptures); the sort/rebalance schedules continue from
  /// the restored step index, so the resumed run fires them on the same
  /// steps the uninterrupted run would. \returns false with a reason in
  /// \p Error, leaving no partially-restored state visible to step().
  bool restoreState(const std::string &Path, std::string *Error = nullptr) {
    std::int64_t StepIndex = 0;
    double Time = 0;
    CheckpointWindow Win;
    std::vector<CheckpointFieldMut<Real>> Fields;
    Fields.reserve(9);
    for (ScalarLattice<Real> *L :
         {&Grid.Ex, &Grid.Ey, &Grid.Ez, &Grid.Bx, &Grid.By, &Grid.Bz,
          &Grid.Jx, &Grid.Jy, &Grid.Jz})
      Fields.push_back({L->raw().data(), Index(L->raw().size())});
    if (!loadSimulationCheckpoint(Particles, StepIndex, Time, Win, Fields,
                                  Path, Error))
      return false;
    Steps = int(StepIndex);
    CurrentTime = Real(Time);
    // Re-base the window onto the restored raw lattices (a v2 file's
    // zero window makes this the identity), then refresh every
    // logical-coordinate consumer just like shiftWindow does.
    GridWindow W(Grid.size().Nx);
    W.PhysBase = Index(Win.PhysBase);
    W.OriginPlanes = Index(Win.OriginPlanes);
    W.ShiftCount = Index(Win.ShiftCount);
    Grid.restoreWindow(W);
    Indexer = CellIndexer<Real>(Grid);
    if (Rebal)
      Rebal->refreshOrigin(Grid.origin());
    // The captured DAG baked in the pre-restore item counts and block
    // ranges; drop it so the next step() recaptures against the
    // restored ensemble.
    Graph.reset();
    GraphN = Index(-1);
    return true;
  }

  /// Deposits the instantaneous charge density into \p Rho (diagnostics /
  /// continuity tests).
  void depositCharge(ScalarLattice<Real> &Rho) const {
    Rho.fill(Real(0));
    auto View = Particles.view();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    for (Index I = 0, E = View.size(); I < E; ++I) {
      auto P = View[I];
      depositChargeCic(Rho, Grid, P.position(),
                       TypesPtr[P.type()].Charge * P.weight());
    }
  }

  /// Total particle kinetic energy [erg].
  double kineticEnergy() const {
    auto View = Particles.view();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    double Total = 0;
    for (Index I = 0, E = View.size(); I < E; ++I) {
      auto P = View[I];
      const Real C = Options.LightVelocity;
      Total += double(P.weight()) *
               double((P.gamma() - Real(1)) * TypesPtr[P.type()].Mass * C * C);
    }
    return Total;
  }

  /// Field energy [erg] (delegates to the grid).
  double fieldEnergy() const { return Grid.fieldEnergy(); }

  /// The execution backend running the push stage.
  const exec::ExecutionBackend &pushBackend() const { return *Backend; }

  /// The execution backend running the deposit stage.
  const exec::ExecutionBackend &depositBackend() const { return *DepositExec; }

  /// The execution backend running the field-solve stage.
  const exec::ExecutionBackend &fieldBackend() const { return *FieldExec; }

  /// Current tiles the deposit stage scatters into.
  int depositTileCount() const { return Accumulator->tileCount(); }

  /// Tiles of the field-solve stage (x-slabs for FDTD, schedulable
  /// k-space chunks per launch for the spectral solver).
  int fieldTileCount() const { return FieldTileCount; }

  /// Accumulated wall time of stage 1 (gather + push + wrap) across all
  /// classic steps so far.
  const RunStats &pushStats() const { return PushTiming; }

  /// Accumulated wall time of the deposit stage (binning + accumulate;
  /// submission only when an asynchronous field backend overlaps
  /// the tail) across all steps so far.
  const RunStats &depositStats() const { return DepositTiming; }

  /// Accumulated wall time of the field-solve stage across all steps so
  /// far (on asynchronous field backends it includes the overlapped
  /// deposit tail).
  const RunStats &fieldStats() const { return FieldTiming; }

  /// Per-launch ledger of stage 1 (one launch per step, or one per
  /// shard block on a sharded push backend after a fired rebalance).
  const RunStats &pushLaunchStats() const { return PushLaunchStats; }

  /// Per-launch ledger of the deposit chain (clear + bin + accumulate):
  /// launches and submit-overhead nanoseconds.
  const RunStats &depositLaunchStats() const { return DepositLaunchStats; }

  /// Per-launch ledger of the field-solve chain.
  const RunStats &fieldLaunchStats() const { return FieldLaunchStats; }

  /// Wall time of graph-mode steps (the capture step and every replay);
  /// zeros unless PicOptions::UseStepGraph.
  const RunStats &graphStats() const { return GraphTiming; }

  /// Wall nanoseconds of all steps so far, whichever way each ran: the
  /// classic steps' three stage walls plus the graph-mode step walls
  /// (the host epilogue aside). Comparable across step modes.
  double stepWallNs() const {
    return PushTiming.HostNs + DepositTiming.HostNs + FieldTiming.HostNs +
           GraphTiming.HostNs;
  }

  /// True when steps run through the captured step graph.
  bool usesStepGraph() const { return Options.UseStepGraph; }

  /// Times a step graph was captured (>1 means invalidations happened).
  long long graphCaptureCount() const { return GraphCaptures; }

  /// Steps replayed from the captured graph.
  long long graphReplayCount() const { return GraphReplays; }

  /// The captured step graph, or null before the first graph-mode step
  /// (diagnostics and tests).
  const exec::StepGraph *stepGraph() const { return Graph.get(); }

  /// Submit-overhead totals across every per-launch ledger the step
  /// touches (stage 1, the deposit chain with the J clear, and the field
  /// chain): launches submitted and wall nanoseconds inside submit()
  /// outside kernel bodies. Timing fields are left zero — this is the
  /// launch-bookkeeping view, not a wall clock.
  RunStats submitOverhead() const {
    RunStats Total;
    for (const RunStats *S :
         {&PushLaunchStats, &DepositLaunchStats, &FieldLaunchStats}) {
      Total.Launches += S->Launches;
      Total.SubmitNs += S->SubmitNs;
    }
    return Total;
  }

  /// Per-shard occupancy counters aggregated over *every* stage backend
  /// that is sharded (push, deposit and field solve own separate
  /// backend instances; shard i's counters sum element-wise across the
  /// sharded ones, sized to the largest shard count) — so the numbers
  /// describe the whole run, not just one stage. Empty when no stage
  /// runs on the sharded backend. Pair with exec::shardImbalance /
  /// exec::shardOccupancy for the derived diagnostics.
  std::vector<exec::ShardStat> shardStats() const {
    std::vector<exec::ShardStat> Total;
    for (const exec::ExecutionBackend *B :
         {Backend.get(), DepositExec.get(), FieldExec.get()}) {
      const auto *Sharded = dynamic_cast<const exec::ShardResources *>(B);
      if (!Sharded)
        continue;
      const std::vector<exec::ShardStat> Stage = Sharded->shardStats();
      if (Stage.size() > Total.size())
        Total.resize(Stage.size());
      for (std::size_t S = 0; S < Stage.size(); ++S) {
        Total[S].Launches += Stage[S].Launches;
        Total[S].Items += Stage[S].Items;
        Total[S].BusyNs += Stage[S].BusyNs;
      }
    }
    return Total;
  }

  /// Shards of the push backend (0 when it is not sharded).
  int shardCount() const { return Backend->shardCount(); }

  /// Rebalancer counters (all zeros when RebalanceThreshold <= 0).
  RebalanceStats rebalanceStats() const {
    return Rebal ? Rebal->stats() : RebalanceStats{};
  }

  /// Fired repartitions so far (the step-graph key includes this, so in
  /// graph mode captures == 1 + fired repartitions + size changes).
  long long partitionEpoch() const { return PartitionEpoch; }

  /// Particles removed by the open boundary so far (0 without one).
  long long absorbedParticleCount() const { return AbsorbedTotal; }

  /// Window shift events so far (0 for fixed-window runs).
  long long windowShiftCount() const {
    return (long long)(Grid.window().ShiftCount);
  }

  /// Total x-planes the window has advanced (origin() - baseOrigin()
  /// in plane units).
  Index windowOriginPlanes() const { return Grid.window().OriginPlanes; }

  /// Particles retired by the trailing edge so far.
  long long windowRetiredCount() const { return WindowRetiredTotal; }

  /// Particles injected at the leading edge so far.
  long long windowInjectedCount() const { return WindowInjectedTotal; }

  /// The open-boundary sponge, or nullptr when AbsorbingCells == 0.
  const AbsorbingLayer<Real> *absorbingLayer() const {
    return Absorber.get();
  }

  /// Current plane boundaries of the deposit tiles (the rebalance tests
  /// verify a fired repartition actually moved them).
  std::vector<Index> depositTileBoundaries() const {
    return Accumulator->tileBoundaries();
  }

private:
  using ViewT = decltype(std::declval<Array &>().view());

  /// Stage 1, one pass per particle: stashes the old position, gathers
  /// the fields there, pushes, stores the unwrapped endpoint and wraps it
  /// into the box, in blocks of SIMD lanes (pushParticlesInLanes,
  /// LaneKernels.h). Particles are independent, so any partition of the
  /// items is bit-identical. A named body (not a step()-local lambda) so
  /// it can live in the reusable kernel cache across steps and a captured
  /// graph can keep pointing at it; the grid's live window is read at
  /// run time. Item I is particle Offset + I.
  struct FusedPushBody {
    ViewT View;
    const YeeGrid<Real> *Grid;
    Vector3<Real> *OldPos;
    Vector3<Real> *NewPos;
    const ParticleTypeInfo<Real> *Types;
    Index Offset;
    Real Dt, C;

    void operator()(Index Begin, Index End, int, int) const {
      pushParticlesInLanes(View, Offset + Begin, Offset + End, *Grid, Types,
                           Dt, C, OldPos, NewPos);
    }
  };

  /// The J clear as a launch over the Nx x-planes, so backends split it
  /// like any launch; a node ordered before the deposit chain, not a host
  /// call, so replay needs no host ordering.
  struct ClearCurrentBody {
    YeeGrid<Real> *Grid;

    void operator()(Index Begin, Index End, int, int) const {
      Grid->clearCurrent(Begin, End);
    }
  };

  /// Submits stage 1 through \p Exec: one launch of \p Body over all
  /// \p N particles, which a sharded push backend splits into one slab
  /// block per lane like any plain launch. After a fired rebalance the
  /// even split gives way to the occupancy-weighted one: PushFractions
  /// (cumulative occupancy at the weighted plane boundaries) rescaled by
  /// the current N, one launch per shard block, offset to the block's
  /// particles and routed to its lane by affinity. Particles are
  /// independent, so either split changes balance, never bits
  /// (tests/pic/ShardEquivalenceTest.cpp, RebalanceEquivalenceTest.cpp).
  /// \returns the launches' events.
  std::vector<exec::ExecEvent> submitStage1(exec::ExecutionBackend &Exec,
                                            FusedPushBody Body, Index N,
                                            const exec::ExecutionContext &Ctx) {
    const Index Shards = Index(Backend->shardCount());
    const Index Blocks = Index(PushFractions.size()) - 1;
    if (Shards == 0 || N == 0 || Blocks != exec::clampSlabCount(N, Shards))
      return {exec::submitCachedLaunch(Exec, Ctx, PushLaunchStats, N,
                                       /*GrainHint=*/0, Body, {}, StageCache)};

    std::vector<exec::ExecEvent> Events;
    for (Index S = 0; S < Blocks; ++S) {
      const Index Begin = Index(PushFractions[std::size_t(S)] * double(N));
      const Index End =
          S + 1 == Blocks
              ? N
              : Index(PushFractions[std::size_t(S) + 1] * double(N));
      if (End <= Begin)
        continue; // a weighted block may own no particles
      Body.Offset = Begin;
      Events.push_back(exec::submitCachedLaunch(
          Exec, Ctx, PushLaunchStats, End - Begin, /*GrainHint=*/0, Body, {},
          StageCache, int(S)));
    }
    return Events;
  }

  /// The nine field lattices in checkpoint order (Ex..Bz, Jx..Jz) —
  /// saveState and restoreState must agree on this order.
  std::vector<CheckpointFieldRef<Real>> fieldRefs() const {
    std::vector<CheckpointFieldRef<Real>> Fields;
    Fields.reserve(9);
    for (const ScalarLattice<Real> *L :
         {&Grid.Ex, &Grid.Ey, &Grid.Ez, &Grid.Bx, &Grid.By, &Grid.Bz,
          &Grid.Jx, &Grid.Jy, &Grid.Jz})
      Fields.push_back({L->raw().data(), Index(L->raw().size())});
    return Fields;
  }

  /// The tile-count heuristic shared by the deposit and field stages:
  /// the explicit option, or 1 for the serial backend (the classic
  /// whole-grid pass, zero tiling overhead), two tiles per shard for
  /// sharded backends (the shard count is the real parallel width), else
  /// two tiles per worker so dynamic backends can balance uneven work
  /// (the tile partitions additionally clamp to the grid's Nx).
  static int resolveStageTiles(int ExplicitTiles,
                               const exec::ExecutionBackend &Exec,
                               int Threads) {
    if (ExplicitTiles > 0)
      return ExplicitTiles;
    if (std::string(Exec.name()) == "serial")
      return 1;
    if (Exec.shardCount() > 0)
      return 2 * Exec.shardCount();
    const int Workers =
        Threads > 0 ? Threads : int(std::thread::hardware_concurrency());
    return 2 * std::max(1, Workers);
  }

  YeeGrid<Real> Grid;
  Array Particles;
  ParticleTypeTable<Real> Types;
  FdtdSolver<Real> Solver;
  std::unique_ptr<SpectralSolver<Real>> Spectral;
  CellIndexer<Real> Indexer;
  SortScratch<Real> SortBuffers; ///< reused by every periodic sort
  PicOptions<Real> Options;
  std::unique_ptr<exec::ExecutionBackend> Backend;
  std::unique_ptr<exec::ExecutionBackend> DepositExec;
  std::unique_ptr<exec::ExecutionBackend> FieldExec;
  std::unique_ptr<TiledCurrentAccumulator<Real>> Accumulator;
  std::unique_ptr<FdtdSlabPartition<Real>> FieldPartition; ///< FDTD only
  std::unique_ptr<minisycl::queue> Queue;
  std::vector<Vector3<Real>, AlignedAllocator<Vector3<Real>>> OldPositions;
  std::vector<Vector3<Real>, AlignedAllocator<Vector3<Real>>> NewPositions;
  RunStats PushTiming;
  RunStats DepositTiming;
  RunStats FieldTiming;
  RunStats PushLaunchStats;     ///< stage-1 launch ledger
  RunStats DepositLaunchStats;  ///< deposit-chain launch ledger
  RunStats FieldLaunchStats;    ///< field-chain launch ledger
  RunStats GraphTiming;         ///< graph-mode step wall (capture+replay)
  exec::ParamBlock StepParams; ///< per-step rebinding surface
  exec::KernelCache StageCache; ///< clear and stage-1 bodies
  exec::KernelCache ChainCache; ///< deposit + field chain bodies
  std::unique_ptr<exec::StepGraph> Graph;
  Index GraphN = Index(-1); ///< ensemble size the graph was captured at
  long long GraphCaptures = 0;
  long long GraphReplays = 0;
  std::unique_ptr<Rebalancer<Real>> Rebal; ///< armed by RebalanceThreshold
  std::unique_ptr<AbsorbingLayer<Real>> Absorber; ///< armed by AbsorbingCells
  /// Cumulative occupancy fractions at the weighted push-block
  /// boundaries after a fired rebalance; empty = even split.
  std::vector<double> PushFractions;
  long long PartitionEpoch = 0; ///< bumped by every fired repartition
  long long GraphEpoch = -1;    ///< PartitionEpoch the graph captured at
  long long AbsorbedTotal = 0;  ///< particles removed by the open boundary
  long long WindowRetiredTotal = 0;  ///< retired by the trailing edge
  long long WindowInjectedTotal = 0; ///< injected at the leading edge
  int FieldTileCount = 1;
  Real CurrentTime = Real(0);
  int Steps = 0;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_PICSIMULATION_H
