//===-- pic/TiledCurrentAccumulator.h - Parallel current scatter -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backend-parallel current deposition. The Esirkepov/direct scatter is a
/// cross-particle read-modify-write into the Yee grid's J lattices, so it
/// cannot be parallelized over particles the way the push stage is — two
/// particles in neighbouring cells write the same nodes. Instead the
/// grid's x-planes are partitioned into disjoint *tiles* (x-slabs,
/// following the sorter's x-major cell order, so a cell-sorted ensemble
/// yields nearly contiguous per-tile particle lists), and one PIC-step
/// deposition becomes two phases:
///
///   1. bin (one backend launch, items = BinChunks fixed particle
///      chunks): each particle's scheme footprint (stencil plus the
///      CIC/Esirkepov staggering halo, see the footprint helpers in
///      CurrentDeposition.h) decides which tiles it can write; chunk c
///      appends its particles' indices to its own per-tile sublists, so
///      a tile's sublists walked in chunk order list its particles in
///      ascending order;
///   2. accumulate (one backend launch, items = tiles, GrainHint = 1; a
///      sharded backend gives each lane one contiguous tile group): each tile
///      replays its particles in that order through an OwnedPlanesSink,
///      adding straight into the grid planes it owns — which the step's
///      J-clear node has already zeroed. The Esirkepov contributions are
///      computed one register of particles at a time in SIMD lanes
///      (LaneKernels.h) and added one particle at a time, in the scalar
///      scatter's order.
///
/// Determinism argument (docs/ARCHITECTURE.md spells it out in full):
/// every J node is owned by exactly one tile, so it receives exactly the
/// adds the serial particle-order scatter gives it, in the same order,
/// onto the same cleared +0.0. Results are therefore bit-identical to the
/// serial scatter for every registered backend, thread count and tile
/// count (enforced by tests/pic/TiledDepositionTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_TILEDCURRENTACCUMULATOR_H
#define HICHI_PIC_TILEDCURRENTACCUMULATOR_H

#include "core/ParticleTypes.h"
#include "exec/ExecutionBackend.h"
#include "exec/SlabPartition.h"
#include "pic/CurrentDeposition.h"
#include "pic/LaneKernels.h"
#include "pic/YeeGrid.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace hichi {
namespace pic {

/// The production current sink: adds straight into the grid's J lattices,
/// restricted to the logical x-planes [PlaneBegin, PlaneEnd) one tile
/// owns (the whole grid for the one-tile path). setStencilBase resolves
/// a particle's 3-node-per-axis stencil once — the wrapped y/z offsets,
/// the ring-mapped physical offset of each x-plane and that plane's
/// ownership — so every write is a table lookup and one add. Writes keep
/// the kernel's own order, so each owned node sees the very sequence of
/// adds GridCurrentSink gives it, aliased stencil nodes of tiny grids
/// included.
template <typename Real> class OwnedPlanesSink {
public:
  OwnedPlanesSink(YeeGrid<Real> &Grid, Index PlaneBegin, Index PlaneEnd)
      : Jx(Grid.Jx.raw().data()), Jy(Grid.Jy.raw().data()),
        Jz(Grid.Jz.raw().data()), PlaneBegin(PlaneBegin), PlaneEnd(PlaneEnd),
        XBase(Grid.Jx.xBase()), Size(Grid.size()) {}

  void setStencilBase(Index X, Index Y, Index Z) {
    BX = X;
    BY = Y;
    BZ = Z;
    for (int D = 0; D < 3; ++D) {
      const Index Plane = wrapNear(X + D, Size.Nx);
      Owned[D] = Plane >= PlaneBegin && Plane < PlaneEnd;
      XOff[D] = wrapNear(Plane + XBase, Size.Nx) * Size.Ny * Size.Nz;
      YOff[D] = wrapNear(Y + D, Size.Ny) * Size.Nz;
      ZOff[D] = wrapNear(Z + D, Size.Nz);
    }
  }

  void addJx(Index I, Index J, Index K, Real V) { add(Jx, I, J, K, V); }
  void addJy(Index I, Index J, Index K, Real V) { add(Jy, I, J, K, V); }
  void addJz(Index I, Index J, Index K, Real V) { add(Jz, I, J, K, V); }

private:
  void add(Real *Lattice, Index I, Index J, Index K, Real V) {
    if (Owned[I - BX])
      Lattice[XOff[I - BX] + YOff[J - BY] + ZOff[K - BZ]] += V;
  }

  Real *Jx, *Jy, *Jz;
  Index PlaneBegin, PlaneEnd, XBase;
  GridSize Size;
  Index BX = 0, BY = 0, BZ = 0;
  bool Owned[3] = {};
  Index XOff[3] = {}, YOff[3] = {}, ZOff[3] = {};
};

/// Runs the per-step current deposition over an exec::ExecutionBackend,
/// bit-identical to the serial particle-order scatter (see the file
/// comment for the two-phase scheme and the determinism argument).
/// One accumulator instance is meant to live as long as its simulation:
/// the bin sublists are reused across steps.
template <typename Real> class TiledCurrentAccumulator {
public:
  /// Particle chunks of the bin launch. Fixed, so a captured step graph
  /// keeps one bin node shape whatever the backend's width.
  static constexpr Index BinChunks = 16;

  /// Partitions the \p Size.Nx x-planes into \p RequestedTiles slabs
  /// via the shared slab helper (exec/SlabPartition.h — the identical
  /// clamp and even split the FDTD partition and the sharded backend
  /// use, degenerate requests included). One tile means the serial
  /// particle-order scatter with no binning at all.
  TiledCurrentAccumulator(GridSize Size, Vector3<Real> Origin,
                          Vector3<Real> Step, int RequestedTiles)
      : Size(Size), Origin(Origin), Step(Step),
        Chunks(std::size_t(BinChunks)) {
    const Index NumTiles =
        exec::clampSlabCount(Size.Nx, Index(RequestedTiles));
    std::vector<Index> Even(std::size_t(NumTiles) + 1, Size.Nx);
    for (Index T = 0; T < NumTiles; ++T)
      Even[std::size_t(T)] = exec::slabRange(Size.Nx, NumTiles, T).Begin;
    Bounds.resize(Even.size());
    retile(Even);
  }

  int tileCount() const { return int(Bounds.size()) - 1; }

  /// \returns the current tileCount()+1 plane boundaries (tile T owns
  /// planes [B[T], B[T+1])) — what the rebalance tests inspect.
  std::vector<Index> tileBoundaries() const { return Bounds; }

  /// Moves the tile plane boundaries to \p Boundaries (tileCount()+1
  /// ascending planes, front 0 and back Nx — e.g. from
  /// exec::weightedSlabBoundaries over a measured occupancy histogram).
  /// The tile *count* is fixed at construction; only the ranges move.
  /// Deposition stays bit-identical to the serial scatter for ANY
  /// boundaries — every J node keeps exactly one owner — so a retile
  /// changes performance, never bits. Callers in step-graph mode must
  /// still recapture: not for the deposit (the kernels read the tile
  /// table live), but because the companion push re-split bakes its
  /// block ranges into the graph.
  void retile(const std::vector<Index> &Boundaries) {
    assert(Boundaries.size() == Bounds.size() &&
           "boundary count must match the fixed tile count");
    assert(Boundaries.front() == 0 && Boundaries.back() == Size.Nx &&
           "boundaries must tile [0, Nx)");
    Bounds = Boundaries;
    std::vector<int> OwnerOfPlane(std::size_t(Size.Nx));
    for (int T = 0; T < tileCount(); ++T)
      for (Index P = Bounds[std::size_t(T)]; P < Bounds[std::size_t(T) + 1];
           ++P)
        OwnerOfPlane[std::size_t(P)] = T;
    // Footprints are 2 or 3 consecutive planes from their (wrapped) first
    // plane L; entry 2L + (planes - 2) lists their distinct owners.
    FootprintOwners.assign(2 * std::size_t(Size.Nx), Owners{});
    for (Index L = 0; L < Size.Nx; ++L)
      for (Index Extra = 0; Extra < 2; ++Extra) {
        Owners &O = FootprintOwners[std::size_t(2 * L + Extra)];
        for (Index XI = L; XI <= L + 1 + Extra; ++XI) {
          const int T = OwnerOfPlane[std::size_t(wrapNear(XI, Size.Nx))];
          if (std::find(O.Tile, O.Tile + O.Count, T) == O.Tile + O.Count)
            O.Tile[O.Count++] = T;
        }
      }
  }

  /// Deposits the currents of every particle of \p View moving from
  /// \p OldPos[i] to \p NewPos[i] (both *unwrapped*) into \p Grid's J
  /// lattices, Esirkepov when \p ChargeConserving else direct CIC,
  /// through \p Backend; \p Stats accumulates the launches' kernel
  /// time, and the grid's J lattices must have been cleared this step.
  /// Submits the bin and accumulate phases as non-blocking launches, the
  /// second depending on the first, and \returns the event after which J
  /// is complete — the handle the backend-parallel field solve chains its
  /// E advance on. \p After gates the first phase, which reads particle
  /// endpoints and (with one tile) writes the grid: the PIC step passes
  /// its wrap and clear-current events. Binning is a launch so a captured
  /// step graph rebins the moved particles on every replay. Kernel bodies
  /// are parked in \p Cache; wait the returned event (and only then read
  /// \p Stats or reuse \p Cache) before touching the J lattices. On
  /// synchronous backends everything executes inline and the returned
  /// event is already complete.
  template <typename ParticleView>
  exec::ExecEvent
  submitDeposit(YeeGrid<Real> &Grid, const ParticleView &View,
                const Vector3<Real> *OldPos, const Vector3<Real> *NewPos,
                const ParticleTypeInfo<Real> *Types, Real Dt,
                bool ChargeConserving, exec::ExecutionBackend &Backend,
                const exec::ExecutionContext &Ctx, RunStats &Stats,
                exec::KernelCache &Cache,
                const std::vector<exec::ExecEvent> &After = {}) {
    const Index N = View.size();
    // Re-read the (possibly window-shifted) origin: binning and the
    // scatter kernels work in logical coordinates relative to the live
    // window. A shift bumps the partition epoch, so a captured step
    // graph recaptures through here before any post-shift replay — the
    // by-value captures below can never go stale.
    Origin = Grid.origin();
    const Vector3<Real> D = Step, O = Origin;
    YeeGrid<Real> *GridPtr = &Grid;
    TiledCurrentAccumulator *Self = this;

    if (tileCount() == 1) {
      // One tile owns the whole grid: the serial particle-order scatter
      // as a single launch item (nothing to bin).
      const Index Nx = Size.Nx;
      auto Block = [=](Index, Index, int, int) {
        OwnedPlanesSink<Real> Sink(*GridPtr, 0, Nx);
        scatterParticles(Sink, View, OldPos, NewPos, Types, D, O, Dt,
                         ChargeConserving, N, [](Index I) { return I; });
      };
      return exec::submitCachedLaunch(Backend, Ctx, Stats, 1, /*GrainHint=*/1,
                                      std::move(Block), After, Cache);
    }

    // Phase 1 — binning over the fixed particle chunks, gated on \p After.
    auto BinBlock = [=](Index Begin, Index End, int, int) {
      for (Index C = Begin; C < End; ++C)
        Self->binChunk(C, OldPos, NewPos, ChargeConserving, N);
    };
    const std::vector<exec::ExecEvent> Binned = {exec::submitCachedLaunch(
        Backend, Ctx, Stats, BinChunks, /*GrainHint=*/1, std::move(BinBlock),
        After, Cache)};

    // Phase 2 — each tile adds its particles, in ascending order, into
    // the grid planes it owns. Owned plane ranges are disjoint, so any
    // backend may run tiles in any order concurrently (a sharded backend
    // splits the tiles into one contiguous group per lane).
    auto Accumulate = [=](Index Begin, Index End, int, int) {
      for (Index T = Begin; T < End; ++T) {
        OwnedPlanesSink<Real> Sink(*GridPtr, Self->Bounds[std::size_t(T)],
                                   Self->Bounds[std::size_t(T) + 1]);
        for (const ChunkBins &Bins : Self->Chunks) {
          const Index *List =
              Bins.Particles.data() + Bins.Start[std::size_t(T)];
          scatterParticles(Sink, View, OldPos, NewPos, Types, D, O, Dt,
                           ChargeConserving,
                           Bins.Start[std::size_t(T) + 1] -
                               Bins.Start[std::size_t(T)],
                           [List](Index E) { return List[E]; });
        }
      }
    };

    return exec::submitCachedLaunch(Backend, Ctx, Stats, Index(tileCount()),
                                    /*GrainHint=*/1, std::move(Accumulate),
                                    Binned, Cache);
  }

private:
  /// One bin chunk's per-tile sublists, in CSR form: tile T's particles
  /// are Particles[Start[T], Start[T+1]), ascending.
  struct ChunkBins {
    std::vector<Index> Start;     ///< tileCount()+1 offsets
    std::vector<Index> Cursor;    ///< per-tile fill position
    std::vector<Index> Particles; ///< sized to the largest step seen
  };

  /// The distinct tiles owning one footprint's planes.
  struct Owners {
    int Count = 0;
    int Tile[3] = {};
  };

  /// The scatter of particles ParticleAt(0..Count), in that order,
  /// through \p Sink: Esirkepov in blocks of SIMD lanes
  /// (scatterEsirkepovInLanes), the direct scheme per particle.
  template <typename Sink, typename ParticleView, typename IndexFn>
  static void scatterParticles(Sink &S, const ParticleView &View,
                               const Vector3<Real> *OldPos,
                               const Vector3<Real> *NewPos,
                               const ParticleTypeInfo<Real> *Types,
                               const Vector3<Real> &D, const Vector3<Real> &O,
                               Real Dt, bool ChargeConserving, Index Count,
                               IndexFn &&ParticleAt) {
    if (ChargeConserving) {
      scatterEsirkepovInLanes(S, View, OldPos, NewPos, Types,
                              DepositGeometry<Real>{O, D, Dt}, Count,
                              ParticleAt);
      return;
    }
    for (Index E = 0; E < Count; ++E) {
      const Index I = ParticleAt(E);
      const auto P = View[I];
      const Vector3<Real> V = (NewPos[I] - OldPos[I]) / Dt;
      scatterCurrentDirect(S, D, O, (OldPos[I] + NewPos[I]) * Real(0.5), V,
                           Types[P.type()].Charge * P.weight());
    }
  }

  /// Calls \p Visit(I, T) for each particle I in [Begin, End), ascending,
  /// and each distinct tile T its scheme footprint can write (2 or 3
  /// x-nodes, hence at most 3 owners).
  template <typename VisitFn>
  void forEachOwner(Index Begin, Index End, const Vector3<Real> *OldPos,
                    const Vector3<Real> *NewPos, bool ChargeConserving,
                    VisitFn &&Visit) const {
    // The node-relative coordinates must be computed exactly as the
    // scatter kernels compute them (true division, same operand order):
    // an ulp of drift at a plane boundary would bin a particle away from
    // a tile its scatter actually writes.
    for (Index I = Begin; I < End; ++I) {
      Index Lo, Hi;
      if (ChargeConserving) {
        esirkepovFootprintX((OldPos[I].X - Origin.X) / Step.X,
                            (NewPos[I].X - Origin.X) / Step.X, Lo, Hi);
      } else {
        const Real MidRel =
            ((OldPos[I].X + NewPos[I].X) * Real(0.5) - Origin.X) / Step.X;
        directFootprintX(MidRel, Lo, Hi);
      }
      const Owners &O = FootprintOwners[std::size_t(
          2 * wrapNear(Lo, Size.Nx) + (Hi - Lo - 1))];
      for (int W = 0; W < O.Count; ++W)
        Visit(I, O.Tile[W]);
    }
  }

  /// Phase 1 for chunk \p C, i.e. particles [N*C/BinChunks,
  /// N*(C+1)/BinChunks): counts each tile's entries first, so the
  /// sublists are sized exactly (no growth overshoot), then fills them.
  void binChunk(Index C, const Vector3<Real> *OldPos,
                const Vector3<Real> *NewPos, bool ChargeConserving, Index N) {
    ChunkBins &Bins = Chunks[std::size_t(C)];
    const Index Begin = N * C / BinChunks, End = N * (C + 1) / BinChunks;
    const std::size_t NumTiles = std::size_t(tileCount());
    Bins.Start.assign(NumTiles + 1, 0);
    forEachOwner(Begin, End, OldPos, NewPos, ChargeConserving,
                 [&](Index, int T) { ++Bins.Start[std::size_t(T) + 1]; });
    for (std::size_t T = 0; T < NumTiles; ++T)
      Bins.Start[T + 1] += Bins.Start[T];
    if (std::size_t(Bins.Start[NumTiles]) > Bins.Particles.size())
      Bins.Particles = std::vector<Index>(std::size_t(Bins.Start[NumTiles]));
    Bins.Cursor.assign(Bins.Start.begin(), Bins.Start.end() - 1);
    forEachOwner(Begin, End, OldPos, NewPos, ChargeConserving,
                 [&](Index I, int T) {
                   Bins.Particles[std::size_t(Bins.Cursor[std::size_t(T)]++)] =
                       I;
                 });
  }

  GridSize Size;
  Vector3<Real> Origin; ///< live window origin, re-read every submitDeposit
  Vector3<Real> Step;
  std::vector<Index> Bounds;     ///< tileCount()+1 tile plane boundaries
  std::vector<Owners> FootprintOwners; ///< see retile()
  std::vector<ChunkBins> Chunks; ///< BinChunks bin chunks, in particle order
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_TILEDCURRENTACCUMULATOR_H
