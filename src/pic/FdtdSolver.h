//===-- pic/FdtdSolver.h - FDTD Maxwell solver ------------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FDTD solver for Maxwell's equations in Gaussian units (the paper's
/// eq. 1-2):
///
///   dE/dt =  c curl B - 4 pi J
///   dB/dt = -c curl E
///
/// on the staggered Yee grid with periodic boundaries, leapfrogged as
/// B(half) -> E(full) -> B(half) so E and B are synchronous at step
/// boundaries. Stability requires the 3-D Courant condition
/// c dt <= 1 / sqrt(1/dx^2 + 1/dy^2 + 1/dz^2), asserted by the driver.
///
/// **Backend-parallel form.** Each curl update is grid-local with a
/// one-plane stencil reach in x: advancing B at plane i reads E at planes
/// {i, i+1}, advancing E at plane i reads B at planes {i-1, i}. The grid
/// is therefore partitioned into disjoint x-slab *tiles*
/// (FdtdSlabPartition, the deposition's decomposition reused), and each
/// advance runs as one backend launch whose items are tiles. A tile
/// first performs its *halo exchange* — it copies the one neighbour
/// plane per face its stencil reaches (Ey/Ez at the +x face for the B
/// advance, By/Bz at the -x face for the E advance) into private halo
/// buffers — and then sweeps its owned planes reading only tile-local
/// data. (In shared memory the copies are optional — direct wrapped
/// neighbour reads would be race-free and bit-identical, since no
/// launch writes the lattices it reads; the exchange keeps the sweep
/// tile-local, the pattern that ports unchanged to distributed-memory
/// slabs.) The B→E→B half-steps are ordered by LaunchSpec::DependsOn, so
/// asynchronous backends chain the whole solve without host barriers
/// (submitStep), and the E launch can additionally wait on the deposit's
/// JReady event (it is the only launch that reads J).
///
/// Determinism: every E/B node is *written* by exactly one tile with the
/// serial solver's exact expression, the halo copies preserve bits, and
/// all reads are of lattices no launch in flight writes — so the result
/// is bit-identical to the serial advanceB/advanceE for every backend,
/// worker count and tile count (tests/pic/FdtdSolverTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_FDTDSOLVER_H
#define HICHI_PIC_FDTDSOLVER_H

#include "exec/ExecutionBackend.h"
#include "exec/SlabPartition.h"
#include "pic/YeeGrid.h"
#include "support/Constants.h"

#include <memory>
#include <vector>

namespace hichi {
namespace pic {

/// Disjoint x-slab decomposition of a grid for the backend-parallel
/// FDTD advance, plus the per-tile halo-plane buffers. One partition is
/// meant to live as long as its simulation (buffers are reused across
/// steps); the split matches TiledCurrentAccumulator's for the same
/// requested count.
template <typename Real> class FdtdSlabPartition {
public:
  struct Slab {
    Index PlaneBegin = 0; ///< first owned x-plane
    Index PlaneEnd = 0;   ///< one past the last owned x-plane
    /// Halo planes (Ny*Nz each): the +x-face E planes the B advance
    /// reads, and the -x-face B planes the E advance reads.
    std::vector<Real> HaloEy, HaloEz, HaloBy, HaloBz;
  };

  /// Partitions the \p Size.Nx x-planes into \p RequestedTiles slabs
  /// via the shared slab helper (exec/SlabPartition.h) — clamped to
  /// [1, Nx] with every degenerate request (zero, negative, > Nx,
  /// Nx == 1) collapsing exactly as the deposition's tiles do, so the
  /// two stages can never drift apart.
  FdtdSlabPartition(GridSize Size, int RequestedTiles) : Size(Size) {
    const Index NumTiles =
        exec::clampSlabCount(Size.Nx, Index(RequestedTiles));
    const std::size_t PlaneElems =
        std::size_t(Size.Ny) * std::size_t(Size.Nz);
    Slabs.resize(std::size_t(NumTiles));
    for (Index T = 0; T < NumTiles; ++T) {
      Slab &S = Slabs[std::size_t(T)];
      const exec::SlabRange R = exec::slabRange(Size.Nx, NumTiles, T);
      S.PlaneBegin = R.Begin;
      S.PlaneEnd = R.End;
      S.HaloEy.assign(PlaneElems, Real(0));
      S.HaloEz.assign(PlaneElems, Real(0));
      S.HaloBy.assign(PlaneElems, Real(0));
      S.HaloBz.assign(PlaneElems, Real(0));
    }
  }

  int tileCount() const { return int(Slabs.size()); }
  GridSize gridSize() const { return Size; }
  Slab &tile(Index T) { return Slabs[std::size_t(T)]; }

private:
  GridSize Size;
  std::vector<Slab> Slabs;
};

/// FDTD update kernels over a YeeGrid.
template <typename Real> class FdtdSolver {
public:
  explicit FdtdSolver(Real LightVelocity = Real(constants::LightVelocity))
      : C(LightVelocity) {}

  Real lightVelocity() const { return C; }

  /// Largest stable time step for \p Grid (Courant limit).
  Real courantLimit(const YeeGrid<Real> &Grid) const {
    const Vector3<Real> D = Grid.step();
    const Real Inv2 = Real(1) / (D.X * D.X) + Real(1) / (D.Y * D.Y) +
                      Real(1) / (D.Z * D.Z);
    return Real(1) / (C * std::sqrt(Inv2));
  }

  /// Advances B by \p Dt: B -= c dt curl E, with curls evaluated at the
  /// staggered B points. The serial reference the tiled launches are
  /// tested bit-identical against.
  void advanceB(YeeGrid<Real> &Grid, Real Dt) const {
    const GridSize N = Grid.size();
    const Vector3<Real> D = Grid.step();
    const Real Cx = C * Dt / D.X, Cy = C * Dt / D.Y, Cz = C * Dt / D.Z;
    for (Index I = 0; I < N.Nx; ++I)
      for (Index J = 0; J < N.Ny; ++J)
        for (Index K = 0; K < N.Nz; ++K) {
          // (curl E)_x at Bx point (i, j+1/2, k+1/2):
          //   dEz/dy - dEy/dz
          Grid.Bx(I, J, K) -=
              Cy * (Grid.Ez(I, J + 1, K) - Grid.Ez(I, J, K)) -
              Cz * (Grid.Ey(I, J, K + 1) - Grid.Ey(I, J, K));
          // (curl E)_y at By point (i+1/2, j, k+1/2): dEx/dz - dEz/dx
          Grid.By(I, J, K) -=
              Cz * (Grid.Ex(I, J, K + 1) - Grid.Ex(I, J, K)) -
              Cx * (Grid.Ez(I + 1, J, K) - Grid.Ez(I, J, K));
          // (curl E)_z at Bz point (i+1/2, j+1/2, k): dEy/dx - dEx/dy
          Grid.Bz(I, J, K) -=
              Cx * (Grid.Ey(I + 1, J, K) - Grid.Ey(I, J, K)) -
              Cy * (Grid.Ex(I, J + 1, K) - Grid.Ex(I, J, K));
        }
  }

  /// Advances E by \p Dt: E += c dt curl B - 4 pi dt J.
  void advanceE(YeeGrid<Real> &Grid, Real Dt) const {
    const GridSize N = Grid.size();
    const Vector3<Real> D = Grid.step();
    const Real Cx = C * Dt / D.X, Cy = C * Dt / D.Y, Cz = C * Dt / D.Z;
    const Real JFactor = Real(4) * Real(constants::Pi) * Dt;
    for (Index I = 0; I < N.Nx; ++I)
      for (Index J = 0; J < N.Ny; ++J)
        for (Index K = 0; K < N.Nz; ++K) {
          // (curl B)_x at Ex point (i+1/2, j, k): dBz/dy - dBy/dz with
          // backward differences (B sits half a cell up from E).
          Grid.Ex(I, J, K) +=
              Cy * (Grid.Bz(I, J, K) - Grid.Bz(I, J - 1, K)) -
              Cz * (Grid.By(I, J, K) - Grid.By(I, J, K - 1)) -
              JFactor * Grid.Jx(I, J, K);
          Grid.Ey(I, J, K) +=
              Cz * (Grid.Bx(I, J, K) - Grid.Bx(I, J, K - 1)) -
              Cx * (Grid.Bz(I, J, K) - Grid.Bz(I - 1, J, K)) -
              JFactor * Grid.Jy(I, J, K);
          Grid.Ez(I, J, K) +=
              Cx * (Grid.By(I, J, K) - Grid.By(I - 1, J, K)) -
              Cy * (Grid.Bx(I, J, K) - Grid.Bx(I, J - 1, K)) -
              JFactor * Grid.Jz(I, J, K);
        }
  }

  /// One full step with synchronous E/B at entry and exit:
  /// B half, E full, B half.
  void step(YeeGrid<Real> &Grid, Real Dt) const {
    advanceB(Grid, Dt / Real(2));
    advanceE(Grid, Dt);
    advanceB(Grid, Dt / Real(2));
  }

  //===--------------------------------------------------------------------===//
  // Backend-parallel form: x-slab tile launches with halo exchange
  //===--------------------------------------------------------------------===//

  /// Submits the B advance as one launch over \p Partition's tiles
  /// (items = tiles, GrainHint = 1). Each tile captures its +x-face
  /// Ey/Ez halo planes, then sweeps its owned planes. \returns the
  /// launch's event; kernel bodies are parked in \p Keep until the
  /// caller's final wait.
  template <typename KeepT>
  exec::ExecEvent submitAdvanceB(YeeGrid<Real> &Grid, Real Dt,
                                 FdtdSlabPartition<Real> &Partition,
                                 exec::ExecutionBackend &Backend,
                                 const exec::ExecutionContext &Ctx,
                                 RunStats &Stats,
                                 const std::vector<exec::ExecEvent> &DependsOn,
                                 KeepT &Keep) const {
    YeeGrid<Real> *G = &Grid;
    FdtdSlabPartition<Real> *Part = &Partition;
    const Real LightC = C;
    auto Block = [=](Index Begin, Index End, int, int) {
      for (Index T = Begin; T < End; ++T)
        advanceBSlab(*G, Dt, LightC, Part->tile(T));
    };
    return submitOverTiles(Backend, Ctx, Stats, Index(Partition.tileCount()),
                           std::move(Block), DependsOn, Keep);
  }

  /// Submits the E advance as one launch over \p Partition's tiles.
  /// Each tile captures its -x-face By/Bz halo planes, then sweeps. The
  /// only field-solve launch that reads J — its dependency list is where
  /// the deposit's JReady event goes.
  template <typename KeepT>
  exec::ExecEvent submitAdvanceE(YeeGrid<Real> &Grid, Real Dt,
                                 FdtdSlabPartition<Real> &Partition,
                                 exec::ExecutionBackend &Backend,
                                 const exec::ExecutionContext &Ctx,
                                 RunStats &Stats,
                                 const std::vector<exec::ExecEvent> &DependsOn,
                                 KeepT &Keep) const {
    YeeGrid<Real> *G = &Grid;
    FdtdSlabPartition<Real> *Part = &Partition;
    const Real LightC = C;
    auto Block = [=](Index Begin, Index End, int, int) {
      for (Index T = Begin; T < End; ++T)
        advanceESlab(*G, Dt, LightC, Part->tile(T));
    };
    return submitOverTiles(Backend, Ctx, Stats, Index(Partition.tileCount()),
                           std::move(Block), DependsOn, Keep);
  }

  /// Submits one full leapfrog step as the event chain
  /// B(dt/2) → E(dt) → B(dt/2): the E launch waits the first B launch
  /// *and* \p JReady (the deposit launch that completed this step's
  /// currents — the B launches never read J, so the first half-step may
  /// overlap the deposit); the trailing B launch waits the E launch.
  /// \returns the trailing launch's event. Wait it (and only then read
  /// \p Stats or drop \p Keep) before touching the fields. \p After
  /// gates the first half-step: the PIC step passes its stage-1 events
  /// there — the B advance writes fields the push stage's interpolation
  /// reads, and on asynchronous backends or under replay only the event
  /// edges order the two. Callers that waited the push leave it empty.
  template <typename KeepT>
  exec::ExecEvent submitStep(YeeGrid<Real> &Grid, Real Dt,
                             FdtdSlabPartition<Real> &Partition,
                             exec::ExecutionBackend &Backend,
                             const exec::ExecutionContext &Ctx,
                             RunStats &Stats, const exec::ExecEvent &JReady,
                             KeepT &Keep,
                             const std::vector<exec::ExecEvent> &After = {}) const {
    const exec::ExecEvent FirstHalf = submitAdvanceB(
        Grid, Dt / Real(2), Partition, Backend, Ctx, Stats, After, Keep);
    const exec::ExecEvent Full =
        submitAdvanceE(Grid, Dt, Partition, Backend, Ctx, Stats,
                       {FirstHalf, JReady}, Keep);
    return submitAdvanceB(Grid, Dt / Real(2), Partition, Backend, Ctx, Stats,
                          {Full}, Keep);
  }

  /// Blocking facade over submitStep for synchronous call sites (tests,
  /// benches): one full tiled step through \p Backend.
  void step(YeeGrid<Real> &Grid, Real Dt, FdtdSlabPartition<Real> &Partition,
            exec::ExecutionBackend &Backend, const exec::ExecutionContext &Ctx,
            RunStats &Stats) const {
    exec::KernelKeepAlive Keep;
    submitStep(Grid, Dt, Partition, Backend, Ctx, Stats, exec::ExecEvent(),
               Keep)
        .wait();
  }

private:
  /// Copies (wrapped) x-plane \p Plane of \p L into \p Out (Ny*Nz).
  static void captureXPlane(const ScalarLattice<Real> &L, Index Plane,
                            Real *Out) {
    const GridSize N = L.size();
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K = 0; K < N.Nz; ++K)
        Out[J * N.Nz + K] = L(Plane, J, K); // operator() wraps Plane
  }

  /// One tile's B advance: halo exchange (the +x-face E planes), then
  /// the serial advanceB expressions over the owned planes, reading the
  /// x+1 neighbour plane from the halo copy. Race-free within the
  /// launch — no tile writes E — and bit-identical to the serial sweep
  /// (the copies preserve bits; every B node is written once).
  static void advanceBSlab(YeeGrid<Real> &Grid, Real Dt, Real C,
                           typename FdtdSlabPartition<Real>::Slab &S) {
    const GridSize N = Grid.size();
    const Vector3<Real> D = Grid.step();
    const Real Cx = C * Dt / D.X, Cy = C * Dt / D.Y, Cz = C * Dt / D.Z;
    captureXPlane(Grid.Ey, S.PlaneEnd, S.HaloEy.data());
    captureXPlane(Grid.Ez, S.PlaneEnd, S.HaloEz.data());
    for (Index I = S.PlaneBegin; I < S.PlaneEnd; ++I) {
      const bool AtFace = I + 1 == S.PlaneEnd;
      for (Index J = 0; J < N.Ny; ++J)
        for (Index K = 0; K < N.Nz; ++K) {
          const Real EyXp =
              AtFace ? S.HaloEy[J * N.Nz + K] : Grid.Ey(I + 1, J, K);
          const Real EzXp =
              AtFace ? S.HaloEz[J * N.Nz + K] : Grid.Ez(I + 1, J, K);
          Grid.Bx(I, J, K) -=
              Cy * (Grid.Ez(I, J + 1, K) - Grid.Ez(I, J, K)) -
              Cz * (Grid.Ey(I, J, K + 1) - Grid.Ey(I, J, K));
          Grid.By(I, J, K) -=
              Cz * (Grid.Ex(I, J, K + 1) - Grid.Ex(I, J, K)) -
              Cx * (EzXp - Grid.Ez(I, J, K));
          Grid.Bz(I, J, K) -=
              Cx * (EyXp - Grid.Ey(I, J, K)) -
              Cy * (Grid.Ex(I, J + 1, K) - Grid.Ex(I, J, K));
        }
    }
  }

  /// One tile's E advance: halo exchange (the -x-face By/Bz planes),
  /// then the serial advanceE expressions over the owned planes.
  static void advanceESlab(YeeGrid<Real> &Grid, Real Dt, Real C,
                           typename FdtdSlabPartition<Real>::Slab &S) {
    const GridSize N = Grid.size();
    const Vector3<Real> D = Grid.step();
    const Real Cx = C * Dt / D.X, Cy = C * Dt / D.Y, Cz = C * Dt / D.Z;
    const Real JFactor = Real(4) * Real(constants::Pi) * Dt;
    captureXPlane(Grid.By, S.PlaneBegin - 1, S.HaloBy.data());
    captureXPlane(Grid.Bz, S.PlaneBegin - 1, S.HaloBz.data());
    for (Index I = S.PlaneBegin; I < S.PlaneEnd; ++I) {
      const bool AtFace = I == S.PlaneBegin;
      for (Index J = 0; J < N.Ny; ++J)
        for (Index K = 0; K < N.Nz; ++K) {
          const Real ByXm =
              AtFace ? S.HaloBy[J * N.Nz + K] : Grid.By(I - 1, J, K);
          const Real BzXm =
              AtFace ? S.HaloBz[J * N.Nz + K] : Grid.Bz(I - 1, J, K);
          Grid.Ex(I, J, K) +=
              Cy * (Grid.Bz(I, J, K) - Grid.Bz(I, J - 1, K)) -
              Cz * (Grid.By(I, J, K) - Grid.By(I, J, K - 1)) -
              JFactor * Grid.Jx(I, J, K);
          Grid.Ey(I, J, K) +=
              Cz * (Grid.Bx(I, J, K) - Grid.Bx(I, J, K - 1)) -
              Cx * (Grid.Bz(I, J, K) - BzXm) -
              JFactor * Grid.Jy(I, J, K);
          Grid.Ez(I, J, K) +=
              Cx * (Grid.By(I, J, K) - ByXm) -
              Cy * (Grid.Bx(I, J, K) - Grid.Bx(I, J - 1, K)) -
              JFactor * Grid.Jz(I, J, K);
        }
    }
  }

  /// One launch over \p Items tiles (GrainHint = 1, one time step), with
  /// the body parked in \p Keep for the asynchronous lifetime contract.
  template <typename BlockFn, typename KeepT>
  static exec::ExecEvent
  submitOverTiles(exec::ExecutionBackend &Backend,
                  const exec::ExecutionContext &Ctx, RunStats &Stats,
                  Index Items, BlockFn Block,
                  const std::vector<exec::ExecEvent> &DependsOn,
                  KeepT &Keep) {
    return exec::submitKeptLaunch(Backend, Ctx, Stats, Items,
                                  /*GrainHint=*/1, std::move(Block),
                                  DependsOn, Keep);
  }

  Real C;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_FDTDSOLVER_H
