//===-- pic/YeeGrid.h - Staggered field grid --------------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staggered (Yee 1966) field grid the FDTD Maxwell solver operates
/// on — the "grid field data" substrate of the PIC method (paper
/// Section 2; the paper's Ref. [9] is the FDTD standard text). Component
/// placement within cell (i, j, k) of step (dx, dy, dz):
///
///   Ex (i+1/2, j,     k    )     Bx (i,     j+1/2, k+1/2)
///   Ey (i,     j+1/2, k    )     By (i+1/2, j,     k+1/2)
///   Ez (i,     j,     k+1/2)     Bz (i+1/2, j+1/2, k    )
///
/// All boundaries are periodic. Current density J lives at the E points.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_YEEGRID_H
#define HICHI_PIC_YEEGRID_H

#include "fields/FieldGrid.h"
#include "fields/GridWindow.h"
#include "support/AlignedAllocator.h"
#include "support/Constants.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <vector>

namespace hichi {
namespace pic {

/// Periodic wrap for stencil and plane indices, which stay within a
/// couple of periods of [0, N): the interpolation and deposit bases come
/// from floor() of in-box node-relative positions (positions are wrapped
/// every step), so conditional adds replace the %-based
/// ScalarLattice::wrap on these hot paths. Equal to it for every input.
inline Index wrapNear(Index I, Index N) {
  while (I < 0)
    I += N;
  while (I >= N)
    I -= N;
  return I;
}

/// One scalar field component on a periodic 3-D lattice. The x axis may
/// carry a ring offset (XBase, set by the owning grid's moving window):
/// logical plane i lives at physical plane wrap(i + XBase, Nx), so a
/// window shift re-labels planes without moving any storage. XBase == 0
/// (every fixed-window run) makes the mapping the classic periodic wrap
/// bit-for-bit.
template <typename Real> class ScalarLattice {
public:
  ScalarLattice() = default;
  explicit ScalarLattice(GridSize Size)
      : Size(Size), Data(std::size_t(Size.count()), Real(0)) {}

  GridSize size() const { return Size; }

  static Index wrap(Index I, Index N) {
    I %= N;
    return I < 0 ? I + N : I;
  }

  /// Periodic element access (logical indices).
  Real &operator()(Index I, Index J, Index K) {
    return Data[index(I, J, K)];
  }
  Real operator()(Index I, Index J, Index K) const {
    return Data[index(I, J, K)];
  }

  void fill(Real V) { Data.assign(Data.size(), V); }

  /// Sum of squares over all nodes (energy diagnostics).
  double sumOfSquares() const {
    double Total = 0;
    for (Real V : Data)
      Total += double(V) * double(V);
    return Total;
  }

  std::vector<Real, AlignedAllocator<Real>> &raw() { return Data; }
  const std::vector<Real, AlignedAllocator<Real>> &raw() const { return Data; }

  /// Ring offset of the x axis (the owning window's physical base).
  Index xBase() const { return XBase; }
  void setXBase(Index Base) {
    assert(Base >= 0 && Base < Size.Nx && "ring base out of range");
    XBase = Base;
  }

  /// Physical plane of logical x-plane \p I — where raw() stores it.
  Index physicalPlane(Index I) const { return wrap(I + XBase, Size.Nx); }

  /// Zeroes one logical x-plane (its physical storage is contiguous).
  void zeroXPlane(Index I) {
    const std::size_t PlaneElems = std::size_t(Size.Ny) * std::size_t(Size.Nz);
    std::fill_n(Data.data() + std::size_t(physicalPlane(I)) * PlaneElems,
                PlaneElems, Real(0));
  }

private:
  std::size_t index(Index I, Index J, Index K) const {
    return std::size_t(
        (wrap(I + XBase, Size.Nx) * Size.Ny + wrap(J, Size.Ny)) * Size.Nz +
        wrap(K, Size.Nz));
  }

  GridSize Size;
  Index XBase = 0;
  std::vector<Real, AlignedAllocator<Real>> Data;
};

/// The full staggered grid: E, B and J components plus geometry. A
/// moving window (GridWindow) may slide the grid along +x: origin()
/// tracks the window, logical plane addressing maps onto the ring-buffer
/// physical storage, and shiftWindow() advances the window touching only
/// the shifted planes.
template <typename Real> class YeeGrid {
public:
  YeeGrid(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step)
      : Ex(Size), Ey(Size), Ez(Size), Bx(Size), By(Size), Bz(Size),
        Jx(Size), Jy(Size), Jz(Size), Size_(Size), Origin_(Origin),
        LiveOrigin_(Origin), Step_(Step), Window_(Size.Nx) {
    assert(Size.Nx > 0 && Size.Ny > 0 && Size.Nz > 0 && "degenerate grid");
  }

  GridSize size() const { return Size_; }
  /// Current window origin: the base origin plus the shifted planes.
  Vector3<Real> origin() const { return LiveOrigin_; }
  /// The construction-time origin (window shifts never change it).
  Vector3<Real> baseOrigin() const { return Origin_; }
  Vector3<Real> step() const { return Step_; }

  /// Physical extent of the periodic box.
  Vector3<Real> extent() const {
    return Vector3<Real>(Real(Size_.Nx) * Step_.X, Real(Size_.Ny) * Step_.Y,
                         Real(Size_.Nz) * Step_.Z);
  }

  /// Wraps a particle position into the periodic box: per axis
  /// R = fmod(X - O, L), plus L when negative, at O + R. A particle
  /// crosses at most one face per step, so X - O nearly always lies in
  /// (-L, 2L), where the fmod is skipped with the same bits: in [L, 2L)
  /// it is R - L (exact, by Sterbenz), in (-L, 0) R itself, so the
  /// result is R + L. Anything else, NaN included, takes the formula.
  Vector3<Real> wrapPosition(Vector3<Real> P) const {
    const Vector3<Real> L = extent();
    auto Wrap1 = [](Real X, Real O, Real Len) {
      Real R = X - O;
      if (R >= Len && R < Real(2) * Len) {
        R -= Len;
      } else if (R < Real(0) && R > -Len) {
        R += Len;
      } else if (!(R >= Real(0) && R < Len)) {
        R = std::fmod(R, Len);
        if (R < Real(0))
          R += Len;
      }
      return O + R;
    };
    return Vector3<Real>(Wrap1(P.X, LiveOrigin_.X, L.X),
                         Wrap1(P.Y, LiveOrigin_.Y, L.Y),
                         Wrap1(P.Z, LiveOrigin_.Z, L.Z));
  }

  //===--------------------------------------------------------------------===//
  // Moving window
  //===--------------------------------------------------------------------===//

  const GridWindow &window() const { return Window_; }

  /// Total lattice elements zeroed by shifts so far — 9 lattices times
  /// the shifted planes, never O(Nx) per shift
  /// (MovingWindowTest.ShiftCostIsPerPlaneIndependentOfNx reads this).
  std::size_t shiftTouchedElems() const { return ShiftTouchedElems_; }

  /// Advances the window by \p Planes x-planes along +x: the trailing
  /// planes' ring storage is re-labelled as the leading planes and
  /// zeroed (fields and currents — freshly entered space is vacuum until
  /// the caller injects into it), and origin() moves by Planes * dx.
  /// Cost: O(Planes * Ny * Nz), independent of Nx.
  void shiftWindow(Index Planes) {
    assert(Planes > 0 && "window shift must advance");
    Window_.shift(Planes);
    const Index First = Planes >= Size_.Nx ? Index(0) : Size_.Nx - Planes;
    for (ScalarLattice<Real> *L : lattices()) {
      L->setXBase(Window_.PhysBase);
      for (Index I = First; I < Size_.Nx; ++I)
        L->zeroXPlane(I);
    }
    ShiftTouchedElems_ += 9u * std::size_t(Size_.Nx - First) *
                          std::size_t(Size_.Ny) * std::size_t(Size_.Nz);
    syncLiveOrigin();
  }

  /// Restores a saved window state (checkpoint load): re-bases every
  /// lattice without zeroing anything — the caller restores the raw
  /// physical storage that goes with \p W.
  void restoreWindow(const GridWindow &W) {
    assert(W.Nx == Size_.Nx && "window extent mismatch");
    assert(W.PhysBase >= 0 && W.PhysBase < Size_.Nx && "ring base range");
    Window_ = W;
    for (ScalarLattice<Real> *L : lattices())
      L->setXBase(Window_.PhysBase);
    syncLiveOrigin();
  }

  /// Zeroes J on the logical x-planes [Begin, End); disjoint ranges
  /// touch disjoint storage, so they may clear in parallel.
  void clearCurrent(Index Begin, Index End) {
    for (Index I = Begin; I < End; ++I)
      for (ScalarLattice<Real> *J : {&Jx, &Jy, &Jz})
        J->zeroXPlane(I);
  }

  /// Field energy [erg] = sum (E^2 + B^2)/(8 pi) dV over the lattice.
  double fieldEnergy() const {
    const double CellVolume = double(Step_.X) * double(Step_.Y) *
                              double(Step_.Z);
    const double Sum = Ex.sumOfSquares() + Ey.sumOfSquares() +
                       Ez.sumOfSquares() + Bx.sumOfSquares() +
                       By.sumOfSquares() + Bz.sumOfSquares();
    return Sum * CellVolume / (8.0 * constants::Pi);
  }

  ScalarLattice<Real> Ex, Ey, Ez;
  ScalarLattice<Real> Bx, By, Bz;
  ScalarLattice<Real> Jx, Jy, Jz;

private:
  std::array<ScalarLattice<Real> *, 9> lattices() {
    return {&Ex, &Ey, &Ez, &Bx, &By, &Bz, &Jx, &Jy, &Jz};
  }

  /// LiveOrigin_.X = Origin_.X + OriginPlanes * dx, recomputed from the
  /// base each time (no accumulation drift; at rest it IS Origin_, so
  /// fixed-window arithmetic is untouched bit-for-bit).
  void syncLiveOrigin() {
    LiveOrigin_ = Origin_;
    if (Window_.OriginPlanes != 0)
      LiveOrigin_.X = Origin_.X + Real(Window_.OriginPlanes) * Step_.X;
  }

  GridSize Size_;
  Vector3<Real> Origin_;
  Vector3<Real> LiveOrigin_;
  Vector3<Real> Step_;
  GridWindow Window_;
  std::size_t ShiftTouchedElems_ = 0;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_YEEGRID_H
