//===-- pic/ParticleSorter.h - Cache-locality particle sort ----*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Periodic cell-order sorting of the single-array ensemble. The paper
/// (Section 3): Hi-Chi stores "the entire ensemble of particles in a
/// single array ... but we have to periodically sort the array of
/// particles in order to improve cache locality."
///
/// Counting sort by cell index (O(N + cells)), layout-generic through the
/// proxy load/store interface, stable within a cell so repeated sorts are
/// idempotent.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_PARTICLESORTER_H
#define HICHI_PIC_PARTICLESORTER_H

#include "core/ParticleArray.h"
#include "pic/YeeGrid.h"
#include "support/AlignedAllocator.h"

#include <cmath>
#include <vector>

namespace hichi {
namespace pic {

/// Maps positions to cell indices for sorting.
template <typename Real> class CellIndexer {
public:
  CellIndexer(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step)
      : Size(Size), Origin(Origin), Step(Step) {}

  explicit CellIndexer(const YeeGrid<Real> &Grid)
      : CellIndexer(Grid.size(), Grid.origin(), Grid.step()) {}

  Index cellCount() const { return Size.count(); }

  /// \returns the linear cell index of \p Pos (periodic wrap).
  Index cellOf(const Vector3<Real> &Pos) const {
    auto Axis = [](Real X, Real O, Real D, Index N) {
      Index I = Index(std::floor((X - O) / D)) % N;
      return I < 0 ? I + N : I;
    };
    const Index I = Axis(Pos.X, Origin.X, Step.X, Size.Nx);
    const Index J = Axis(Pos.Y, Origin.Y, Step.Y, Size.Ny);
    const Index K = Axis(Pos.Z, Origin.Z, Step.Z, Size.Nz);
    return (I * Size.Ny + J) * Size.Nz + K;
  }

  /// \returns the (wrapped) x-plane index of \p Pos — the slab
  /// coordinate every 1-D decomposition in the tree partitions along,
  /// and the axis the occupancy-weighted rebalancer histograms over.
  /// Same arithmetic as cellOf's x component, so a cell-sorted array is
  /// also x-plane-sorted (cell order is x-major).
  Index xPlaneOf(const Vector3<Real> &Pos) const {
    Index I = Index(std::floor((Pos.X - Origin.X) / Step.X)) % Size.Nx;
    return I < 0 ? I + Size.Nx : I;
  }

  GridSize size() const { return Size; }

  /// Re-bases the indexer on a moved window origin (pic/YeeGrid.h
  /// shiftWindow): cell/plane coordinates stay logical — plane 0 is the
  /// window's trailing edge wherever the window currently sits.
  void setOrigin(const Vector3<Real> &NewOrigin) { Origin = NewOrigin; }

private:
  GridSize Size;
  Vector3<Real> Origin;
  Vector3<Real> Step;
};

/// sortByCell's working buffers. A caller that sorts repeatedly keeps
/// one, so a steady-state sort allocates nothing.
template <typename Real> struct SortScratch {
  std::vector<Index, AlignedAllocator<Index>> Cell;
  std::vector<Index, AlignedAllocator<Index>> Offsets;
  std::vector<ParticleT<Real>, AlignedAllocator<ParticleT<Real>>> Staging;
};

/// Sorts \p Particles in place into cell order (counting sort through
/// \p Scratch's record buffer). Works for both layouts via proxies.
template <typename Array, typename Real>
void sortByCell(Array &Particles, const CellIndexer<Real> &Indexer,
                SortScratch<Real> &Scratch) {
  const Index N = Particles.size();
  if (N <= 1)
    return;
  auto View = Particles.view();

  // Pass 1: cell of every particle + histogram.
  auto &Cell = Scratch.Cell;
  auto &Offsets = Scratch.Offsets;
  Cell.resize(static_cast<std::size_t>(N));
  Offsets.assign(std::size_t(Indexer.cellCount()) + 1, 0);
  for (Index I = 0; I < N; ++I) {
    Cell[std::size_t(I)] = Indexer.cellOf(View[I].position());
    ++Offsets[std::size_t(Cell[std::size_t(I)]) + 1];
  }
  for (std::size_t C = 1; C < Offsets.size(); ++C)
    Offsets[C] += Offsets[C - 1];

  // Pass 2: scatter records into a staging buffer in cell order.
  auto &Staging = Scratch.Staging;
  Staging.resize(static_cast<std::size_t>(N));
  for (Index I = 0; I < N; ++I) {
    Index &Slot = Offsets[std::size_t(Cell[std::size_t(I)])];
    Staging[std::size_t(Slot)] = View[I].load();
    ++Slot;
  }

  // Pass 3: write back.
  for (Index I = 0; I < N; ++I)
    View[I].store(Staging[std::size_t(I)]);
}

/// One-off sort with its own buffers.
template <typename Array, typename Real>
void sortByCell(Array &Particles, const CellIndexer<Real> &Indexer) {
  SortScratch<Real> Scratch;
  sortByCell(Particles, Indexer, Scratch);
}

/// Per-x-plane particle occupancy of the flat ensemble: Counts[p] is
/// how many particles sit in plane p (periodic wrap, matching cellOf).
/// One O(N) pass — the measurement the occupancy-weighted rebalancer
/// (pic/Rebalancer.h) triggers and re-splits from.
template <typename Array, typename Real>
std::vector<double> xPlaneOccupancy(const Array &Particles,
                                    const CellIndexer<Real> &Indexer) {
  std::vector<double> Counts(std::size_t(Indexer.size().Nx), 0.0);
  auto View = Particles.view();
  for (Index I = 0, N = Particles.size(); I < N; ++I)
    Counts[std::size_t(Indexer.xPlaneOf(View[I].position()))] += 1.0;
  return Counts;
}

/// \returns the number of adjacent particle pairs that share a cell,
/// divided by N-1 — a locality score in [0, 1] the tests and the sorting
/// ablation bench use (1 = perfectly sorted runs).
template <typename Array, typename Real>
double cellLocalityScore(const Array &Particles,
                         const CellIndexer<Real> &Indexer) {
  const Index N = Particles.size();
  if (N < 2)
    return 1.0;
  auto View = Particles.view();
  Index SameCell = 0;
  Index Prev = Indexer.cellOf(View[0].position());
  for (Index I = 1; I < N; ++I) {
    Index Cur = Indexer.cellOf(View[I].position());
    SameCell += (Cur == Prev);
    Prev = Cur;
  }
  return double(SameCell) / double(N - 1);
}

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_PARTICLESORTER_H
