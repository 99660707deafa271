//===-- pic/CellListEnsemble.h - Per-cell particle storage -----*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *first* of the two ensemble organizations the paper discusses
/// (Section 3): "each cell stores its own array of particles. This
/// representation has many advantages, but it requires handling the
/// movement of particles between cells, which causes an additional
/// overhead when parallelizing computations." Hi-Chi (and this repo's
/// primary path) uses the second method — one flat array with periodic
/// sorting — but the first method is implemented here so the trade-off
/// can actually be measured (paper_repro's storage section).
///
/// Particles live in per-cell std::vectors of AoS records; after each
/// push, migrate() moves escapees to their new cells (the overhead the
/// paper calls out). Iteration visits cells in row-major order, which is
/// also the best-case cache order the flat array achieves only right
/// after a sort.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_CELLLISTENSEMBLE_H
#define HICHI_PIC_CELLLISTENSEMBLE_H

#include "core/BorisPusher.h"
#include "core/Particle.h"
#include "pic/ParticleSorter.h"

#include <utility>
#include <vector>

namespace hichi {
namespace pic {

/// Per-cell particle storage over a periodic box.
template <typename Real> class CellListEnsemble {
public:
  CellListEnsemble(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step)
      : Indexer(Size, Origin, Step),
        Cells(static_cast<std::size_t>(Size.count())) {}

  Index cellCount() const { return Index(Cells.size()); }

  Index size() const {
    Index Total = 0;
    for (const auto &Cell : Cells)
      Total += Index(Cell.size());
    return Total;
  }

  /// Inserts \p P into the cell owning its position.
  void addParticle(const ParticleT<Real> &P) {
    Cells[std::size_t(Indexer.cellOf(P.Position))].push_back(P);
  }

  const std::vector<ParticleT<Real>> &cell(Index C) const {
    return Cells[std::size_t(C)];
  }

  /// Visits every particle as a mutable record reference, cell by cell
  /// (row-major cell order).
  template <typename Fn> void forEachParticle(Fn &&Visit) {
    for (auto &Cell : Cells)
      for (ParticleT<Real> &P : Cell)
        Visit(P);
  }
  template <typename Fn> void forEachParticle(Fn &&Visit) const {
    for (const auto &Cell : Cells)
      for (const ParticleT<Real> &P : Cell)
        Visit(P);
  }

  /// Moves every particle whose position left its cell into the right
  /// cell (the paper's "handling the movement of particles between
  /// cells"). \returns the number of migrated particles.
  Index migrate() {
    Index Moved = 0;
    // Collect escapees first: erasing while scanning would invalidate
    // the traversal and re-visit movers landing in later cells.
    std::vector<std::pair<Index, ParticleT<Real>>> Escapees;
    for (std::size_t C = 0; C < Cells.size(); ++C) {
      auto &Cell = Cells[C];
      for (std::size_t I = 0; I < Cell.size();) {
        Index Target = Indexer.cellOf(Cell[I].Position);
        if (Target == Index(C)) {
          ++I;
          continue;
        }
        Escapees.emplace_back(Target, Cell[I]);
        Cell[I] = Cell.back();
        Cell.pop_back();
        ++Moved;
      }
    }
    for (auto &[Target, P] : Escapees)
      Cells[std::size_t(Target)].push_back(P);
    return Moved;
  }

  /// True if every particle sits in the cell owning its position
  /// (invariant checked by tests after migrate()).
  bool isConsistent() const {
    for (std::size_t C = 0; C < Cells.size(); ++C)
      for (const ParticleT<Real> &P : Cells[C])
        if (Indexer.cellOf(P.Position) != Index(C))
          return false;
    return true;
  }

  /// Per-x-plane occupancy: cell order is x-major, so the plane of cell
  /// C is C / (Ny*Nz). The cell-list view of the same measurement the
  /// flat-array rebalancer makes (pic/ParticleSorter.h xPlaneOccupancy);
  /// the rebalance tests cross-check the two organizations agree.
  std::vector<double> xPlaneOccupancy() const {
    const GridSize S = Indexer.size();
    std::vector<double> Counts(std::size_t(S.Nx), 0.0);
    for (std::size_t C = 0; C < Cells.size(); ++C)
      Counts[std::size_t(Index(C) / (S.Ny * S.Nz))] +=
          double(Cells[C].size());
    return Counts;
  }

  const CellIndexer<Real> &indexer() const { return Indexer; }

private:
  CellIndexer<Real> Indexer;
  std::vector<std::vector<ParticleT<Real>>> Cells;
};

/// Pushes every particle of a cell-list ensemble one step and migrates.
/// Mirrors exec::runStepLoop's per-particle body so the two storage
/// schemes run the identical kernel.
template <typename Pusher = BorisPusher, typename Real, typename FieldFn>
Index pushCellList(CellListEnsemble<Real> &Ensemble, const FieldFn &Fields,
                   const ParticleTypeTable<Real> &Types, Real Dt, Real Time,
                   Real LightVelocity) {
  const ParticleTypeInfo<Real> *TypesPtr = Types.data();
  Ensemble.forEachParticle([&](ParticleT<Real> &P) {
    AosParticleProxy<Real> Proxy(&P);
    const FieldSample<Real> F = Fields(P.Position, Time, 0);
    Pusher::template push<Real>(Proxy, F, TypesPtr, Dt, LightVelocity);
  });
  return Ensemble.migrate();
}

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_CELLLISTENSEMBLE_H
