//===-- core/EnsembleOps.h - Ensemble-wide operations -----------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layout-generic whole-ensemble operations built on the proxy
/// interface: predicate counting, compaction (drop escaped particles —
/// what a production escape study does instead of re-checking dead
/// particles forever).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_CORE_ENSEMBLEOPS_H
#define HICHI_CORE_ENSEMBLEOPS_H

#include "core/ParticleArray.h"

namespace hichi {

/// Counts particles satisfying \p Pred(proxy).
template <typename Array, typename PredFn>
Index countIf(const Array &Particles, PredFn &&Pred) {
  auto View = Particles.view();
  Index Count = 0;
  for (Index I = 0, E = Particles.size(); I < E; ++I)
    Count += bool(Pred(View[I]));
  return Count;
}

/// Removes every particle satisfying \p Pred(proxy), compacting the
/// survivors toward the front while preserving their relative order.
/// \returns the number removed. O(N) record moves, no allocation.
template <typename Array, typename PredFn>
Index removeIf(Array &Particles, PredFn &&Pred) {
  using Real = typename Array::Scalar;
  auto View = Particles.view();
  const Index N = Particles.size();
  Index Write = 0;
  for (Index Read = 0; Read < N; ++Read) {
    if (Pred(View[Read]))
      continue;
    if (Write != Read) {
      const ParticleT<Real> P = View[Read].load();
      View[Write].store(P);
    }
    ++Write;
  }
  Particles.truncate(Write);
  return N - Write;
}

/// Retires every particle whose x position lies below \p MinX — the
/// moving-window trailing-edge compaction (particles the window slid
/// past). Stable order, bitwise-equal survivors, identical semantics for
/// both layouts: the comparison reads only Position.X through the proxy
/// and the compaction is removeIf's whole-record load/store.
/// \returns the number retired.
template <typename Array, typename Real>
Index retireParticlesBelowX(Array &Particles, Real MinX) {
  return removeIf(Particles,
                  [MinX](const auto &P) { return P.position().X < MinX; });
}

} // namespace hichi

#endif // HICHI_CORE_ENSEMBLEOPS_H
