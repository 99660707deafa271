//===-- core/FieldSample.h - E/B field sample -------------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The electromagnetic field value a pusher consumes for one particle: the
/// interpolated/evaluated (E, B) pair at the particle's position.
///
/// Field *sources* (the two benchmark scenarios of Section 5.2, plus grid
/// interpolation in the PIC substrate) are any trivially copyable callable
/// with the signature
///
/// \code
///   FieldSample<Real> operator()(const Vector3<Real> &Position, Real Time,
///                                Index ParticleIndex) const;
/// \endcode
///
/// Analytical sources use Position/Time and ignore the index; the
/// precalculated source indexes its USM array and ignores the rest.
///
/// A source whose time terms are the same for every particle may also
/// offer `atTime(Real Time)`, returning a trivially copyable callable
/// `(const Vector3<Real> &Position, Index ParticleIndex)` that samples it
/// at that time bit for bit; sampleAtTime binds either kind.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_CORE_FIELDSAMPLE_H
#define HICHI_CORE_FIELDSAMPLE_H

#include "support/Vector3.h"

#include <type_traits>
#include <utility>

namespace hichi {

/// One (E, B) sample.
template <typename Real> struct FieldSample {
  Vector3<Real> E;
  Vector3<Real> B;
};

/// A spatially uniform, static field source (tests, simple examples).
template <typename Real> struct UniformFieldSource {
  FieldSample<Real> Value;

  FieldSample<Real> operator()(const Vector3<Real> &, Real, Index) const {
    return Value;
  }
};

/// True for a source with an atTime(Time) binding.
template <typename Source, typename Real, typename = void>
struct HasAtTime : std::false_type {};
template <typename Source, typename Real>
struct HasAtTime<Source, Real,
                 decltype(void(std::declval<const Source &>().atTime(
                     std::declval<Real>())))> : std::true_type {};

/// \p Fields at \p Time as a (Position, ParticleIndex) callable: its own
/// atTime binding where it has one, so time terms are evaluated once per
/// time rather than once per particle; else a call with \p Time bound.
template <typename Source, typename Real>
auto sampleAtTime(const Source &Fields, Real Time) {
  if constexpr (HasAtTime<Source, Real>::value)
    return Fields.atTime(Time);
  else
    return [&Fields, Time](const Vector3<Real> &Pos, Index I) {
      return Fields(Pos, Time, I);
    };
}

} // namespace hichi

#endif // HICHI_CORE_FIELDSAMPLE_H
