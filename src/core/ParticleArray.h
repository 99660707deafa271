//===-- core/ParticleArray.h - AoS and SoA particle ensembles --*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two particle-ensemble representations compared throughout the paper
/// (Section 3): an array of structures (ParticleArrayAoS) and a structure
/// of arrays (ParticleArraySoA). Both follow Hi-Chi's choice of "storing
/// the entire ensemble of particles in a single array" (no per-cell
/// lists); the PIC substrate's ParticleSorter provides the periodic
/// cache-locality sort that choice requires.
///
/// Both containers expose:
///
///   * operator[] returning a *proxy* ("the ParticleProxy class, which
///     completely repeats the functionality of the Particle class, but
///     stores references", Section 3) so one templated kernel covers both
///     layouts, and
///   * view(): a trivially copyable bundle of USM pointers that kernels
///     capture by value — the paper's "C-style pointer to a buffer, which
///     is copied without actually copying the contents" (Section 4.2).
///
/// Storage is USM shared memory, so the same ensemble object feeds the
/// OpenMP-style reference runner and the miniSYCL kernels.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_CORE_PARTICLEARRAY_H
#define HICHI_CORE_PARTICLEARRAY_H

#include "core/Particle.h"
#include "minisycl/minisycl.h"
#include "support/Config.h"

#include <cassert>
#include <utility>

namespace hichi {

/// Layout tags used to select a container at compile time.
struct AoSLayoutTag {};
struct SoALayoutTag {};

//===----------------------------------------------------------------------===//
// AoS
//===----------------------------------------------------------------------===//

/// Proxy over a particle stored as one contiguous record.
template <typename Real> class AosParticleProxy {
public:
  explicit AosParticleProxy(ParticleT<Real> *P) : P(P) {}

  Vector3<Real> position() const { return P->Position; }
  Vector3<Real> momentum() const { return P->Momentum; }
  Real weight() const { return P->Weight; }
  Real gamma() const { return P->Gamma; }
  short type() const { return P->Type; }

  void setPosition(const Vector3<Real> &V) const { P->Position = V; }
  void setMomentum(const Vector3<Real> &V) const { P->Momentum = V; }
  void setWeight(Real W) const { P->Weight = W; }
  void setGamma(Real G) const { P->Gamma = G; }
  void setType(short T) const { P->Type = T; }

  /// Whole-record load/store (used by the sorter and converters).
  ParticleT<Real> load() const { return *P; }
  void store(const ParticleT<Real> &V) const { *P = V; }

private:
  ParticleT<Real> *P;
};

/// Kernel-side view of an AoS ensemble: one pointer plus the count.
template <typename Real> struct AosView {
  ParticleT<Real> *Data = nullptr;
  Index Count = 0;

  AosParticleProxy<Real> operator[](Index I) const {
    return AosParticleProxy<Real>(Data + I);
  }
  Index size() const { return Count; }
};

/// Array-of-structures ensemble backed by USM shared memory.
template <typename Real> class ParticleArrayAoS {
public:
  using LayoutTag = AoSLayoutTag;
  using Proxy = AosParticleProxy<Real>;
  using View = AosView<Real>;
  using Scalar = Real;

  explicit ParticleArrayAoS(Index Capacity,
                            minisycl::device Dev = minisycl::cpu_device())
      : Dev(std::move(Dev)), Capacity(Capacity) {
    assert(Capacity >= 0 && "negative capacity");
    Data = minisycl::malloc_shared<ParticleT<Real>>(std::size_t(Capacity),
                                                    this->Dev);
  }

  ~ParticleArrayAoS() { minisycl::free(Data); }

  ParticleArrayAoS(const ParticleArrayAoS &) = delete;
  ParticleArrayAoS &operator=(const ParticleArrayAoS &) = delete;
  ParticleArrayAoS(ParticleArrayAoS &&Other) noexcept { swap(Other); }
  ParticleArrayAoS &operator=(ParticleArrayAoS &&Other) noexcept {
    swap(Other);
    return *this;
  }

  Index size() const { return Count; }
  Index capacity() const { return Capacity; }
  bool empty() const { return Count == 0; }

  /// Appends a particle; capacity is fixed at construction (ensembles are
  /// sized once per simulation, as in the paper's benchmarks).
  void pushBack(const ParticleT<Real> &P) {
    assert(Count < Capacity && "ensemble capacity exceeded");
    Data[Count++] = P;
  }

  void clear() { Count = 0; }

  /// Keeps the first \p N particles and drops the rest.
  void truncate(Index N) { assert(N >= 0 && N <= Count); Count = N; }

  Proxy operator[](Index I) const {
    assert(I >= 0 && I < Count && "particle index out of range");
    return Proxy(Data + I);
  }

  /// Raw record pointer (AoS only; used by the sorter).
  ParticleT<Real> *data() const { return Data; }

  View view() const { return View{Data, Count}; }

  const minisycl::device &device() const { return Dev; }

private:
  void swap(ParticleArrayAoS &Other) noexcept {
    std::swap(Dev, Other.Dev);
    std::swap(Data, Other.Data);
    std::swap(Count, Other.Count);
    std::swap(Capacity, Other.Capacity);
  }

  minisycl::device Dev;
  ParticleT<Real> *Data = nullptr;
  Index Count = 0;
  Index Capacity = 0;
};

//===----------------------------------------------------------------------===//
// SoA
//===----------------------------------------------------------------------===//

/// Proxy over a particle scattered across component arrays. Mirrors the
/// AoS proxy API exactly; pusher kernels are templated over either.
template <typename Real> class SoaParticleProxy {
public:
  SoaParticleProxy(Real *Px, Real *Py, Real *Pz, Real *Mx, Real *My, Real *Mz,
                   Real *W, Real *G, short *T)
      : Px(Px), Py(Py), Pz(Pz), Mx(Mx), My(My), Mz(Mz), W(W), G(G), T(T) {}

  Vector3<Real> position() const { return {*Px, *Py, *Pz}; }
  Vector3<Real> momentum() const { return {*Mx, *My, *Mz}; }
  Real weight() const { return *W; }
  Real gamma() const { return *G; }
  short type() const { return *T; }

  void setPosition(const Vector3<Real> &V) const {
    *Px = V.X;
    *Py = V.Y;
    *Pz = V.Z;
  }
  void setMomentum(const Vector3<Real> &V) const {
    *Mx = V.X;
    *My = V.Y;
    *Mz = V.Z;
  }
  void setWeight(Real Weight) const { *W = Weight; }
  void setGamma(Real Gamma) const { *G = Gamma; }
  void setType(short Type) const { *T = Type; }

  ParticleT<Real> load() const {
    ParticleT<Real> P;
    P.Position = position();
    P.Momentum = momentum();
    P.Weight = weight();
    P.Gamma = gamma();
    P.Type = type();
    return P;
  }
  void store(const ParticleT<Real> &P) const {
    setPosition(P.Position);
    setMomentum(P.Momentum);
    setWeight(P.Weight);
    setGamma(P.Gamma);
    setType(P.Type);
  }

private:
  Real *Px, *Py, *Pz, *Mx, *My, *Mz, *W, *G;
  short *T;
};

/// Kernel-side view of a SoA ensemble: nine component pointers.
template <typename Real> struct SoaView {
  Real *PosX = nullptr, *PosY = nullptr, *PosZ = nullptr;
  Real *MomX = nullptr, *MomY = nullptr, *MomZ = nullptr;
  Real *Weight = nullptr, *Gamma = nullptr;
  short *Type = nullptr;
  Index Count = 0;

  SoaParticleProxy<Real> operator[](Index I) const {
    return SoaParticleProxy<Real>(PosX + I, PosY + I, PosZ + I, MomX + I,
                                  MomY + I, MomZ + I, Weight + I, Gamma + I,
                                  Type + I);
  }
  Index size() const { return Count; }
};

/// Structure-of-arrays ensemble backed by USM shared memory (one
/// allocation per component, each cache-line aligned for unit-stride
/// vector loads).
template <typename Real> class ParticleArraySoA {
public:
  using LayoutTag = SoALayoutTag;
  using Proxy = SoaParticleProxy<Real>;
  using View = SoaView<Real>;
  using Scalar = Real;

  explicit ParticleArraySoA(Index Capacity,
                            minisycl::device Dev = minisycl::cpu_device())
      : Dev(std::move(Dev)), Capacity(Capacity) {
    assert(Capacity >= 0 && "negative capacity");
    auto N = std::size_t(Capacity);
    PosX = minisycl::malloc_shared<Real>(N, this->Dev);
    PosY = minisycl::malloc_shared<Real>(N, this->Dev);
    PosZ = minisycl::malloc_shared<Real>(N, this->Dev);
    MomX = minisycl::malloc_shared<Real>(N, this->Dev);
    MomY = minisycl::malloc_shared<Real>(N, this->Dev);
    MomZ = minisycl::malloc_shared<Real>(N, this->Dev);
    Weight = minisycl::malloc_shared<Real>(N, this->Dev);
    Gamma = minisycl::malloc_shared<Real>(N, this->Dev);
    Type = minisycl::malloc_shared<short>(N, this->Dev);
  }

  ~ParticleArraySoA() {
    minisycl::free(PosX);
    minisycl::free(PosY);
    minisycl::free(PosZ);
    minisycl::free(MomX);
    minisycl::free(MomY);
    minisycl::free(MomZ);
    minisycl::free(Weight);
    minisycl::free(Gamma);
    minisycl::free(Type);
  }

  ParticleArraySoA(const ParticleArraySoA &) = delete;
  ParticleArraySoA &operator=(const ParticleArraySoA &) = delete;
  ParticleArraySoA(ParticleArraySoA &&Other) noexcept { swap(Other); }
  ParticleArraySoA &operator=(ParticleArraySoA &&Other) noexcept {
    swap(Other);
    return *this;
  }

  Index size() const { return Count; }
  Index capacity() const { return Capacity; }
  bool empty() const { return Count == 0; }

  void pushBack(const ParticleT<Real> &P) {
    assert(Count < Capacity && "ensemble capacity exceeded");
    view()[Count].store(P);
    ++Count;
  }

  void clear() { Count = 0; }

  /// Keeps the first \p N particles and drops the rest.
  void truncate(Index N) { assert(N >= 0 && N <= Count); Count = N; }

  Proxy operator[](Index I) const {
    assert(I >= 0 && I < Count && "particle index out of range");
    return view()[I];
  }

  View view() const {
    return View{PosX, PosY, PosZ, MomX, MomY, MomZ,
                Weight, Gamma, Type, Count};
  }

  const minisycl::device &device() const { return Dev; }

private:
  void swap(ParticleArraySoA &Other) noexcept {
    std::swap(Dev, Other.Dev);
    std::swap(PosX, Other.PosX);
    std::swap(PosY, Other.PosY);
    std::swap(PosZ, Other.PosZ);
    std::swap(MomX, Other.MomX);
    std::swap(MomY, Other.MomY);
    std::swap(MomZ, Other.MomZ);
    std::swap(Weight, Other.Weight);
    std::swap(Gamma, Other.Gamma);
    std::swap(Type, Other.Type);
    std::swap(Count, Other.Count);
    std::swap(Capacity, Other.Capacity);
  }

  minisycl::device Dev;
  Real *PosX = nullptr, *PosY = nullptr, *PosZ = nullptr;
  Real *MomX = nullptr, *MomY = nullptr, *MomZ = nullptr;
  Real *Weight = nullptr, *Gamma = nullptr;
  short *Type = nullptr;
  Index Count = 0;
  Index Capacity = 0;
};

/// Copies the contents of one ensemble into another (any layout pair);
/// sizes the destination by clear+append. Used by tests and the layout
/// conversion example.
template <typename SrcArray, typename DstArray>
void copyEnsemble(const SrcArray &Src, DstArray &Dst) {
  assert(Dst.capacity() >= Src.size() && "destination too small");
  Dst.clear();
  for (Index I = 0, E = Src.size(); I < E; ++I)
    Dst.pushBack(Src[I].load());
}

} // namespace hichi

#endif // HICHI_CORE_PARTICLEARRAY_H
