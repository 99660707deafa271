//===-- support/AlignedAllocator.h - Aligned heap memory --------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-line and SIMD-width aligned heap allocation. The SoA particle
/// arrays align each component array to 64 bytes so vector loads in the
/// pusher loop never straddle cache lines (the paper notes full AVX-512
/// vectorization of the loop; alignment is a precondition for that to be
/// profitable).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SUPPORT_ALIGNEDALLOCATOR_H
#define HICHI_SUPPORT_ALIGNEDALLOCATOR_H

#include "support/Config.h"
#include "support/Logging.h"

#include <cassert>
#include <cstddef>
#include <cstdlib>

#include <sys/mman.h>

namespace hichi {

/// Blocks of at least this many bytes (glibc's initial mmap threshold)
/// are mapped directly and unmapped when freed. glibc raises its own
/// threshold after the first large free and then places such blocks in
/// the heap wherever other threads' frees left room, so peak RSS would
/// vary from run to run by megabytes. Mapped memory is page aligned.
constexpr std::size_t DirectMapBytes = std::size_t(128) << 10;

inline bool isDirectMapped(std::size_t Bytes, std::size_t Alignment) {
  return Bytes >= DirectMapBytes && Alignment <= 4096;
}

/// Allocates \p Bytes bytes aligned to \p Alignment (a power of two,
/// multiple of sizeof(void*)). \returns nullptr only for Bytes == 0.
inline void *alignedAlloc(std::size_t Bytes,
                          std::size_t Alignment = HICHI_CACHELINE_SIZE) {
  if (Bytes == 0)
    return nullptr;
  assert((Alignment & (Alignment - 1)) == 0 && "alignment not a power of two");
  void *P = nullptr;
  if (isDirectMapped(Bytes, Alignment)) {
    P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      P = nullptr;
  } else {
    // std::aligned_alloc requires the size to be a multiple of the alignment.
    std::size_t Rounded = (Bytes + Alignment - 1) / Alignment * Alignment;
    P = std::aligned_alloc(Alignment, Rounded);
  }
  if (!P)
    fatalError("aligned allocation failed (out of memory)");
  return P;
}

/// Frees memory obtained from alignedAlloc(\p Bytes, \p Alignment).
/// Null is a no-op.
inline void alignedFree(void *P, std::size_t Bytes,
                        std::size_t Alignment = HICHI_CACHELINE_SIZE) {
  if (P && isDirectMapped(Bytes, Alignment))
    munmap(P, Bytes);
  else
    std::free(P);
}

/// Minimal std-compatible allocator with fixed alignment; lets
/// std::vector-based buffers share the aligned allocation policy.
template <typename T, std::size_t Alignment = HICHI_CACHELINE_SIZE>
class AlignedAllocator {
public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) {}

  T *allocate(std::size_t N) {
    return static_cast<T *>(alignedAlloc(N * sizeof(T), Alignment));
  }
  void deallocate(T *P, std::size_t N) {
    alignedFree(P, N * sizeof(T), Alignment);
  }

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }
};

} // namespace hichi

#endif // HICHI_SUPPORT_ALIGNEDALLOCATOR_H
