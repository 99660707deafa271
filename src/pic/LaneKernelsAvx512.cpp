//===-- pic/LaneKernelsAvx512.cpp - The AVX-512 lane kernels -------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AVX-512 instantiation of the lane kernels (LaneKernels.h), built
/// with no compiler flag: the target pragma below covers every function
/// this file defines, and the dispatch in LaneKernels.h only calls them
/// on a CPU with AVX-512 F, DQ and VL.
///
/// Two rules keep the bits and the baseline build safe:
///   * fp-contract=off: the AVX-512 target enables FMA, and GCC would
///     otherwise contract a*b+c into one rounding, which changes bits;
///   * every symbol defined here carries the Avx512Isa tag, so no
///     AVX-512 copy of a shared inline function can be picked by the
///     linker for baseline callers (the lane_isa_object test checks
///     both with nm and objdump).
///
//===----------------------------------------------------------------------===//

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)

#pragma GCC target("avx512f,avx512dq,avx512vl")
#pragma GCC optimize("fp-contract=off")

#include "pic/LaneKernels.h"

#include <immintrin.h>

namespace hichi {
namespace pic {

/// Exact floor (round toward -inf, no inexact exception) and correctly
/// rounded square root, eight lanes at a time. Both use the all-lanes
/// mask form: the plain intrinsics trip GCC 12's -Wuninitialized on their
/// undefined pass-through operand.
template <> struct LaneMath<Avx512Isa, 8> {
  static void floor(const double *In, double *Out) {
    const __m512d X = _mm512_loadu_pd(In);
    _mm512_storeu_pd(Out, _mm512_mask_roundscale_pd(
                              X, AllLanes, X,
                              _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));
  }
  static void sqrt(const double *In, double *Out) {
    const __m512d X = _mm512_loadu_pd(In);
    _mm512_storeu_pd(Out, _mm512_mask_sqrt_pd(X, AllLanes, X));
  }

private:
  static constexpr __mmask8 AllLanes = 0xFF;
};

template struct LaneKernels<double, Avx512Isa>;

} // namespace pic
} // namespace hichi

#endif
