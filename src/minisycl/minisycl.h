//===-- minisycl/minisycl.h - Umbrella header -------------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the miniSYCL runtime, the project's stand-in for
/// Intel's DPC++ (see DESIGN.md, substitution table). Code written against
/// it reads like the paper's DPC++ listings:
///
/// \code
///   namespace sycl = minisycl;             // optional alias
///   sycl::queue Q{sycl::cpu_device()};
///   auto *P = sycl::malloc_shared<Particle>(N, Q);
///   Q.submit([&](sycl::handler &h) {
///     h.parallel_for(sycl::range<1>(N), [=](sycl::id<1> i) { push(P[i]); });
///   }).wait_and_throw();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_MINISYCL_MINISYCL_H
#define HICHI_MINISYCL_MINISYCL_H

#include "minisycl/device.h"
#include "minisycl/event.h"
#include "minisycl/handler.h"
#include "minisycl/queue.h"
#include "minisycl/range.h"
#include "minisycl/usm.h"

#endif // HICHI_MINISYCL_MINISYCL_H
