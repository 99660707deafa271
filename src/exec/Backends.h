//===-- exec/Backends.h - The built-in execution backends ------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronous built-in execution backends, matching the rows of the
/// paper's Table 2 plus a serial reference:
///
///   * serial     — plain loop, single thread (tests, baselines);
///   * openmp     — static scheduling on the shared thread pool
///                  (Section 4.1's `#pragma omp parallel for simd`);
///   * dpcpp      — one miniSYCL kernel per fused step group, dynamic
///                  chunk scheduling (Section 4.2);
///   * dpcpp-numa — the same with NUMA arenas
///                  (DPCPP_CPU_PLACES=numa_domains, Section 4.3).
///
/// All three classes implement the event-based submit() API by waiting
/// their dependencies inline and completing the work before returning
/// (dpcpp on a non-blocking simulated-GPU queue is the exception: it
/// returns a deferred event, see DpcppBackend). The asynchronous
/// "sharded" backend lives in ShardedBackend.h.
///
/// Prefer resolving backends by name through BackendRegistry.h; the
/// concrete classes are exposed for direct construction in tests.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_BACKENDS_H
#define HICHI_EXEC_BACKENDS_H

#include "exec/ExecutionBackend.h"

#include <mutex>

namespace hichi {
namespace exec {

/// Plain single-threaded loop; the bitwise reference all other backends
/// are tested against.
class SerialBackend final : public ExecutionBackend {
public:
  const char *name() const override { return "serial"; }

protected:
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &Ctx, RunStats &Stats) override;
};

/// OpenMP-style static scheduling: one contiguous block per worker, the
/// same iteration->thread mapping at every launch (first-touch locality,
/// paper Section 5.3 conclusion 1).
class StaticPoolBackend final : public ExecutionBackend {
public:
  explicit StaticPoolBackend(const BackendConfig &Config) : Config(Config) {}

  const char *name() const override { return "openmp"; }

protected:
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &Ctx, RunStats &Stats) override;

private:
  BackendConfig Config;
};

/// DPC++-style execution: submits one miniSYCL kernel per launch whose
/// work items are dynamically scheduled chunks of the particle range.
/// The queue's device decides CPU vs simulated GPU; queue configuration
/// (thread count, cpu_places) is saved and restored around every launch,
/// so no state leaks between runs sharing a queue. On a non-blocking
/// queue (simulated GPUs by default) submit() returns a *deferred*
/// ExecEvent wrapping the pending minisycl event — the launch executes
/// on the queue's device thread while the host goes on submitting.
class DpcppBackend final : public ExecutionBackend {
public:
  DpcppBackend(const BackendConfig &Config, bool NumaArenas)
      : Config(Config), NumaArenas(NumaArenas) {}

  const char *name() const override {
    return NumaArenas ? "dpcpp-numa" : "dpcpp";
  }
  bool needsQueue() const override { return true; }

protected:
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &Ctx, RunStats &Stats) override;

private:
  BackendConfig Config;
  bool NumaArenas;

  /// Serializes RunStats accumulation by deferred-event finalizers: with
  /// event-chained submission on a non-blocking queue, the device thread
  /// (claiming a dependency's finalizer inside its depends_on_host wait)
  /// and the host's trailing wait loop can finalize different events of
  /// the same chain concurrently, and those events share one RunStats.
  std::mutex StatsMutex;
};

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_BACKENDS_H
