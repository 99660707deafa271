//===-- minisycl/queue.h - Command queue ------------------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command queue: accepts command groups, executes them with the
/// device's scheduling policy, and returns profiled events.
///
/// Two submission modes exist, both in-order:
///
///   * **eager** (CPU devices by default): submit() executes the command
///     group before returning; the event is born complete.
///   * **non-blocking** (simulated GPU devices by default): submit()
///     snapshots the queue configuration, enqueues the command group to
///     the queue's device thread and returns a *pending* event — the
///     DPC++ submit/event model the paper's performance story rests on.
///     handler::depends_on chains command groups across queues;
///     event::wait() / queue::wait() synchronize.
///
/// Override the default per queue with set_async_submit(), or process
/// wide with MINISYCL_ASYNC_SUBMIT=0|1.
///
/// CPU scheduling honours MINISYCL_CPU_PLACES=numa_domains (the paper's
/// DPCPP_CPU_PLACES, Section 4.3) and MINISYCL_NUM_THREADS; both can also
/// be set programmatically, which the benchmark matrix uses to toggle the
/// 'DPC++' and 'DPC++ NUMA' rows of Table 2 inside one process.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_MINISYCL_QUEUE_H
#define HICHI_MINISYCL_QUEUE_H

#include "minisycl/device.h"
#include "minisycl/event.h"
#include "minisycl/handler.h"
#include "minisycl/usm.h"
#include "threading/WorkQueue.h"

#include <memory>
#include <mutex>
#include <unordered_set>

namespace minisycl {

/// An in-order command queue (eager on CPU, non-blocking on simulated
/// GPU devices by default).
class queue {
public:
  /// Queue on default_device() (MINISYCL_DEVICE or the CPU).
  queue();

  /// Queue on an explicit device.
  explicit queue(const device &Dev);

  /// Drains any pending asynchronous submissions, then joins the device
  /// thread.
  ~queue();

  queue(const queue &) = delete;
  queue &operator=(const queue &) = delete;

  /// Submits a command group: \p GroupFn receives a handler& to record
  /// commands. \returns the profiled completion event (pending in
  /// non-blocking mode; call wait() / read a profiling getter to
  /// synchronize).
  template <typename GroupFn> event submit(GroupFn &&GroupFn_) {
    handler Handler;
    GroupFn_(Handler);
    return enqueue(std::move(Handler));
  }

  /// Shortcut: submit a bare parallel_for.
  template <int Dims, typename KernelFn>
  event parallel_for(range<Dims> Extent, KernelFn Kernel) {
    return submit([&](handler &H) { H.parallel_for(Extent, Kernel); });
  }

  /// Shortcut: device-to-device/host memcpy (USM).
  event memcpy(void *Dst, const void *Src, std::size_t Bytes) {
    return submit([&](handler &H) { H.memcpy(Dst, Src, Bytes); });
  }

  /// SYCL 2020 queue::fill: assigns \p Value to Count elements at \p Ptr
  /// in parallel.
  template <typename T> event fill(T *Ptr, const T &Value, std::size_t Count) {
    return parallel_for(range<1>(Count),
                        [=](id<1> I) { Ptr[I] = Value; });
  }

  /// SYCL 2020 queue::copy (USM pointer form): Src -> Dst, Count
  /// elements.
  template <typename T>
  event copy(const T *Src, T *Dst, std::size_t Count) {
    return memcpy(Dst, Src, Count * sizeof(T));
  }

  /// Blocks until all submitted work completes (a no-op for eager
  /// queues, a drain for non-blocking ones).
  void wait();
  void wait_and_throw() { wait(); }

  const device &get_device() const { return Dev; }

  /// Submission mode: true = non-blocking submits executed by the
  /// queue's device thread. Switching to eager drains pending work
  /// first.
  void set_async_submit(bool Async);
  bool async_submit() const { return AsyncMode; }

  /// CPU scheduling knobs (no-ops for GPU queues).
  void set_cpu_places(cpu_places Places) { this->Places = Places; }
  cpu_places get_cpu_places() const { return Places; }
  void set_thread_count(int Threads);
  int thread_count() const { return Width; }

  /// Forgets which kernels were already JIT-compiled, so the next launch
  /// of each kernel charges the first-launch cost again (used by the
  /// first-iteration benchmark).
  void reset_jit_cache();

private:
  /// One recorded command group awaiting execution: the handler state,
  /// the launch configuration snapshotted at submission time (so later
  /// queue reconfiguration cannot retroactively change a submitted
  /// launch), and the event to complete.
  struct Command {
    handler Handler;
    launch_config Config;
    event Event;
  };

  /// Routes a recorded command group: executes inline (eager) or hands
  /// it to the device thread (non-blocking).
  event enqueue(handler &&Handler);

  /// Executes \p Cmd's command group (dependencies first) and completes
  /// its event. Runs on the submitting thread in eager mode, on the
  /// device thread otherwise.
  void execute(Command &Cmd);

  void drain();

  device Dev;
  hichi::threading::ThreadPool *Pool = nullptr;
  const hichi::CpuTopology *Topology = nullptr;
  int Width = 1;
  cpu_places Places = cpu_places::flat;
  bool AsyncMode = false;

  std::mutex JitMutex; ///< JittedKernels is shared with the device thread
  std::unordered_set<const void *> JittedKernels;

  /// The in-order device thread: a FIFO work queue shared with the
  /// sharded backend's lanes (threading/WorkQueue.h). The worker thread
  /// itself is created lazily on the first non-blocking submission, so
  /// eager queues never pay for it.
  hichi::threading::InOrderWorkQueue<Command> DeviceQueue{
      [this](Command &C) { execute(C); }};
};

/// Queue-flavoured USM entry points (SYCL provides both spellings).
template <typename T> T *malloc_shared(std::size_t Count, const queue &Q) {
  return malloc_shared<T>(Count, Q.get_device());
}
template <typename T> T *malloc_device(std::size_t Count, const queue &Q) {
  return malloc_device<T>(Count, Q.get_device());
}
template <typename T> T *malloc_host(std::size_t Count, const queue &Q) {
  return malloc_host<T>(Count, Q.get_device());
}
inline void free(void *Ptr, const queue &) { free(Ptr); }

} // namespace minisycl

#endif // HICHI_MINISYCL_QUEUE_H
