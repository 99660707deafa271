//===-- threading/WorkQueue.h - In-order background work queue -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO work queue drained by one dedicated background thread — the
/// shared engine behind every non-blocking submission path: the
/// minisycl queue's device thread (in-order command groups) and the
/// sharded backend's per-shard lanes (launches in submission order).
///
/// Guarantees:
///   * tasks execute one at a time, in push order;
///   * drain() blocks until every pushed task has finished;
///   * the destructor drains, then joins — no task is dropped.
///
/// The worker thread is created lazily on the first push, so
/// constructing one of these inside rarely-async objects (every minisycl
/// queue) is free.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_THREADING_WORKQUEUE_H
#define HICHI_THREADING_WORKQUEUE_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace hichi {
namespace threading {

/// FIFO queue of \p Task objects executed by one background thread
/// through a fixed run function.
template <typename Task> class InOrderWorkQueue {
public:
  /// \p Run executes one task (on the worker thread, created lazily at
  /// first push).
  explicit InOrderWorkQueue(std::function<void(Task &)> Run)
      : Run(std::move(Run)) {}

  ~InOrderWorkQueue() {
    drain();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ShuttingDown = true;
    }
    WorkCv.notify_all();
    if (Worker.joinable())
      Worker.join();
  }

  InOrderWorkQueue(const InOrderWorkQueue &) = delete;
  InOrderWorkQueue &operator=(const InOrderWorkQueue &) = delete;

  /// Enqueues \p T; returns immediately.
  void push(Task T) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (!Worker.joinable())
        Worker = std::thread([this] { workerLoop(); });
      Pending.push_back(std::move(T));
    }
    WorkCv.notify_one();
  }

  /// Blocks until every task pushed so far has finished executing.
  void drain() {
    std::unique_lock<std::mutex> Lock(Mutex);
    IdleCv.wait(Lock, [this] { return Pending.empty() && !Busy; });
  }

private:
  void workerLoop() {
    for (;;) {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCv.wait(Lock, [this] { return ShuttingDown || !Pending.empty(); });
      if (Pending.empty())
        return; // shutting down with nothing left to run
      Task T = std::move(Pending.front());
      Pending.pop_front();
      Busy = true;
      Lock.unlock();

      Run(T);

      Lock.lock();
      Busy = false;
      const bool Idle = Pending.empty();
      Lock.unlock();
      if (Idle)
        IdleCv.notify_all();
    }
  }

  std::function<void(Task &)> Run;
  std::thread Worker;

  std::mutex Mutex;
  std::condition_variable WorkCv; ///< wakes the worker
  std::condition_variable IdleCv; ///< wakes drain()ers
  std::deque<Task> Pending;
  bool Busy = false; ///< a popped task is executing
  bool ShuttingDown = false;
};

} // namespace threading
} // namespace hichi

#endif // HICHI_THREADING_WORKQUEUE_H
