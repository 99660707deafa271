//===-- serve/BackendPool.cpp - Shared exec pool with lane leases ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/BackendPool.h"

#include "exec/BackendRegistry.h"

#include <algorithm>
#include <cassert>

using namespace hichi;
using namespace hichi::serve;

BackendPool::Bind &BackendPool::threadBind() {
  thread_local Bind Current;
  return Current;
}

BackendPool::BackendPool(int TotalLanes, int LanesPerJob) {
  PerJob = std::max(LanesPerJob, 1);
  TotalLanes = std::min(std::max(TotalLanes, PerJob), 64);
  SlotCount = std::max(TotalLanes / PerJob, 1);
  Pool = std::make_unique<exec::ShardedBackend>(
      exec::BackendConfig{SlotCount * PerJob, /*Grain=*/0});
  SlotBusy.assign(std::size_t(SlotCount), false);

  // The "pool" registry entry: visible process-wide once any pool
  // exists, usable only under a BindGuard (registerBackend is a no-op
  // when a second pool repeats it; the thread-local bind names the
  // right pool instance either way).
  exec::BackendRegistry::instance().registerBackend(
      "pool",
      "leased lane slice of the serve layer's shared sharded pool "
      "(create under a BackendPool::BindGuard)",
      [](const exec::BackendConfig &) -> std::unique_ptr<exec::ExecutionBackend> {
        const Bind &Current = threadBind();
        if (!Current.Pool)
          return nullptr;
        return std::make_unique<PoolClientBackend>(*Current.Pool,
                                                   Current.Lease);
      });
}

LaneLease BackendPool::acquire() {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto Free = SlotBusy.end();
  SlotFreed.wait(Lock, [&] {
    Free = std::find(SlotBusy.begin(), SlotBusy.end(), false);
    return Free != SlotBusy.end();
  });
  *Free = true;
  const int S = int(Free - SlotBusy.begin());
  return LaneLease{S, S * PerJob, PerJob};
}

void BackendPool::release(const LaneLease &Lease) {
  if (Lease.Slot < 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Lease.Slot < SlotCount && SlotBusy[std::size_t(Lease.Slot)] &&
           "releasing a slot that was not leased");
    SlotBusy[std::size_t(Lease.Slot)] = false;
  }
  SlotFreed.notify_all();
}

int BackendPool::freeSlots() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return int(std::count(SlotBusy.begin(), SlotBusy.end(), false));
}

BackendPool::BindGuard::BindGuard(BackendPool &Pool, const LaneLease &Lease) {
  Bind &Current = threadBind();
  assert(!Current.Pool && "BindGuards do not nest");
  Current.Pool = &Pool;
  Current.Lease = Lease;
}

BackendPool::BindGuard::~BindGuard() { threadBind() = Bind{}; }
