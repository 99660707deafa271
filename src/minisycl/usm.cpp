//===-- minisycl/usm.cpp - Unified Shared Memory --------------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "minisycl/usm.h"

#include "support/AlignedAllocator.h"
#include "support/Logging.h"

#include <mutex>
#include <unordered_map>

using namespace minisycl;

namespace {

/// Process-wide allocation registry. Function-local static (no static
/// constructor) guarded by a mutex; USM alloc/free is far off the hot
/// path (once per ensemble, not per step).
struct UsmRegistry {
  struct Entry {
    std::size_t Bytes;
    usm::alloc Kind;
  };

  std::mutex Mutex;
  std::unordered_map<const void *, Entry> Entries;
  std::size_t LiveBytes = 0;

  static UsmRegistry &get() {
    static UsmRegistry Registry;
    return Registry;
  }
};

} // namespace

void *minisycl::malloc_bytes(std::size_t Bytes, const device &Dev,
                             usm::alloc Kind) {
  (void)Dev; // all simulated devices share host memory
  if (Bytes == 0)
    return nullptr;
  void *Ptr = hichi::alignedAlloc(Bytes);
  UsmRegistry &Registry = UsmRegistry::get();
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  Registry.Entries[Ptr] = {Bytes, Kind};
  Registry.LiveBytes += Bytes;
  return Ptr;
}

void minisycl::free(void *Ptr) {
  if (!Ptr)
    return;
  UsmRegistry &Registry = UsmRegistry::get();
  std::size_t Bytes = 0;
  {
    std::lock_guard<std::mutex> Lock(Registry.Mutex);
    auto It = Registry.Entries.find(Ptr);
    if (It == Registry.Entries.end())
      hichi::fatalError("minisycl::free called on a non-USM pointer");
    Bytes = It->second.Bytes;
    Registry.LiveBytes -= Bytes;
    Registry.Entries.erase(It);
  }
  hichi::alignedFree(Ptr, Bytes);
}

usm::alloc minisycl::get_pointer_type(const void *Ptr) {
  UsmRegistry &Registry = UsmRegistry::get();
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  auto It = Registry.Entries.find(Ptr);
  return It == Registry.Entries.end() ? usm::alloc::unknown : It->second.Kind;
}

std::size_t minisycl::usm_live_allocations() {
  UsmRegistry &Registry = UsmRegistry::get();
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  return Registry.Entries.size();
}

std::size_t minisycl::usm_live_bytes() {
  UsmRegistry &Registry = UsmRegistry::get();
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  return Registry.LiveBytes;
}
