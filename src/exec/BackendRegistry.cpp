//===-- exec/BackendRegistry.cpp - String-keyed backend factory -----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"

#include "exec/Autotuner.h"
#include "exec/Backends.h"
#include "exec/ShardedBackend.h"

using namespace hichi::exec;

BackendRegistry::BackendRegistry() {
  registerBackend("serial", "plain loop, single thread (bitwise reference)",
                  [](const BackendConfig &) {
                    return std::make_unique<SerialBackend>();
                  });
  registerBackend("openmp",
                  "static scheduling on the thread pool (paper Sec. 4.1)",
                  [](const BackendConfig &C) {
                    return std::make_unique<StaticPoolBackend>(C);
                  });
  registerBackend("dpcpp",
                  "miniSYCL kernel, dynamic scheduling (paper Sec. 4.2)",
                  [](const BackendConfig &C) {
                    return std::make_unique<DpcppBackend>(C, /*NumaArenas=*/false);
                  });
  registerBackend("dpcpp-numa",
                  "miniSYCL kernel, NUMA arenas (paper Sec. 4.3)",
                  [](const BackendConfig &C) {
                    return std::make_unique<DpcppBackend>(C, /*NumaArenas=*/true);
                  });
  registerBackend("sharded",
                  "persistent shards with per-shard FIFO lanes and "
                  "first-touched arenas (threads = shard count)",
                  [](const BackendConfig &C) {
                    return std::make_unique<ShardedBackend>(C);
                  });
  // Last so "auto" lists after the concrete strategies it delegates to.
  // Passed *this, not instance(): we are inside that magic static's
  // initialization right now.
  registerAutoBackend(*this);
}

BackendRegistry &BackendRegistry::instance() {
  static BackendRegistry Registry;
  return Registry;
}

bool BackendRegistry::registerBackend(std::string Name, std::string Description,
                                      Factory MakeBackend) {
  if (!MakeBackend)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return false;
  Entries.push_back({std::move(Name), std::move(Description),
                     std::move(MakeBackend)});
  return true;
}

std::unique_ptr<ExecutionBackend>
BackendRegistry::create(const std::string &Name,
                        const BackendConfig &Config) const {
  // Copy the factory out under the lock, run it outside: a factory may
  // consult the registry (or block) without holding other threads'
  // lookups hostage.
  Factory Make;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const Entry &E : Entries)
      if (E.Name == Name) {
        Make = E.Make;
        break;
      }
  }
  return Make ? Make(Config) : nullptr;
}

bool BackendRegistry::contains(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return true;
  return false;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Out;
  Out.reserve(Entries.size());
  for (const Entry &E : Entries)
    Out.push_back(E.Name);
  return Out;
}

std::string BackendRegistry::description(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return E.Description;
  return "";
}

std::string hichi::exec::listBackendNames(const char *Separator) {
  std::string Out;
  for (const std::string &Name : BackendRegistry::instance().names()) {
    if (!Out.empty())
      Out += Separator;
    Out += Name;
  }
  return Out;
}
