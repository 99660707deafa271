//===-- support/CpuTopology.cpp - CPU/NUMA topology detection ------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/CpuTopology.h"

#include "support/EnvVar.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

using namespace hichi;

CpuTopology CpuTopology::detect() {
  if (auto Spec = getEnvTrimmed("HICHI_TOPOLOGY")) {
    int Domains = 0, Cores = 0;
    if (std::sscanf(Spec->c_str(), "%dx%d", &Domains, &Cores) == 2 &&
        Domains > 0 && Cores > 0)
      return CpuTopology(Domains, Cores);
    // Fall through to detection on a malformed override rather than abort:
    // a typo in an env var should not kill a long benchmark run.
  }
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  return CpuTopology(/*Domains=*/1, /*CoresPerDomain=*/int(Hw));
}

int CpuTopology::physicalCoreCount() {
  const int Hw = std::max(1, int(std::thread::hardware_concurrency()));
  int Cores = 0;
  for (int Cpu = 0; Cpu < Hw; ++Cpu) {
    const std::string Path = "/sys/devices/system/cpu/cpu" +
                             std::to_string(Cpu) +
                             "/topology/thread_siblings_list";
    int First = Cpu;
    if (std::FILE *F = std::fopen(Path.c_str(), "r")) {
      if (std::fscanf(F, "%d", &First) != 1)
        First = Cpu;
      std::fclose(F);
    }
    Cores += First == Cpu;
  }
  return std::max(1, Cores);
}
