//===-- support/CpuTopology.h - CPU/NUMA topology description --*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Description of the CPU the runtime executes on: logical core count and
/// NUMA domain layout. The paper's testbed is a 2-socket Xeon 8260L node
/// (48 cores, 2 NUMA domains, Table 1); CI containers typically expose one
/// core and one domain. Topology is therefore three-sourced:
///
///   1. detected from the OS (std::thread::hardware_concurrency),
///   2. overridden by HICHI_TOPOLOGY="<domains>x<coresPerDomain>" so the
///      NUMA code paths can be exercised anywhere (threads then oversubscribe
///      the physical core, which is fine for correctness tests), or
///   3. constructed programmatically (the perf model builds the paper's
///      topology explicitly).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SUPPORT_CPUTOPOLOGY_H
#define HICHI_SUPPORT_CPUTOPOLOGY_H

#include <cassert>
#include <vector>

namespace hichi {

/// Immutable description of a machine's core/NUMA layout. Cores are
/// numbered 0..coreCount()-1; domain D owns the contiguous block
/// [D*coresPerDomain, (D+1)*coresPerDomain).
class CpuTopology {
public:
  /// Builds a topology with \p Domains NUMA domains of \p CoresPerDomain
  /// cores each.
  CpuTopology(int Domains, int CoresPerDomain)
      : Domains(Domains), CoresPerDomain(CoresPerDomain) {
    assert(Domains > 0 && CoresPerDomain > 0 && "degenerate topology");
  }

  /// Detects the host topology, honouring the HICHI_TOPOLOGY override
  /// ("<domains>x<coresPerDomain>", e.g. "2x24" for the paper's node).
  static CpuTopology detect();

  /// \returns the host's physical core count: the logical CPUs that are
  /// the first hardware thread of their core (Linux sysfs
  /// thread_siblings_list). A CPU whose siblings cannot be read counts as
  /// its own core, so without sysfs this is hardware_concurrency.
  /// Ignores HICHI_TOPOLOGY, which describes domains, not SMT.
  static int physicalCoreCount();

  /// The paper's CPU node: 2 sockets x 24 cores (Table 1).
  static CpuTopology paperNode() { return CpuTopology(2, 24); }

  int domainCount() const { return Domains; }
  int coresPerDomain() const { return CoresPerDomain; }
  int coreCount() const { return Domains * CoresPerDomain; }

  /// \returns the NUMA domain owning core \p Core.
  int domainOfCore(int Core) const {
    assert(Core >= 0 && Core < coreCount() && "core index out of range");
    return Core / CoresPerDomain;
  }

  /// \returns the cores belonging to \p Domain, in increasing order.
  std::vector<int> coresOfDomain(int Domain) const {
    assert(Domain >= 0 && Domain < Domains && "domain index out of range");
    std::vector<int> Cores;
    Cores.reserve(CoresPerDomain);
    for (int C = Domain * CoresPerDomain; C < (Domain + 1) * CoresPerDomain;
         ++C)
      Cores.push_back(C);
    return Cores;
  }

  friend bool operator==(const CpuTopology &L, const CpuTopology &R) {
    return L.Domains == R.Domains && L.CoresPerDomain == R.CoresPerDomain;
  }

private:
  int Domains;
  int CoresPerDomain;
};

} // namespace hichi

#endif // HICHI_SUPPORT_CPUTOPOLOGY_H
