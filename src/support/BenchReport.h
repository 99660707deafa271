//===-- support/BenchReport.h - Machine-readable bench results -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable benchmark results (the SNIPPETS report format:
/// per-run JSON with per-iteration samples and summary statistics, for
/// plotting and archiving as CI artifacts). Shared by the bench
/// harness and the hichi_push CLI, hence under src/ rather than bench/.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SUPPORT_BENCHREPORT_H
#define HICHI_SUPPORT_BENCHREPORT_H

#include "support/EnvVar.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace hichi {
namespace bench {

/// Result of one measured configuration: per-iteration wall times plus
/// the paper's NSPS metric. Statistics of an empty series are 0.
struct MeasuredSeries {
  std::vector<double> IterationNs;
  double Nsps = 0;

  double medianNs() const {
    return IterationNs.empty() ? 0.0 : median(IterationNs);
  }
  double minNs() const {
    return IterationNs.empty()
               ? 0.0
               : *std::min_element(IterationNs.begin(), IterationNs.end());
  }
  double maxNs() const {
    return IterationNs.empty()
               ? 0.0
               : *std::max_element(IterationNs.begin(), IterationNs.end());
  }
};

/// One measured configuration, ready for serialization.
struct BenchRecord {
  std::string Bench;    ///< bench/tool name, e.g. "hichi_push"
  std::string Backend;  ///< exec registry name
  std::string Stage = "push"; ///< "push", or bench_serve's "serve" | "latency"
  std::string Scenario; ///< "analytical" | "precalculated" | custom
  std::string Layout;   ///< "aos" | "soa"
  std::string Precision;///< "float" | "double"
  long long Particles = 0;
  int Steps = 0;
  int Iterations = 0;
  int FuseSteps = 1;
  int Threads = 0; ///< 0 = all
  /// Submission shape the measured stage used: "mega-kernel" (blocking
  /// fused launches) or "event-chain" (non-blocking chained submits).
  std::string Submit = "mega-kernel";
  double MedianNs = 0, MinNs = 0, MaxNs = 0;
  double Nsps = 0;

  /// Copies the summary statistics out of \p Series.
  void setSeries(const MeasuredSeries &Series) {
    MedianNs = Series.medianNs();
    MinNs = Series.minNs();
    MaxNs = Series.maxNs();
    Nsps = Series.Nsps;
  }
};

/// Collects BenchRecords and writes them as one JSON document
/// ("hichi-bench-v1" schema).
class JsonReport {
public:
  explicit JsonReport(std::string BenchName) : Bench(std::move(BenchName)) {}

  void add(BenchRecord R) {
    if (R.Bench.empty())
      R.Bench = Bench;
    Records.push_back(std::move(R));
  }

  bool empty() const { return Records.empty(); }

  /// Writes the report to \p Path. \returns false on I/O failure.
  bool writeFile(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\n  \"schema\": \"hichi-bench-v1\",\n");
    std::fprintf(F, "  \"bench\": \"%s\",\n", escaped(Bench).c_str());
    std::fprintf(F, "  \"host_hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(F, "  \"results\": [\n");
    for (std::size_t I = 0; I < Records.size(); ++I) {
      const BenchRecord &R = Records[I];
      std::fprintf(
          F,
          "    {\"bench\": \"%s\", \"backend\": \"%s\", \"stage\": \"%s\", "
          "\"scenario\": "
          "\"%s\", \"layout\": \"%s\", \"precision\": \"%s\", "
          "\"particles\": %lld, \"steps\": %d, \"iterations\": %d, "
          "\"fuse_steps\": %d, \"threads\": %d, \"submit\": \"%s\", "
          "\"median_ns\": %.1f, "
          "\"min_ns\": %.1f, \"max_ns\": %.1f, \"nsps\": %.6f}%s\n",
          escaped(R.Bench).c_str(), escaped(R.Backend).c_str(),
          escaped(R.Stage).c_str(), escaped(R.Scenario).c_str(),
          escaped(R.Layout).c_str(), escaped(R.Precision).c_str(),
          R.Particles, R.Steps, R.Iterations, R.FuseSteps, R.Threads,
          escaped(R.Submit).c_str(),
          R.MedianNs, R.MinNs, R.MaxNs, R.Nsps,
          I + 1 < Records.size() ? "," : "");
    }
    std::fprintf(F, "  ]\n}\n");
    return std::fclose(F) == 0;
  }

  /// Writes to the file named by the HICHI_BENCH_JSON environment
  /// variable, if set; prints where the report went.
  void writeEnvRequested() const {
    auto Path = getEnvTrimmed("HICHI_BENCH_JSON");
    if (!Path || empty())
      return;
    if (writeFile(*Path))
      std::printf("\nwrote %zu JSON records to %s\n", Records.size(),
                  Path->c_str());
    else
      std::fprintf(stderr, "warning: could not write JSON report to %s\n",
                   Path->c_str());
  }

private:
  static std::string escaped(const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out;
  }

  std::string Bench;
  std::vector<BenchRecord> Records;
};

} // namespace bench
} // namespace hichi

#endif // HICHI_SUPPORT_BENCHREPORT_H
