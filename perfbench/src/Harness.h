//===-- perfbench/src/Harness.h - Measurement plumbing ---------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the run arguments, the in-memory
/// span recorder of the traced mode, the pinned host-speed probe, peak
/// resident memory, the timed-block loop, and the raw record the process
/// prints for run.py to turn into metrics. The benchmark measures the
/// library from outside: spans wrap the benchmark's own calls into public
/// functions, and counters are read through the accessors PicSimulation
/// already has.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one workload process.
struct RunArgs {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;         ///< span file written at exit (traced mode)
  std::string ScratchDir = "."; ///< checkpoint files of the verify step
  bool WrongHash = false;       ///< corrupt the expected hashes (self-test)
};

/// One correctness check: its name, outcome and a one-line detail.
struct Check {
  std::string Name;
  bool Ok = false;
  std::string Detail;
};

/// Everything one workload process measured. run.py derives the
/// end-to-end and per-layer metrics from it (medians and tails are
/// computed there, once).
struct RawResult {
  std::string Workload;
  std::string RunId;
  int Threads = 0;
  long long Particles = 0;
  int BlockSteps = 0;
  std::vector<double> BlockNsps;       ///< untraced timed blocks
  std::vector<double> TracedBlockNsps; ///< traced timed blocks
  std::vector<double> TracedBlockMs;   ///< traced timed blocks, wall ms
  std::vector<double> SetupS;          ///< one per repeated set-up
  std::vector<double> ProbeMs;         ///< before set-up and between blocks
  std::vector<double> StepMs;          ///< traced PIC steps
  double PeakRssMb = 0;
  std::vector<Check> Checks;
  std::map<std::string, double> Layers; ///< traced per-layer values

  /// One-line JSON rendering (the process's last stdout line).
  std::string toJson() const;
};

/// Spans kept in memory and written once at exit: name, start, end,
/// parent span, workload and run id. A disabled recorder costs one
/// branch per call.
class SpanRecorder {
public:
  SpanRecorder(bool Enabled, std::string Workload, std::string RunId);

  /// Opens a span under \p Parent (-1 = root) and \returns its id, or -1
  /// when disabled.
  int begin(const char *Name, int Parent = -1);
  void end(int Id);

  /// Writes every span as one JSON document to \p Path. \returns false
  /// if the file cannot be written.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    std::int64_t StartNs;
    std::int64_t EndNs;
    int Parent;
  };
  bool Enabled;
  std::string Workload, RunId;
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name, int Parent = -1)
      : Rec(R), Id(R.begin(Name, Parent)) {}
  ~ScopedSpan() { Rec.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  SpanRecorder &Rec;
  int Id;
};

/// Threads the workloads use: 4, or fewer on a smaller host. Always an
/// explicit count, never "all".
int benchThreads();

/// The host-speed probe: one thread per core in use (each pinned to its
/// own core, whatever mask its parent thread carries) runs a fixed
/// dependent floating-point loop; \returns the slowest thread's time in
/// ms.
double hostProbeMs();

/// Peak resident set size of this process so far [MB].
double peakRssMb();

/// splitmix64 of the seed and a salt: per-workload jitter and phases.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt);

/// A uniform double in [0, 1) drawn from mixSeed(Seed, Salt).
double unitFromSeed(std::uint64_t Seed, std::uint64_t Salt);

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// Blocks below which nsps_p90 could not have ten samples beyond it.
constexpr int MinBlocks = 100;

/// The timed-block loop every workload shares. Runs blocks until
/// Args.Seconds have passed and at least MinBlocks blocks exist,
/// probing the host before each block. In traced mode every other block
/// is traced, so the traced and untraced NSPS come from one process and
/// their ratio is the tracing cost. \p Block runs one block (arguments:
/// whether to trace it, and the block's span id) and \p Particles
/// returns the live particle count at block start.
void timeBlocks(const RunArgs &Args, SpanRecorder &Spans, int RootSpan,
                RawResult &Out, const std::function<void(bool, int)> &Block,
                const std::function<long long()> &Particles);

/// Workload entry points (Workloads.cpp). Each fills \p Out and records
/// its spans under \p RootSpan.
void runPaperPush(const RunArgs &Args, SpanRecorder &Spans, int RootSpan,
                  RawResult &Out);
void runPicUniform(const RunArgs &Args, SpanRecorder &Spans, int RootSpan,
                   RawResult &Out);
void runPicWindow(const RunArgs &Args, SpanRecorder &Spans, int RootSpan,
                  RawResult &Out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
