//===-- perfbench/src/Harness.cpp - Measurement plumbing -----------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Json.h"
#include "support/Timer.h"
#include "threading/CoreBinding.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include <sys/resource.h>

namespace perfbench {
namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string quoted(const std::string &S) {
  return "\"" + hichi::json::escapeJsonString(S) + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string list(const std::vector<double> &Values) {
  std::string S = "[";
  for (std::size_t I = 0; I < Values.size(); ++I)
    S += (I ? "," : "") + number(Values[I]);
  return S + "]";
}

/// Iterations of the probe's dependent multiply-add chain: a few ms,
/// long next to thread start-up, short enough to run before every block.
constexpr long ProbeIterations = 1L << 21;

/// Hard stop of the timed-block loop, well inside the per-run limit
/// whatever the host's speed.
constexpr double MaxBlockSeconds = 120;

} // namespace

std::string RawResult::toJson() const {
  std::string S = "{\"workload\":" + quoted(Workload);
  S += ",\"run_id\":" + quoted(RunId);
  S += ",\"threads\":" + std::to_string(Threads);
  S += ",\"particles\":" + std::to_string(Particles);
  S += ",\"block_steps\":" + std::to_string(BlockSteps);
  S += ",\"block_nsps\":" + list(BlockNsps);
  S += ",\"traced_block_nsps\":" + list(TracedBlockNsps);
  S += ",\"traced_block_ms\":" + list(TracedBlockMs);
  S += ",\"setup_s\":" + list(SetupS);
  S += ",\"probe_ms\":" + list(ProbeMs);
  S += ",\"step_ms\":" + list(StepMs);
  S += ",\"peak_rss_mb\":" + number(PeakRssMb);
  S += ",\"checks\":[";
  for (std::size_t I = 0; I < Checks.size(); ++I)
    S += std::string(I ? "," : "") + "{\"name\":" + quoted(Checks[I].Name) +
         ",\"ok\":" + (Checks[I].Ok ? "true" : "false") +
         ",\"detail\":" + quoted(Checks[I].Detail) + "}";
  S += "],\"layers\":{";
  bool First = true;
  for (const auto &[Name, Value] : Layers) {
    S += (First ? "" : ",") + quoted(Name) + ":" + number(Value);
    First = false;
  }
  return S + "}}";
}

SpanRecorder::SpanRecorder(bool Enabled, std::string Workload,
                           std::string RunId)
    : Enabled(Enabled), Workload(std::move(Workload)),
      RunId(std::move(RunId)) {
  if (Enabled)
    Spans.reserve(1 << 14);
}

int SpanRecorder::begin(const char *Name, int Parent) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, nowNs(), 0, Parent});
  return int(Spans.size()) - 1;
}

void SpanRecorder::end(int Id) {
  if (Id >= 0)
    Spans[std::size_t(Id)].EndNs = nowNs();
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  const std::int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  const std::string Tags =
      ",\"workload\":" + quoted(Workload) + ",\"run_id\":" + quoted(RunId);
  std::fprintf(File, "{\"schema\":\"perfbench-spans-v1\",\"spans\":[\n");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(File,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d%s}\n",
                 I ? "," : "", I, S.Name, (long long)(S.StartNs - Origin),
                 (long long)(S.EndNs - Origin), S.Parent, Tags.c_str());
  }
  std::fprintf(File, "]}\n");
  return std::fclose(File) == 0;
}

int benchThreads() {
  const unsigned Hw = std::thread::hardware_concurrency();
  return int(std::clamp(Hw, 1u, 4u));
}

double hostProbeMs() {
  const int Threads = benchThreads();
  std::vector<double> Ms(std::size_t(Threads), 0.0);
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  Workers.reserve(std::size_t(Threads));
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      // Threads inherit their creator's mask (ThreadPool::global() pins
      // the main thread to core 0), so each probe thread pins itself.
      hichi::threading::tryBindCurrentThreadToCore(T);
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      hichi::Stopwatch Watch;
      double X = 1.0 + 1e-9 * double(T);
      for (long I = 0; I < ProbeIterations; ++I)
        X = X * 0.999999999 + 1e-9;
      volatile double Sink = X;
      (void)Sink;
      Ms[std::size_t(T)] = double(Watch.elapsedNanoseconds()) / 1e6;
    });
  while (Ready.load() < Threads)
    std::this_thread::yield();
  Go.store(true);
  for (std::thread &W : Workers)
    W.join();
  return *std::max_element(Ms.begin(), Ms.end());
}

double peakRssMb() {
  struct rusage Usage {};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return double(Usage.ru_maxrss) * 1024.0 / 1e6; // Linux reports KiB
}

std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double unitFromSeed(std::uint64_t Seed, std::uint64_t Salt) {
  return double(mixSeed(Seed, Salt) >> 11) * 0x1.0p-53;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  const std::size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  if (Values.size() % 2)
    return Values[Mid];
  const double Low = *std::max_element(Values.begin(), Values.begin() + Mid);
  return 0.5 * (Low + Values[Mid]);
}

void timeBlocks(const RunArgs &Args, SpanRecorder &Spans, int RootSpan,
                RawResult &Out, const std::function<void(bool, int)> &Block,
                const std::function<long long()> &Particles) {
  hichi::Stopwatch Total;
  for (int B = 0; (Total.elapsedSeconds() < Args.Seconds || B < MinBlocks) &&
                  Total.elapsedSeconds() < MaxBlockSeconds;
       ++B) {
    {
      ScopedSpan Probe(Spans, "host.probe", RootSpan);
      Out.ProbeMs.push_back(hostProbeMs());
    }
    const bool Traced = Args.Trace && B % 2 == 0;
    const double Items = double(Particles()) * double(Out.BlockSteps);
    const int Span = Spans.begin(Traced ? "block.traced" : "block", RootSpan);
    hichi::Stopwatch Watch;
    Block(Traced, Span);
    const double Ns = double(Watch.elapsedNanoseconds());
    Spans.end(Span);
    if (Traced) {
      Out.TracedBlockNsps.push_back(Ns / Items);
      Out.TracedBlockMs.push_back(Ns / 1e6);
    } else {
      Out.BlockNsps.push_back(Ns / Items);
    }
  }
}

} // namespace perfbench
