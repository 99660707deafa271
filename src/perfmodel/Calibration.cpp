//===-- perfmodel/Calibration.cpp - Measured machine profiles ------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "perfmodel/Calibration.h"

#include "support/CpuTopology.h"
#include "support/EnvVar.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

using namespace hichi;
using namespace hichi::perfmodel;

//===----------------------------------------------------------------------===//
// Profile queries
//===----------------------------------------------------------------------===//

namespace {

const BandwidthTier *tierFor(const std::vector<BandwidthTier> &Tiers,
                             double Bytes) {
  if (Tiers.empty())
    return nullptr;
  for (const BandwidthTier &T : Tiers)
    if (T.WorkingSetBytes >= Bytes)
      return &T;
  return &Tiers.back();
}

} // namespace

double MachineProfile::perCoreBandwidthAt(double Bytes) const {
  const BandwidthTier *T = tierFor(Tiers, Bytes);
  return T ? T->PerCoreBandwidth : 0.0;
}

double MachineProfile::saturatedBandwidthAt(double Bytes) const {
  const BandwidthTier *T = tierFor(Tiers, Bytes);
  return T ? T->SaturatedBandwidth : 0.0;
}

double MachineProfile::dramPerCoreBandwidth() const {
  return Tiers.empty() ? 0.0 : Tiers.back().PerCoreBandwidth;
}

double MachineProfile::dramSaturatedBandwidth() const {
  return Tiers.empty() ? 0.0 : Tiers.back().SaturatedBandwidth;
}

double MachineProfile::submitOverheadNs(const std::string &Backend,
                                        double Default) const {
  for (const SubmitOverhead &S : Submit)
    if (S.Backend == Backend)
      return S.MedianNs;
  return Default;
}

bool perfmodel::operator==(const BandwidthTier &L, const BandwidthTier &R) {
  return L.WorkingSetBytes == R.WorkingSetBytes &&
         L.PerCoreBandwidth == R.PerCoreBandwidth &&
         L.PerCoreP95Bandwidth == R.PerCoreP95Bandwidth &&
         L.SaturatedBandwidth == R.SaturatedBandwidth &&
         L.SaturatedP95Bandwidth == R.SaturatedP95Bandwidth;
}

bool perfmodel::operator==(const SubmitOverhead &L, const SubmitOverhead &R) {
  return L.Backend == R.Backend && L.MedianNs == R.MedianNs &&
         L.P95Ns == R.P95Ns;
}

bool perfmodel::operator==(const MachineProfile &L, const MachineProfile &R) {
  return L.Host == R.Host && L.Threads == R.Threads &&
         L.NumaDomains == R.NumaDomains &&
         L.FmaFlopsPerCore == R.FmaFlopsPerCore &&
         L.FmaFlopsSaturated == R.FmaFlopsSaturated && L.Tiers == R.Tiers &&
         L.Submit == R.Submit;
}

//===----------------------------------------------------------------------===//
// Measurement kernels
//===----------------------------------------------------------------------===//

namespace {

/// The STREAM triad a[i] = b[i] + S*c[i] over one thread's buffers.
/// Returns a checksum so the work cannot be optimized away.
double triadPasses(std::vector<double> &A, const std::vector<double> &B,
                   const std::vector<double> &C, int Passes) {
  const double S = 3.0;
  const std::size_t N = A.size();
  for (int P = 0; P < Passes; ++P)
    for (std::size_t I = 0; I < N; ++I)
      A[I] = B[I] + S * C[I];
  return N ? A[N / 2] : 0.0;
}

/// Keeps checksums observable without printing them.
volatile double CalibrationSink = 0.0;

/// Buffers of one streaming thread, prefaulted by the owning thread so
/// first-touch places the pages locally and the timed passes see warm
/// page tables.
struct TriadBuffers {
  std::vector<double> A, B, C;

  explicit TriadBuffers(std::size_t Elements)
      : A(Elements, 1.0), B(Elements, 2.0), C(Elements, 0.5) {}
};

/// Elements per stream so that 3 streams fit the working set.
std::size_t triadElements(double WorkingSetBytes) {
  const double PerStream = WorkingSetBytes / 3.0 / double(sizeof(double));
  return std::max<std::size_t>(64, std::size_t(PerStream));
}

int triadPassCount(double WorkingSetBytes, double BytesPerRepeat) {
  return std::max(1, int(BytesPerRepeat / WorkingSetBytes));
}

/// Median/p95 bandwidth of \p TimesNs (each repeat moved \p Bytes): the
/// p95 figure is the bandwidth at the 95th-percentile (slow-tail) time.
void robustBandwidth(std::vector<double> TimesNs, double Bytes,
                     double &MedianBw, double &P95Bw) {
  std::sort(TimesNs.begin(), TimesNs.end());
  const double MedianNs = percentile(TimesNs, 0.50);
  const double P95Ns = percentile(TimesNs, 0.95);
  MedianBw = MedianNs > 0 ? Bytes / (MedianNs / 1e9) : 0.0;
  P95Bw = P95Ns > 0 ? Bytes / (P95Ns / 1e9) : 0.0;
}

/// One-core sweep point: \p Repeats timed repeats of \p Passes triad
/// passes (one untimed warmup).
std::vector<double> timeSingleCore(double WorkingSetBytes, int Passes,
                                   int Repeats) {
  TriadBuffers Buf(triadElements(WorkingSetBytes));
  CalibrationSink = triadPasses(Buf.A, Buf.B, Buf.C, Passes); // warmup
  std::vector<double> TimesNs;
  TimesNs.reserve(std::size_t(Repeats));
  for (int R = 0; R < Repeats; ++R) {
    Stopwatch Watch;
    CalibrationSink = triadPasses(Buf.A, Buf.B, Buf.C, Passes);
    TimesNs.push_back(double(Watch.elapsedNanoseconds()));
  }
  return TimesNs;
}

/// Saturated sweep point: \p Threads threads each stream their *own*
/// buffers of the working-set size (total footprint Threads x ws, so the
/// DRAM point stays out of cache on every core). A spin barrier aligns
/// every repeat's start; the wall time of the slowest thread is the
/// repeat's time.
std::vector<double> timeSaturated(double WorkingSetBytes, int Passes,
                                  int Repeats, int Threads) {
  std::atomic<int> Arrived{0};
  std::atomic<int> Generation{0};
  auto Barrier = [&](int ExpectedGen) {
    if (Arrived.fetch_add(1) + 1 == Threads) {
      Arrived.store(0);
      Generation.fetch_add(1);
    } else {
      while (Generation.load() <= ExpectedGen)
        std::this_thread::yield();
    }
  };

  std::vector<double> TimesNs(std::size_t(Repeats), 0.0);
  // One checksum sink per thread, published to CalibrationSink once after
  // the join: the threads never share a store target.
  std::vector<double> Sinks(std::size_t(Threads), 0.0);
  std::vector<std::thread> Workers;
  Workers.reserve(std::size_t(Threads));
  for (int T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      TriadBuffers Buf(triadElements(WorkingSetBytes)); // first-touch local
      double &Sink = Sinks[std::size_t(T)];
      Sink = triadPasses(Buf.A, Buf.B, Buf.C, Passes); // warmup
      int Gen = 0;
      for (int R = 0; R < Repeats; ++R) {
        Barrier(Gen++);
        Stopwatch Watch;
        Sink += triadPasses(Buf.A, Buf.B, Buf.C, Passes);
        const double Ns = double(Watch.elapsedNanoseconds());
        Barrier(Gen++);
        if (T == 0)
          TimesNs[std::size_t(R)] = Ns; // thread 0 spans the barrier pair
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  double Checksum = 0;
  for (double S : Sinks)
    Checksum += S;
  CalibrationSink = Checksum;
  return TimesNs;
}

/// The FMA throughput loop: 8 independent accumulators of fused
/// multiply-adds, so the chain latency never serializes the pipes.
/// Adds the accumulators' checksum to \p Sink (owned by the calling
/// thread) and returns flops done.
double fmaLoop(long long Iterations, double &Sink) {
  double Acc0 = 1.0, Acc1 = 1.1, Acc2 = 1.2, Acc3 = 1.3;
  double Acc4 = 1.4, Acc5 = 1.5, Acc6 = 1.6, Acc7 = 1.7;
  const double M = 0.999999;
  const double A = 1e-9;
  for (long long I = 0; I < Iterations; ++I) {
    Acc0 = Acc0 * M + A;
    Acc1 = Acc1 * M + A;
    Acc2 = Acc2 * M + A;
    Acc3 = Acc3 * M + A;
    Acc4 = Acc4 * M + A;
    Acc5 = Acc5 * M + A;
    Acc6 = Acc6 * M + A;
    Acc7 = Acc7 * M + A;
  }
  Sink += Acc0 + Acc1 + Acc2 + Acc3 + Acc4 + Acc5 + Acc6 + Acc7;
  return 2.0 * 8.0 * double(Iterations); // one FMA = 2 flops, 8 lanes
}

/// Median flops/s over \p Repeats repeats of the FMA loop on the calling
/// thread; the loops' checksums accumulate into \p Sink.
double measureFmaFlops(long long Iterations, int Repeats, double &Sink) {
  fmaLoop(Iterations, Sink); // warmup
  std::vector<double> TimesNs;
  TimesNs.reserve(std::size_t(Repeats));
  double Flops = 0;
  for (int R = 0; R < Repeats; ++R) {
    Stopwatch Watch;
    Flops = fmaLoop(Iterations, Sink);
    TimesNs.push_back(double(Watch.elapsedNanoseconds()));
  }
  std::sort(TimesNs.begin(), TimesNs.end());
  const double MedianNs = percentile(TimesNs, 0.50);
  return MedianNs > 0 ? Flops / (MedianNs / 1e9) : 0.0;
}

/// Saturated FMA: all threads run the loop; aggregate = total flops over
/// the slowest thread's median time.
double measureFmaFlopsSaturated(long long Iterations, int Repeats,
                                int Threads) {
  std::vector<double> PerThread(std::size_t(Threads), 0.0);
  std::vector<double> Sinks(std::size_t(Threads), 0.0);
  std::vector<std::thread> Workers;
  Workers.reserve(std::size_t(Threads));
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      PerThread[std::size_t(T)] =
          measureFmaFlops(Iterations, Repeats, Sinks[std::size_t(T)]);
    });
  for (std::thread &W : Workers)
    W.join();
  double Total = 0, Checksum = 0;
  for (int T = 0; T < Threads; ++T) {
    Total += PerThread[std::size_t(T)];
    Checksum += Sinks[std::size_t(T)];
  }
  CalibrationSink = Checksum;
  return Total;
}

} // namespace

//===----------------------------------------------------------------------===//
// Calibration
//===----------------------------------------------------------------------===//

CalibrationConfig CalibrationConfig::fast() {
  CalibrationConfig C;
  C.Repeats = 5;
  C.BytesPerRepeat = 8.0 * 1024 * 1024;
  C.FmaIterations = 2 * 1000 * 1000;
  C.WorkingSets = {16.0 * 1024, 128.0 * 1024, 4.0 * 1024 * 1024,
                   16.0 * 1024 * 1024};
  return C;
}

MachineProfile Calibration::measure(const CalibrationConfig &Config) {
  MachineProfile Out;
  Out.Host = getEnvTrimmed("HOSTNAME").value_or("unknown-host");
  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  Out.Threads = Config.Threads > 0 ? Config.Threads : int(Hw);
  Out.NumaDomains = CpuTopology::detect().domainCount();

  std::vector<double> Ladder = Config.WorkingSets;
  if (Ladder.empty())
    Ladder = {16.0 * 1024, 128.0 * 1024, 4.0 * 1024 * 1024,
              64.0 * 1024 * 1024};
  std::sort(Ladder.begin(), Ladder.end());

  for (double Ws : Ladder) {
    const std::size_t Elements = triadElements(Ws);
    const double BytesPerPass = 3.0 * double(sizeof(double)) * double(Elements);
    const int Passes = triadPassCount(Ws, Config.BytesPerRepeat);
    const double RepeatBytes = BytesPerPass * double(Passes);

    BandwidthTier Tier;
    Tier.WorkingSetBytes = Ws;
    robustBandwidth(timeSingleCore(Ws, Passes, Config.Repeats), RepeatBytes,
                    Tier.PerCoreBandwidth, Tier.PerCoreP95Bandwidth);
    robustBandwidth(
        timeSaturated(Ws, Passes, Config.Repeats, Out.Threads),
        RepeatBytes * double(Out.Threads), Tier.SaturatedBandwidth,
        Tier.SaturatedP95Bandwidth);
    Out.Tiers.push_back(Tier);
  }

  double Checksum = 0;
  Out.FmaFlopsPerCore =
      measureFmaFlops(Config.FmaIterations, Config.Repeats, Checksum);
  CalibrationSink = Checksum;
  const int PhysicalCores = CpuTopology::physicalCoreCount();
  for (int Attempt = 0; Attempt < MaxFmaAttempts; ++Attempt) {
    Out.FmaFlopsSaturated =
        std::max(Out.FmaFlopsSaturated,
                 measureFmaFlopsSaturated(Config.FmaIterations,
                                          Config.Repeats, Out.Threads));
    if (saturatedFmaPlausible(Out, PhysicalCores))
      break;
  }
  return Out;
}

bool Calibration::saturatedFmaPlausible(const MachineProfile &P,
                                        int PhysicalCores) {
  const int Cores = std::max(1, std::min(P.Threads, PhysicalCores));
  return P.FmaFlopsSaturated >=
         MinFmaSaturationRatio * double(Cores) * P.FmaFlopsPerCore;
}

//===----------------------------------------------------------------------===//
// hichi-machine-v1 (de)serialization
//===----------------------------------------------------------------------===//

namespace {

/// %.17g: enough digits that strtod reconstructs the exact double, so
/// save -> load round-trips bit-identically.
void appendNumber(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

double numberField(const json::Value &Obj, const char *Name) {
  return Obj.numberOr(Name, 0.0);
}

} // namespace

std::string Calibration::toJson(const MachineProfile &P) {
  std::string S;
  S += "{\n  \"schema\": \"hichi-machine-v1\",\n";
  S += "  \"host\": \"" + json::escapeJsonString(P.Host) + "\",\n";
  S += "  \"threads\": " + std::to_string(P.Threads) + ",\n";
  S += "  \"numa_domains\": " + std::to_string(P.NumaDomains) + ",\n";
  S += "  \"fma_flops_per_core\": ";
  appendNumber(S, P.FmaFlopsPerCore);
  S += ",\n  \"fma_flops_saturated\": ";
  appendNumber(S, P.FmaFlopsSaturated);
  S += ",\n  \"bandwidth_tiers\": [\n";
  for (std::size_t I = 0; I < P.Tiers.size(); ++I) {
    const BandwidthTier &T = P.Tiers[I];
    S += "    {\"working_set_bytes\": ";
    appendNumber(S, T.WorkingSetBytes);
    S += ", \"per_core_bps\": ";
    appendNumber(S, T.PerCoreBandwidth);
    S += ", \"per_core_p95_bps\": ";
    appendNumber(S, T.PerCoreP95Bandwidth);
    S += ", \"saturated_bps\": ";
    appendNumber(S, T.SaturatedBandwidth);
    S += ", \"saturated_p95_bps\": ";
    appendNumber(S, T.SaturatedP95Bandwidth);
    S += I + 1 < P.Tiers.size() ? "},\n" : "}\n";
  }
  S += "  ],\n  \"submit_overheads\": [\n";
  for (std::size_t I = 0; I < P.Submit.size(); ++I) {
    const SubmitOverhead &O = P.Submit[I];
    S += "    {\"backend\": \"" + json::escapeJsonString(O.Backend) +
         "\", \"median_ns\": ";
    appendNumber(S, O.MedianNs);
    S += ", \"p95_ns\": ";
    appendNumber(S, O.P95Ns);
    S += I + 1 < P.Submit.size() ? "},\n" : "}\n";
  }
  S += "  ]\n}\n";
  return S;
}

bool Calibration::save(const MachineProfile &P, const std::string &Path,
                       std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = Path + ": cannot open for writing";
    return false;
  }
  const std::string Doc = toJson(P);
  const bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  if (std::fclose(F) != 0 || !Ok) {
    if (Error)
      *Error = Path + ": write failed";
    return false;
  }
  return true;
}

bool Calibration::fromJson(const json::Value &Doc, MachineProfile &Out,
                           std::string *Error) {
  if (Doc.stringOr("schema", "") != "hichi-machine-v1") {
    if (Error)
      *Error = "not a hichi-machine-v1 document";
    return false;
  }
  Out = MachineProfile{};
  Out.Host = Doc.stringOr("host", "unknown-host");
  if (!Doc.readInt("threads", Out.Threads, Error) ||
      !Doc.readInt("numa_domains", Out.NumaDomains, Error))
    return false;
  Out.FmaFlopsPerCore = numberField(Doc, "fma_flops_per_core");
  Out.FmaFlopsSaturated = numberField(Doc, "fma_flops_saturated");
  if (const json::Value *Tiers = Doc.find("bandwidth_tiers")) {
    if (!Tiers->isArray()) {
      if (Error)
        *Error = "bandwidth_tiers is not an array";
      return false;
    }
    for (const json::Value &T : Tiers->Items) {
      BandwidthTier Tier;
      Tier.WorkingSetBytes = numberField(T, "working_set_bytes");
      Tier.PerCoreBandwidth = numberField(T, "per_core_bps");
      Tier.PerCoreP95Bandwidth = numberField(T, "per_core_p95_bps");
      Tier.SaturatedBandwidth = numberField(T, "saturated_bps");
      Tier.SaturatedP95Bandwidth = numberField(T, "saturated_p95_bps");
      Out.Tiers.push_back(Tier);
    }
  }
  if (const json::Value *Submit = Doc.find("submit_overheads")) {
    if (!Submit->isArray()) {
      if (Error)
        *Error = "submit_overheads is not an array";
      return false;
    }
    for (const json::Value &S : Submit->Items) {
      SubmitOverhead O;
      O.Backend = S.stringOr("backend", "");
      O.MedianNs = numberField(S, "median_ns");
      O.P95Ns = numberField(S, "p95_ns");
      Out.Submit.push_back(O);
    }
  }
  return true;
}

bool Calibration::load(const std::string &Path, MachineProfile &Out,
                       std::string *Error) {
  json::Value Doc;
  if (!json::parseFile(Path, Doc, Error))
    return false;
  if (!fromJson(Doc, Out, Error)) {
    if (Error)
      *Error = Path + ": " + *Error;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// CpuMachine from a measured profile
//===----------------------------------------------------------------------===//

// Defined here (not MachineModel.cpp) so the paper-audit descriptor
// stays free of any calibration dependency.
CpuMachine CpuMachine::fromProfile(const perfmodel::MachineProfile &P) {
  CpuMachine M;
  M.Name = "measured: " + P.Host;
  M.Sockets = std::max(1, P.NumaDomains);
  M.CoresPerSocket = std::max(1, P.Threads / M.Sockets);
  // The measured profile collapses clock x lanes x pipes into one
  // per-core rate, so the descriptor encodes it as a 1 GHz "clock" with
  // FlopsPerCyclePerLane carrying the measured double-precision Gflop/s
  // and 2 single-precision lanes (single precision ~= 2x the double
  // rate). peakFlopsSingle() then reproduces 2x the measured saturated
  // double throughput, and the roofline's double path reproduces the
  // measured per-core rate exactly.
  M.SustainedClockGHz = 1.0;
  M.SimdLanesSingle = 2;
  M.FlopsPerCyclePerLane = P.FmaFlopsPerCore / 1e9;
  const double Dram = P.dramSaturatedBandwidth();
  M.LocalBandwidthPerSocket = Dram / double(M.Sockets);
  // The sweep does not drive a cross-socket stream; scale the remote
  // figure from local the way the paper's node relates UPI to DRAM
  // (~0.45x) so NUMA penalties stay modeled, if approximately.
  M.RemoteBandwidthPerSocket = 0.45 * M.LocalBandwidthPerSocket;
  M.PerCoreBandwidth = P.dramPerCoreBandwidth();
  return M;
}
