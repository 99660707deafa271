//===-- perfbench/src/main.cpp - One workload process --------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_run: runs one perfbench workload in this process and prints
/// its raw record as the last stdout line (one JSON object), which
/// perfbench/run.py turns into metrics. run.py starts one fresh process
/// per run:
///
/// \code
///   perfbench_run --workload pic_uniform --seed 3 --seconds 20 --trace 0
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/ArgParse.h"
#include "threading/CoreBinding.h"

#include <cstdio>

#include <unistd.h>

using namespace perfbench;

int main(int Argc, char **Argv) {
  hichi::ArgParser Parser("perfbench_run: one perfbench workload, measured "
                          "in this process");
  Parser.addOption("workload", "paper_push, pic_uniform or pic_window");
  Parser.addOption("seed", "workload seed (inputs are a function of it)", "1");
  Parser.addOption("seconds",
                   "seconds of timed blocks (at least 100 blocks run)", "10");
  Parser.addOption("trace", "1 = traced run: per-layer values and spans",
                   "0");
  Parser.addOption("trace-out", "span file written by a traced run",
                   "perfbench-spans.json");
  Parser.addOption("scratch", "directory for the verify step's checkpoint",
                   ".");
  Parser.addFlag("wrong-hash",
                 "corrupt every expected hash (tests the checks themselves)");
  if (!Parser.parse(Argc, Argv)) {
    std::fprintf(stderr, "error: %s\n", Parser.error().c_str());
    return 2;
  }
  if (Parser.helpRequested()) {
    Parser.printHelp(Argv[0]);
    return 0;
  }

  RunArgs Args;
  Args.Workload = Parser.getString("workload");
  const auto Seed = Parser.getInt("seed");
  const auto Seconds = Parser.getDouble("seconds");
  const auto Trace = Parser.getInt("trace");
  if (!Seed || *Seed < 0 || !Seconds || !(*Seconds > 0) || !Trace ||
      (*Trace != 0 && *Trace != 1)) {
    std::fprintf(stderr, "error: --seed must be >= 0, --seconds > 0 and "
                         "--trace 0 or 1\n");
    return 2;
  }
  Args.Seed = std::uint64_t(*Seed);
  Args.Seconds = *Seconds;
  Args.Trace = *Trace == 1;
  Args.TraceOut = Parser.getString("trace-out");
  Args.ScratchDir = Parser.getString("scratch");
  Args.WrongHash = Parser.getFlag("wrong-hash");

  using Runner = void (*)(const RunArgs &, SpanRecorder &, int, RawResult &);
  Runner Run = Args.Workload == "paper_push"    ? runPaperPush
               : Args.Workload == "pic_uniform" ? runPicUniform
               : Args.Workload == "pic_window"  ? runPicWindow
                                                : nullptr;
  if (!Run) {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (paper_push, pic_uniform, "
                 "pic_window)\n",
                 Args.Workload.c_str());
    return 2;
  }

  // Pin the driving thread. ThreadPool::global() moves it to core 0 in
  // paper_push and pic_uniform; the sharded-only pic_window never creates
  // that pool, and there a floating driver scattered NSPS by ~12% between
  // processes, a driver on core 0 (next to two lanes) ran ~10% slower,
  // and one on the last core scattered by ~2%.
  hichi::threading::tryBindCurrentThreadToCore(benchThreads() - 1);

  RawResult Out;
  Out.Workload = Args.Workload;
  Out.RunId = Args.Workload + "-" + std::to_string(Args.Seed) + "-" +
              std::to_string(long(getpid()));
  SpanRecorder Spans(Args.Trace, Args.Workload, Out.RunId);
  const int Root = Spans.begin("run");
  {
    ScopedSpan Probe(Spans, "host.probe", Root);
    Out.ProbeMs.push_back(hostProbeMs()); // before any set-up
  }
  Run(Args, Spans, Root, Out);
  Spans.end(Root);
  if (Args.Trace && !Spans.write(Args.TraceOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", Args.TraceOut.c_str());
    return 1;
  }
  std::printf("%s\n", Out.toJson().c_str());
  return 0;
}
