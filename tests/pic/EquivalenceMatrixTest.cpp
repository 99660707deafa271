//===-- tests/pic/EquivalenceMatrixTest.cpp - The bit-identity matrix -----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-configuration bit-identity matrix, written once (paper
/// Sec. 4: the OpenMP, DPC++ and DPC++ NUMA ports compute the same
/// particles). Each row is one whole PIC run: a hash class, a particle
/// layout, the backend, threads and tiles of each of the three parallel
/// stages, step-graph replay and a rebalance threshold. A hash class
/// fixes the physics (scenario, Maxwell solver, deposition scheme, step
/// count and the rebalance threshold of its reference); its reference is
/// the all-serial AoS run resubmitting every launch, computed once per
/// class and process. Every row must land on its class's picStateHash
/// bit for bit, with the same window shift, retire and inject counts
/// and, where the row keeps the class's threshold, the same rebalance
/// fires. A row armed with another threshold must never fire. Graph rows
/// capture once and replay every other step, plus one recapture per
/// fire or shift at most. Lane rows force the baseline instantiation of
/// the SIMD lane kernels (pic/LaneKernels.h) through their test hook,
/// while the references run the path this CPU dispatches to.
///
/// Rows are grouped by the ctest gate that runs them (the name prefix;
/// CMakeLists.txt adds one target per group), so each row runs once per
/// test pass.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Hash classes and rows
//===----------------------------------------------------------------------===//

enum class Scenario {
  Langmuir,        ///< 16x4x4 cold plasma, 2 per cell, weight 0.05
  DriftingSlab,    ///< makeDriftingSlabScenario defaults
  MovingWindow,    ///< makeMovingWindowScenario defaults
  TwoStream,       ///< makeTwoStreamScenario defaults
  TwoSpecies,      ///< makeTwoSpeciesScenario, ion mass 4
  DensityGradient, ///< makeDensityGradientScenario defaults (open x)
};

struct HashClass {
  const char *Name;
  Scenario Scn;
  FieldSolverKind Solver = FieldSolverKind::Fdtd;
  bool ChargeConserving = true;
  int Steps = 100;
  double Rebalance = 0; ///< threshold of the reference run
};

const HashClass Fdtd{"fdtd", Scenario::Langmuir};
const HashClass Spectral{"spectral", Scenario::Langmuir,
                         FieldSolverKind::Spectral};
const HashClass Direct{"direct", Scenario::Langmuir, FieldSolverKind::Fdtd,
                       /*ChargeConserving=*/false};
const HashClass Slab{"slab", Scenario::DriftingSlab, FieldSolverKind::Fdtd,
                     true, 100, /*Rebalance=*/1.3};
const HashClass Window{"window", Scenario::MovingWindow,
                       FieldSolverKind::Fdtd, true, 60};
const HashClass TwoStream{"twostream", Scenario::TwoStream,
                          FieldSolverKind::Fdtd, true, 120};
const HashClass TwoSpecies{"twospecies", Scenario::TwoSpecies,
                           FieldSolverKind::Fdtd, true, 120};
const HashClass Gradient{"gradient", Scenario::DensityGradient,
                         FieldSolverKind::Fdtd, true, 150};
const HashClass GradientRebalanced{"gradientrb", Scenario::DensityGradient,
                                   FieldSolverKind::Fdtd, true, 150, 1.3};

/// One parallel stage: its backend, worker (= shard) count and tile
/// count (0 = the backend's or the stage's default).
struct Stage {
  std::string Backend = "serial";
  int Threads = 0;
  int Tiles = 0;
};

struct Row {
  const char *Group; ///< the ctest gate: pic_<Group>_equivalence
  const HashClass *Class;
  Stage Push, Deposit, Field;
  bool SoA = false;
  bool Graph = false;
  double Rebalance = 0;
  bool BaselineLanes = false;

  Row &soa() {
    SoA = true;
    return *this;
  }
  Row &graph() {
    Graph = true;
    return *this;
  }
  Row &rebalance(double Threshold) {
    Rebalance = Threshold;
    return *this;
  }
  Row &baselineLanes() {
    BaselineLanes = true;
    return *this;
  }

  /// The configuration without its group: two rows with the same key
  /// would run the same simulation twice.
  std::string key() const {
    auto Token = [](const Stage &S) {
      std::string T;
      for (char C : S.Backend)
        if (std::isalnum(static_cast<unsigned char>(C)))
          T += C;
      if (S.Threads > 0)
        T += "w" + std::to_string(S.Threads);
      if (S.Tiles > 0)
        T += "t" + std::to_string(S.Tiles);
      return T;
    };
    std::string K = std::string(Class->Name) + "_" + Token(Push) + "_" +
                    Token(Deposit) + "_" + Token(Field);
    if (SoA)
      K += "_soa";
    if (Graph)
      K += "_graph";
    if (Rebalance != Class->Rebalance)
      K += "_rb" + std::to_string(int(Rebalance * 10 + 0.5));
    if (BaselineLanes)
      K += "_baselinelanes";
    return K;
  }
  std::string name() const { return std::string(Group) + "_" + key(); }
};

Row row(const char *Group, const HashClass &C, Stage Push, Stage Deposit,
        Stage Field) {
  return {Group, &C, Push, Deposit, Field, false, false, C.Rebalance, false};
}

/// Every stage on one backend with the same threads; \p Tiles goes to
/// the deposit and field stages.
Row allOn(const char *Group, const HashClass &C, const std::string &Backend,
          int Threads = 0, int Tiles = 0) {
  return row(Group, C, Stage{Backend, Threads},
             Stage{Backend, Threads, Tiles}, Stage{Backend, Threads, Tiles});
}

/// The matrix. Each block names the guarantee it pins; the "all
/// backends" blocks cover every registered backend, so a new one joins
/// them by registering. The Langmuir grid has Nx = 16, so 16 tiles is
/// one plane per tile and 40 tiles clamps to the plane count.
std::vector<Row> matrixRows() {
  const std::vector<std::string> AllBackends =
      exec::BackendRegistry::instance().names();
  std::vector<Row> R;
  const Stage Serial{"serial"};
  const Stage SerialOneTile{"serial", 0, 1};

  // Tiled deposition: any backend x tile count x worker count, both
  // layouts, both deposition schemes, and the sharded push.
  for (const std::string &B : AllBackends)
    for (int Tiles : {1, 3, 5, 16})
      R.push_back(row("deposit", Fdtd, Serial, Stage{B, 0, Tiles}, Serial));
  R.push_back(row("deposit", Fdtd, Serial, Stage{"openmp", 2, 5}, Serial));
  R.push_back(row("deposit", Fdtd, Serial, Stage{"dpcpp", 3, 5}, Serial));
  R.push_back(row("deposit", Fdtd, Serial, Stage{"openmp", 0, 40}, Serial));
  for (int Shards : {1, 2, 5, 13}) // 13 shards over 5 tile groups
    R.push_back(
        row("deposit", Fdtd, Serial, Stage{"sharded", Shards, 5}, Serial));
  for (const std::string &B : AllBackends) {
    R.push_back(row("deposit", Fdtd, Serial, Stage{B, 0, 4}, Serial).soa());
    R.push_back(row("deposit", Direct, Serial, Stage{B, 0, 5}, Serial));
  }
  for (int Shards : {1, 2, 3, 4, 8})
    R.push_back(
        row("deposit", Fdtd, Stage{"sharded", Shards}, SerialOneTile, Serial));
  R.push_back(row("deposit", Fdtd, Stage{"sharded", 2}, Stage{"openmp", 0, 5},
                  Serial));
  R.push_back(row("deposit", Fdtd, Stage{"sharded", 2},
                  Stage{"sharded", 0, 3}, Serial));
  for (int Shards : {2, 5})
    R.push_back(row("deposit", Fdtd, Stage{"sharded", Shards},
                    Stage{"dpcpp", 0, 4}, Serial)
                    .soa());

  // Field solve: x-slab FDTD and k-space spectral launches on any
  // backend x tile count, and the asynchronous sharded field chain
  // next to parallel or sharded deposits.
  for (const HashClass *C : {&Fdtd, &Spectral}) {
    for (const std::string &B : AllBackends)
      for (int Tiles : {1, 4, 7})
        R.push_back(
            row("field", *C, Serial, SerialOneTile, Stage{B, 0, Tiles}));
    for (int Shards : {1, 2})
      for (int Tiles : {1, 4, 7})
        R.push_back(row("field", *C, Serial, SerialOneTile,
                        Stage{"sharded", Shards, Tiles}));
    R.push_back(row("field", *C, Serial, Stage{"openmp", 0, 5},
                    Stage{"sharded", 2, 4}));
    R.push_back(row("field", *C, Stage{"sharded"}, Stage{"sharded", 0, 3},
                    Stage{"sharded", 2, 4}));
  }
  R.push_back(
      row("field", Fdtd, Serial, SerialOneTile, Stage{"openmp", 2, 7}));
  R.push_back(
      row("field", Fdtd, Serial, SerialOneTile, Stage{"openmp", 0, 40}));
  for (const std::string &B : AllBackends)
    R.push_back(
        row("field", Fdtd, Serial, SerialOneTile, Stage{B, 0, 4}).soa());

  // Shards: every stage sharded at 1, 2, 5 and 13 shards (13 over 16
  // planes is ragged everywhere), and one sharded stage among others.
  for (const HashClass *C : {&Fdtd, &Spectral}) {
    for (int Shards : {1, 2, 5, 13}) {
      R.push_back(allOn("shard", *C, "sharded", Shards));
      R.push_back(allOn("shard", *C, "sharded", Shards).soa());
    }
    for (const char *Other : {"openmp", "dpcpp"}) {
      const Stage O{Other}, Sharded{"sharded", 5};
      R.push_back(row("shard", *C, Sharded, O, O));
      R.push_back(row("shard", *C, O, Sharded, O));
      R.push_back(row("shard", *C, O, O, Sharded));
    }
  }

  // Step-graph replay next to its resubmitting twin, per backend,
  // layout, shard count and explicit tile count.
  for (const HashClass *C : {&Fdtd, &Spectral}) {
    const struct {
      const char *Backend;
      bool SoA;
    } Twins[] = {{"serial", false}, {"serial", true},  {"openmp", false},
                 {"openmp", true},  {"dpcpp", false},  {"dpcpp-numa", true}};
    for (const auto &T : Twins)
      for (bool Graph : {false, true}) {
        Row X = allOn("graph", *C, T.Backend, 3);
        X.SoA = T.SoA;
        X.Graph = Graph;
        R.push_back(X);
      }
    for (int Shards : {1, 2, 5, 13}) // twins: the shard block
      R.push_back(allOn("graph", *C, "sharded", Shards).graph());
    R.push_back(allOn("graph", *C, "sharded", 5).soa().graph());
    for (int Tiles : {1, 3, 7}) {
      R.push_back(allOn("graph", *C, "openmp", 3, Tiles));
      R.push_back(allOn("graph", *C, "openmp", 3, Tiles).graph());
    }
  }

  // Rebalance: armed but never fired on the uniform plasma (twins in
  // the graph and shard blocks), and fired on the drifting slab, where
  // even the plain run lands on the rebalanced bits.
  for (const HashClass *C : {&Fdtd, &Spectral}) {
    R.push_back(allOn("rebalance", *C, "sharded", 4));
    R.push_back(allOn("rebalance", *C, "serial").rebalance(1.5));
    R.push_back(allOn("rebalance", *C, "openmp", 3).rebalance(1.5));
    R.push_back(allOn("rebalance", *C, "sharded", 4).rebalance(1.5));
    R.push_back(allOn("rebalance", *C, "sharded", 5).rebalance(1.5));
  }
  R.push_back(allOn("rebalance", Slab, "serial").rebalance(0));
  R.push_back(allOn("rebalance", Slab, "openmp", 3));
  R.push_back(allOn("rebalance", Slab, "sharded", 4));
  R.push_back(allOn("rebalance", Slab, "sharded", 5));

  // Moving window: backends x shard counts x graph x rebalance, both
  // layouts; the window and rebalance triggers are pure functions of
  // time and positions, so every row shifts and fires alike.
  const struct {
    const char *Backend;
    int Threads;
  } WindowConfigs[] = {{"serial", 0},  {"openmp", 3}, {"sharded", 1},
                       {"sharded", 2}, {"sharded", 5}};
  for (const auto &W : WindowConfigs)
    for (bool Graph : {false, true})
      for (double Threshold : {0.0, 1.3}) {
        Row X = allOn("window", Window, W.Backend, W.Threads);
        X.Graph = Graph;
        X.Rebalance = Threshold;
        if (X.key() != "window_serial_serial_serial") // the reference
          R.push_back(X);
      }
  R.push_back(allOn("window", Window, "serial").soa());
  R.push_back(
      allOn("window", Window, "sharded", 5).soa().graph().rebalance(1.3));

  // The baseline lane kernels land on the bits of the dispatched ones:
  // one-tile and tiled deposits, both layouts, both solvers, the direct
  // scheme (lanes in stage 1 only), graph replay, the moving window, two
  // species and a fired rebalance at an open boundary.
  R.push_back(allOn("lane", Fdtd, "serial").baselineLanes());
  R.push_back(allOn("lane", Fdtd, "openmp", 3, 5).baselineLanes());
  R.push_back(allOn("lane", Fdtd, "sharded", 2).soa().graph().baselineLanes());
  R.push_back(allOn("lane", Spectral, "openmp", 3).baselineLanes());
  R.push_back(allOn("lane", Direct, "openmp", 3, 5).baselineLanes());
  R.push_back(allOn("lane", Window, "sharded", 2).graph().baselineLanes());
  R.push_back(allOn("lane", TwoSpecies, "openmp", 3).baselineLanes());
  R.push_back(
      allOn("lane", GradientRebalanced, "sharded", 4).baselineLanes());

  // The physics scenarios' backend companions: two-stream, mobile ions,
  // a shrinking ensemble at an open boundary, and a fired rebalance
  // whose sort is a real permutation.
  R.push_back(allOn("scenario", TwoStream, "sharded", 4));
  R.push_back(allOn("scenario", TwoSpecies, "sharded", 4));
  R.push_back(allOn("scenario", Gradient, "openmp", 3));
  R.push_back(allOn("scenario", Gradient, "sharded", 4));
  R.push_back(allOn("scenario", GradientRebalanced, "sharded", 4));
  return R;
}

//===----------------------------------------------------------------------===//
// Running a row
//===----------------------------------------------------------------------===//

struct RunResult {
  std::uint64_t Hash = 0;
  long long Fires = 0;
  long long Checks = 0;
  long long Shifts = 0;
  long long Retired = 0;
  long long Injected = 0;
  long long Captures = 0;
  long long Replays = 0;
};

ScenarioSetup<double> makeScenario(Scenario Scn) {
  switch (Scn) {
  case Scenario::Langmuir:
    return makeLangmuirScenario<double>({16, 4, 4}, 2, 0.05);
  case Scenario::DriftingSlab:
    return makeDriftingSlabScenario<double>();
  case Scenario::MovingWindow:
    return makeMovingWindowScenario<double>();
  case Scenario::TwoStream:
    return makeTwoStreamScenario<double>();
  case Scenario::TwoSpecies:
    return makeTwoSpeciesScenario<double>(4.0);
  case Scenario::DensityGradient:
    return makeDensityGradientScenario<double>();
  }
  return {};
}

template <typename Array> RunResult runConfig(const Row &R) {
  const HashClass &C = *R.Class;
  const ScenarioSetup<double> S = makeScenario(C.Scn);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  // The small Langmuir box re-sorts often, so sorts land between
  // replays and between rebalance checks.
  Options.SortEveryNSteps = C.Scn == Scenario::Langmuir ? 7 : 20;
  Options.Solver = C.Solver;
  Options.ChargeConserving = C.ChargeConserving;
  Options.AbsorbingCells = S.AbsorbingCells;
  Options.MovingWindow = S.MovingWindow;
  Options.PushBackend = R.Push.Backend;
  Options.PushThreads = R.Push.Threads;
  Options.DepositBackend = R.Deposit.Backend;
  Options.DepositThreads = R.Deposit.Threads;
  Options.DepositTiles = R.Deposit.Tiles;
  Options.FieldBackend = R.Field.Backend;
  Options.FieldThreads = R.Field.Threads;
  Options.FieldTiles = R.Field.Tiles;
  Options.UseStepGraph = R.Graph;
  Options.RebalanceThreshold = R.Rebalance;
  PicSimulation<double, Array> Sim(S.Grid, S.Origin, S.Step,
                                   Index(S.Particles.size()) + S.ExtraCapacity,
                                   S.Types, Options);
  seedScenario(Sim, S);
  Sim.run(C.Steps);

  RunResult Out;
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  Out.Fires = Sim.rebalanceStats().Fires;
  Out.Checks = Sim.rebalanceStats().Checks;
  Out.Shifts = Sim.windowShiftCount();
  Out.Retired = Sim.windowRetiredCount();
  Out.Injected = Sim.windowInjectedCount();
  Out.Captures = Sim.graphCaptureCount();
  Out.Replays = Sim.graphReplayCount();
  return Out;
}

RunResult runRow(const Row &R) {
  detail::forceBaselineLanes(R.BaselineLanes);
  const RunResult Out = R.SoA ? runConfig<ParticleArraySoA<double>>(R)
                              : runConfig<ParticleArrayAoS<double>>(R);
  detail::forceBaselineLanes(false);
  return Out;
}

/// The class's serial reference, run once per class and process.
const RunResult &reference(const HashClass &C) {
  static std::map<const HashClass *, RunResult> Cache;
  auto It = Cache.find(&C);
  if (It == Cache.end()) {
    const Stage Serial{"serial"};
    It = Cache.emplace(&C, runRow(row("reference", C, Serial, Serial, Serial)))
             .first;
  }
  return It->second;
}

std::string hex(std::uint64_t Hash) {
  char Buffer[17];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx", (unsigned long long)Hash);
  return Buffer;
}

//===----------------------------------------------------------------------===//
// The check
//===----------------------------------------------------------------------===//

class EquivalenceMatrixTest : public ::testing::TestWithParam<Row> {};

TEST_P(EquivalenceMatrixTest, MatchesClassReference) {
  const Row &R = GetParam();
  const HashClass &C = *R.Class;
  const RunResult &Ref = reference(C);
  SCOPED_TRACE("row " + R.name() + " (class " + C.Name + ")");

  // What the class fixes about its own reference.
  if (C.Rebalance > 0) {
    ASSERT_GE(Ref.Fires, 1) << "the class's reference must fire";
  }
  if (C.Scn == Scenario::MovingWindow) {
    ASSERT_GT(Ref.Shifts, 0) << "the class's reference must shift";
    EXPECT_EQ(Ref.Retired, Ref.Injected); // uniform plasma: steady state
  }

  const RunResult Run = runRow(R);
  EXPECT_EQ(hex(Run.Hash), hex(Ref.Hash))
      << "row " << R.name() << " left hash class " << C.Name;
  EXPECT_EQ(Run.Shifts, Ref.Shifts);
  EXPECT_EQ(Run.Retired, Ref.Retired);
  EXPECT_EQ(Run.Injected, Ref.Injected);
  // Same threshold: fires on the same steps; another threshold (off,
  // or one the scenario never trips) must not fire at all.
  EXPECT_EQ(Run.Fires, R.Rebalance == C.Rebalance ? Ref.Fires : 0);
  const int CheckEvery = PicOptions<double>().RebalanceEveryNSteps;
  EXPECT_EQ(Run.Checks, R.Rebalance > 0 ? C.Steps / CheckEvery : 0);
  if (R.Graph) {
    // One capture, then replays; a fire or a shift invalidates the
    // graph and costs at most one recapture.
    EXPECT_GE(Run.Captures, 1);
    EXPECT_LE(Run.Captures, 1 + Run.Fires + Run.Shifts);
    EXPECT_EQ(Run.Captures + Run.Replays, C.Steps);
  } else {
    EXPECT_EQ(Run.Captures, 0);
    EXPECT_EQ(Run.Replays, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, EquivalenceMatrixTest,
                         ::testing::ValuesIn(matrixRows()),
                         [](const ::testing::TestParamInfo<Row> &Info) {
                           return Info.param.name();
                         });

//===----------------------------------------------------------------------===//
// The table itself
//===----------------------------------------------------------------------===//

TEST(EquivalenceMatrixTableTest, NoRowRepeatsAConfiguration) {
  std::set<std::string> Keys;
  for (const Row &R : matrixRows())
    EXPECT_TRUE(Keys.insert(R.key()).second)
        << R.name() << " repeats a configuration of another row";
}

} // namespace
