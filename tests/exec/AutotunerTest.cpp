//===-- tests/exec/AutotunerTest.cpp - Roofline-seeded knob planning ------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner contract: planning from a fixed profile is
/// deterministic, the plan's knobs are well-formed, the step-graph
/// decision follows the measured submit overhead, the hill-climb honours
/// its trial budget, and the "auto" registry entry produces the same
/// simulation bits as the serial reference (tuned knobs are
/// hash-invariant).
///
//===----------------------------------------------------------------------===//

#include "exec/Autotuner.h"
#include "exec/BackendRegistry.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::exec;
using namespace hichi::perfmodel;

namespace {

/// A fixed 8-thread, 2-domain profile: per-core DRAM stream 12 GB/s,
/// saturated 40 GB/s, with \p SubmitNs per-launch overhead on every
/// backend the planner can choose.
MachineProfile fixedProfile(double SubmitNs) {
  MachineProfile P;
  P.Host = "fixed-host";
  P.Threads = 8;
  P.NumaDomains = 2;
  P.FmaFlopsPerCore = 8.0e9;
  P.FmaFlopsSaturated = 60.0e9;
  P.Tiers = {
      {16.0 * 1024, 60.0e9, 55.0e9, 200.0e9, 190.0e9},
      {4.0 * 1024 * 1024, 25.0e9, 24.0e9, 80.0e9, 75.0e9},
      {64.0 * 1024 * 1024, 12.0e9, 11.0e9, 40.0e9, 38.0e9},
  };
  for (const char *Backend :
       {"serial", "openmp", "dpcpp", "dpcpp-numa", "sharded"})
    P.Submit.push_back({Backend, SubmitNs, SubmitNs * 1.2});
  return P;
}

TEST(AutotunerTest, PlanningFromAFixedProfileIsDeterministic) {
  const MachineProfile P = fixedProfile(200.0);
  const TunePlan A = Autotuner::planFromProfile(P);
  const TunePlan B = Autotuner::planFromProfile(P);
  EXPECT_TRUE(A == B); // every field, including predictions
  EXPECT_EQ(A.ProfileHost, "fixed-host");
}

TEST(AutotunerTest, PlansAreWellFormed) {
  const TunePlan Plan = Autotuner::planFromProfile(fixedProfile(200.0));
  const BackendRegistry &Registry = BackendRegistry::instance();
  for (const StagePlan *S : {&Plan.Push, &Plan.Deposit, &Plan.Field}) {
    EXPECT_TRUE(Registry.contains(S->Backend)) << S->Backend;
    EXPECT_GE(S->Threads, 1);
    EXPECT_LE(S->Threads, 8); // never beyond the profile's cores
    EXPECT_GE(S->Tiles, 1);
    EXPECT_GT(S->PredictedNsPerItem, 0.0);
    if (S->Threads == 1)
      EXPECT_EQ(S->Backend, "serial");
    else
      EXPECT_NE(S->Backend, "serial");
  }
  EXPECT_FALSE(Plan.report().empty());
}

TEST(AutotunerTest, StepGraphFollowsMeasuredSubmitOverhead) {
  // Cheap launches: replay bookkeeping isn't worth it.
  EXPECT_FALSE(Autotuner::planFromProfile(fixedProfile(100.0)).UseStepGraph);
  // Expensive launches: collapse them with the captured graph.
  EXPECT_TRUE(Autotuner::planFromProfile(fixedProfile(20000.0)).UseStepGraph);
  // Unmeasured overhead (Submit empty): conservatively off.
  MachineProfile NoSubmit = fixedProfile(20000.0);
  NoSubmit.Submit.clear();
  EXPECT_FALSE(Autotuner::planFromProfile(NoSubmit).UseStepGraph);
}

TEST(AutotunerTest, RefineHonoursTheTrialBudgetAndKeepsImprovements) {
  TunePlan Seed = Autotuner::planFromProfile(fixedProfile(200.0));

  // A synthetic cost surface that strictly prefers fewer threads on the
  // deposit stage: the climb must walk it down and stop within budget.
  int Trials = 0;
  auto Cost = [](const TunePlan &Candidate) {
    return 1000.0 + 100.0 * Candidate.Deposit.Threads;
  };
  const TunePlan Refined = Autotuner::refine(
      Seed,
      [&](const TunePlan &Candidate) {
        ++Trials;
        return Cost(Candidate);
      },
      /*MaxTrials=*/8, &Trials);
  EXPECT_LE(Trials, 8);
  EXPECT_LE(Cost(Refined), Cost(Seed));
  EXPECT_LE(Refined.Deposit.Threads, Seed.Deposit.Threads);

  // A flat surface (nothing beats the seed by > 2%): the seed survives.
  const TunePlan Unmoved =
      Autotuner::refine(Seed, [](const TunePlan &) { return 1000.0; });
  EXPECT_TRUE(Unmoved == Seed);
}

TEST(AutotunerTest, AutoBackendIsRegisteredAndDelegates) {
  const BackendRegistry &Registry = BackendRegistry::instance();
  ASSERT_TRUE(Registry.contains("auto"));
  EXPECT_FALSE(Registry.description("auto").empty());

  // The factory returns the planned delegate itself, not a wrapper: its
  // name is a concrete strategy the registry also knows.
  auto Backend = createBackend("auto");
  ASSERT_NE(Backend, nullptr);
  EXPECT_STRNE(Backend->name(), "auto");
  EXPECT_TRUE(Registry.contains(Backend->name()));
}

/// A short Langmuir-style run with every stage on \p Backend; the
/// "auto" plan resolves against this host's measured profile, and every
/// knob it may pick is hash-invariant by the repo's cross-backend
/// guarantee — so auto vs serial must agree bit-for-bit.
std::uint64_t simulationHash(const std::string &Backend) {
  const pic::ScenarioSetup<double> S =
      pic::makeLangmuirScenario<double>({8, 4, 4}, 2, 0.05);
  pic::PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.PushBackend = Backend;
  Options.DepositBackend = Backend;
  Options.FieldBackend = Backend;
  pic::PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                                 Index(S.Particles.size()), S.Types, Options);
  pic::seedScenario(Sim, S);
  Sim.run(20);
  return pic::picStateHash(Sim.particles(), Sim.grid());
}

TEST(AutotunerTest, AutoBackendMatchesSerialBitForBit) {
  EXPECT_EQ(simulationHash("auto"), simulationHash("serial"));
}

} // namespace
