//===-- tests/pic/MovingWindowTest.cpp - Moving-window guarantees --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The moving-window contract (fields/GridWindow.h, pic/YeeGrid.h ring
/// storage, PicSimulation::shiftWindow). The shift trigger is a pure
/// function of simulation time, so a moving-window run is bit-identical
/// across backends, shard counts, layouts, graph replay and the
/// rebalancer: the `window` rows of tests/pic/EquivalenceMatrixTest.cpp.
/// Here:
///
///  - the window is physically honest: on a field-free pair plasma
///    (bitwise current cancellation) the surviving + injected particles
///    of a moving-window run are exactly — bitwise — the particles an
///    equivalent fixed big domain holds in the same x-range;
///  - a shift changes picStateHash even when every stored byte of
///    lattice data is unchanged (the window origin and shift count are
///    part of the state);
///  - each shift invalidates the captured step graph exactly once:
///    captures == 1 + shifts-before-the-last-step, everything else
///    replays;
///  - a shift costs O(shifted planes), not O(Nx): the ring storage
///    re-labels planes in place, so a run's shifts zero exactly
///    9 lattices x Ny x Nz elements per shifted plane at any Nx;
///  - the spectral solver refuses moving-window configs up front
///    (global FFTs cannot address a ring window).
///
//===----------------------------------------------------------------------===//

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Physics: window shift == equivalent fixed big domain, bitwise
//===----------------------------------------------------------------------===//

std::vector<std::array<double, 8>> sortedStates(
    const ParticleArrayAoS<double> &Particles, double MinX, double MaxX) {
  std::vector<std::array<double, 8>> Out;
  auto View = Particles.view();
  for (Index I = 0; I < Particles.size(); ++I) {
    const ParticleT<double> P = View[I].load();
    if (P.Position.X < MinX || P.Position.X >= MaxX)
      continue;
    Out.push_back({P.Position.X, P.Position.Y, P.Position.Z, P.Momentum.X,
                   P.Momentum.Y, P.Momentum.Z, P.Weight, double(P.Type)});
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(MovingWindowTest, ShiftMatchesEquivalentFixedDomainBitwise) {
  // Field-free resting pair plasma: co-located pairs cancel bitwise in
  // the deposit, the fields never leave exact zero, nothing moves. The
  // moving-window run's final ensemble (survivors + injected planes)
  // must then be — bitwise, as a multiset — the particles a fixed
  // domain big enough to contain the whole sweep holds in the window's
  // final x-range. Any drift here means the injector's placement or the
  // retirement edge diverged from plain seeding.
  // The moving-window scenario at zero pulse amplitude: its seeding and
  // its injector share one placement expression (global plane index
  // against the base origin), record-adjacent pairs.
  const GridSize NWin{32, 4, 4}, NBig{NWin.Nx + 16, 4, 4};
  const int Steps = 40;
  const ScenarioSetup<double> Win =
      makeMovingWindowScenario<double>(NWin, 2, /*PulseAmplitude=*/0.0);
  const ScenarioSetup<double> Big =
      makeMovingWindowScenario<double>(NBig, 2, /*PulseAmplitude=*/0.0);

  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 7;
  Options.MovingWindow = Win.MovingWindow;
  PicSimulation<double> Windowed(
      Win.Grid, Win.Origin, Win.Step,
      Index(Win.Particles.size()) + Win.ExtraCapacity, Win.Types, Options);
  seedScenario(Windowed, Win);
  Windowed.run(Steps);
  const Index Shifts = Windowed.windowOriginPlanes();
  ASSERT_GT(Shifts, 0);
  ASSERT_GE(NBig.Nx, NWin.Nx + Shifts) << "fixed domain must contain the sweep";

  Options.MovingWindow.Enabled = false;
  PicSimulation<double> Fixed(Big.Grid, Big.Origin, Big.Step,
                              Index(Big.Particles.size()), Big.Types, Options);
  seedScenario(Fixed, Big);
  Fixed.run(Steps);

  // Both runs are exactly field-free (the pair cancellation is bitwise).
  EXPECT_EQ(Windowed.fieldEnergy(), 0.0);
  EXPECT_EQ(Fixed.fieldEnergy(), 0.0);

  const double WinLo = Windowed.grid().origin().X;
  const double WinHi = WinLo + double(NWin.Nx) * Win.Step.X;
  EXPECT_GT(WinLo, Win.Origin.X); // the window really moved
  const auto FromWindow = sortedStates(Windowed.particles(), WinLo, WinHi);
  const auto FromFixed = sortedStates(Fixed.particles(), WinLo, WinHi);
  ASSERT_EQ(FromWindow.size(), std::size_t(Windowed.particles().size()))
      << "every live particle must lie inside the window";
  EXPECT_EQ(FromWindow, FromFixed);
}

//===----------------------------------------------------------------------===//
// picStateHash covers the window position (satellite regression)
//===----------------------------------------------------------------------===//

TEST(MovingWindowTest, StateHashChangesOnShiftEvenWithIdenticalBytes) {
  // An all-zero grid stays all-zero through a shift (entered planes are
  // zeroed), and an empty ensemble contributes nothing — so if the hash
  // did not mix the window origin and shift count, a shifted grid would
  // collide with the unshifted one.
  const GridSize N{16, 4, 4};
  YeeGrid<double> Grid(N, {0, 0, 0}, {0.5, 0.5, 0.5});
  ParticleArrayAoS<double> Empty(1);
  const std::uint64_t AtRest = picStateHash(Empty, Grid);

  Grid.shiftWindow(3);
  const std::uint64_t Shifted = picStateHash(Empty, Grid);
  EXPECT_NE(Shifted, AtRest);

  // Restoring the recorded window state reproduces the hash exactly —
  // the checkpoint path's re-labeling contract.
  const GridWindow Saved = Grid.window();
  YeeGrid<double> Reloaded(N, {0, 0, 0}, {0.5, 0.5, 0.5});
  Reloaded.restoreWindow(Saved);
  EXPECT_EQ(picStateHash(Empty, Reloaded), Shifted);
}

//===----------------------------------------------------------------------===//
// Step-graph economy: exactly one recapture per shift
//===----------------------------------------------------------------------===//

TEST(MovingWindowTest, ExactlyOneGraphRecapturePerShift) {
  const ScenarioSetup<double> S = makeMovingWindowScenario<double>({64, 4, 4});
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.MovingWindow = S.MovingWindow;
  Options.UseStepGraph = true;
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()) + S.ExtraCapacity,
                            S.Types, Options);
  seedScenario(Sim, S);

  // A shift at the end of step k invalidates the graph; the recapture
  // happens at the start of step k+1. So after N steps the capture
  // count is exactly 1 (initial) + the shifts that had occurred before
  // the final step — no shift may cost more than one recapture.
  const int Steps = 60;
  long long ShiftsBeforeLastStep = 0;
  for (int I = 0; I < Steps; ++I) {
    if (I == Steps - 1)
      ShiftsBeforeLastStep = Sim.windowShiftCount();
    Sim.step();
  }
  ASSERT_GT(Sim.windowShiftCount(), 0);
  EXPECT_EQ(Sim.graphCaptureCount(), 1 + ShiftsBeforeLastStep);
  EXPECT_EQ(Sim.graphReplayCount(), Steps - Sim.graphCaptureCount());
}

//===----------------------------------------------------------------------===//
// Shift cost: O(shifted planes), independent of Nx
//===----------------------------------------------------------------------===//

TEST(MovingWindowTest, ShiftCostIsPerPlaneIndependentOfNx) {
  // A shift zeroes the retired plane of each of the 9 lattices for
  // reuse at the leading edge and writes nothing else. Storage that
  // memmoved the interior would tally a term that grows with Nx, so the
  // per-plane cost must equal 9 x Ny x Nz at both window lengths.
  const std::size_t PlaneCost = 9 * 8 * 8;
  for (int Shards : {0, 4})
    for (Index Nx : {64, 32}) {
      const ScenarioSetup<double> S =
          makeMovingWindowScenario<double>({Nx, 8, 8});
      PicOptions<double> Options;
      Options.LightVelocity = 1.0;
      Options.SortEveryNSteps = 20;
      Options.MovingWindow = S.MovingWindow;
      if (Shards > 0) {
        Options.PushBackend = Options.DepositBackend = Options.FieldBackend =
            "sharded";
        Options.PushThreads = Options.DepositThreads = Options.FieldThreads =
            Shards;
      }
      PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                                Index(S.Particles.size()) + S.ExtraCapacity,
                                S.Types, Options);
      seedScenario(Sim, S);
      Sim.run(60);
      SCOPED_TRACE("shards=" + std::to_string(Shards) +
                   " Nx=" + std::to_string(Nx));
      ASSERT_GT(Sim.windowShiftCount(), 0);
      EXPECT_EQ(Sim.grid().shiftTouchedElems(),
                PlaneCost * std::size_t(Sim.windowOriginPlanes()));
      EXPECT_EQ(Sim.windowRetiredCount(), Sim.windowInjectedCount());
    }
}

//===----------------------------------------------------------------------===//
// Spectral solver rejection
//===----------------------------------------------------------------------===//

TEST(MovingWindowTest, SpectralSolverRejectsMovingWindow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PicOptions<double> Options;
  Options.Solver = FieldSolverKind::Spectral;
  Options.MovingWindow.Enabled = true;
  EXPECT_DEATH(
      {
        PicSimulation<double> Sim({16, 4, 4}, {0, 0, 0}, {0.5, 0.5, 0.5}, 16,
                                  ParticleTypeTable<double>::natural(),
                                  Options);
      },
      "moving window requires the FDTD solver");
}

} // namespace
