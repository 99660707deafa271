//===-- tests/pic/MovingWindowTest.cpp - Moving-window guarantees --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The moving-window contract, gated in CI as the
/// `pic_window_equivalence` ctest target (fields/GridWindow.h,
/// pic/YeeGrid.h ring storage, PicSimulation::shiftWindow):
///
///  - the shift trigger is a pure function of simulation time, so a
///    moving-window run is *bit-identical* across serial/openmp/sharded
///    backends at several shard counts, in both particle layouts, with
///    and without step-graph replay, with and without the rebalancer
///    armed — the same guarantee the fixed-window equivalence suites
///    pin, extended to a domain that moves;
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

struct WindowRun {
  std::uint64_t Hash = 0;
  long long Shifts = 0;
  long long Retired = 0;
  long long Injected = 0;
  long long Captures = 0;
  long long Replays = 0;
  Index Live = 0;
  Index ShiftedPlanes = 0;
  std::size_t ShiftTouchedElems = 0;
};

/// 60 steps of the pulse-tracking moving-window scenario on an \p N
/// window with every stage on \p Backend.
template <typename Array = ParticleArrayAoS<double>>
WindowRun runWindowScenario(const std::string &Backend, int Threads,
                            bool UseGraph, double RebalanceThreshold,
                            GridSize N = {64, 4, 4}) {
  const ScenarioSetup<double> S = makeMovingWindowScenario<double>(N);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.MovingWindow = S.MovingWindow;
  Options.UseStepGraph = UseGraph;
  Options.RebalanceThreshold = RebalanceThreshold;
  Options.PushBackend = Backend;
  Options.DepositBackend = Backend;
  Options.FieldBackend = Backend;
  Options.PushThreads = Threads;
  Options.DepositThreads = Threads;
  Options.FieldThreads = Threads;
  PicSimulation<double, Array> Sim(S.Grid, S.Origin, S.Step,
                                   Index(S.Particles.size()) + S.ExtraCapacity,
                                   S.Types, Options);
  seedScenario(Sim, S);
  Sim.run(60);

  WindowRun Out;
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  Out.Shifts = Sim.windowShiftCount();
  Out.Retired = Sim.windowRetiredCount();
  Out.Injected = Sim.windowInjectedCount();
  Out.Captures = Sim.graphCaptureCount();
  Out.Replays = Sim.graphReplayCount();
  Out.Live = Sim.particles().size();
  Out.ShiftedPlanes = Sim.windowOriginPlanes();
  Out.ShiftTouchedElems = Sim.grid().shiftTouchedElems();
  return Out;
}

//===----------------------------------------------------------------------===//
// Cross-backend bit-identity (the CI gate's core)
//===----------------------------------------------------------------------===//

TEST(MovingWindowTest, BitIdenticalAcrossBackendsLayoutsGraphAndRebalance) {
  const WindowRun Ref =
      runWindowScenario("serial", 0, /*UseGraph=*/false, /*Rebalance=*/0.0);
  ASSERT_GT(Ref.Shifts, 0) << "scenario must actually shift";
  EXPECT_EQ(Ref.Retired, Ref.Injected); // uniform plasma: steady state

  const struct {
    const char *Backend;
    int Threads;
  } Configs[] = {{"serial", 0},  {"openmp", 3}, {"sharded", 1},
                 {"sharded", 2}, {"sharded", 5}};
  for (const auto &C : Configs)
    for (bool UseGraph : {false, true})
      for (double Threshold : {0.0, 1.3}) {
        const WindowRun Run =
            runWindowScenario(C.Backend, C.Threads, UseGraph, Threshold);
        EXPECT_EQ(Run.Hash, Ref.Hash)
            << C.Backend << " threads=" << C.Threads << " graph=" << UseGraph
            << " rebalance=" << Threshold;
        EXPECT_EQ(Run.Shifts, Ref.Shifts) << C.Backend;
        EXPECT_EQ(Run.Retired, Ref.Retired) << C.Backend;
        EXPECT_EQ(Run.Injected, Ref.Injected) << C.Backend;
        EXPECT_EQ(Run.Live, Ref.Live) << C.Backend;
      }

  // The SoA layout lands on the same bits (the hash reads whole records
  // through the proxy, and every stage is layout-generic).
  const WindowRun SoaPlain = runWindowScenario<ParticleArraySoA<double>>(
      "serial", 0, /*UseGraph=*/false, /*Rebalance=*/0.0);
  EXPECT_EQ(SoaPlain.Hash, Ref.Hash);
  const WindowRun SoaFull = runWindowScenario<ParticleArraySoA<double>>(
      "sharded", 5, /*UseGraph=*/true, /*Rebalance=*/1.3);
  EXPECT_EQ(SoaFull.Hash, Ref.Hash);
}

//===----------------------------------------------------------------------===//
// Physics: window shift == equivalent fixed big domain, bitwise
//===----------------------------------------------------------------------===//

/// Seeds \p PlaneCount x-planes of the resting neutral pair plasma with
/// the moving-window injector's exact placement expression (global plane
/// index against the base origin), record-adjacent pairs.
template <typename Sim>
void seedRestingPairs(Sim &S, GridSize N, Index PlaneCount,
                      const Vector3<double> &Origin,
                      const Vector3<double> &Step, int PairsPerCell,
                      double Weight) {
  for (Index I = 0; I < PlaneCount; ++I)
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K = 0; K < N.Nz; ++K)
        for (int P = 0; P < PairsPerCell; ++P) {
          ParticleT<double> Part;
          Part.Position = {Origin.X + (double(I) + (P + 0.5) / PairsPerCell) *
                                          Step.X,
                           Origin.Y + (double(J) + 0.5) * Step.Y,
                           Origin.Z + (double(K) + 0.5) * Step.Z};
          Part.Momentum = Vector3<double>::zero();
          Part.Weight = Weight;
          Part.Gamma = 1.0;
          Part.Type = PS_Electron;
          S.addParticle(Part);
          Part.Type = PS_Positron;
          S.addParticle(Part);
        }
}

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
  const GridSize NWin{32, 4, 4};
  const Vector3<double> Origin(0, 0, 0), Step(0.5, 0.5, 0.5);
  const int PairsPerCell = 2, Steps = 40;
  const double Weight = 0.01;

  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 7;
  Options.MovingWindow.Enabled = true;
  Options.MovingWindow.Speed = 1.0;
  Options.MovingWindow.InjectPerCell = PairsPerCell;
  Options.MovingWindow.InjectType = short(PS_Electron);
  Options.MovingWindow.InjectPairType = short(PS_Positron);
  Options.MovingWindow.InjectWeight = Weight;
  const Index PlanePairs = Index(2 * PairsPerCell) * NWin.Ny * NWin.Nz;
  PicSimulation<double> Windowed(
      NWin, Origin, Step, NWin.count() * Index(2 * PairsPerCell) +
                              Index(4) * PlanePairs,
      ParticleTypeTable<double>::natural(), Options);
  seedRestingPairs(Windowed, NWin, NWin.Nx, Origin, Step, PairsPerCell,
                   Weight);
  Windowed.run(Steps);
  const Index Shifts = Windowed.windowOriginPlanes();
  ASSERT_GT(Shifts, 0);

  const GridSize NBig{NWin.Nx + 16, 4, 4};
  ASSERT_GE(NBig.Nx, NWin.Nx + Shifts) << "fixed domain must contain the sweep";
  PicOptions<double> FixedOptions;
  FixedOptions.LightVelocity = 1.0;
  FixedOptions.SortEveryNSteps = 7;
  PicSimulation<double> Fixed(NBig, Origin, Step,
                              NBig.count() * Index(2 * PairsPerCell),
                              ParticleTypeTable<double>::natural(),
                              FixedOptions);
  seedRestingPairs(Fixed, NBig, NBig.Nx, Origin, Step, PairsPerCell, Weight);
  Fixed.run(Steps);

  // Both runs are exactly field-free (the pair cancellation is bitwise).
  EXPECT_EQ(Windowed.fieldEnergy(), 0.0);
  EXPECT_EQ(Fixed.fieldEnergy(), 0.0);

  const double WinLo = Windowed.grid().origin().X;
  const double WinHi = WinLo + double(NWin.Nx) * Step.X;
  EXPECT_GT(WinLo, Origin.X); // the window really moved
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
  for (int Shards : {0, 4}) {
    const char *Backend = Shards > 0 ? "sharded" : "serial";
    for (Index Nx : {64, 32}) {
      const WindowRun Run = runWindowScenario(
          Backend, Shards, /*UseGraph=*/false, /*Rebalance=*/0.0, {Nx, 8, 8});
      ASSERT_GT(Run.Shifts, 0) << Backend << " Nx=" << Nx;
      EXPECT_EQ(Run.ShiftTouchedElems,
                PlaneCost * std::size_t(Run.ShiftedPlanes))
          << Backend << " Nx=" << Nx;
      EXPECT_EQ(Run.Retired, Run.Injected) << Backend << " Nx=" << Nx;
    }
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
