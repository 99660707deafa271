//===-- examples/pic_scenarios.cpp - Skew-driving PIC scenarios ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runner for the canned scenarios beyond the uniform Langmuir ensemble
/// (pic/Scenarios.h): the drifting neutral pair slab (the moving-window
/// skew driver), the two-stream instability, the electron–ion
/// two-species plasma, and the density-gradient ensemble streaming into
/// an absorbing/open x boundary. Prints the scenario's physics
/// observable against its closed-form expectation, the occupancy-skew /
/// rebalance trace, and the final state hash the CLI hash rows in
/// CMakeLists.txt pin across backends and shard counts:
///
/// \code
///   pic_scenarios --scenario drifting-slab --shards 4 --rebalance 1.3
///   pic_scenarios --scenario two-stream --steps 120
///   pic_scenarios --scenario two-species --ion-mass 4
///   pic_scenarios --scenario density-gradient --backend openmp
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "support/ArgParse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

int main(int Argc, char **Argv) {
  ArgParser Args("pic_scenarios: skew-driving PIC scenarios with physics "
                 "expectations and rebalancing knobs");
  Args.addOption("scenario",
                 "one of: drifting-slab, two-stream, two-species, "
                 "density-gradient, moving-window",
                 "drifting-slab");
  Args.addOption("backend",
                 "exec backend for all three parallel stages "
                 "(--shards overrides with 'sharded')",
                 "openmp");
  Args.addOption("threads", "worker threads per stage (0 = all)", "0");
  Args.addOption("shards",
                 "run every stage on the sharded backend with this many "
                 "persistent shards (0 = off; wins over --backend)",
                 "0");
  Args.addOption("rebalance",
                 "occupancy-skew threshold of the between-steps rebalancer "
                 "(0 = off)",
                 "0");
  Args.addOption("rebalance-every", "steps between rebalance skew checks",
                 "10");
  Args.addOption("steps", "time steps to run (0 = scenario default)", "0");
  Args.addOption("percell", "particles per cell knob of the scenario", "0");
  Args.addOption("ion-mass",
                 "ion mass in electron masses (two-species scenario)", "4");
  Args.addFlag("graph",
               "capture the step's launch DAG once and replay it");
  if (!Args.parse(Argc, Argv)) {
    std::fprintf(stderr, "error: %s\n", Args.error().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    Args.printHelp(Argv[0]);
    return 0;
  }

  const std::string Name = Args.getString("scenario");
  const int PerCell = int(Args.getInt("percell").value_or(0));
  ScenarioSetup<double> S;
  int DefaultSteps = 100;
  if (Name == "drifting-slab") {
    S = makeDriftingSlabScenario<double>({64, 4, 4},
                                         PerCell > 0 ? PerCell : 4);
  } else if (Name == "two-stream") {
    S = makeTwoStreamScenario<double>({64, 4, 4}, PerCell > 0 ? PerCell : 1);
    DefaultSteps = 120;
  } else if (Name == "two-species") {
    S = makeTwoSpeciesScenario<double>(
        Args.getDouble("ion-mass").value_or(4.0), {32, 4, 4},
        PerCell > 0 ? PerCell : 4);
    DefaultSteps = 120;
  } else if (Name == "density-gradient") {
    S = makeDensityGradientScenario<double>({64, 4, 4},
                                            PerCell > 0 ? PerCell : 4);
    DefaultSteps = 150;
  } else if (Name == "moving-window") {
    S = makeMovingWindowScenario<double>({64, 4, 4},
                                         PerCell > 0 ? PerCell : 2);
    DefaultSteps = 120;
  } else {
    std::fprintf(stderr, "error: unknown scenario '%s'\n", Name.c_str());
    return 1;
  }

  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.AbsorbingCells = S.AbsorbingCells;
  Options.MovingWindow = S.MovingWindow;
  Options.UseStepGraph = Args.getFlag("graph");
  Options.RebalanceThreshold = Args.getDouble("rebalance").value_or(0.0);
  Options.RebalanceEveryNSteps =
      int(Args.getInt("rebalance-every").value_or(10));
  const int Shards = int(Args.getInt("shards").value_or(0));
  const std::string Backend =
      Shards > 0 ? "sharded" : Args.getString("backend");
  const int Threads =
      Shards > 0 ? Shards : int(Args.getInt("threads").value_or(0));
  Options.PushBackend = Backend;
  Options.PushThreads = Threads;
  Options.DepositBackend = Backend;
  Options.DepositThreads = Threads;
  Options.FieldBackend = Backend;
  Options.FieldThreads = Threads;
  if (!exec::BackendRegistry::instance().contains(Backend)) {
    std::fprintf(stderr, "error: unknown backend '%s' (known: %s)\n",
                 Backend.c_str(), exec::listBackendNames(", ").c_str());
    return 1;
  }

  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()) + S.ExtraCapacity,
                            S.Types, Options);
  seedScenario(Sim, S);

  const Index N0 = Sim.particles().size();
  std::printf("scenario '%s': %lld particles on a %lldx%lldx%lld grid, "
              "backend '%s'%s%s\n\n",
              S.Name.c_str(), (long long)N0, (long long)S.Grid.Nx,
              (long long)S.Grid.Ny, (long long)S.Grid.Nz, Backend.c_str(),
              Options.AbsorbingCells > 0 ? ", absorbing x boundary" : "",
              Options.MovingWindow.Enabled ? ", moving window" : "");

  const int TotalSteps = int(Args.getInt("steps").value_or(0)) > 0
                             ? int(*Args.getInt("steps"))
                             : DefaultSteps;
  const double Dt = Sim.timeStep();
  std::vector<double> Energy, Times;
  for (int Step = 0; Step < TotalSteps; ++Step) {
    Sim.step();
    Energy.push_back(Sim.fieldEnergy());
    Times.push_back(Sim.time());
  }

  // The scenario's physics observable vs its closed-form expectation.
  if (S.ExpectedGrowthRate > 0) {
    // Fit the instability's e^{2 gamma t} field-energy growth over the
    // linear phase (before trapping saturates it).
    double Sx = 0, Sy = 0, Sxx = 0, Sxy = 0;
    int Count = 0;
    for (std::size_t I = 0; I < Energy.size(); ++I)
      if (Times[I] > 4 && Times[I] < 10 && Energy[I] > 0) {
        const double X = Times[I], Y = std::log(Energy[I]);
        Sx += X;
        Sy += Y;
        Sxx += X * X;
        Sxy += X * Y;
        ++Count;
      }
    if (Count > 2) {
      const double Gamma =
          (Count * Sxy - Sx * Sy) / (Count * Sxx - Sx * Sx) / 2.0;
      std::printf("growth rate gamma = %.4f (analytic %.4f, error %.1f%%)\n",
                  Gamma, double(S.ExpectedGrowthRate),
                  100.0 * std::abs(Gamma / S.ExpectedGrowthRate - 1.0));
    }
  }
  if (S.ExpectedOmega > 0) {
    const double MaxE = *std::max_element(Energy.begin(), Energy.end());
    std::vector<double> Peaks;
    for (std::size_t I = 1; I + 1 < Energy.size(); ++I)
      if (Energy[I] > Energy[I - 1] && Energy[I] >= Energy[I + 1] &&
          Energy[I] > 0.2 * MaxE)
        Peaks.push_back(Times[I]);
    if (Peaks.size() >= 2) {
      const double Omega = constants::Pi / ((Peaks.back() - Peaks.front()) /
                                            double(Peaks.size() - 1));
      std::printf("omega = %.4f (analytic %.4f, error %.1f%%)\n", Omega,
                  double(S.ExpectedOmega),
                  100.0 * std::abs(Omega / S.ExpectedOmega - 1.0));
    }
  }
  std::printf("after %d steps (dt %.4f): kinetic %.6e, field %.6e\n",
              TotalSteps, Dt, Sim.kineticEnergy(), Sim.fieldEnergy());
  if (Options.AbsorbingCells > 0)
    std::printf("open boundary: %lld absorbed, %lld live\n",
                Sim.absorbedParticleCount(),
                (long long)Sim.particles().size());
  if (Options.MovingWindow.Enabled)
    std::printf("moving window: %lld shifts (%lld planes), %lld retired, "
                "%lld injected, %lld live\n",
                Sim.windowShiftCount(),
                (long long)Sim.windowOriginPlanes(),
                Sim.windowRetiredCount(), Sim.windowInjectedCount(),
                (long long)Sim.particles().size());
  if (Sim.rebalanceStats().Checks > 0) {
    const RebalanceStats RS = Sim.rebalanceStats();
    std::printf("rebalancer: %lld checks, %lld fires (threshold %.2f, last "
                "skew %.2f, max %.2f)\n",
                RS.Checks, RS.Fires, Options.RebalanceThreshold, RS.LastSkew,
                RS.MaxSkew);
  }
  const std::vector<exec::ShardStat> ShardStats = Sim.shardStats();
  if (!ShardStats.empty())
    std::printf("sharded execution: %zu shards, item imbalance %.2fx since "
                "the last repartition\n",
                ShardStats.size(), exec::shardImbalance(ShardStats));
  if (Sim.usesStepGraph())
    std::printf("step graph: %lld capture(s), %lld replays\n",
                Sim.graphCaptureCount(), Sim.graphReplayCount());
  std::printf("final state hash = %016llx (backend-independent)\n",
              (unsigned long long)picStateHash(Sim.particles(), Sim.grid()));
  return 0;
}
