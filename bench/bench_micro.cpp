//===-- bench/bench_micro.cpp - Kernel micro-benchmarks ------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the individual kernels: the three
/// pushers over both layouts and precisions, the m-dipole field
/// evaluation, grid interpolation, the SIMD lane kernels (PIC stage 1,
/// the standalone dipole push and the Esirkepov deposit, baseline and
/// AVX-512 paths) and the particle sort. These are the per-kernel
/// numbers behind the scenario-level NSPS tables.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "fields/DipoleWave.h"
#include "fields/FieldGrid.h"
#include "pic/CurrentDeposition.h"
#include "pic/FieldInterpolator.h"
#include "pic/LaneKernels.h"
#include "pic/ParticleSorter.h"
#include "pic/TiledCurrentAccumulator.h"

#include <benchmark/benchmark.h>

using namespace hichi;

namespace {

constexpr Index MicroN = 16384;

template <typename Array> Array makeEnsemble() {
  using Real = typename Array::Scalar;
  Array Particles(MicroN);
  initializeRandomEnsemble(Particles, MicroN,
                           ParticleTypeTable<Real>::natural(),
                           Vector3<Real>::zero(), Real(1), Real(2), Real(1),
                           PS_Electron);
  return Particles;
}

//===----------------------------------------------------------------------===//
// Pushers x layouts x precisions
//===----------------------------------------------------------------------===//

template <typename Pusher, typename Array>
void pusherBody(benchmark::State &State) {
  using Real = typename Array::Scalar;
  Array Particles = makeEnsemble<Array>();
  auto Types = ParticleTypeTable<Real>::natural();
  const FieldSample<Real> F{{Real(0.1), 0, 0}, {0, 0, Real(1)}};
  auto View = Particles.view();
  const auto *TypesPtr = Types.data();
  for (auto _ : State) {
    for (Index I = 0; I < MicroN; ++I)
      Pusher::template push<Real>(View[I], F, TypesPtr, Real(0.01), Real(1));
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * MicroN);
}

void BM_Boris_AoS_float(benchmark::State &S) {
  pusherBody<BorisPusher, ParticleArrayAoS<float>>(S);
}
void BM_Boris_AoS_double(benchmark::State &S) {
  pusherBody<BorisPusher, ParticleArrayAoS<double>>(S);
}
void BM_Boris_SoA_float(benchmark::State &S) {
  pusherBody<BorisPusher, ParticleArraySoA<float>>(S);
}
void BM_Boris_SoA_double(benchmark::State &S) {
  pusherBody<BorisPusher, ParticleArraySoA<double>>(S);
}
void BM_Vay_AoS_double(benchmark::State &S) {
  pusherBody<VayPusher, ParticleArrayAoS<double>>(S);
}
void BM_HigueraCary_AoS_double(benchmark::State &S) {
  pusherBody<HigueraCaryPusher, ParticleArrayAoS<double>>(S);
}
BENCHMARK(BM_Boris_AoS_float);
BENCHMARK(BM_Boris_AoS_double);
BENCHMARK(BM_Boris_SoA_float);
BENCHMARK(BM_Boris_SoA_double);
BENCHMARK(BM_Vay_AoS_double);
BENCHMARK(BM_HigueraCary_AoS_double);

//===----------------------------------------------------------------------===//
// Field evaluation
//===----------------------------------------------------------------------===//

template <typename Real> void dipoleBody(benchmark::State &State) {
  auto Wave = DipoleWaveSource<Real>::fromPower(1, 1, 1);
  RandomStream<Real> Rng(3);
  std::vector<Vector3<Real>> Points(1024);
  for (auto &P : Points)
    P = Rng.inBall(Vector3<Real>::zero(), Real(3));
  Real Time = Real(0.1);
  for (auto _ : State) {
    Vector3<Real> Acc{};
    for (const auto &P : Points) {
      auto F = Wave(P, Time, 0);
      Acc += F.E + F.B;
    }
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(State.iterations() * Index(Points.size()));
}

void BM_DipoleEval_float(benchmark::State &S) { dipoleBody<float>(S); }
void BM_DipoleEval_double(benchmark::State &S) { dipoleBody<double>(S); }
BENCHMARK(BM_DipoleEval_float);
BENCHMARK(BM_DipoleEval_double);

void BM_TrilinearInterpolation(benchmark::State &State) {
  FieldGrid<double> Grid({16, 16, 16}, {0, 0, 0}, {1, 1, 1});
  auto Wave = DipoleWaveSource<double>::fromPower(1, 1, 1);
  Grid.fillFrom(Wave, 0.2);
  auto Src = Grid.source();
  RandomStream<double> Rng(4);
  std::vector<Vector3<double>> Points(1024);
  for (auto &P : Points)
    P = {Rng.uniform(0, 16), Rng.uniform(0, 16), Rng.uniform(0, 16)};
  for (auto _ : State) {
    Vector3<double> Acc{};
    for (const auto &P : Points)
      Acc += Src(P, 0, 0).E;
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(State.iterations() * Index(Points.size()));
}
BENCHMARK(BM_TrilinearInterpolation);

void BM_YeeInterpolationCic(benchmark::State &State) {
  pic::YeeGrid<double> Grid({16, 16, 16}, {0, 0, 0}, {1, 1, 1});
  Grid.Ex.fill(1.0);
  Grid.Bz.fill(0.5);
  pic::YeeInterpolator<double> Interp(Grid);
  RandomStream<double> Rng(5);
  std::vector<Vector3<double>> Points(1024);
  for (auto &P : Points)
    P = {Rng.uniform(0, 16), Rng.uniform(0, 16), Rng.uniform(0, 16)};
  for (auto _ : State) {
    Vector3<double> Acc{};
    for (const auto &P : Points)
      Acc += Interp(P, 0, 0).B;
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(State.iterations() * Index(Points.size()));
}
BENCHMARK(BM_YeeInterpolationCic);

//===----------------------------------------------------------------------===//
// Deposition and sorting
//===----------------------------------------------------------------------===//

/// The lane paths of pic/LaneKernels.h: the baseline instantiation
/// (forced through its test hook) and AVX-512 where the CPU has it.
const char *const LanePaths[] = {"baseline", "avx512"};

/// Runs \p Body with \p Path's lane kernels, or skips it on a CPU
/// without AVX-512.
template <typename BodyFn>
void onLanePath(benchmark::State &State, const std::string &Path,
                BodyFn &&Body) {
  const bool Avx512 = Path == "avx512";
  if (Avx512 && !pic::hostHasAvx512Lanes()) {
    State.SkipWithError("this CPU has no AVX-512 F/DQ/VL");
    return;
  }
  pic::detail::forceBaselineLanes(!Avx512);
  Body();
  pic::detail::forceBaselineLanes(false);
}

/// Stage 1 of the PIC step (CIC gather, Boris push, wrap) over a cold
/// ensemble in random fields, in lane blocks.
void lanePushBody(benchmark::State &State, const std::string &Path) {
  pic::YeeGrid<double> Grid({16, 16, 16}, {0, 0, 0}, {1, 1, 1});
  RandomStream<double> Rng(5);
  for (auto *L : {&Grid.Ex, &Grid.Ey, &Grid.Ez, &Grid.Bx, &Grid.By, &Grid.Bz})
    for (double &V : L->raw())
      V = Rng.uniform(-0.1, 0.1);
  ParticleArrayAoS<double> Particles(MicroN);
  initializeRandomEnsemble(Particles, MicroN,
                           ParticleTypeTable<double>::natural(),
                           Vector3<double>(8, 8, 8), 8.0, 0.1, 1.0,
                           PS_Electron);
  auto Types = ParticleTypeTable<double>::natural();
  std::vector<Vector3<double>> OldPos(MicroN), NewPos(MicroN);
  onLanePath(State, Path, [&] {
    for (auto _ : State) {
      pic::pushParticlesInLanes(Particles.view(), 0, MicroN, Grid,
                                Types.data(), 0.1, 1.0, OldPos.data(),
                                NewPos.data());
      benchmark::ClobberMemory();
    }
  });
  State.SetItemsProcessed(State.iterations() * MicroN);
}

/// The Esirkepov scatter in lane blocks, added through the production
/// sink over the whole grid.
void laneEsirkepovBody(benchmark::State &State, const std::string &Path) {
  pic::YeeGrid<double> Grid({16, 16, 16}, {0, 0, 0}, {1, 1, 1});
  RandomStream<double> Rng(6);
  constexpr Index Moves = 1024;
  ParticleArrayAoS<double> Particles(Moves);
  std::vector<Vector3<double>> From(Moves), To(Moves);
  for (Index I = 0; I < Moves; ++I) {
    From[I] = {Rng.uniform(2, 14), Rng.uniform(2, 14), Rng.uniform(2, 14)};
    To[I] = From[I] + Rng.inBall(Vector3<double>::zero(), 0.4);
    ParticleT<double> P;
    P.Position = To[I];
    Particles.pushBack(P);
  }
  auto Types = ParticleTypeTable<double>::natural();
  const pic::DepositGeometry<double> G{Grid.origin(), Grid.step(), 0.1};
  onLanePath(State, Path, [&] {
    for (auto _ : State) {
      pic::OwnedPlanesSink<double> Sink(Grid, 0, 16);
      pic::scatterEsirkepovInLanes(Sink, Particles.view(), From.data(),
                                   To.data(), Types.data(), G, Moves,
                                   [](Index I) { return I; });
      benchmark::ClobberMemory();
    }
  });
  State.SetItemsProcessed(State.iterations() * Moves);
}

/// The standalone pusher's analytic step (DipoleWaveSource + Boris) in
/// lane blocks, as exec::runStepLoop runs it, over a ball of electrons
/// reaching kR ~ 3; BM_DipoleEval_double is its field half, one
/// particle at a time.
void laneDipolePushBody(benchmark::State &State, const std::string &Path) {
  ParticleArrayAoS<double> Particles(MicroN);
  initializeBallAtRest(Particles, MicroN, Vector3<double>::zero(), 3.0,
                       PS_Electron, 7);
  const auto Types = ParticleTypeTable<double>::natural();
  const auto Wave = DipoleWaveSource<double>::fromPower(1, 1, 1);
  onLanePath(State, Path, [&] {
    for (auto _ : State) {
      pic::pushDipoleInLanes(Particles.view(), 0, MicroN, Wave.atTime(0.1),
                             Types.data(), 0.01, 1.0);
      benchmark::ClobberMemory();
    }
  });
  State.SetItemsProcessed(State.iterations() * MicroN);
}

void registerLaneBenchmarks() {
  for (const char *Path : LanePaths) {
    benchmark::RegisterBenchmark(
        (std::string("BM_LaneDipolePush/") + Path).c_str(),
        [Path](benchmark::State &State) { laneDipolePushBody(State, Path); });
    benchmark::RegisterBenchmark(
        (std::string("BM_LanePush/") + Path).c_str(),
        [Path](benchmark::State &State) { lanePushBody(State, Path); });
    benchmark::RegisterBenchmark(
        (std::string("BM_LaneEsirkepov/") + Path).c_str(),
        [Path](benchmark::State &State) { laneEsirkepovBody(State, Path); });
  }
}

template <typename Array> void sortBody(benchmark::State &State) {
  Array Particles = makeEnsemble<Array>();
  pic::CellIndexer<double> Indexer({8, 8, 8}, {-1, -1, -1}, {0.25, 0.25, 0.25});
  for (auto _ : State)
    pic::sortByCell(Particles, Indexer);
  State.SetItemsProcessed(State.iterations() * MicroN);
}
void BM_SortByCell_AoS(benchmark::State &S) {
  sortBody<ParticleArrayAoS<double>>(S);
}
void BM_SortByCell_SoA(benchmark::State &S) {
  sortBody<ParticleArraySoA<double>>(S);
}
BENCHMARK(BM_SortByCell_AoS);
BENCHMARK(BM_SortByCell_SoA);

//===----------------------------------------------------------------------===//
// miniSYCL kernel-launch overhead (the DPC++ runtime cost in Table 2)
//===----------------------------------------------------------------------===//

void BM_KernelSubmitOverhead(benchmark::State &State) {
  minisycl::queue Q{minisycl::cpu_device()};
  Q.set_thread_count(1);
  int *Data = minisycl::malloc_shared<int>(1, Q);
  for (auto _ : State) {
    Q.parallel_for(minisycl::range<1>(1), [=](minisycl::id<1>) { *Data = 1; })
        .wait();
  }
  minisycl::free(Data);
}
BENCHMARK(BM_KernelSubmitOverhead);

/// Per-launch overhead of each registered execution backend: a one-item,
/// one-step kernel measures exactly the submit/fork/join term that
/// multi-step fusion amortizes (the overhead column behind the DPC++ vs
/// OpenMP rows of Table 2).
void backendLaunchBody(benchmark::State &State, const std::string &Name) {
  auto Backend = hichi::exec::createBackend(Name, {/*Threads=*/1});
  minisycl::queue Q{minisycl::cpu_device()};
  hichi::exec::ExecutionContext Ctx;
  Ctx.Queue = &Q;
  int Sink = 0;
  auto Body = [&](Index, Index, int, int) {
    benchmark::DoNotOptimize(++Sink);
  };
  hichi::exec::StepKernel Kernel(
      Body, hichi::exec::kernelIdentity<decltype(Body)>());
  hichi::RunStats Stats;
  for (auto _ : State)
    Backend->submit({1, 0, 1}, Kernel, Ctx, Stats).wait();
}

void registerBackendLaunchBenchmarks() {
  for (const std::string &Name :
       hichi::exec::BackendRegistry::instance().names())
    benchmark::RegisterBenchmark(("BM_BackendLaunch/" + Name).c_str(),
                                 [Name](benchmark::State &State) {
                                   backendLaunchBody(State, Name);
                                 });
}

} // namespace

int main(int argc, char **argv) {
  registerBackendLaunchBenchmarks();
  registerLaneBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
