//===-- bench/bench_micro.cpp - Kernel micro-benchmarks ------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the individual kernels: the three
/// pushers over both layouts and precisions, the m-dipole field
/// evaluation, grid interpolation, Esirkepov deposition and the particle
/// sort. These are the per-kernel numbers behind the scenario-level NSPS
/// tables.
///
//===----------------------------------------------------------------------===//

#include "core/BatchPusher.h"
#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "fields/DipoleWave.h"
#include "fields/FieldGrid.h"
#include "pic/CurrentDeposition.h"
#include "pic/FieldInterpolator.h"
#include "pic/ParticleSorter.h"

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

/// The explicitly vectorizable batch kernel vs the per-particle proxy
/// loop (same arithmetic; measures what the proxy abstraction costs the
/// auto-vectorizer).
template <typename Real> void batchBody(benchmark::State &State) {
  ParticleArraySoA<Real> Particles =
      makeEnsemble<ParticleArraySoA<Real>>();
  auto Types = ParticleTypeTable<Real>::natural();
  const FieldSample<Real> F{{Real(0.1), 0, 0}, {0, 0, Real(1)}};
  auto View = Particles.view();
  for (auto _ : State) {
    borisPushBatchSoA(View, 0, MicroN, Types[PS_Electron], F, Real(0.01),
                      Real(1));
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * MicroN);
}
void BM_BorisBatch_SoA_float(benchmark::State &S) { batchBody<float>(S); }
void BM_BorisBatch_SoA_double(benchmark::State &S) { batchBody<double>(S); }
BENCHMARK(BM_BorisBatch_SoA_float);
BENCHMARK(BM_BorisBatch_SoA_double);

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

void BM_EsirkepovDeposition(benchmark::State &State) {
  pic::YeeGrid<double> Grid({16, 16, 16}, {0, 0, 0}, {1, 1, 1});
  RandomStream<double> Rng(6);
  std::vector<std::pair<Vector3<double>, Vector3<double>>> Moves(1024);
  for (auto &M : Moves) {
    M.first = {Rng.uniform(2, 14), Rng.uniform(2, 14), Rng.uniform(2, 14)};
    M.second = M.first + Rng.inBall(Vector3<double>::zero(), 0.4);
  }
  for (auto _ : State) {
    for (const auto &M : Moves)
      pic::depositCurrentEsirkepov(Grid, M.first, M.second, -1.0, 0.1);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * Index(Moves.size()));
}
BENCHMARK(BM_EsirkepovDeposition);

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
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
