//===-- tests/perfmodel/PerfModelTest.cpp - Model vs paper tables --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the performance model against the published numbers: Table 2
/// (CPU NSPS), Table 3 (GPU NSPS) and the qualitative findings of
/// Section 5.3 / Fig. 1. These are the "does the reproduction have the
/// paper's shape" checks; bench/paper_repro prints the full comparison
/// and names, per section, the cases here that gate it.
///
//===----------------------------------------------------------------------===//

#include "gpusim/GpuDeviceModel.h"
#include "perfmodel/PaperData.h"
#include "perfmodel/RooflineModel.h"

#include <gtest/gtest.h>

using namespace hichi;
using namespace hichi::perfmodel;

namespace {

const CpuMachine Node = CpuMachine::xeon8260LNode();

//===----------------------------------------------------------------------===//
// Workload accounting
//===----------------------------------------------------------------------===//

TEST(WorkloadModelTest, ParticleBytesMatchPaperSection3) {
  EXPECT_DOUBLE_EQ(particleStoredBytes(Precision::Single), 36.0);
  EXPECT_DOUBLE_EQ(particleStoredBytes(Precision::Double), 72.0);
}

TEST(WorkloadModelTest, PrecalculatedAddsFieldTraffic) {
  for (Layout L : {Layout::AoS, Layout::SoA})
    for (Precision P : {Precision::Single, Precision::Double}) {
      auto Pre = trafficPerParticleStep(Scenario::PrecalculatedFields, L, P);
      auto Ana = trafficPerParticleStep(Scenario::AnalyticalFields, L, P);
      double FieldBytes = 6.0 * (P == Precision::Single ? 4.0 : 8.0);
      EXPECT_DOUBLE_EQ(Pre.ReadBytes - Ana.ReadBytes, FieldBytes);
      EXPECT_DOUBLE_EQ(Pre.WriteBytes, Ana.WriteBytes);
    }
}

TEST(WorkloadModelTest, DoubleTrafficIsTwiceSingleForAoS) {
  auto S = trafficPerParticleStep(Scenario::PrecalculatedFields, Layout::AoS,
                                  Precision::Single);
  auto D = trafficPerParticleStep(Scenario::PrecalculatedFields, Layout::AoS,
                                  Precision::Double);
  EXPECT_DOUBLE_EQ(D.total(), 2.0 * S.total());
}

TEST(WorkloadModelTest, AnalyticalCostsMoreFlops) {
  for (Precision P : {Precision::Single, Precision::Double})
    EXPECT_GT(flopsPerParticleStep(Scenario::AnalyticalFields, P),
              2.0 * flopsPerParticleStep(Scenario::PrecalculatedFields, P))
        << "the dipole evaluation must dominate the Boris kernel";
}

TEST(WorkloadModelTest, SoAVectorizesBetterThanAoS) {
  for (Scenario S : {Scenario::PrecalculatedFields, Scenario::AnalyticalFields})
    for (Precision P : {Precision::Single, Precision::Double})
      EXPECT_GT(vectorEfficiency(S, Layout::SoA, P),
                vectorEfficiency(S, Layout::AoS, P));
}

TEST(WorkloadModelTest, GpuProfileSplitsStridedForAoS) {
  auto AoS = gpuKernelProfile(Scenario::PrecalculatedFields, Layout::AoS,
                              Precision::Single);
  auto SoA = gpuKernelProfile(Scenario::PrecalculatedFields, Layout::SoA,
                              Precision::Single);
  EXPECT_GT(AoS.StridedBytesPerItem, 0.0);
  EXPECT_DOUBLE_EQ(SoA.StridedBytesPerItem, 0.0);
  EXPECT_DOUBLE_EQ(AoS.StreamedBytesPerItem, 24.0) << "field reads stream";
}

//===----------------------------------------------------------------------===//
// Table 2: per-cell accuracy and structural findings
//===----------------------------------------------------------------------===//

class Table2Test : public ::testing::TestWithParam<PaperCpuCell> {};

TEST_P(Table2Test, ModelWithin40PercentOfPaper) {
  // 40% per cell: the paper's SoA 'DPC++ NUMA' column sits noticeably
  // above its own OpenMP SoA rows (0.60 vs 0.43 analytic float), which a
  // traffic-based model cannot fully reproduce; the aggregate test below
  // still requires a <20% mean error.
  const PaperCpuCell &Cell = GetParam();
  double Model = predictCpuNsps(Node, Cell.S, Cell.L, Cell.P, Cell.Par,
                                Node.coreCount())
                     .Nsps;
  double RelErr = std::abs(Model - Cell.Nsps) / Cell.Nsps;
  EXPECT_LT(RelErr, 0.40) << "model " << Model << " vs paper " << Cell.Nsps;
}

INSTANTIATE_TEST_SUITE_P(AllCells, Table2Test,
                         ::testing::ValuesIn(PaperTable2));

TEST(Table2StructureTest, MeanAbsoluteErrorUnder20Percent) {
  double Sum = 0;
  for (const auto &Cell : PaperTable2) {
    double Model = predictCpuNsps(Node, Cell.S, Cell.L, Cell.P, Cell.Par,
                                  Node.coreCount())
                       .Nsps;
    Sum += std::abs(Model - Cell.Nsps) / Cell.Nsps;
  }
  EXPECT_LT(Sum / std::size(PaperTable2), 0.20);
}

TEST(Table2StructureTest, PlainDpcppIsAlwaysSlowest) {
  // Paper conclusion 1: without the NUMA policy, DPC++ loses bigly on the
  // 2-socket node.
  for (Scenario S : {Scenario::PrecalculatedFields, Scenario::AnalyticalFields})
    for (Layout L : {Layout::AoS, Layout::SoA})
      for (Precision P : {Precision::Single, Precision::Double}) {
        double OpenMp =
            predictCpuNsps(Node, S, L, P, Parallelization::OpenMP, 48).Nsps;
        double Flat =
            predictCpuNsps(Node, S, L, P, Parallelization::Dpcpp, 48).Nsps;
        double Numa =
            predictCpuNsps(Node, S, L, P, Parallelization::DpcppNuma, 48).Nsps;
        EXPECT_GT(Flat, 1.25 * OpenMp);
        EXPECT_GT(Flat, 1.25 * Numa);
      }
}

TEST(Table2StructureTest, NumaDpcppWithinFifteenPercentOfOpenMp) {
  // Paper conclusion 2: "only ~10% on average inferior".
  for (Scenario S : {Scenario::PrecalculatedFields, Scenario::AnalyticalFields})
    for (Layout L : {Layout::AoS, Layout::SoA})
      for (Precision P : {Precision::Single, Precision::Double}) {
        double OpenMp =
            predictCpuNsps(Node, S, L, P, Parallelization::OpenMP, 48).Nsps;
        double Numa =
            predictCpuNsps(Node, S, L, P, Parallelization::DpcppNuma, 48).Nsps;
        EXPECT_LT(Numa / OpenMp, 1.15);
        EXPECT_GT(Numa / OpenMp, 1.0);
      }
}

TEST(Table2StructureTest, DoubleIsAboutTwiceSingleInPrecalculated) {
  // Paper conclusion 4: "in the problem with precomputed fields, the
  // difference is almost twofold".
  for (Layout L : {Layout::AoS, Layout::SoA}) {
    double S = predictCpuNsps(Node, Scenario::PrecalculatedFields, L,
                              Precision::Single, Parallelization::OpenMP, 48)
                   .Nsps;
    double D = predictCpuNsps(Node, Scenario::PrecalculatedFields, L,
                              Precision::Double, Parallelization::OpenMP, 48)
                   .Nsps;
    EXPECT_NEAR(D / S, 2.0, 0.1);
  }
}

TEST(Table2StructureTest, PrecalculatedIsMemoryBound) {
  // Paper conclusion 5: the problem is memory bound.
  auto Pred = predictCpuNsps(Node, Scenario::PrecalculatedFields, Layout::AoS,
                             Precision::Single, Parallelization::OpenMP, 48);
  EXPECT_TRUE(Pred.memoryBound());
}

//===----------------------------------------------------------------------===//
// Table 3: GPUs
//===----------------------------------------------------------------------===//

class Table3Test : public ::testing::TestWithParam<PaperGpuCell> {};

TEST_P(Table3Test, ModelWithin35PercentOfPaper) {
  const PaperGpuCell &Cell = GetParam();
  auto Gpu = Cell.Gpu == PaperGpu::IrisXeMax
                 ? gpusim::GpuParameters::irisXeMax()
                 : gpusim::GpuParameters::p630();
  auto Profile = gpuKernelProfile(Cell.S, Cell.L, Precision::Single);
  double Model = gpusim::modelNsPerItem(Gpu, Profile, 10'000'000);
  double RelErr = std::abs(Model - Cell.Nsps) / Cell.Nsps;
  EXPECT_LT(RelErr, 0.35) << "model " << Model << " vs paper " << Cell.Nsps;
}

INSTANTIATE_TEST_SUITE_P(AllCells, Table3Test,
                         ::testing::ValuesIn(PaperTable3));

TEST(Table3StructureTest, LayoutMattersOnGpusButNotCpus) {
  // Paper: "on Intel GPUs the run time may differ by more than half"
  // while CPUs see almost no difference.
  for (bool Iris : {false, true})
    for (Scenario S :
         {Scenario::PrecalculatedFields, Scenario::AnalyticalFields}) {
      auto Gpu = Iris ? gpusim::GpuParameters::irisXeMax()
                      : gpusim::GpuParameters::p630();
      double AoS = gpusim::modelNsPerItem(
          Gpu, gpuKernelProfile(S, Layout::AoS, Precision::Single), 1e7);
      double SoA = gpusim::modelNsPerItem(
          Gpu, gpuKernelProfile(S, Layout::SoA, Precision::Single), 1e7);
      EXPECT_GT(AoS / SoA, 1.4) << "AoS must be much slower on GPUs";
    }
  double CpuAoS = predictCpuNsps(Node, Scenario::PrecalculatedFields,
                                 Layout::AoS, Precision::Single,
                                 Parallelization::DpcppNuma, 48)
                      .Nsps;
  double CpuSoA = predictCpuNsps(Node, Scenario::PrecalculatedFields,
                                 Layout::SoA, Precision::Single,
                                 Parallelization::DpcppNuma, 48)
                      .Nsps;
  EXPECT_LT(std::abs(CpuAoS - CpuSoA) / CpuAoS, 0.20)
      << "CPU layouts must be comparable (paper conclusion 3)";
}

TEST(Table3StructureTest, CpuToGpuSlowdownFactorsMatchPaper) {
  // Paper Section 5.3: "the code on P630 works slower only by a factor of
  // 3.5-4.5, and the code on Iris Xe Max ... 1.7-2.6, compared to 2
  // high-end CPUs."
  double Cpu = predictCpuNsps(Node, Scenario::PrecalculatedFields, Layout::SoA,
                              Precision::Single, Parallelization::DpcppNuma,
                              48)
                   .Nsps;
  double P630 = gpusim::modelNsPerItem(
      gpusim::GpuParameters::p630(),
      gpuKernelProfile(Scenario::PrecalculatedFields, Layout::SoA,
                       Precision::Single),
      1e7);
  double Iris = gpusim::modelNsPerItem(
      gpusim::GpuParameters::irisXeMax(),
      gpuKernelProfile(Scenario::PrecalculatedFields, Layout::SoA,
                       Precision::Single),
      1e7);
  EXPECT_GT(P630 / Cpu, 2.5);
  EXPECT_LT(P630 / Cpu, 5.5);
  EXPECT_GT(Iris / Cpu, 1.4);
  EXPECT_LT(Iris / Cpu, 3.2);
}

TEST(GpuModelTest, DoubleEmulationPenalizesIris) {
  auto Iris = gpusim::GpuParameters::irisXeMax();
  gpusim::KernelProfile P;
  P.FlopsPerItem = 1000; // compute bound
  P.DoublePrecision = false;
  double Single = gpusim::modelNsPerItem(Iris, P, 1e6);
  P.DoublePrecision = true;
  double Double = gpusim::modelNsPerItem(Iris, P, 1e6);
  EXPECT_GT(Double / Single, 8.0)
      << "FP64 emulation must be crushing (paper reports single only)";
}

TEST(GpuModelTest, LaunchOverheadVanishesPerItemAtScale) {
  auto Gpu = gpusim::GpuParameters::p630();
  gpusim::KernelProfile P;
  P.StreamedBytesPerItem = 10;
  double Small = gpusim::modelNsPerItem(Gpu, P, 1000);
  double Large = gpusim::modelNsPerItem(Gpu, P, 10'000'000);
  EXPECT_GT(Small, 2.0 * Large);
}

//===----------------------------------------------------------------------===//
// Fig. 1: strong scaling
//===----------------------------------------------------------------------===//

TEST(Fig1Test, SpeedupIsMonotoneNonDecreasing) {
  for (Parallelization Par :
       {Parallelization::OpenMP, Parallelization::DpcppNuma}) {
    double Prev = 0;
    for (int T = 1; T <= 48; T += 1) {
      double S = predictSpeedup(Node, Scenario::PrecalculatedFields,
                                Layout::AoS, Precision::Single, Par, T);
      EXPECT_GE(S, Prev - 1e-9) << "threads " << T;
      Prev = S;
    }
  }
}

TEST(Fig1Test, NearLinearUntilSocketBandwidthSaturates) {
  // Paper: "close to linear speedup is observed until the code fully
  // utilizes memory bandwidth of the first socket".
  double S4 = predictSpeedup(Node, Scenario::PrecalculatedFields, Layout::AoS,
                             Precision::Single, Parallelization::OpenMP, 4);
  EXPECT_NEAR(S4, 4.0, 0.3);
  double S24 = predictSpeedup(Node, Scenario::PrecalculatedFields, Layout::AoS,
                              Precision::Single, Parallelization::OpenMP, 24);
  EXPECT_LT(S24, 16.0) << "bandwidth wall inside the socket";
}

TEST(Fig1Test, SecondSocketResumesScaling) {
  double S24 = predictSpeedup(Node, Scenario::PrecalculatedFields, Layout::AoS,
                              Precision::Single, Parallelization::OpenMP, 24);
  double S48 = predictSpeedup(Node, Scenario::PrecalculatedFields, Layout::AoS,
                              Precision::Single, Parallelization::OpenMP, 48);
  EXPECT_GT(S48, 1.7 * S24) << "adding the second socket must ~double";
}

TEST(Fig1Test, DpcppNumaShowsSuperlinearStart) {
  // Paper: "For DPC++ NUMA implementations, super-linear acceleration is
  // observed at the beginning. This is because the DPC++ single core
  // version is quite slow."
  double S2 = predictSpeedup(Node, Scenario::PrecalculatedFields, Layout::AoS,
                             Precision::Single, Parallelization::DpcppNuma, 2);
  EXPECT_GT(S2, 2.0);
}

TEST(Fig1Test, FortyEightCoreEfficiencyNearPaperValue) {
  // Paper: "approaching to 63% of strong scaling efficiency when using 48
  // cores" for DPC++ NUMA.
  double S48 =
      predictSpeedup(Node, Scenario::PrecalculatedFields, Layout::AoS,
                     Precision::Single, Parallelization::DpcppNuma, 48);
  double Efficiency = S48 / 48.0;
  EXPECT_GT(Efficiency, 0.50);
  EXPECT_LT(Efficiency, 0.80);
}

//===----------------------------------------------------------------------===//
// First-iteration effect (Section 5.3)
//===----------------------------------------------------------------------===//

TEST(FirstIterationTest, DpcppFirstIterationAboutFiftyPercentSlower) {
  // Paper: "the first iteration takes 50% longer time than the subsequent
  // ones" (JIT + cold memory). One iteration = 1e7 particles x 1e3 steps
  // at ~0.5 NSPS ~= 5e9 ns.
  double IterationNs = 5e9;
  double JitNs = 1.5e9;
  double Factor = predictFirstIterationFactor(Parallelization::Dpcpp,
                                              IterationNs, JitNs);
  EXPECT_GT(Factor, 1.3);
  EXPECT_LT(Factor, 1.7);
  // OpenMP pays only the first-touch part.
  double OmpFactor = predictFirstIterationFactor(Parallelization::OpenMP,
                                                 IterationNs, JitNs);
  EXPECT_LT(OmpFactor, Factor);
  EXPECT_GT(OmpFactor, 1.05);

  // The same band with the iteration time taken from the model of the
  // paper's node (flat DPC++, AoS, float), as paper_repro prints it.
  double ModelIterationNs =
      predictCpuNsps(Node, Scenario::PrecalculatedFields, Layout::AoS,
                     Precision::Single, Parallelization::Dpcpp, 48)
          .Nsps *
      1e7 * 1e3;
  double ModelFactor = predictFirstIterationFactor(
      Parallelization::Dpcpp, ModelIterationNs, JitNs);
  EXPECT_GT(ModelFactor, 1.3);
  EXPECT_LT(ModelFactor, 1.7);
}

//===----------------------------------------------------------------------===//
// Machine model
//===----------------------------------------------------------------------===//

TEST(MachineModelTest, PaperNodePeakFlopsNearTable1) {
  // Table 1: 3.6 TFlops single precision for the 2-socket node.
  EXPECT_NEAR(Node.peakFlopsSingle(), 3.6e12, 0.4e12);
  EXPECT_EQ(Node.coreCount(), 48);
}

} // namespace
