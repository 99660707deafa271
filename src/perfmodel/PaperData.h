//===-- perfmodel/PaperData.h - The paper's published numbers --*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NSPS values published in the paper's Table 2 (CPU) and Table 3
/// (GPU), typed out once. `bench/paper_repro` prints them beside the model
/// and the host measurement; `tests/perfmodel/PerfModelTest.cpp` holds the
/// model to them.
///
/// Table 3's CPU column is not stored: it repeats Table 2's DPC++ NUMA
/// single-precision cells (paperCpuNsps(L, DpcppNuma, S, Single)).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PERFMODEL_PAPERDATA_H
#define HICHI_PERFMODEL_PAPERDATA_H

#include "perfmodel/WorkloadModel.h"
#include "support/Logging.h"

namespace hichi {
namespace perfmodel {

/// One cell of the paper's Table 2: NSPS on the 2x Xeon 8260L node.
struct PaperCpuCell {
  Layout L;
  Parallelization Par;
  Scenario S;
  Precision P;
  double Nsps;
};

/// Table 2, in the paper's row order (layout, then implementation), each
/// row's cells by scenario, then precision.
inline constexpr PaperCpuCell PaperTable2[] = {
    {Layout::AoS, Parallelization::OpenMP, Scenario::PrecalculatedFields, Precision::Single, 0.53},
    {Layout::AoS, Parallelization::OpenMP, Scenario::PrecalculatedFields, Precision::Double, 0.98},
    {Layout::AoS, Parallelization::OpenMP, Scenario::AnalyticalFields, Precision::Single, 0.58},
    {Layout::AoS, Parallelization::OpenMP, Scenario::AnalyticalFields, Precision::Double, 0.84},
    {Layout::AoS, Parallelization::Dpcpp, Scenario::PrecalculatedFields, Precision::Single, 0.78},
    {Layout::AoS, Parallelization::Dpcpp, Scenario::PrecalculatedFields, Precision::Double, 1.54},
    {Layout::AoS, Parallelization::Dpcpp, Scenario::AnalyticalFields, Precision::Single, 1.02},
    {Layout::AoS, Parallelization::Dpcpp, Scenario::AnalyticalFields, Precision::Double, 1.48},
    {Layout::AoS, Parallelization::DpcppNuma, Scenario::PrecalculatedFields, Precision::Single, 0.54},
    {Layout::AoS, Parallelization::DpcppNuma, Scenario::PrecalculatedFields, Precision::Double, 0.99},
    {Layout::AoS, Parallelization::DpcppNuma, Scenario::AnalyticalFields, Precision::Single, 0.54},
    {Layout::AoS, Parallelization::DpcppNuma, Scenario::AnalyticalFields, Precision::Double, 0.89},
    {Layout::SoA, Parallelization::OpenMP, Scenario::PrecalculatedFields, Precision::Single, 0.50},
    {Layout::SoA, Parallelization::OpenMP, Scenario::PrecalculatedFields, Precision::Double, 1.06},
    {Layout::SoA, Parallelization::OpenMP, Scenario::AnalyticalFields, Precision::Single, 0.43},
    {Layout::SoA, Parallelization::OpenMP, Scenario::AnalyticalFields, Precision::Double, 0.76},
    {Layout::SoA, Parallelization::Dpcpp, Scenario::PrecalculatedFields, Precision::Single, 0.85},
    {Layout::SoA, Parallelization::Dpcpp, Scenario::PrecalculatedFields, Precision::Double, 1.49},
    {Layout::SoA, Parallelization::Dpcpp, Scenario::AnalyticalFields, Precision::Single, 0.77},
    {Layout::SoA, Parallelization::Dpcpp, Scenario::AnalyticalFields, Precision::Double, 1.31},
    {Layout::SoA, Parallelization::DpcppNuma, Scenario::PrecalculatedFields, Precision::Single, 0.58},
    {Layout::SoA, Parallelization::DpcppNuma, Scenario::PrecalculatedFields, Precision::Double, 1.20},
    {Layout::SoA, Parallelization::DpcppNuma, Scenario::AnalyticalFields, Precision::Single, 0.60},
    {Layout::SoA, Parallelization::DpcppNuma, Scenario::AnalyticalFields, Precision::Double, 0.90},
};

/// The paper's two GPUs (Table 1).
enum class PaperGpu { P630, IrisXeMax };

/// One GPU cell of the paper's Table 3: DPC++ NSPS, single precision.
struct PaperGpuCell {
  Layout L;
  PaperGpu Gpu;
  Scenario S;
  double Nsps;
};

inline constexpr PaperGpuCell PaperTable3[] = {
    {Layout::AoS, PaperGpu::P630, Scenario::PrecalculatedFields, 4.76},
    {Layout::AoS, PaperGpu::P630, Scenario::AnalyticalFields, 4.45},
    {Layout::AoS, PaperGpu::IrisXeMax, Scenario::PrecalculatedFields, 2.10},
    {Layout::AoS, PaperGpu::IrisXeMax, Scenario::AnalyticalFields, 2.10},
    {Layout::SoA, PaperGpu::P630, Scenario::PrecalculatedFields, 2.43},
    {Layout::SoA, PaperGpu::P630, Scenario::AnalyticalFields, 1.93},
    {Layout::SoA, PaperGpu::IrisXeMax, Scenario::PrecalculatedFields, 1.42},
    {Layout::SoA, PaperGpu::IrisXeMax, Scenario::AnalyticalFields, 1.00},
};

/// \returns the Table 2 value of one cell.
inline double paperCpuNsps(Layout L, Parallelization Par, Scenario S,
                           Precision P) {
  for (const PaperCpuCell &C : PaperTable2)
    if (C.L == L && C.Par == Par && C.S == S && C.P == P)
      return C.Nsps;
  unreachable("Table 2 has every cell");
}

/// \returns the Table 3 value of one GPU cell.
inline double paperGpuNsps(Layout L, PaperGpu Gpu, Scenario S) {
  for (const PaperGpuCell &C : PaperTable3)
    if (C.L == L && C.Gpu == Gpu && C.S == S)
      return C.Nsps;
  unreachable("Table 3 has every cell");
}

} // namespace perfmodel
} // namespace hichi

#endif // HICHI_PERFMODEL_PAPERDATA_H
