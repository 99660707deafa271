//===-- perfmodel/WorkloadModel.cpp - Pusher workload accounting ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "perfmodel/WorkloadModel.h"

#include "support/Logging.h"

using namespace hichi;
using namespace hichi::perfmodel;

const char *perfmodel::toString(Scenario S) {
  switch (S) {
  case Scenario::PrecalculatedFields:
    return "Precalculated Fields";
  case Scenario::AnalyticalFields:
    return "Analytical Fields";
  }
  unreachable("bad Scenario");
}

const char *perfmodel::toString(Layout L) {
  switch (L) {
  case Layout::AoS:
    return "AoS";
  case Layout::SoA:
    return "SoA";
  }
  unreachable("bad Layout");
}

const char *perfmodel::toString(Precision P) {
  switch (P) {
  case Precision::Single:
    return "float";
  case Precision::Double:
    return "double";
  }
  unreachable("bad Precision");
}

const char *perfmodel::toString(Parallelization P) {
  switch (P) {
  case Parallelization::OpenMP:
    return "OpenMP";
  case Parallelization::Dpcpp:
    return "DPC++";
  case Parallelization::DpcppNuma:
    return "DPC++ NUMA";
  }
  unreachable("bad Parallelization");
}

double perfmodel::particleStoredBytes(Precision P) {
  // 8 scalars (position 3, momentum 3, weight, gamma) + 2-byte type,
  // aligned: 36 B single / 72 B double (paper Section 3).
  return P == Precision::Single ? 36.0 : 72.0;
}

Traffic perfmodel::trafficPerParticleStep(Scenario S, Layout L, Precision P) {
  const double Scalar = P == Precision::Single ? 4.0 : 8.0;
  Traffic T;

  if (L == Layout::AoS) {
    // Whole-object streaming: the hardware prefetcher moves complete
    // particle records regardless of which fields the kernel names.
    T.ReadBytes = particleStoredBytes(P);
    T.WriteBytes = particleStoredBytes(P);
  } else {
    // SoA touches only the arrays the kernel uses: reads position,
    // momentum, gamma and the type tag; writes back position, momentum
    // and gamma (weight is never touched by the pusher).
    T.ReadBytes = 7.0 * Scalar + 2.0;
    T.WriteBytes = 7.0 * Scalar;
  }

  if (S == Scenario::PrecalculatedFields) {
    // Precalculated E and B: 6 more scalars read per particle-step
    // ("we additionally store an array of field values comparable in
    // size to the ensemble of particles", Section 5.3).
    T.ReadBytes += 6.0 * Scalar;
  }
  return T;
}

double perfmodel::flopsPerParticleStep(Scenario S, Precision P) {
  // Effective-flop costs of non-FMA operations on Cascade Lake / Gen GPUs
  // (reciprocal throughput relative to an FMA).
  constexpr double DivCost = 10.0;
  constexpr double SqrtCost = 15.0;
  constexpr double SinCosCost = 40.0; // vectorized libm sincos pair

  // Boris kernel (core/BorisPusher.h): two E half-steps (12), t/s vectors
  // (6 + 1 div + dot 5), two cross products (2 x 9), gamma update
  // (5 + sqrt), velocity + position (9 + 1 div). Audited by
  // tests/perfmodel/WorkloadAuditTest.
  double Boris = 12 + 6 + DivCost + 5 + 18 + 5 + SqrtCost + 9 + DivCost;

  if (S == Scenario::AnalyticalFields) {
    // m-dipole evaluation (fields/DipoleWave.h): R (5 + sqrt), 1/kR
    // powers (2 div), f1,f2,f3 (one sincos + ~14), six components
    // (~24 + 2 div), time phase reuse.
    double Dipole = 5 + SqrtCost + 2 * DivCost + SinCosCost + 14 + 24 +
                    2 * DivCost;
    Boris += Dipole;
  }

  // Double precision executes the same operation count; the *rate* halves
  // via the SIMD width in the machine model, not here. Transcendental
  // kernels are relatively costlier in double, though:
  if (P == Precision::Double && S == Scenario::AnalyticalFields)
    Boris *= 1.15;
  return Boris;
}

double perfmodel::vectorEfficiency(Scenario S, Layout L, Precision P) {
  // Calibrated sustained-vs-peak vector throughput of the compiled loop.
  // SoA: unit-stride loads feed the FMA pipes well. AoS: gather/scatter
  // dominates, and it hurts most when compute matters (analytical
  // scenario) and when lanes are narrow (single precision gathers twice
  // as many elements per vector). These constants are the compute-side
  // calibration of the whole CPU model.
  if (L == Layout::SoA)
    return 0.35;
  if (S != Scenario::AnalyticalFields)
    return 0.25;
  return P == Precision::Single ? 0.115 : 0.17;
}

double perfmodel::streamCountBandwidthFactor(Layout L) {
  return L == Layout::SoA ? 0.90 : 1.0;
}

StageWorkload perfmodel::pushStageWorkload(Precision P) {
  const double Scalar = P == Precision::Single ? 4.0 : 8.0;
  StageWorkload W;
  W.Stage = "push";
  // Particle record read + RFO write, plus the trilinear E/B gather: 6
  // field components from 8 grid corners, but consecutive particles of a
  // sorted ensemble share corners, so the streamed share is ~one vector
  // pair per particle (6 scalars).
  W.BytesPerItem = 3.0 * particleStoredBytes(P) + 6.0 * Scalar;
  // Boris kernel (see flopsPerParticleStep) + trilinear weights and the
  // 8-corner accumulation for both fields (~2 x 8 x 7 FMAs + weights).
  W.FlopsPerItem = 100.0 + 130.0;
  W.VectorEfficiency = 0.35; // AoS-ish gathers between unit-stride spans
  return W;
}

StageWorkload perfmodel::depositStageWorkload(Precision P) {
  const double Scalar = P == Precision::Single ? 4.0 : 8.0;
  StageWorkload W;
  W.Stage = "deposit";
  // Particle read + saved old position (3 scalars), and the 3x3x3
  // current scatter: 81 read-modify-write scalars per particle, but a
  // tile's owned J planes are cache-resident, so the streamed share is
  // those planes written back once per tile pass (~2 lines per particle).
  W.BytesPerItem = particleStoredBytes(P) + 3.0 * Scalar + 16.0 * Scalar;
  // Esirkepov form factors (3 x 2 x 3 quadratics), the 27-cell W-tensor
  // assembly and the three current accumulations.
  W.FlopsPerItem = 320.0;
  W.VectorEfficiency = 0.20; // indexed scatter, little SIMD to be had
  return W;
}

StageWorkload perfmodel::fieldStageWorkload(Precision P) {
  const double Scalar = P == Precision::Single ? 4.0 : 8.0;
  StageWorkload W;
  W.Stage = "field";
  // Per cell and step: read E(3), B(3), J(3); write E(3), B(3) with RFO.
  W.BytesPerItem = 9.0 * Scalar + 2.0 * 6.0 * Scalar;
  // Two curl applications (~11 flops per updated component) + the J
  // subtraction.
  W.FlopsPerItem = 70.0;
  W.VectorEfficiency = 0.50; // unit-stride stencil, vectorizes well
  return W;
}

gpusim::KernelProfile perfmodel::gpuKernelProfile(Scenario S, Layout L,
                                                  Precision P) {
  Traffic T = trafficPerParticleStep(S, L, P);
  gpusim::KernelProfile Profile;
  // GPUs stream writes (no read-for-ownership): plain totals.
  if (L == Layout::SoA) {
    Profile.StreamedBytesPerItem = T.total();
  } else {
    // AoS: the particle record accesses are strided; the field array (in
    // the precalculated scenario) is still unit-stride.
    double FieldBytes = S == Scenario::PrecalculatedFields
                            ? 6.0 * (P == Precision::Single ? 4.0 : 8.0)
                            : 0.0;
    Profile.StreamedBytesPerItem = FieldBytes;
    Profile.StridedBytesPerItem = T.total() - FieldBytes;
  }
  Profile.FlopsPerItem = flopsPerParticleStep(S, P);
  Profile.DoublePrecision = P == Precision::Double;
  return Profile;
}
