//===-- pic/LaneKernels.h - Hot loops in SIMD lanes -------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-particle hot loops in blocks of particles, one particle per
/// SIMD lane: PIC stage 1 (the CIC Yee gather of YeeInterpolator,
/// BorisPusher::push and the periodic wrap) and the standalone pusher's
/// analytic push (DipoleWaveAtTime, then BorisPusher::push; driven by
/// exec::runStepLoop) in blocks of LaneWidth, both through one Boris lane
/// body; and the Esirkepov current scatter's 54 contributions in blocks
/// of one register (the ISA's DepositWidth) (Vincenti et al., "An
/// efficient and portable SIMD algorithm for charge/current deposition
/// in Particle-In-Cell codes", CPC 210, 2017). The paper's CPU result
/// rests on the pusher vectorizing "with full use of AVX-512
/// instructions" (Sec. 5.3); the baseline build cannot assume that ISA,
/// so the vector code comes from the source. The dipole's sin and cos
/// stay scalar libm calls, one pair per lane off the series branch: a
/// vector libm is not bit-equal to it.
///
/// Determinism: every lane runs exactly the IEEE operations of the
/// per-particle code, in the same order — no contraction into FMAs,
/// correctly rounded division and square root, an exact floor — so a
/// lane's results equal the scalar code's bit for bit. The deposit's
/// contributions are then added through the caller's sink one particle
/// at a time, in scatterCurrentEsirkepov's order (addEsirkepovLane), so
/// every J node sums the same values in the same order.
///
/// The lane body is written once, in LaneKernels<Real, Isa>, and compiled
/// twice: here at the build's baseline ISA, and in LaneKernelsAvx512.cpp
/// under AVX-512 (F, DQ, VL) target pragmas. The ISA tag is part of every
/// mangled name that translation unit defines, so the linker can never
/// hand an AVX-512 copy of a shared inline function to baseline code. The
/// path is picked once per process from the CPU's feature bits; there is
/// no option for it. detail::forceBaselineLanes is for tests only.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_LANEKERNELS_H
#define HICHI_PIC_LANEKERNELS_H

#include "core/ParticleTypes.h"
#include "fields/DipoleWave.h"
#include "support/Config.h"
#include "support/Vector3.h"

#include <atomic>
#include <cmath>
#include <type_traits>

/// The AVX-512 instantiation is built with GCC on x86-64 only (it relies
/// on GCC's target and optimize pragmas); elsewhere the baseline runs.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define HICHI_LANES_AVX512 1
#else
#define HICHI_LANES_AVX512 0
#endif

namespace hichi {
namespace pic {

/// Particles per stage-1 block: one 512-bit register of doubles.
constexpr int LaneWidth = 8;

/// ISA tags of the two instantiations. DepositWidth is the Esirkepov
/// block: one register of doubles. A wider baseline block is not free:
/// its 8-lane body compiles to 20 KB of SSE2 code, four times the
/// per-particle scatter, and ran the 4-thread deposit ~20% slower than
/// that loop, where 2 lanes matched it.
struct BaselineIsa {
  static constexpr int DepositWidth = 2;
};
struct Avx512Isa {
  static constexpr int DepositWidth = 8;
};

/// Floor and square root of \p W lanes. The baseline's are the scalar
/// library calls; LaneKernelsAvx512.cpp specializes them with the exact
/// vector instructions (a lane loop over std::sqrt stays scalar under
/// -fmath-errno).
template <typename Isa, int W> struct LaneMath;

template <int W> struct LaneMath<BaselineIsa, W> {
  template <typename Real> static void floor(const Real *In, Real *Out) {
    for (int L = 0; L < W; ++L)
      Out[L] = std::floor(In[L]);
  }
  template <typename Real> static void sqrt(const Real *In, Real *Out) {
    for (int L = 0; L < W; ++L)
      Out[L] = std::sqrt(In[L]);
  }
};

/// One block of particles through a push. In: position, momentum and the
/// species' charge and mass. Out: the new momentum and gamma and the
/// unwrapped endpoint (End*). Stage 1 also wraps the position back into
/// X/Y/Z — except in lanes with Unwrapped[L] set, whose endpoint lies
/// outside the one-box reach of the fast wrap (or is NaN): the caller
/// wraps those with YeeGrid::wrapPosition, which takes its fmod branch
/// there.
template <typename Real> struct alignas(64) PushLanes {
  Real X[LaneWidth], Y[LaneWidth], Z[LaneWidth];
  Real Px[LaneWidth], Py[LaneWidth], Pz[LaneWidth];
  Real Charge[LaneWidth], Mass[LaneWidth];
  Real Gamma[LaneWidth];
  Real EndX[LaneWidth], EndY[LaneWidth], EndZ[LaneWidth];
  Index Unwrapped[LaneWidth];
};

/// The field sample of each lane of a block.
template <typename Real> struct alignas(64) FieldLanes {
  Real Ex[LaneWidth], Ey[LaneWidth], Ez[LaneWidth];
  Real Bx[LaneWidth], By[LaneWidth], Bz[LaneWidth];
};

/// What stage 1 reads of the grid: the six field lattices' storage, the
/// live window geometry and the step.
template <typename Real> struct PushGeometry {
  const Real *Ex, *Ey, *Ez, *Bx, *By, *Bz;
  Vector3<Real> Origin, Step, Extent;
  Index Nx, Ny, Nz, XBase;
  Real Dt, C;
};

/// Number of Esirkepov contributions per particle: 18 per J component.
constexpr int EsirkepovTerms = 54;

/// The Esirkepov scatter of one block of \p W particles. In: old and new
/// (unwrapped) positions and the macro-charge. Out: the stencil base node
/// and the 54 contributions in scatterCurrentEsirkepov's emission order.
template <typename Real, int W> struct alignas(64) EsirkepovLanes {
  Real X0[W], Y0[W], Z0[W];
  Real X1[W], Y1[W], Z1[W];
  Real Charge[W];
  Index BX[W], BY[W], BZ[W];
  Real J[EsirkepovTerms][W];
};

/// What the scatter reads of the grid: the live origin, the step, and
/// the time step.
template <typename Real> struct DepositGeometry {
  Vector3<Real> Origin, Step;
  Real Dt;
};

/// The lane bodies. Each helper is a member, so it carries the ISA tag.
template <typename Real, typename Isa> struct LaneKernels {
  /// PIC stage 1: Yee gather, Boris push, wrap.
  static void push(PushLanes<Real> &Ln, const PushGeometry<Real> &G);
  /// The standalone pusher's analytic push: the dipole wave at each
  /// lane's position, then the Boris push.
  static void dipolePush(PushLanes<Real> &Ln,
                         const DipoleWaveAtTime<Real> &Wave, Real Dt, Real C);
  static void esirkepov(EsirkepovLanes<Real, Isa::DepositWidth> &Ln,
                        const DepositGeometry<Real> &G);

  /// One axis stencil of YeeInterpolator's CIC gather: both weights and
  /// both support nodes' wrapped storage offsets.
  struct Axis {
    Real W[2][LaneWidth];
    Index Off[2][LaneWidth];
  };

  /// Axis(G, N, Base, Stride) of YeeInterpolator: the CIC weights of \p G
  /// and wrapNear(First + I + Base, N) * Stride. One conditional add and
  /// subtract wrap every node within a box of [0, N); a lane beyond that
  /// (a position boxes away) takes wrapNear's loops.
  static void axis(const Real *GIn, Index N, Index Base, Index Stride,
                   Axis &A) {
    Real Floor[LaneWidth];
    Index Node[LaneWidth];
    LaneMath<Isa, LaneWidth>::floor(GIn, Floor);
    Index Far = 0;
    for (int L = 0; L < LaneWidth; ++L) {
      const Real Frac = GIn[L] - Floor[L];
      A.W[0][L] = Real(1) - Frac;
      A.W[1][L] = Frac;
      Index R = Index(Floor[L]) + Base;
      R = R < 0 ? R + N : R;
      R = R >= N ? R - N : R;
      Far |= (R < 0) | (R >= N);
      Node[L] = R;
    }
    if (Far)
      for (int L = 0; L < LaneWidth; ++L) {
        while (Node[L] < 0)
          Node[L] += N;
        while (Node[L] >= N)
          Node[L] -= N;
      }
    for (int L = 0; L < LaneWidth; ++L) {
      const Index Next = Node[L] + 1 == N ? Index(0) : Node[L] + 1;
      A.Off[0][L] = Node[L] * Stride;
      A.Off[1][L] = Next * Stride;
    }
  }

  /// YeeInterpolator::gather: the I-J-K sum of W[I]·W[J]·W[K]·Data.
  static void gather(const Real *Data, const Axis &X, const Axis &Y,
                     const Axis &Z, Real *Out) {
    for (int L = 0; L < LaneWidth; ++L) {
      Real Sum = 0;
      for (int I = 0; I < 2; ++I)
        for (int J = 0; J < 2; ++J)
          for (int K = 0; K < 2; ++K)
            Sum += X.W[I][L] * Y.W[J][L] * Z.W[K][L] *
                   Data[X.Off[I][L] + Y.Off[J][L] + Z.Off[K][L]];
      Out[L] = Sum;
    }
  }

  /// YeeGrid::wrapPosition's one-box branches on one axis; lanes that
  /// need its fmod branch are flagged in \p Unwrapped.
  static void wrap(const Real *End, Real O, Real Len, Real *Out,
                   Index *Unwrapped) {
    // Integer masks and plain selects, so the loop has no branch.
    for (int L = 0; L < LaneWidth; ++L) {
      const Real R = End[L] - O;
      const Index Above = (R >= Len) & (R < Real(2) * Len);
      const Index Below = (R < Real(0)) & (R > -Len);
      const Index Inside = (R >= Real(0)) & (R < Len);
      const Real Up = R - Len, Down = R + Len;
      Real Wrapped = Above ? Up : R;
      Wrapped = Below ? Down : Wrapped;
      Out[L] = O + Wrapped;
      Unwrapped[L] |= 1 - (Above | Below | Inside);
    }
  }

  /// CIC shape of node-relative \p X on the stencil {B, B+1, B+2}, with
  /// \p B given as the floor it came from: B + I is exact in floating
  /// point, or rounds as Real(B + I) does, and -0.0 + 0 is +0.0, so this
  /// saves the integer round trip without changing a bit.
  static void shape(const Real *X, const Real *B,
                    Real Sh[3][Isa::DepositWidth]) {
    for (int I = 0; I < 3; ++I)
      for (int L = 0; L < Isa::DepositWidth; ++L) {
        const Real Distance = __builtin_fabs(X[L] - (B[L] + Real(I)));
        Sh[I][L] = Distance < Real(1) ? Real(1) - Distance : Real(0);
      }
  }

  /// BorisPusher::push, operation for operation, in every lane: the new
  /// momentum and gamma, and the drifted position in End*.
  HICHI_ALWAYS_INLINE static void boris(PushLanes<Real> &Ln,
                                        const FieldLanes<Real> &F, Real Dt,
                                        Real C) {
    constexpr int W = LaneWidth;
    // The E half-kick and gamma^n at p^-.
    Real QHalfDt[W], Mc[W], EIx[W], EIy[W], EIz[W], PMx[W], PMy[W], PMz[W];
    Real Radicand[W], Gamma[W];
    for (int L = 0; L < W; ++L) {
      QHalfDt[L] = Ln.Charge[L] * Dt * Real(0.5);
      Mc[L] = Ln.Mass[L] * C;
      EIx[L] = F.Ex[L] * QHalfDt[L];
      EIy[L] = F.Ey[L] * QHalfDt[L];
      EIz[L] = F.Ez[L] * QHalfDt[L];
      PMx[L] = Ln.Px[L] + EIx[L];
      PMy[L] = Ln.Py[L] + EIy[L];
      PMz[L] = Ln.Pz[L] + EIz[L];
      const Real Norm2 = PMx[L] * PMx[L] + PMy[L] * PMy[L] + PMz[L] * PMz[L];
      Radicand[L] = Real(1) + Norm2 / (Mc[L] * Mc[L]);
    }
    LaneMath<Isa, LaneWidth>::sqrt(Radicand, Gamma);

    // The rotation about B, the second half-kick and gamma at n+1/2.
    Real PNx[W], PNy[W], PNz[W];
    for (int L = 0; L < W; ++L) {
      const Real TCoef = QHalfDt[L] / (Gamma[L] * Mc[L]);
      const Real Tx = F.Bx[L] * TCoef, Ty = F.By[L] * TCoef,
                 Tz = F.Bz[L] * TCoef;
      const Real SCoef = Real(2) / (Real(1) + (Tx * Tx + Ty * Ty + Tz * Tz));
      const Real Sx = Tx * SCoef, Sy = Ty * SCoef, Sz = Tz * SCoef;
      const Real PPx = PMx[L] + (PMy[L] * Tz - PMz[L] * Ty);
      const Real PPy = PMy[L] + (PMz[L] * Tx - PMx[L] * Tz);
      const Real PPz = PMz[L] + (PMx[L] * Ty - PMy[L] * Tx);
      PNx[L] = PMx[L] + (PPy * Sz - PPz * Sy) + EIx[L];
      PNy[L] = PMy[L] + (PPz * Sx - PPx * Sz) + EIy[L];
      PNz[L] = PMz[L] + (PPx * Sy - PPy * Sx) + EIz[L];
      const Real Norm2 = PNx[L] * PNx[L] + PNy[L] * PNy[L] + PNz[L] * PNz[L];
      Radicand[L] = Real(1) + Norm2 / (Mc[L] * Mc[L]);
    }
    LaneMath<Isa, LaneWidth>::sqrt(Radicand, Gamma);

    // The drift and the stores.
    for (int L = 0; L < W; ++L) {
      const Real GammaM = Gamma[L] * Ln.Mass[L];
      Ln.EndX[L] = Ln.X[L] + PNx[L] / GammaM * Dt;
      Ln.EndY[L] = Ln.Y[L] + PNy[L] / GammaM * Dt;
      Ln.EndZ[L] = Ln.Z[L] + PNz[L] / GammaM * Dt;
      Ln.Px[L] = PNx[L];
      Ln.Py[L] = PNy[L];
      Ln.Pz[L] = PNz[L];
      Ln.Gamma[L] = Gamma[L];
    }
  }

  /// DipoleWaveAtTime at each lane's position, operation for operation.
  /// The series and the closed form are selected per lane, and each is
  /// computed only when some lane of the block takes it: nearly every
  /// block takes only the closed form, whose lanes call the scalar libm
  /// sin and cos (a vector libm is not bit-equal). The focus value is
  /// selected last.
  HICHI_ALWAYS_INLINE static void dipole(const PushLanes<Real> &Ln,
                                         const DipoleWaveAtTime<Real> &Wave,
                                         FieldLanes<Real> &F) {
    constexpr int W = LaneWidth;
    constexpr Real Threshold = DipoleRadialFunctions<Real>::Threshold;
    Real R2[W], R[W], Kr[W];
    for (int L = 0; L < W; ++L)
      R2[L] = Ln.X[L] * Ln.X[L] + Ln.Y[L] * Ln.Y[L] + Ln.Z[L] * Ln.Z[L];
    LaneMath<Isa, LaneWidth>::sqrt(R2, R);
    Index Series[W], AnySeries = 0, AllSeries = 1;
    for (int L = 0; L < W; ++L) {
      Kr[L] = Wave.WaveNumber * R[L];
      Series[L] = Kr[L] < Threshold;
      AnySeries |= Series[L];
      AllSeries &= Series[L];
    }

    // DipoleRadialFunctions::evaluate: the closed form at and above the
    // threshold, the series below it.
    Real F1[W] = {}, F2[W] = {}, F3[W] = {};
    if (!AllSeries) {
      Real Sin[W], Cos[W];
      for (int L = 0; L < W; ++L) {
        Sin[L] = Real(0);
        Cos[L] = Real(0);
        if (!Series[L]) {
          Sin[L] = std::sin(Kr[L]);
          Cos[L] = std::cos(Kr[L]);
        }
      }
      for (int L = 0; L < W; ++L) {
        const Real Inv = Real(1) / Kr[L], Inv2 = Inv * Inv, Inv3 = Inv2 * Inv;
        F1[L] = Sin[L] * Inv2 - Cos[L] * Inv;
        F2[L] = (Real(3) * Inv3 - Inv) * Sin[L] - Real(3) * Cos[L] * Inv2;
        F3[L] = (Inv - Inv3) * Sin[L] + Cos[L] * Inv2;
      }
    }
    if (AnySeries)
      for (int L = 0; L < W; ++L) {
        const Real X = Kr[L], X2 = X * X, X4 = X2 * X2;
        const Real SF1 = X / Real(3) - X * X2 / Real(30) + X * X4 / Real(840);
        const Real SF2 = X2 / Real(15) - X4 / Real(210);
        const Real SF3 =
            Real(2) / Real(3) - Real(2) * X2 / Real(15) + X4 / Real(140);
        F1[L] = Series[L] ? SF1 : F1[L];
        F2[L] = Series[L] ? SF2 : F2[L];
        F3[L] = Series[L] ? SF3 : F3[L];
      }

    for (int L = 0; L < W; ++L) {
      // Eq. 14 off the focus, then the focus value where R2 == 0.
      const Real PX = Ln.X[L], PY = Ln.Y[L], PZ = Ln.Z[L];
      const Real InvR = Real(1) / R[L], InvR2 = InvR * InvR;
      const Real ECoef = Wave.ECoef * F1[L];
      const bool Focus = R2[L] == Real(0);
      F.Ex[L] = Focus ? Real(0) : -PY * InvR * ECoef;
      F.Ey[L] = Focus ? Real(0) : PX * InvR * ECoef;
      F.Ez[L] = Focus ? Real(0) : Real(0) * ECoef;
      F.Bx[L] = Focus ? Real(0) : PX * PZ * InvR2 * F2[L] * Wave.BCoef;
      F.By[L] = Focus ? Real(0) : PY * PZ * InvR2 * F2[L] * Wave.BCoef;
      F.Bz[L] =
          Focus ? Wave.FocusBz : (PZ * PZ * InvR2 * F2[L] + F3[L]) * Wave.BCoef;
    }
  }
};

template <typename Real, typename Isa>
void LaneKernels<Real, Isa>::push(PushLanes<Real> &Ln,
                                  const PushGeometry<Real> &G) {
  constexpr int W = LaneWidth;
  // YeeInterpolator: node-relative position, then the node-centred (N)
  // and half-staggered (H) stencil of each axis.
  Real GX[W], GY[W], GZ[W], HX[W], HY[W], HZ[W];
  for (int L = 0; L < W; ++L) {
    GX[L] = (Ln.X[L] - G.Origin.X) / G.Step.X;
    GY[L] = (Ln.Y[L] - G.Origin.Y) / G.Step.Y;
    GZ[L] = (Ln.Z[L] - G.Origin.Z) / G.Step.Z;
    HX[L] = GX[L] - Real(0.5);
    HY[L] = GY[L] - Real(0.5);
    HZ[L] = GZ[L] - Real(0.5);
  }
  Axis XN, XH, YN, YH, ZN, ZH;
  axis(GX, G.Nx, G.XBase, G.Ny * G.Nz, XN);
  axis(HX, G.Nx, G.XBase, G.Ny * G.Nz, XH);
  axis(GY, G.Ny, 0, G.Nz, YN);
  axis(HY, G.Ny, 0, G.Nz, YH);
  axis(GZ, G.Nz, 0, 1, ZN);
  axis(HZ, G.Nz, 0, 1, ZH);
  FieldLanes<Real> F;
  gather(G.Ex, XH, YN, ZN, F.Ex);
  gather(G.Ey, XN, YH, ZN, F.Ey);
  gather(G.Ez, XN, YN, ZH, F.Ez);
  gather(G.Bx, XN, YH, ZH, F.Bx);
  gather(G.By, XH, YN, ZH, F.By);
  gather(G.Bz, XH, YH, ZN, F.Bz);
  boris(Ln, F, G.Dt, G.C);
  for (int L = 0; L < W; ++L)
    Ln.Unwrapped[L] = 0;
  wrap(Ln.EndX, G.Origin.X, G.Extent.X, Ln.X, Ln.Unwrapped);
  wrap(Ln.EndY, G.Origin.Y, G.Extent.Y, Ln.Y, Ln.Unwrapped);
  wrap(Ln.EndZ, G.Origin.Z, G.Extent.Z, Ln.Z, Ln.Unwrapped);
}

template <typename Real, typename Isa>
void LaneKernels<Real, Isa>::dipolePush(PushLanes<Real> &Ln,
                                        const DipoleWaveAtTime<Real> &Wave,
                                        Real Dt, Real C) {
  FieldLanes<Real> F;
  dipole(Ln, Wave, F);
  boris(Ln, F, Dt, C);
}

template <typename Real, typename Isa>
void LaneKernels<Real, Isa>::esirkepov(
    EsirkepovLanes<Real, Isa::DepositWidth> &Ln,
    const DepositGeometry<Real> &G) {
  constexpr int W = Isa::DepositWidth;
  const Vector3<Real> D = G.Step, O = G.Origin;
  // Node-relative coordinates and the common 3-node base of S0 and S1.
  Real X0[W], X1[W], Y0[W], Y1[W], Z0[W], Z1[W];
  Real MinX[W], MinY[W], MinZ[W], FX[W], FY[W], FZ[W];
  for (int L = 0; L < W; ++L) {
    X0[L] = (Ln.X0[L] - O.X) / D.X;
    X1[L] = (Ln.X1[L] - O.X) / D.X;
    Y0[L] = (Ln.Y0[L] - O.Y) / D.Y;
    Y1[L] = (Ln.Y1[L] - O.Y) / D.Y;
    Z0[L] = (Ln.Z0[L] - O.Z) / D.Z;
    Z1[L] = (Ln.Z1[L] - O.Z) / D.Z;
    // std::min(A, B) is (B < A) ? B : A.
    MinX[L] = X1[L] < X0[L] ? X1[L] : X0[L];
    MinY[L] = Y1[L] < Y0[L] ? Y1[L] : Y0[L];
    MinZ[L] = Z1[L] < Z0[L] ? Z1[L] : Z0[L];
  }
  LaneMath<Isa, W>::floor(MinX, FX);
  LaneMath<Isa, W>::floor(MinY, FY);
  LaneMath<Isa, W>::floor(MinZ, FZ);
  for (int L = 0; L < W; ++L) {
    Ln.BX[L] = Index(FX[L]);
    Ln.BY[L] = Index(FY[L]);
    Ln.BZ[L] = Index(FZ[L]);
  }

  Real S0x[3][W], S1x[3][W], S0y[3][W], S1y[3][W], S0z[3][W], S1z[3][W];
  shape(X0, FX, S0x);
  shape(X1, FX, S1x);
  shape(Y0, FY, S0y);
  shape(Y1, FY, S1y);
  shape(Z0, FZ, S0z);
  shape(Z1, FZ, S1z);
  Real DSx[3][W], DSy[3][W], DSz[3][W];
  for (int I = 0; I < 3; ++I)
    for (int L = 0; L < W; ++L) {
      DSx[I][L] = S1x[I][L] - S0x[I][L];
      DSy[I][L] = S1y[I][L] - S0y[I][L];
      DSz[I][L] = S1z[I][L] - S0z[I][L];
    }

  const Real CellVolume = D.X * D.Y * D.Z;
  const Real Third = Real(1) / Real(3);
  const Real Half = Real(0.5);
  Real QOverDtV[W];
  for (int L = 0; L < W; ++L)
    QOverDtV[L] = Ln.Charge[L] / (G.Dt * CellVolume);

  // The W weights and cumulative flows of scatterCurrentEsirkepov, in
  // its emission order: Jx over (J, K, I), Jy over (I, K, J), Jz over
  // (I, J, K), the innermost index running over two faces.
  for (int J = 0; J < 3; ++J)
    for (int K = 0; K < 3; ++K) {
      const int Term = 2 * (3 * J + K);
      for (int L = 0; L < W; ++L) {
        const Real Wyz = S0y[J][L] * S0z[K][L] + Half * DSy[J][L] * S0z[K][L] +
                         Half * S0y[J][L] * DSz[K][L] +
                         Third * DSy[J][L] * DSz[K][L];
        Real Flow = Real(0) - DSx[0][L] * Wyz;
        Ln.J[Term][L] = QOverDtV[L] * D.X * Flow;
        Flow -= DSx[1][L] * Wyz;
        Ln.J[Term + 1][L] = QOverDtV[L] * D.X * Flow;
      }
    }
  for (int I = 0; I < 3; ++I)
    for (int K = 0; K < 3; ++K) {
      const int Term = 18 + 2 * (3 * I + K);
      for (int L = 0; L < W; ++L) {
        const Real Wxz = S0x[I][L] * S0z[K][L] + Half * DSx[I][L] * S0z[K][L] +
                         Half * S0x[I][L] * DSz[K][L] +
                         Third * DSx[I][L] * DSz[K][L];
        Real Flow = Real(0) - DSy[0][L] * Wxz;
        Ln.J[Term][L] = QOverDtV[L] * D.Y * Flow;
        Flow -= DSy[1][L] * Wxz;
        Ln.J[Term + 1][L] = QOverDtV[L] * D.Y * Flow;
      }
    }
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      const int Term = 36 + 2 * (3 * I + J);
      for (int L = 0; L < W; ++L) {
        const Real Wxy = S0x[I][L] * S0y[J][L] + Half * DSx[I][L] * S0y[J][L] +
                         Half * S0x[I][L] * DSy[J][L] +
                         Third * DSx[I][L] * DSy[J][L];
        Real Flow = Real(0) - DSz[0][L] * Wxy;
        Ln.J[Term][L] = QOverDtV[L] * D.Z * Flow;
        Flow -= DSz[1][L] * Wxy;
        Ln.J[Term + 1][L] = QOverDtV[L] * D.Z * Flow;
      }
    }
}

#if HICHI_LANES_AVX512
// Defined in LaneKernelsAvx512.cpp; only double has an AVX-512 body.
extern template struct LaneKernels<double, Avx512Isa>;
#endif

namespace detail {
/// Set while a test forces the baseline instantiation on an AVX-512 host.
inline std::atomic<bool> BaselineLanesForced{false};

/// Test hook: while \p Force is set, every lane kernel runs its baseline
/// instantiation. Not an option — production code never calls it.
inline void forceBaselineLanes(bool Force) {
  BaselineLanesForced.store(Force, std::memory_order_relaxed);
}
} // namespace detail

/// True when this CPU runs the AVX-512 instantiation (checked once).
inline bool hostHasAvx512Lanes() {
#if HICHI_LANES_AVX512
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return Has;
#else
  return false;
#endif
}

/// The instantiation the lane kernels of \p Real run here: AVX-512 for
/// double on a host that has it, the baseline otherwise.
template <typename Real> bool useAvx512Lanes() {
  return std::is_same<Real, double>::value && hostHasAvx512Lanes() &&
         !detail::BaselineLanesForced.load(std::memory_order_relaxed);
}

/// Calls \p Body with the LaneKernels instantiation to run: AVX-512 when
/// \p Avx512 is set (double only), the baseline otherwise.
template <typename Real, typename BodyFn>
void withLaneKernels(bool Avx512, BodyFn &&Body) {
#if HICHI_LANES_AVX512
  if constexpr (std::is_same<Real, double>::value)
    if (Avx512)
      return Body(LaneKernels<double, Avx512Isa>{});
#endif
  (void)Avx512;
  Body(LaneKernels<Real, BaselineIsa>{});
}

//===----------------------------------------------------------------------===//
// Block loops: particle views in, lane blocks through, results out
//===----------------------------------------------------------------------===//

/// Loads particles [\p Block, \p Block + \p Live) of \p View into the
/// lanes of \p Ln; the idle lanes of a partial block replicate the last
/// live particle.
template <typename Real, typename ViewT>
void loadPushLanes(const ViewT &View, Index Block, int Live,
                   const ParticleTypeInfo<Real> *Types, PushLanes<Real> &Ln) {
  for (int L = 0; L < LaneWidth; ++L) {
    const auto P = View[Block + (L < Live ? L : Live - 1)];
    const Vector3<Real> Pos = P.position(), Mom = P.momentum();
    const ParticleTypeInfo<Real> &Info = Types[P.type()];
    Ln.X[L] = Pos.X;
    Ln.Y[L] = Pos.Y;
    Ln.Z[L] = Pos.Z;
    Ln.Px[L] = Mom.X;
    Ln.Py[L] = Mom.Y;
    Ln.Pz[L] = Mom.Z;
    Ln.Charge[L] = Info.Charge;
    Ln.Mass[L] = Info.Mass;
  }
}

/// Stage 1 over particles [\p Begin, \p End) of \p View on \p Grid: for
/// each particle, OldPos = position, gather + Boris push, NewPos = the
/// unwrapped endpoint, and the stored position wrapped into the box —
/// bit for bit what YeeInterpolator, BorisPusher::push and
/// YeeGrid::wrapPosition give one particle at a time. The last partial
/// block stores only its live lanes.
template <typename Real, typename ViewT, typename GridT>
void pushParticlesInLanes(const ViewT &View, Index Begin, Index End,
                          const GridT &Grid,
                          const ParticleTypeInfo<Real> *Types, Real Dt,
                          Real C, Vector3<Real> *OldPos,
                          Vector3<Real> *NewPos) {
  const auto Size = Grid.size();
  const PushGeometry<Real> G{Grid.Ex.raw().data(), Grid.Ey.raw().data(),
                             Grid.Ez.raw().data(), Grid.Bx.raw().data(),
                             Grid.By.raw().data(), Grid.Bz.raw().data(),
                             Grid.origin(),        Grid.step(),
                             Grid.extent(),        Size.Nx,
                             Size.Ny,              Size.Nz,
                             Grid.Ex.xBase(),      Dt,
                             C};
  const bool Avx512 = useAvx512Lanes<Real>();
  PushLanes<Real> Ln;
  for (Index Block = Begin; Block < End; Block += LaneWidth) {
    const int Live = End - Block < LaneWidth ? int(End - Block) : LaneWidth;
    loadPushLanes(View, Block, Live, Types, Ln);
    for (int L = 0; L < Live; ++L)
      OldPos[Block + L] = {Ln.X[L], Ln.Y[L], Ln.Z[L]};
    withLaneKernels<Real>(Avx512, [&](auto K) { K.push(Ln, G); });
    for (int L = 0; L < Live; ++L) {
      const auto P = View[Block + L];
      const Vector3<Real> Moved(Ln.EndX[L], Ln.EndY[L], Ln.EndZ[L]);
      NewPos[Block + L] = Moved;
      P.setMomentum({Ln.Px[L], Ln.Py[L], Ln.Pz[L]});
      P.setGamma(Ln.Gamma[L]);
      P.setPosition(Ln.Unwrapped[L] ? Grid.wrapPosition(Moved)
                                    : Vector3<Real>(Ln.X[L], Ln.Y[L], Ln.Z[L]));
    }
  }
}

/// One step of the standalone pusher over particles [\p Begin, \p End)
/// of \p View in the dipole wave \p Wave: bit for bit Wave at each
/// particle's position followed by BorisPusher::push, one particle at a
/// time. The last partial block stores only its live lanes.
template <typename Real, typename ViewT>
void pushDipoleInLanes(const ViewT &View, Index Begin, Index End,
                       const DipoleWaveAtTime<Real> &Wave,
                       const ParticleTypeInfo<Real> *Types, Real Dt, Real C) {
  const bool Avx512 = useAvx512Lanes<Real>();
  PushLanes<Real> Ln;
  for (Index Block = Begin; Block < End; Block += LaneWidth) {
    const int Live = End - Block < LaneWidth ? int(End - Block) : LaneWidth;
    loadPushLanes(View, Block, Live, Types, Ln);
    withLaneKernels<Real>(Avx512,
                          [&](auto K) { K.dipolePush(Ln, Wave, Dt, C); });
    for (int L = 0; L < Live; ++L) {
      const auto P = View[Block + L];
      P.setMomentum({Ln.Px[L], Ln.Py[L], Ln.Pz[L]});
      P.setGamma(Ln.Gamma[L]);
      P.setPosition({Ln.EndX[L], Ln.EndY[L], Ln.EndZ[L]});
    }
  }
}

/// Lane \p L's Esirkepov scatter through \p S: the stencil base, then the
/// 54 adds in scatterCurrentEsirkepov's order and node sequence.
template <typename Real, int W, typename Sink>
void addEsirkepovLane(Sink &S, const EsirkepovLanes<Real, W> &Ln, int L) {
  const Index BX = Ln.BX[L], BY = Ln.BY[L], BZ = Ln.BZ[L];
  S.setStencilBase(BX, BY, BZ);
  int Term = 0;
  for (int J = 0; J < 3; ++J)
    for (int K = 0; K < 3; ++K)
      for (int I = 0; I < 2; ++I)
        S.addJx(BX + I, BY + J, BZ + K, Ln.J[Term++][L]);
  for (int I = 0; I < 3; ++I)
    for (int K = 0; K < 3; ++K)
      for (int J = 0; J < 2; ++J)
        S.addJy(BX + I, BY + J, BZ + K, Ln.J[Term++][L]);
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J)
      for (int K = 0; K < 2; ++K)
        S.addJz(BX + I, BY + J, BZ + K, Ln.J[Term++][L]);
}

/// scatterEsirkepovInLanes on \p Isa's instantiation, in blocks of its
/// DepositWidth; the last partial block replicates its last live
/// particle into the idle lanes.
template <typename Real, typename Isa, typename Sink, typename ViewT,
          typename IndexFn>
void scatterEsirkepovBlocks(Sink &S, const ViewT &View,
                            const Vector3<Real> *OldPos,
                            const Vector3<Real> *NewPos,
                            const ParticleTypeInfo<Real> *Types,
                            const DepositGeometry<Real> &G, Index Count,
                            IndexFn &ParticleAt) {
  constexpr int W = Isa::DepositWidth;
  EsirkepovLanes<Real, W> Ln;
  for (Index Block = 0; Block < Count; Block += W) {
    const int Live = Count - Block < W ? int(Count - Block) : W;
    for (int L = 0; L < W; ++L) {
      const Index I = ParticleAt(Block + (L < Live ? L : Live - 1));
      const auto P = View[I];
      Ln.X0[L] = OldPos[I].X;
      Ln.Y0[L] = OldPos[I].Y;
      Ln.Z0[L] = OldPos[I].Z;
      Ln.X1[L] = NewPos[I].X;
      Ln.Y1[L] = NewPos[I].Y;
      Ln.Z1[L] = NewPos[I].Z;
      Ln.Charge[L] = Types[P.type()].Charge * P.weight();
    }
    LaneKernels<Real, Isa>::esirkepov(Ln, G);
    for (int L = 0; L < Live; ++L)
      addEsirkepovLane(S, Ln, L);
  }
}

/// The Esirkepov scatter of particles ParticleAt(0..Count) of \p View,
/// moving from OldPos[i] to NewPos[i] (unwrapped), through \p S in that
/// order: bit for bit scatterCurrentEsirkepov called once per particle.
template <typename Real, typename Sink, typename ViewT, typename IndexFn>
void scatterEsirkepovInLanes(Sink &S, const ViewT &View,
                             const Vector3<Real> *OldPos,
                             const Vector3<Real> *NewPos,
                             const ParticleTypeInfo<Real> *Types,
                             const DepositGeometry<Real> &G, Index Count,
                             IndexFn &&ParticleAt) {
#if HICHI_LANES_AVX512
  if constexpr (std::is_same<Real, double>::value)
    if (useAvx512Lanes<Real>())
      return scatterEsirkepovBlocks<Real, Avx512Isa>(
          S, View, OldPos, NewPos, Types, G, Count, ParticleAt);
#endif
  scatterEsirkepovBlocks<Real, BaselineIsa>(S, View, OldPos, NewPos, Types,
                                            G, Count, ParticleAt);
}

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_LANEKERNELS_H
