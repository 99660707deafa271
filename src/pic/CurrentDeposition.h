//===-- pic/CurrentDeposition.h - Particle -> grid current -----*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Current deposition: "the grid values of the current J are computed and
/// added to Maxwell's equations forming the self-consistent system"
/// (paper Section 2). Two schemes:
///
///   * direct (momentum-conserving): deposit q v S(r) with the CIC shape —
///     simple but not charge-conserving on the grid;
///   * Esirkepov (charge-conserving): decomposes the shape-function
///     change S1 - S0 of the move into per-axis current flows, so the
///     discrete continuity equation d(rho)/dt + div J = 0 holds exactly
///     (verified by a property test). Requires the move to stay within
///     one cell per step (guaranteed by the Courant-limited dt since
///     |v| < c).
///
/// Both schemes are written as *scatter kernels over a current sink*: the
/// kernel first announces its particle's stencil base node through the
/// sink's setStencilBase(BX, BY, BZ) — every later write of that particle
/// lands within [B, B+2] per axis — then hands per-node contributions to
/// addJx/addJy/addJz(I, J, K, Value) with unwrapped node indices, each
/// stencil node of a component exactly once. The GridCurrentSink below
/// writes straight through the periodic YeeGrid (the serial reference
/// path, wrapped by the deposit* functions, and the test oracle); the
/// TiledCurrentAccumulator's sink resolves the stencil's addressing once
/// per particle and adds only into the x-planes its tile owns, in the
/// same write order, so the scatter runs backend-parallel while staying
/// bit-identical to the serial particle-order loop.
///
/// The footprint helpers expose each scheme's x-node support (stencil
/// plus staggering halo) so the tiling layer can bin particles to the
/// tiles their writes can reach.
///
/// Charge density deposition for diagnostics uses the same CIC shape.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_CURRENTDEPOSITION_H
#define HICHI_PIC_CURRENTDEPOSITION_H

#include "pic/FormFactor.h"
#include "pic/YeeGrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hichi {
namespace pic {

/// The reference current sink: periodic read-modify-write straight into
/// the Yee grid's J lattices, every write wrapped on its own.
template <typename Real> class GridCurrentSink {
public:
  explicit GridCurrentSink(YeeGrid<Real> &Grid) : Grid(Grid) {}

  void setStencilBase(Index, Index, Index) {}
  void addJx(Index I, Index J, Index K, Real V) { Grid.Jx(I, J, K) += V; }
  void addJy(Index I, Index J, Index K, Real V) { Grid.Jy(I, J, K) += V; }
  void addJz(Index I, Index J, Index K, Real V) { Grid.Jz(I, J, K) += V; }

private:
  YeeGrid<Real> &Grid;
};

/// Deposits charge density of one particle with the CIC shape into
/// \p Rho (node-centered lattice). \p Charge is the *total* macro-charge
/// (q * weight); the deposit is density: charge / cell volume.
template <typename Real>
void depositChargeCic(ScalarLattice<Real> &Rho, const YeeGrid<Real> &Grid,
                      const Vector3<Real> &Pos, Real Charge) {
  const Vector3<Real> D = Grid.step();
  const Vector3<Real> O = Grid.origin();
  const Real CellVolume = D.X * D.Y * D.Z;
  const Real Density = Charge / CellVolume;

  Index BX, BY, BZ;
  Real WX[2], WY[2], WZ[2];
  CicShape::weights((Pos.X - O.X) / D.X, BX, WX);
  CicShape::weights((Pos.Y - O.Y) / D.Y, BY, WY);
  CicShape::weights((Pos.Z - O.Z) / D.Z, BZ, WZ);
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      for (int K = 0; K < 2; ++K)
        Rho(BX + I, BY + J, BZ + K) += Density * WX[I] * WY[J] * WZ[K];
}

/// Direct (momentum-conserving) scatter of one particle's current
/// q v S(r) at the midpoint position, CIC shape, onto the E sub-lattices
/// of \p Sink. \p GridStep / \p GridOrigin are the lattice geometry.
template <typename Real, typename Sink>
void scatterCurrentDirect(Sink &S, const Vector3<Real> &GridStep,
                          const Vector3<Real> &GridOrigin,
                          const Vector3<Real> &MidPos,
                          const Vector3<Real> &Velocity, Real Charge) {
  const Vector3<Real> D = GridStep;
  const Vector3<Real> O = GridOrigin;
  const Real CellVolume = D.X * D.Y * D.Z;
  const Vector3<Real> JDensity = Velocity * (Charge / CellVolume);

  // Each J component lives on its E point's staggered sub-lattice: half a
  // cell back along its own axis, node-centred along the other two. The
  // staggered bases are the stencil's lowest nodes.
  const Real RX = (MidPos.X - O.X) / D.X, RY = (MidPos.Y - O.Y) / D.Y,
             RZ = (MidPos.Z - O.Z) / D.Z;
  Index NX, NY, NZ, HX, HY, HZ;
  Real WNX[2], WNY[2], WNZ[2], WHX[2], WHY[2], WHZ[2];
  CicShape::weights(RX, NX, WNX);
  CicShape::weights(RY, NY, WNY);
  CicShape::weights(RZ, NZ, WNZ);
  CicShape::weights(RX - Real(0.5), HX, WHX);
  CicShape::weights(RY - Real(0.5), HY, WHY);
  CicShape::weights(RZ - Real(0.5), HZ, WHZ);
  S.setStencilBase(HX, HY, HZ);

  auto DepositComponent = [&](int Component, Real Value, Index BX,
                              const Real *WX, Index BY, const Real *WY,
                              Index BZ, const Real *WZ) {
    for (int I = 0; I < 2; ++I)
      for (int J = 0; J < 2; ++J)
        for (int K = 0; K < 2; ++K) {
          const Real V = Value * WX[I] * WY[J] * WZ[K];
          if (Component == 0)
            S.addJx(BX + I, BY + J, BZ + K, V);
          else if (Component == 1)
            S.addJy(BX + I, BY + J, BZ + K, V);
          else
            S.addJz(BX + I, BY + J, BZ + K, V);
        }
  };
  DepositComponent(0, JDensity.X, HX, WHX, NY, WNY, NZ, WNZ);
  DepositComponent(1, JDensity.Y, NX, WNX, HY, WHY, NZ, WNZ);
  DepositComponent(2, JDensity.Z, NX, WNX, NY, WNY, HZ, WHZ);
}

/// Direct deposition straight into \p Grid (serial reference path).
template <typename Real>
void depositCurrentDirect(YeeGrid<Real> &Grid, const Vector3<Real> &MidPos,
                          const Vector3<Real> &Velocity, Real Charge) {
  GridCurrentSink<Real> S(Grid);
  scatterCurrentDirect(S, Grid.step(), Grid.origin(), MidPos, Velocity,
                       Charge);
}

/// Esirkepov charge-conserving scatter of one particle moving from
/// \p OldPos to \p NewPos over \p Dt (positions *not* wrapped — pass the
/// unwrapped new position so the displacement is the physical one).
///
/// CIC (order-1) shapes span 2 nodes; after a sub-cell move the combined
/// support is 3 nodes per axis, so the decomposition runs over a 3^3
/// stencil. The flows W are integrated into J by cumulative sums along
/// each axis.
template <typename Real, typename Sink>
void scatterCurrentEsirkepov(Sink &S, const Vector3<Real> &GridStep,
                             const Vector3<Real> &GridOrigin,
                             const Vector3<Real> &OldPos,
                             const Vector3<Real> &NewPos, Real Charge,
                             Real Dt) {
  const Vector3<Real> D = GridStep;
  const Vector3<Real> O = GridOrigin;

  // Node-relative coordinates (node-centered lattice for rho).
  const Real X0 = (OldPos.X - O.X) / D.X, X1 = (NewPos.X - O.X) / D.X;
  const Real Y0 = (OldPos.Y - O.Y) / D.Y, Y1 = (NewPos.Y - O.Y) / D.Y;
  const Real Z0 = (OldPos.Z - O.Z) / D.Z, Z1 = (NewPos.Z - O.Z) / D.Z;
  assert(std::abs(X1 - X0) <= Real(1) && std::abs(Y1 - Y0) <= Real(1) &&
         std::abs(Z1 - Z0) <= Real(1) &&
         "Esirkepov deposition requires sub-cell moves (Courant dt)");

  // Common 3-node base so S0 and S1 live on the same stencil.
  const Index BX = Index(std::floor(std::min(X0, X1)));
  const Index BY = Index(std::floor(std::min(Y0, Y1)));
  const Index BZ = Index(std::floor(std::min(Z0, Z1)));
  S.setStencilBase(BX, BY, BZ);

  // CIC shapes evaluated on the 3-node stencil {B, B+1, B+2}.
  auto ShapeOnStencil = [](Real X, Index Base, Real Sh[3]) {
    for (int I = 0; I < 3; ++I) {
      const Real Distance = std::abs(X - Real(Base + I));
      Sh[I] = Distance < Real(1) ? Real(1) - Distance : Real(0);
    }
  };
  Real S0x[3], S1x[3], S0y[3], S1y[3], S0z[3], S1z[3];
  ShapeOnStencil(X0, BX, S0x);
  ShapeOnStencil(X1, BX, S1x);
  ShapeOnStencil(Y0, BY, S0y);
  ShapeOnStencil(Y1, BY, S1y);
  ShapeOnStencil(Z0, BZ, S0z);
  ShapeOnStencil(Z1, BZ, S1z);

  Real DSx[3], DSy[3], DSz[3];
  for (int I = 0; I < 3; ++I) {
    DSx[I] = S1x[I] - S0x[I];
    DSy[I] = S1y[I] - S0y[I];
    DSz[I] = S1z[I] - S0z[I];
  }

  const Real CellVolume = D.X * D.Y * D.Z;
  const Real QOverDtV = Charge / (Dt * CellVolume);
  const Real Third = Real(1) / Real(3);
  const Real Half = Real(0.5);

  // Esirkepov's W weights and the cumulative-flow integration, axis by
  // axis: Jx(i+1/2) picks up -q dx/dt * cumsum_i W.
  for (int J = 0; J < 3; ++J)
    for (int K = 0; K < 3; ++K) {
      const Real WyzX = S0y[J] * S0z[K] + Half * DSy[J] * S0z[K] +
                        Half * S0y[J] * DSz[K] + Third * DSy[J] * DSz[K];
      Real Flow = 0;
      for (int I = 0; I < 2; ++I) { // flow leaves through faces 0..1
        Flow -= DSx[I] * WyzX;
        S.addJx(BX + I, BY + J, BZ + K, QOverDtV * D.X * Flow);
      }
    }
  for (int I = 0; I < 3; ++I)
    for (int K = 0; K < 3; ++K) {
      const Real WxzY = S0x[I] * S0z[K] + Half * DSx[I] * S0z[K] +
                        Half * S0x[I] * DSz[K] + Third * DSx[I] * DSz[K];
      Real Flow = 0;
      for (int J = 0; J < 2; ++J) {
        Flow -= DSy[J] * WxzY;
        S.addJy(BX + I, BY + J, BZ + K, QOverDtV * D.Y * Flow);
      }
    }
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      const Real WxyZ = S0x[I] * S0y[J] + Half * DSx[I] * S0y[J] +
                        Half * S0x[I] * DSy[J] + Third * DSx[I] * DSy[J];
      Real Flow = 0;
      for (int K = 0; K < 2; ++K) {
        Flow -= DSz[K] * WxyZ;
        S.addJz(BX + I, BY + J, BZ + K, QOverDtV * D.Z * Flow);
      }
    }
}

/// Esirkepov deposition straight into \p Grid (serial reference path).
template <typename Real>
void depositCurrentEsirkepov(YeeGrid<Real> &Grid, const Vector3<Real> &OldPos,
                             const Vector3<Real> &NewPos, Real Charge,
                             Real Dt) {
  GridCurrentSink<Real> S(Grid);
  scatterCurrentEsirkepov(S, Grid.step(), Grid.origin(), OldPos, NewPos,
                          Charge, Dt);
}

/// Inclusive *unwrapped* x-node range [Lo, Hi] the Esirkepov scatter of a
/// move from node-relative \p X0Rel to \p X1Rel writes: the 3-node
/// stencil from the common base (Jx touches only [Lo, Lo+1], Jy/Jz the
/// full 3 nodes).
template <typename Real>
inline void esirkepovFootprintX(Real X0Rel, Real X1Rel, Index &Lo,
                                Index &Hi) {
  Lo = Index(std::floor(std::min(X0Rel, X1Rel)));
  Hi = Lo + 2;
}

/// Same for the direct CIC scatter at node-relative midpoint \p XMidRel:
/// the staggered Jx sub-lattice reaches half a cell left of the
/// node-centered Jy/Jz base, hence the extra halo node.
template <typename Real>
inline void directFootprintX(Real XMidRel, Index &Lo, Index &Hi) {
  Lo = Index(std::floor(XMidRel - Real(0.5)));
  Hi = Index(std::floor(XMidRel)) + 1;
}

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_CURRENTDEPOSITION_H
