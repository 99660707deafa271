//===-- pic/FieldInterpolator.h - Yee grid -> particle fields --*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpolation of the staggered Yee fields to particle positions (the
/// "interpolated values of the electromagnetic field" the Lorentz force
/// needs, paper Section 2). Each of the six components is interpolated on
/// its own staggered sub-lattice with the chosen form factor, so a
/// particle sees fields consistent with the solver's discretization.
///
/// The six sub-lattices use only two stencils per axis: node-centred
/// (offset 0) and half-staggered (offset 1/2). A gather resolves those
/// six axis stencils once per particle — form-factor weights plus the
/// wrapped, ring-mapped storage offset of every support node — and each
/// component then sums W[I]·W[J]·W[K]·Data[XOff[I] + YOff[J] + ZOff[K]]
/// with plain loads, in the I-J-K order and with the float expressions
/// of the per-node ScalarLattice::operator() form, so the bits are the
/// same.
///
/// The interpolator is a field source in the sense of core/FieldSample.h,
/// so the PIC loop drives exactly the same pusher kernels the standalone
/// benchmarks use.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_FIELDINTERPOLATOR_H
#define HICHI_PIC_FIELDINTERPOLATOR_H

#include "core/FieldSample.h"
#include "pic/FormFactor.h"
#include "pic/YeeGrid.h"

namespace hichi {
namespace pic {

/// Interpolating field source over a YeeGrid with form factor \p Shape.
template <typename Real, typename Shape = CicShape> class YeeInterpolator {
public:
  explicit YeeInterpolator(const YeeGrid<Real> &Grid) : Grid(&Grid) {}

  /// Field-source interface.
  FieldSample<Real> operator()(const Vector3<Real> &Pos, Real /*Time*/,
                               Index /*ParticleIndex*/) const {
    const Vector3<Real> D = Grid->step();
    const Vector3<Real> O = Grid->origin();
    const GridSize Size = Grid->size();
    const Real GX = (Pos.X - O.X) / D.X;
    const Real GY = (Pos.Y - O.Y) / D.Y;
    const Real GZ = (Pos.Z - O.Z) / D.Z;
    // Node-centred (N) and half-staggered (H) stencil of each axis; the
    // x offsets map logical planes onto the ring storage.
    const Index XBase = Grid->Ex.xBase();
    const Axis XN(GX, Size.Nx, XBase, Size.Ny * Size.Nz);
    const Axis XH(GX - Real(0.5), Size.Nx, XBase, Size.Ny * Size.Nz);
    const Axis YN(GY, Size.Ny, 0, Size.Nz);
    const Axis YH(GY - Real(0.5), Size.Ny, 0, Size.Nz);
    const Axis ZN(GZ, Size.Nz, 0, 1);
    const Axis ZH(GZ - Real(0.5), Size.Nz, 0, 1);

    FieldSample<Real> Out;
    Out.E.X = gather(Grid->Ex, XH, YN, ZN);
    Out.E.Y = gather(Grid->Ey, XN, YH, ZN);
    Out.E.Z = gather(Grid->Ez, XN, YN, ZH);
    Out.B.X = gather(Grid->Bx, XN, YH, ZH);
    Out.B.Y = gather(Grid->By, XH, YN, ZH);
    Out.B.Z = gather(Grid->Bz, XH, YH, ZN);
    return Out;
  }

private:
  /// One axis stencil: the Shape weights at node-relative position \p G
  /// and each support node's storage offset — wrapped into [0, \p N)
  /// after adding the ring base \p Base, times the axis \p Stride.
  struct Axis {
    Axis(Real G, Index N, Index Base, Index Stride) {
      Index First;
      Shape::weights(G, First, W);
      for (int I = 0; I < Shape::Support; ++I)
        Off[I] = wrapNear(First + I + Base, N) * Stride;
    }

    Real W[Shape::Support];
    Index Off[Shape::Support];
  };

  static Real gather(const ScalarLattice<Real> &F, const Axis &X,
                     const Axis &Y, const Axis &Z) {
    const Real *Data = F.raw().data();
    Real Sum = 0;
    for (int I = 0; I < Shape::Support; ++I)
      for (int J = 0; J < Shape::Support; ++J)
        for (int K = 0; K < Shape::Support; ++K)
          Sum += X.W[I] * Y.W[J] * Z.W[K] *
                 Data[X.Off[I] + Y.Off[J] + Z.Off[K]];
    return Sum;
  }

  const YeeGrid<Real> *Grid;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_FIELDINTERPOLATOR_H
