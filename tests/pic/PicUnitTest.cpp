//===-- tests/pic/PicUnitTest.cpp - Form factors, Yee grid, FDTD ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "pic/FdtdSolver.h"
#include "pic/FieldInterpolator.h"
#include "pic/FormFactor.h"
#include "pic/YeeGrid.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Form factors
//===----------------------------------------------------------------------===//

template <typename Shape> class FormFactorTest : public ::testing::Test {};
using Shapes = ::testing::Types<NgpShape, CicShape, TscShape>;
TYPED_TEST_SUITE(FormFactorTest, Shapes);

TYPED_TEST(FormFactorTest, WeightsSumToOneEverywhere) {
  RandomStream<double> Rng(2);
  for (int Trial = 0; Trial < 200; ++Trial) {
    double X = Rng.uniform(-10.0, 10.0);
    EXPECT_NEAR((weightSum<TypeParam, double>(X)), 1.0, 1e-12) << X;
  }
}

TYPED_TEST(FormFactorTest, WeightsAreNonNegative) {
  RandomStream<double> Rng(3);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Index Base;
    double W[TypeParam::Support];
    TypeParam::weights(Rng.uniform(-5.0, 5.0), Base, W);
    for (int I = 0; I < TypeParam::Support; ++I)
      EXPECT_GE(W[I], -1e-15);
  }
}

TEST(FormFactorTest, CicReproducesLinearFunctions) {
  // First-order shape: interpolating f(i) = i at x returns x.
  RandomStream<double> Rng(4);
  for (int Trial = 0; Trial < 100; ++Trial) {
    double X = Rng.uniform(0.0, 100.0);
    Index Base;
    double W[2];
    CicShape::weights(X, Base, W);
    EXPECT_NEAR(W[0] * double(Base) + W[1] * double(Base + 1), X, 1e-10);
  }
}

TEST(FormFactorTest, TscReproducesLinearFunctions) {
  // Second-order shape also reproduces linears (and quadratics' means).
  RandomStream<double> Rng(5);
  for (int Trial = 0; Trial < 100; ++Trial) {
    double X = Rng.uniform(0.0, 100.0);
    Index Base;
    double W[3];
    TscShape::weights(X, Base, W);
    double Sum = 0;
    for (int I = 0; I < 3; ++I)
      Sum += W[I] * double(Base + I);
    EXPECT_NEAR(Sum, X, 1e-10);
  }
}

TEST(FormFactorTest, NgpPicksNearestNode) {
  Index Base;
  double W[1];
  NgpShape::weights(2.4, Base, W);
  EXPECT_EQ(Base, 2);
  NgpShape::weights(2.6, Base, W);
  EXPECT_EQ(Base, 3);
}

//===----------------------------------------------------------------------===//
// ScalarLattice / YeeGrid
//===----------------------------------------------------------------------===//

TEST(ScalarLatticeTest, PeriodicIndexing) {
  ScalarLattice<double> L({4, 4, 4});
  L(1, 2, 3) = 9.0;
  EXPECT_DOUBLE_EQ(L(1 + 4, 2 - 4, 3 + 8), 9.0);
  EXPECT_DOUBLE_EQ(L(-3, 2, 3), 9.0);
}

TEST(ScalarLatticeTest, SumOfSquares) {
  ScalarLattice<double> L({2, 2, 2});
  L(0, 0, 0) = 3.0;
  L(1, 1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(L.sumOfSquares(), 25.0);
}

TEST(YeeGridTest, WrapPosition) {
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  auto P = G.wrapPosition({4.5, -0.5, 2.0});
  EXPECT_NEAR(P.X, 0.5, 1e-12);
  EXPECT_NEAR(P.Y, 3.5, 1e-12);
  EXPECT_NEAR(P.Z, 2.0, 1e-12);
}

/// The wrap as the plain fmod formula writes it: the reference for the
/// fast paths of YeeGrid::wrapPosition.
double fmodWrap(double X, double O, double Len) {
  double R = std::fmod(X - O, Len);
  if (R < 0.0)
    R += Len;
  return O + R;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

TEST(YeeGridTest, WrapPositionMatchesFmodFormulaBitwise) {
  YeeGrid<double> Fixed({8, 5, 6}, {0, 0, 0}, {0.7, 1.3, 0.9});
  YeeGrid<double> Shifted({8, 5, 6}, {0, 0, 0}, {0.7, 1.3, 0.9});
  Shifted.shiftWindow(3); // live origin.x = 3 * 0.7
  RandomStream<double> Rng(11);
  for (const YeeGrid<double> *G : {&Fixed, &Shifted}) {
    const Vector3<double> O = G->origin();
    const Vector3<double> L = G->extent();
    for (int Axis = 0; Axis < 3; ++Axis) {
      const double Os = Axis == 0 ? O.X : Axis == 1 ? O.Y : O.Z;
      const double Ls = Axis == 0 ? L.X : Axis == 1 ? L.Y : L.Z;
      const double Ulp = std::numeric_limits<double>::denorm_min();
      std::vector<double> Offsets = {-0.0,
                                     -Ulp,
                                     0.0,
                                     std::nextafter(Ls, 0.0),
                                     Ls,
                                     std::nextafter(2 * Ls, 0.0),
                                     2 * Ls,
                                     -Ls,
                                     std::nextafter(-Ls, 0.0),
                                     1e3 * Ls,
                                     -1e3 * Ls};
      for (int Trial = 0; Trial < 200; ++Trial)
        Offsets.push_back(Rng.uniform(-3 * Ls, 4 * Ls));
      // Each offset both as the coordinate itself and relative to the
      // live origin.
      std::vector<double> Coords;
      for (double V : Offsets) {
        Coords.push_back(V);
        Coords.push_back(Os + V);
      }
      for (double X : Coords) {
        Vector3<double> P = O;
        (Axis == 0 ? P.X : Axis == 1 ? P.Y : P.Z) = X;
        const Vector3<double> W = G->wrapPosition(P);
        const double Got = Axis == 0 ? W.X : Axis == 1 ? W.Y : W.Z;
        EXPECT_TRUE(sameBits(Got, fmodWrap(X, Os, Ls)))
            << "axis " << Axis << " x " << X << " origin " << Os
            << ": got " << Got << ", formula " << fmodWrap(X, Os, Ls);
      }
    }
  }
}

TEST(YeeGridTest, FieldEnergyOfUniformField) {
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(2.0); // E^2 = 4 at 64 nodes, dV = 1
  EXPECT_NEAR(G.fieldEnergy(), 64 * 4.0 / (8 * constants::Pi), 1e-10);
}

//===----------------------------------------------------------------------===//
// FDTD
//===----------------------------------------------------------------------===//

TEST(FdtdTest, CourantLimitFormula) {
  FdtdSolver<double> S(/*c=*/1.0);
  YeeGrid<double> G({8, 8, 8}, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(S.courantLimit(G), 1.0 / std::sqrt(3.0), 1e-12);
}

TEST(FdtdTest, UniformFieldsAreStationary) {
  // curl of a constant field vanishes: nothing may change in vacuum.
  FdtdSolver<double> S(1.0);
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(1.0);
  G.By.fill(-2.0);
  S.step(G, 0.2);
  EXPECT_DOUBLE_EQ(G.Ex(1, 2, 3), 1.0);
  EXPECT_DOUBLE_EQ(G.By(3, 0, 1), -2.0);
  EXPECT_DOUBLE_EQ(G.Ez(0, 0, 0), 0.0);
}

/// Initializes the fundamental standing/travelling plane-wave mode along x
/// with E_y and B_z staggered correctly for Yee.
static void initPlaneWave(YeeGrid<double> &G, int ModeCount) {
  const GridSize N = G.size();
  const double K = 2 * constants::Pi * ModeCount / double(N.Nx);
  for (Index I = 0; I < N.Nx; ++I)
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K3 = 0; K3 < N.Nz; ++K3) {
        // Ey at (i, j+1/2, k) -> x = i; Bz at (i+1/2, j+1/2, k).
        G.Ey(I, J, K3) = std::sin(K * double(I));
        G.Bz(I, J, K3) = std::sin(K * (double(I) + 0.5));
      }
}

TEST(FdtdTest, VacuumEnergyIsConserved) {
  FdtdSolver<double> S(1.0);
  YeeGrid<double> G({32, 2, 2}, {0, 0, 0}, {1, 1, 1});
  initPlaneWave(G, 2);
  const double E0 = G.fieldEnergy();
  const double Dt = 0.5 * S.courantLimit(G);
  for (int Step = 0; Step < 200; ++Step)
    S.step(G, Dt);
  EXPECT_NEAR(G.fieldEnergy() / E0, 1.0, 0.01)
      << "vacuum FDTD must conserve energy to ~1%";
}

TEST(FdtdTest, PlaneWavePropagatesAtNearLightSpeed) {
  // Track the phase of the fundamental mode: after time T the travelling
  // wave sin(k(x - ct)) must have advanced by ~c T (within numerical
  // dispersion of the coarse grid).
  FdtdSolver<double> S(1.0);
  const int Nx = 64;
  YeeGrid<double> G({Nx, 2, 2}, {0, 0, 0}, {1, 1, 1});
  initPlaneWave(G, 1);
  const double K = 2 * constants::Pi / Nx;
  const double Dt = 0.5 * S.courantLimit(G);
  const int Steps = 400;
  for (int Step = 0; Step < Steps; ++Step)
    S.step(G, Dt);
  // Fit the phase of Ey via the discrete Fourier coefficient of mode 1.
  double Re = 0, Im = 0;
  for (Index I = 0; I < Nx; ++I) {
    Re += G.Ey(I, 0, 0) * std::cos(K * double(I));
    Im += G.Ey(I, 0, 0) * std::sin(K * double(I));
  }
  // Ey = sin(k x - phi): sum(Ey cos) = -(N/2) sin(phi), sum(Ey sin) =
  // (N/2) cos(phi), so phi = atan2(-Re, Im). E x B points along +x, so
  // phi advances as +omega t.
  double Phase = std::atan2(-Re, Im);
  double Expected = std::fmod(K * Dt * Steps, 2 * constants::Pi);
  double Diff = std::remainder(Phase - Expected, 2 * constants::Pi);
  EXPECT_NEAR(std::abs(Diff), 0.0, 0.1)
      << "phase velocity error beyond numerical dispersion budget";
}

TEST(FdtdTest, CurrentSourceDrivesEField) {
  // A uniform Jx for one step must produce Ex = -4 pi dt Jx.
  FdtdSolver<double> S(1.0);
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Jx.fill(0.25);
  const double Dt = 0.1;
  S.advanceE(G, Dt);
  EXPECT_NEAR(G.Ex(2, 2, 2), -4 * constants::Pi * Dt * 0.25, 1e-12);
}

//===----------------------------------------------------------------------===//
// Yee interpolation
//===----------------------------------------------------------------------===//

TEST(YeeInterpolatorTest, UniformFieldInterpolatesExactly) {
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(3.0);
  G.Bz.fill(-1.5);
  YeeInterpolator<double> Interp(G);
  RandomStream<double> Rng(6);
  for (int Trial = 0; Trial < 50; ++Trial) {
    Vector3<double> P(Rng.uniform(0, 4), Rng.uniform(0, 4), Rng.uniform(0, 4));
    auto F = Interp(P, 0, 0);
    EXPECT_NEAR(F.E.X, 3.0, 1e-12);
    EXPECT_NEAR(F.B.Z, -1.5, 1e-12);
    EXPECT_NEAR(F.E.Y, 0.0, 1e-15);
  }
}

TEST(YeeInterpolatorTest, RespectsStaggering) {
  // Put a delta on Ex at (i+1/2, j, k) = (1.5, 2, 2) and probe exactly
  // there: the interpolated Ex must be the full nodal value.
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex(1, 2, 2) = 7.0;
  YeeInterpolator<double> Interp(G);
  auto F = Interp(Vector3<double>(1.5, 2.0, 2.0), 0, 0);
  EXPECT_NEAR(F.E.X, 7.0, 1e-12);
  // Half a cell off in x splits the weight evenly.
  auto F2 = Interp(Vector3<double>(2.0, 2.0, 2.0), 0, 0);
  EXPECT_NEAR(F2.E.X, 3.5, 1e-12);
}

/// One component's gather written per node through
/// ScalarLattice::operator(): the form the stencil-resolved
/// YeeInterpolator must match bit for bit.
template <typename Shape>
double referenceGather(const YeeGrid<double> &G,
                       const ScalarLattice<double> &F,
                       const Vector3<double> &Pos, double Ox, double Oy,
                       double Oz) {
  const Vector3<double> D = G.step();
  const Vector3<double> O = G.origin();
  const double Gx = (Pos.X - O.X) / D.X - Ox;
  const double Gy = (Pos.Y - O.Y) / D.Y - Oy;
  const double Gz = (Pos.Z - O.Z) / D.Z - Oz;
  Index BX, BY, BZ;
  double WX[Shape::Support], WY[Shape::Support], WZ[Shape::Support];
  Shape::weights(Gx, BX, WX);
  Shape::weights(Gy, BY, WY);
  Shape::weights(Gz, BZ, WZ);
  double Sum = 0;
  for (int I = 0; I < Shape::Support; ++I)
    for (int J = 0; J < Shape::Support; ++J)
      for (int K = 0; K < Shape::Support; ++K)
        Sum += WX[I] * WY[J] * WZ[K] * F(BX + I, BY + J, BZ + K);
  return Sum;
}

template <typename Shape>
FieldSample<double> referenceSample(const YeeGrid<double> &G,
                                    const Vector3<double> &Pos) {
  FieldSample<double> Out;
  Out.E.X = referenceGather<Shape>(G, G.Ex, Pos, 0.5, 0, 0);
  Out.E.Y = referenceGather<Shape>(G, G.Ey, Pos, 0, 0.5, 0);
  Out.E.Z = referenceGather<Shape>(G, G.Ez, Pos, 0, 0, 0.5);
  Out.B.X = referenceGather<Shape>(G, G.Bx, Pos, 0, 0.5, 0.5);
  Out.B.Y = referenceGather<Shape>(G, G.By, Pos, 0.5, 0, 0.5);
  Out.B.Z = referenceGather<Shape>(G, G.Bz, Pos, 0.5, 0.5, 0);
  return Out;
}

/// Per-axis probe coordinates: every node and half-node from two periods
/// below the box to two periods above it, the box faces 0 and L - ulp,
/// and random points over the same span.
std::vector<double> probeCoords(double O, double D, Index N,
                                RandomStream<double> &Rng) {
  const double L = double(N) * D;
  std::vector<double> Out = {O, std::nextafter(O + L, O)};
  for (Index H = -4 * N; H <= 6 * N; ++H)
    Out.push_back(O + 0.5 * double(H) * D);
  for (int Trial = 0; Trial < 8; ++Trial)
    Out.push_back(Rng.uniform(O - 2 * L, O + 3 * L));
  return Out;
}

template <typename Shape>
void expectGatherMatchesReference(YeeGrid<double> &G, std::uint64_t Seed) {
  RandomStream<double> Rng(Seed);
  for (ScalarLattice<double> *F : {&G.Ex, &G.Ey, &G.Ez, &G.Bx, &G.By, &G.Bz})
    for (double &V : F->raw())
      V = Rng.uniform(-1.0, 1.0);
  const Vector3<double> O = G.origin();
  const Vector3<double> D = G.step();
  const GridSize S = G.size();
  const std::vector<double> Xs = probeCoords(O.X, D.X, S.Nx, Rng);
  const std::vector<double> Ys = probeCoords(O.Y, D.Y, S.Ny, Rng);
  const std::vector<double> Zs = probeCoords(O.Z, D.Z, S.Nz, Rng);
  const YeeInterpolator<double, Shape> Interp(G);
  // Every x against a rotating (y, z) pair keeps the product small while
  // each axis still visits all of its probes.
  std::size_t Checked = 0;
  for (std::size_t I = 0; I < Xs.size(); ++I)
    for (std::size_t J = 0; J < Ys.size(); J += 3) {
      const Vector3<double> P(Xs[I], Ys[(I + J) % Ys.size()],
                              Zs[(I * 7 + J) % Zs.size()]);
      const FieldSample<double> Got = Interp(P, 0, 0);
      const FieldSample<double> Want = referenceSample<Shape>(G, P);
      ASSERT_EQ(std::memcmp(&Got, &Want, sizeof(Got)), 0)
          << "grid " << S.Nx << "x" << S.Ny << "x" << S.Nz << " ring base "
          << G.Ex.xBase() << " at (" << P.X << ", " << P.Y << ", " << P.Z
          << ")";
      ++Checked;
    }
  EXPECT_GT(Checked, 0u);
}

template <typename Shape>
class YeeInterpolatorBitsTest : public ::testing::Test {};
TYPED_TEST_SUITE(YeeInterpolatorBitsTest, Shapes);

TYPED_TEST(YeeInterpolatorBitsTest, MatchesPerNodeGatherBitwise) {
  const Vector3<double> Origin(-1.1, 0.4, 2.3);
  const Vector3<double> Step(0.7, 1.3, 0.9);
  std::uint64_t Seed = 20;
  for (GridSize Size : {GridSize{8, 5, 6}, GridSize{2, 2, 2},
                        GridSize{8, 1, 2}, GridSize{1, 1, 1}}) {
    YeeGrid<double> G(Size, Origin, Step);
    expectGatherMatchesReference<TypeParam>(G, Seed++);
  }
}

TYPED_TEST(YeeInterpolatorBitsTest, MatchesPerNodeGatherOnShiftedWindow) {
  YeeGrid<double> G({8, 5, 6}, {-1.1, 0.4, 2.3}, {0.7, 1.3, 0.9});
  G.shiftWindow(3);
  G.shiftWindow(2);
  ASSERT_EQ(G.Ex.xBase(), 5);
  expectGatherMatchesReference<TypeParam>(G, 30);
}

TEST(YeeInterpolatorTest, TscVariantAlsoPartitionsUnity) {
  YeeGrid<double> G({6, 6, 6}, {0, 0, 0}, {1, 1, 1});
  G.Ey.fill(2.0);
  YeeInterpolator<double, TscShape> Interp(G);
  auto F = Interp(Vector3<double>(2.3, 1.7, 4.1), 0, 0);
  EXPECT_NEAR(F.E.Y, 2.0, 1e-12);
}

} // namespace
