//===-- tests/pic/LaneKernelTest.cpp - SIMD lanes vs per-particle code ----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane kernels (pic/LaneKernels.h) against the per-particle code
/// they replace, bit for bit, on every path this host can run (the
/// baseline instantiation, forced through the test hook, and AVX-512
/// where the CPU has it):
///
///   * stage 1 against YeeInterpolator + BorisPusher::push +
///     YeeGrid::wrapPosition, one particle at a time;
///   * the Esirkepov scatter against scatterCurrentEsirkepov through
///     GridCurrentSink, and the tiled accumulator's per-tile path against
///     the same reference;
///   * the standalone pusher's dipole push against DipoleWaveSource +
///     BorisPusher::push, in both layouts and both precisions.
///
/// The particles mix electrons and positrons in one block, sit on nodes,
/// half-nodes and the box faces (and several boxes away), carry
/// -0.0 momenta, and move +-(1 - ulp) cells; the window is shifted, so
/// the ring base is nonzero; and N = 8k + r covers every tail r in 0..7.
/// The dipole particles sit at the focus (also as -0.0) and at kR just
/// below, at and just above the series threshold, with -0.0 coordinates,
/// at times where cos(w0 t) is positive and negative.
///
//===----------------------------------------------------------------------===//

#include "core/BorisPusher.h"
#include "core/ParticleArray.h"
#include "exec/BackendRegistry.h"
#include "fields/DipoleWave.h"
#include "minisycl/minisycl.h"
#include "pic/CurrentDeposition.h"
#include "pic/FieldInterpolator.h"
#include "pic/LaneKernels.h"
#include "pic/TiledCurrentAccumulator.h"
#include "pic/YeeGrid.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

// Steps, speed of light and species that are not powers of two, and a
// box around the coordinate origin, so that no rounding of the lane code
// can hide behind an exact operation or a large position.
const GridSize Size{7, 5, 6};
const Vector3<double> Origin(-1.25, -0.6, -1.1), Step(0.3, 0.7, 0.45);
constexpr Index ShiftPlanes = 3;
constexpr double Dt = 0.21, C = 0.9;

/// An electron and a positron of mass 1.3 and charge -+0.7, at the
/// PS_Electron and PS_Positron slots.
template <typename Real = double> ParticleTypeTable<Real> makeTypes() {
  ParticleTypeTable<Real> T;
  T.addSpecies(Real(1.3), Real(-0.7));
  T.addSpecies(Real(1.3), Real(0.7));
  return T;
}

/// The grid every check runs on: window shifted by ShiftPlanes, then
/// every lattice filled with random values, strong next to the momenta
/// of makeParticles, so the gathered fields show in the pushed momenta
/// to the last bit.
YeeGrid<double> makeGrid() {
  YeeGrid<double> G(Size, Origin, Step);
  G.shiftWindow(ShiftPlanes);
  RandomStream<double> Rng(29);
  for (ScalarLattice<double> *L : {&G.Ex, &G.Ey, &G.Ez, &G.Bx, &G.By, &G.Bz})
    for (double &V : L->raw())
      V = Rng.uniform(-20.0, 20.0);
  return G;
}

/// Positions worth a lane each: nodes, half-nodes, both faces of every
/// axis, the last double below the upper face, points boxes away, and
/// random interior points; \p Count of them, cycling.
std::vector<Vector3<double>> probePositions(const YeeGrid<double> &G,
                                            Index Count) {
  const Vector3<double> O = G.origin(), D = G.step(), L = G.extent();
  std::vector<Vector3<double>> Special = {
      O,
      {O.X + 2 * D.X, O.Y + 3 * D.Y, O.Z + 1 * D.Z},
      {O.X + 2.5 * D.X, O.Y + 0.5 * D.Y, O.Z + 4.5 * D.Z},
      {O.X + 3 * D.X, O.Y + 1.5 * D.Y, O.Z + 5 * D.Z},
      O + L,
      {std::nextafter(O.X + L.X, O.X), std::nextafter(O.Y + L.Y, O.Y),
       std::nextafter(O.Z + L.Z, O.Z)},
      {O.X + L.X, O.Y, O.Z + 0.5 * D.Z},
      {O.X + 3.5 * L.X, O.Y - 2.25 * L.Y, O.Z + 7 * L.Z},
      {1e-3, -2e-3, 5e-4},
  };
  RandomStream<double> Rng(31);
  std::vector<Vector3<double>> Out;
  for (Index I = 0; I < Count; ++I) {
    if (I % 3 == 0) {
      Out.push_back(Special[std::size_t(I / 3) % Special.size()]);
      continue;
    }
    Out.push_back({O.X + Rng.uniform(0.0, L.X), O.Y + Rng.uniform(0.0, L.Y),
                   O.Z + Rng.uniform(0.0, L.Z)});
  }
  return Out;
}

/// \p Count particles at probePositions, alternating electron and
/// positron, with momenta that include -0.0 and zero components.
ParticleArrayAoS<double> makeParticles(const YeeGrid<double> &G,
                                       Index Count) {
  ParticleArrayAoS<double> P(Count);
  RandomStream<double> Rng(37);
  const std::vector<Vector3<double>> Pos = probePositions(G, Count);
  for (Index I = 0; I < Count; ++I) {
    ParticleT<double> Part;
    Part.Position = Pos[std::size_t(I)];
    Part.Momentum = {Rng.uniform(-0.05, 0.05), Rng.uniform(-0.05, 0.05),
                     Rng.uniform(-0.05, 0.05)};
    if (I % 4 == 1)
      Part.Momentum = {-0.0, 0.0, -0.0};
    if (I % 4 == 2)
      Part.Momentum.Y = -0.0;
    Part.Weight = Rng.uniform(0.5, 2.0);
    Part.Type = I % 2 ? PS_Positron : PS_Electron;
    P.pushBack(Part);
  }
  return P;
}

template <typename Real> bool sameBits(Real A, Real B) {
  return std::memcmp(&A, &B, sizeof(Real)) == 0;
}

template <typename Real>
void expectSameBits(const Vector3<Real> &A, const Vector3<Real> &B,
                    const std::string &What) {
  EXPECT_TRUE(sameBits(A.X, B.X) && sameBits(A.Y, B.Y) && sameBits(A.Z, B.Z))
      << What << ": (" << A.X << ", " << A.Y << ", " << A.Z << ") vs ("
      << B.X << ", " << B.Y << ", " << B.Z << ")";
}

void expectSameBits(const ScalarLattice<double> &A,
                    const ScalarLattice<double> &B, const char *What) {
  ASSERT_EQ(A.raw().size(), B.raw().size());
  EXPECT_EQ(std::memcmp(A.raw().data(), B.raw().data(),
                        A.raw().size() * sizeof(double)),
            0)
      << What;
}

/// One lane path: "baseline" (forced through the test hook) or "avx512".
class LaneKernelTest : public ::testing::TestWithParam<const char *> {
protected:
  void SetUp() override {
    const bool Avx512 = std::string(GetParam()) == "avx512";
    if (Avx512 && !hostHasAvx512Lanes())
      GTEST_SKIP() << "this CPU has no AVX-512 F/DQ/VL";
    detail::forceBaselineLanes(!Avx512);
    ASSERT_EQ(useAvx512Lanes<double>(), Avx512);
  }
  void TearDown() override { detail::forceBaselineLanes(false); }
};

TEST_P(LaneKernelTest, Stage1MatchesPerParticleCode) {
  const YeeGrid<double> G = makeGrid();
  ASSERT_NE(G.Ex.xBase(), 0);
  const auto Types = makeTypes();
  const YeeInterpolator<double> Interp(G);
  for (Index R = 0; R < LaneWidth; ++R)
    for (Index Begin : {Index(0), Index(3)}) {
      const Index N = 4 * LaneWidth + R;
      SCOPED_TRACE("N=" + std::to_string(N) + " begin=" +
                   std::to_string(Begin));
      ParticleArrayAoS<double> Ref = makeParticles(G, N);
      ParticleArrayAoS<double> Lane = makeParticles(G, N);
      const std::size_t Count = std::size_t(N);
      std::vector<Vector3<double>> RefOld(Count), RefNew(Count),
          LaneOld(Count), LaneNew(Count);
      for (Index I = Begin; I < N; ++I) {
        auto P = Ref[I];
        const Vector3<double> Pos = P.position();
        RefOld[std::size_t(I)] = Pos;
        BorisPusher::push<double>(P, Interp(Pos, 0, I), Types.data(), Dt, C);
        RefNew[std::size_t(I)] = P.position();
        P.setPosition(G.wrapPosition(P.position()));
      }
      pushParticlesInLanes(Lane.view(), Begin, N, G, Types.data(), Dt, C,
                           LaneOld.data(), LaneNew.data());
      for (Index I = 0; I < N; ++I) {
        const std::string At = "particle " + std::to_string(I);
        expectSameBits(Lane[I].position(), Ref[I].position(),
                       At + " position");
        expectSameBits(Lane[I].momentum(), Ref[I].momentum(),
                       At + " momentum");
        EXPECT_TRUE(sameBits(Lane[I].gamma(), Ref[I].gamma())) << At;
        expectSameBits(LaneOld[std::size_t(I)], RefOld[std::size_t(I)],
                       At + " old position");
        expectSameBits(LaneNew[std::size_t(I)], RefNew[std::size_t(I)],
                       At + " new position");
      }
    }
}

/// Moves of up to +-(1 - ulp) cells per axis, or none, from probe
/// positions, for \p Count particles.
void makeMoves(const YeeGrid<double> &G, Index Count,
               std::vector<Vector3<double>> &OldPos,
               std::vector<Vector3<double>> &NewPos) {
  const Vector3<double> D = G.step();
  const double Edge = std::nextafter(1.0, 0.0);
  RandomStream<double> Rng(41);
  OldPos = probePositions(G, Count);
  NewPos.clear();
  for (Index I = 0; I < Count; ++I) {
    const Vector3<double> &From = OldPos[std::size_t(I)];
    Vector3<double> Cells;
    switch (I % 4) {
    case 0:
      Cells = {Edge, -Edge, Edge};
      break;
    case 1:
      Cells = {-Edge, Edge, -Edge};
      break;
    case 2:
      Cells = {0, 0, 0};
      break;
    default:
      Cells = {Rng.uniform(-Edge, Edge), Rng.uniform(-Edge, Edge),
               Rng.uniform(-Edge, Edge)};
    }
    NewPos.push_back({From.X + Cells.X * D.X, From.Y + Cells.Y * D.Y,
                      From.Z + Cells.Z * D.Z});
  }
}

TEST_P(LaneKernelTest, EsirkepovMatchesPerParticleScatter) {
  const auto Types = makeTypes();
  for (Index R = 0; R < LaneWidth; ++R) {
    const Index N = 4 * LaneWidth + R;
    SCOPED_TRACE("N=" + std::to_string(N));
    YeeGrid<double> Ref = makeGrid(), Lane = makeGrid();
    const ParticleArrayAoS<double> Particles = makeParticles(Ref, N);
    const auto View = Particles.view();
    std::vector<Vector3<double>> OldPos, NewPos;
    makeMoves(Ref, N, OldPos, NewPos);

    GridCurrentSink<double> RefSink(Ref);
    for (Index I = 0; I < N; ++I)
      scatterCurrentEsirkepov(RefSink, Ref.step(), Ref.origin(),
                              OldPos[std::size_t(I)], NewPos[std::size_t(I)],
                              Types[View[I].type()].Charge * View[I].weight(),
                              Dt);
    OwnedPlanesSink<double> LaneSink(Lane, 0, Size.Nx);
    scatterEsirkepovInLanes(LaneSink, View, OldPos.data(), NewPos.data(),
                            Types.data(),
                            DepositGeometry<double>{Lane.origin(),
                                                    Lane.step(), Dt},
                            N, [](Index I) { return I; });
    expectSameBits(Lane.Jx, Ref.Jx, "Jx");
    expectSameBits(Lane.Jy, Ref.Jy, "Jy");
    expectSameBits(Lane.Jz, Ref.Jz, "Jz");
  }
}

TEST_P(LaneKernelTest, TiledAccumulatorMatchesPerParticleScatter) {
  const auto Types = makeTypes();
  const Index N = 9 * LaneWidth + 5;
  YeeGrid<double> Ref = makeGrid();
  const ParticleArrayAoS<double> Particles = makeParticles(Ref, N);
  const auto View = Particles.view();
  std::vector<Vector3<double>> OldPos, NewPos;
  makeMoves(Ref, N, OldPos, NewPos);
  for (Index I = 0; I < N; ++I)
    depositCurrentEsirkepov(Ref, OldPos[std::size_t(I)],
                            NewPos[std::size_t(I)],
                            Types[View[I].type()].Charge * View[I].weight(),
                            Dt);

  minisycl::queue Queue{minisycl::cpu_device()};
  exec::ExecutionContext Ctx;
  Ctx.Queue = &Queue;
  auto Backend = exec::createBackend("serial");
  for (int Tiles : {1, 3, 7}) {
    SCOPED_TRACE("tiles=" + std::to_string(Tiles));
    YeeGrid<double> Lane = makeGrid();
    TiledCurrentAccumulator<double> Accumulator(Size, Origin, Step, Tiles);
    RunStats Stats;
    exec::KernelCache Cache;
    Accumulator
        .submitDeposit(Lane, View, OldPos.data(), NewPos.data(), Types.data(),
                       Dt, /*ChargeConserving=*/true, *Backend, Ctx, Stats,
                       Cache)
        .wait();
    expectSameBits(Lane.Jx, Ref.Jx, "Jx");
    expectSameBits(Lane.Jy, Ref.Jy, "Jy");
    expectSameBits(Lane.Jz, Ref.Jz, "Jz");
  }
}

/// \p Count particles for the dipole wave with k = 1, alternating
/// electron and positron: the focus (also as -0.0), kR = |coordinate|
/// just below, at and just above the series threshold with -0.0 in the
/// other coordinates, and random points out to kR ~ 5; momenta as in
/// makeParticles.
template <typename Array> Array makeDipoleParticles(Index Count) {
  using Real = typename Array::Scalar;
  const Real T = DipoleRadialFunctions<Real>::Threshold;
  const Real Below = std::nextafter(T, Real(0));
  const Real Above = std::nextafter(T, Real(1));
  const std::vector<Vector3<Real>> Special = {
      {0, 0, 0},         {-0.0, 0, -0.0},  {Below, -0.0, 0},
      {-0.0, T, -0.0},   {0, -0.0, Above}, {-Below, 0, 0},
      {-0.0, -T, 0},     {0, 0, -Above},   {T, T, -0.0},
  };
  RandomStream<Real> Rng(43);
  Array P(Count);
  for (Index I = 0; I < Count; ++I) {
    ParticleT<Real> Part;
    Part.Position = I % 3 == 0 ? Special[std::size_t(I / 3) % Special.size()]
                               : Vector3<Real>(Rng.uniform(-3, 3),
                                               Rng.uniform(-3, 3),
                                               Rng.uniform(-3, 3));
    Part.Momentum = {Rng.uniform(Real(-0.05), Real(0.05)),
                     Rng.uniform(Real(-0.05), Real(0.05)),
                     Rng.uniform(Real(-0.05), Real(0.05))};
    if (I % 4 == 1)
      Part.Momentum = {-0.0, 0.0, -0.0};
    if (I % 4 == 2)
      Part.Momentum.Y = -0.0;
    Part.Type = I % 2 ? PS_Positron : PS_Electron;
    P.pushBack(Part);
  }
  return P;
}

/// pushDipoleInLanes against DipoleWaveSource::operator() and
/// BorisPusher::push one particle at a time, on \p Array's layout and
/// precision.
template <typename Array> void checkDipolePush() {
  using Real = typename Array::Scalar;
  const auto Types = makeTypes<Real>();
  const auto Wave = DipoleWaveSource<Real>::fromPower(1, 1, 1);
  ASSERT_EQ(Wave.WaveNumber, Real(1));
  // w0 = 1: cos(w0 t) is positive at t = 0.3 and negative at t = 2.
  for (Real Time : {Real(0.3), Real(2)})
    for (Index R = 0; R < LaneWidth; ++R)
      for (Index Begin : {Index(0), Index(3)}) {
        const Index N = 4 * LaneWidth + R;
        SCOPED_TRACE("t=" + std::to_string(Time) + " N=" + std::to_string(N) +
                     " begin=" + std::to_string(Begin));
        Array Ref = makeDipoleParticles<Array>(N);
        Array Lane = makeDipoleParticles<Array>(N);
        for (Index I = Begin; I < N; ++I) {
          auto P = Ref[I];
          BorisPusher::push<Real>(P, Wave(P.position(), Time, I),
                                  Types.data(), Real(Dt), Real(C));
        }
        pushDipoleInLanes(Lane.view(), Begin, N, Wave.atTime(Time),
                          Types.data(), Real(Dt), Real(C));
        for (Index I = 0; I < N; ++I) {
          const std::string At = "particle " + std::to_string(I);
          expectSameBits(Lane[I].position(), Ref[I].position(),
                         At + " position");
          expectSameBits(Lane[I].momentum(), Ref[I].momentum(),
                         At + " momentum");
          EXPECT_TRUE(sameBits(Lane[I].gamma(), Ref[I].gamma())) << At;
        }
      }
}

TEST_P(LaneKernelTest, DipolePushMatchesPerParticleCode) {
  checkDipolePush<ParticleArrayAoS<double>>();
  checkDipolePush<ParticleArraySoA<double>>();
  checkDipolePush<ParticleArrayAoS<float>>();
  checkDipolePush<ParticleArraySoA<float>>();
}

INSTANTIATE_TEST_SUITE_P(Paths, LaneKernelTest,
                         ::testing::Values("baseline", "avx512"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
