//===-- tests/core/CheckpointTest.cpp - Checkpoint format tests ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The checkpoint contracts: layout-independent round trips (an AoS
// ensemble restores bitwise into an SoA one and back), full-state (v2)
// round trips preserving step index / time / field bits, and damage
// rejection — truncated files (v1, v2 and v3 files cut at every byte
// offset), foreign magic, wrong scalar width, and version confusion
// all fail with a one-line reason instead of crashing or silently
// mis-restoring.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

using namespace hichi;

namespace {

std::string tempPath(const char *Name) {
  return testing::TempDir() + Name;
}

/// Particles whose every scalar has a full irrational mantissa — a
/// round trip that drops or recomputes any bit cannot pass.
template <typename Array> void seedAwkwardParticles(Array &Particles, int N) {
  using Real = typename Array::Scalar;
  for (int I = 0; I < N; ++I) {
    ParticleT<Real> P;
    P.Position = {Real(std::sqrt(2.0) * (I + 1)),
                  Real(std::sqrt(3.0) * (I + 1)),
                  Real(-std::sqrt(5.0) * (I + 1))};
    P.Momentum = {Real(0.1 * I - 0.5), Real(std::cbrt(7.0) * I),
                  Real(1.0 / (I + 3))};
    P.Weight = Real(1e-3 * (I + 1));
    // Deliberately NOT the gamma the momentum implies: the restore must
    // preserve the stored bits verbatim, not recompute them.
    P.Gamma = Real(1.0 + 1e-7 * I);
    P.Type = short(I % 2 == 0 ? PS_Electron : PS_Proton);
    Particles.pushBack(P);
  }
}

template <typename A, typename B>
void expectBitwiseEqual(const A &Lhs, const B &Rhs) {
  using Real = typename A::Scalar;
  ASSERT_EQ(Lhs.size(), Rhs.size());
  for (Index I = 0; I < Lhs.size(); ++I) {
    const ParticleT<Real> P = Lhs.view()[I].load();
    const ParticleT<Real> Q = Rhs.view()[I].load();
    const Real Ps[8] = {P.Position.X, P.Position.Y, P.Position.Z,
                        P.Momentum.X, P.Momentum.Y, P.Momentum.Z,
                        P.Weight,     P.Gamma};
    const Real Qs[8] = {Q.Position.X, Q.Position.Y, Q.Position.Z,
                        Q.Momentum.X, Q.Momentum.Y, Q.Momentum.Z,
                        Q.Weight,     Q.Gamma};
    EXPECT_EQ(0, std::memcmp(Ps, Qs, sizeof(Ps))) << "particle " << I;
    EXPECT_EQ(P.Type, Q.Type) << "particle " << I;
  }
}

/// Hand-writes a genuine v2 full-state file (header + state header +
/// particles + one field, no window block), as pre-window builds did.
template <typename Array>
bool writeLegacyV2(const std::string &Path, const Array &Saved,
                   std::int64_t StepIndex, double Time,
                   const std::vector<double> &Field) {
  using namespace checkpoint_detail;
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  Header Head;
  Head.Version = StateVersionV2;
  Head.ScalarBytes = sizeof(double);
  Head.Count = Saved.size();
  StateHeader State;
  State.StepIndex = StepIndex;
  State.Time = Time;
  State.FieldCount = 1;
  const std::int64_t Count = std::int64_t(Field.size());
  const bool Ok =
      std::fwrite(&Head, sizeof(Head), 1, File) == 1 &&
      std::fwrite(&State, sizeof(State), 1, File) == 1 &&
      writeParticles(File, Saved) &&
      std::fwrite(&Count, sizeof(Count), 1, File) == 1 &&
      std::fwrite(Field.data(), sizeof(double), Field.size(), File) ==
          Field.size();
  return std::fclose(File) == 0 && Ok;
}

std::vector<char> readBytes(const std::string &Path) {
  std::vector<char> Bytes;
  if (std::FILE *File = std::fopen(Path.c_str(), "rb")) {
    char Buffer[256];
    std::size_t Got;
    while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
      Bytes.insert(Bytes.end(), Buffer, Buffer + Got);
    std::fclose(File);
  }
  return Bytes;
}

TEST(CheckpointTest, AosToSoaBitwiseRoundTrip) {
  const std::string Path = tempPath("ckpt_aos_soa.ckpt");
  ParticleArrayAoS<double> Saved(32);
  seedAwkwardParticles(Saved, 17);

  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Saved, Path, &Error)) << Error;

  ParticleArraySoA<double> Restored(32);
  ASSERT_TRUE(loadCheckpoint(Restored, Path, &Error)) << Error;
  expectBitwiseEqual(Saved, Restored);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, SoaToAosBitwiseRoundTrip) {
  const std::string Path = tempPath("ckpt_soa_aos.ckpt");
  ParticleArraySoA<double> Saved(32);
  seedAwkwardParticles(Saved, 17);

  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Saved, Path, &Error)) << Error;

  ParticleArrayAoS<double> Restored(32);
  ASSERT_TRUE(loadCheckpoint(Restored, Path, &Error)) << Error;
  expectBitwiseEqual(Saved, Restored);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, ScalarWidthMismatchRejected) {
  const std::string Path = tempPath("ckpt_width.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 4);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  ParticleArrayAoS<float> Restored(8);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(Restored, Path, &Error));
  EXPECT_NE(Error.find("scalar width mismatch"), std::string::npos) << Error;
  EXPECT_NE(Error.find("8-byte"), std::string::npos) << Error;
  EXPECT_NE(Error.find("4-byte"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, CorruptMagicRejected) {
  const std::string Path = tempPath("ckpt_magic.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 4);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  std::FILE *File = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(File, nullptr);
  const std::uint32_t Junk = 0xDEADBEEF;
  ASSERT_EQ(std::fwrite(&Junk, sizeof(Junk), 1, File), std::size_t(1));
  std::fclose(File);

  ParticleArrayAoS<double> Restored(8);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(Restored, Path, &Error));
  EXPECT_NE(Error.find("not a hichi checkpoint"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, CapacityOverflowRejected) {
  const std::string Path = tempPath("ckpt_capacity.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 8);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  ParticleArrayAoS<double> TooSmall(4);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(TooSmall, Path, &Error));
  EXPECT_NE(Error.find("exceed array capacity"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, FullStateRoundTripAndVersionGuard) {
  const std::string Path = tempPath("ckpt_state.ckpt");
  ParticleArrayAoS<double> Saved(16);
  seedAwkwardParticles(Saved, 11);
  std::vector<double> FieldA = {std::sqrt(2.0), -std::sqrt(3.0), 0.25};
  std::vector<double> FieldB = {1e-9, -1e9};

  std::string Error;
  ASSERT_TRUE(saveSimulationCheckpoint(
      Saved, /*StepIndex=*/123, /*Time=*/61.5,
      {{FieldA.data(), Index(FieldA.size())},
       {FieldB.data(), Index(FieldB.size())}},
      Path, &Error))
      << Error;

  // The v1 loader must refuse the v2 file and point at the right API.
  ParticleArrayAoS<double> WrongLoader(16);
  EXPECT_FALSE(loadCheckpoint(WrongLoader, Path, &Error));
  EXPECT_NE(Error.find("use loadSimulationCheckpoint"), std::string::npos)
      << Error;

  std::vector<double> OutA(FieldA.size(), 0.0), OutB(FieldB.size(), 0.0);
  ParticleArraySoA<double> Restored(16);
  std::int64_t StepIndex = 0;
  double Time = 0;
  ASSERT_TRUE(loadSimulationCheckpoint(
      Restored, StepIndex, Time,
      {{OutA.data(), Index(OutA.size())}, {OutB.data(), Index(OutB.size())}},
      Path, &Error))
      << Error;
  EXPECT_EQ(StepIndex, 123);
  EXPECT_EQ(Time, 61.5);
  EXPECT_EQ(0, std::memcmp(FieldA.data(), OutA.data(),
                           FieldA.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(FieldB.data(), OutB.data(),
                           FieldB.size() * sizeof(double)));
  expectBitwiseEqual(Saved, Restored);

  // Field-list mismatches are rejected with the offending index.
  EXPECT_FALSE(loadSimulationCheckpoint(
      Restored, StepIndex, Time, {{OutA.data(), Index(OutA.size())}}, Path,
      &Error));
  EXPECT_NE(Error.find("field count mismatch"), std::string::npos) << Error;
  EXPECT_FALSE(loadSimulationCheckpoint(
      Restored, StepIndex, Time,
      {{OutA.data(), Index(OutA.size())}, {OutB.data(), Index(1)}}, Path,
      &Error));
  EXPECT_NE(Error.find("field 1 size mismatch"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, WindowBlockRoundTripV3) {
  const std::string Path = tempPath("ckpt_window.ckpt");
  ParticleArrayAoS<double> Saved(16);
  seedAwkwardParticles(Saved, 9);
  std::vector<double> Field = {std::sqrt(7.0), -0.5};

  CheckpointWindow Window;
  Window.OriginPlanes = 23;
  Window.PhysBase = 23 % 16; // ring base after 23 single-plane shifts
  Window.ShiftCount = 23;
  std::string Error;
  ASSERT_TRUE(saveSimulationCheckpoint(
      Saved, /*StepIndex=*/77, /*Time=*/3.25, Window,
      {{Field.data(), Index(Field.size())}}, Path, &Error))
      << Error;

  std::vector<double> Out(Field.size(), 0.0);
  ParticleArraySoA<double> Restored(16);
  std::int64_t StepIndex = 0;
  double Time = 0;
  CheckpointWindow Loaded;
  ASSERT_TRUE(loadSimulationCheckpoint(Restored, StepIndex, Time, Loaded,
                                       {{Out.data(), Index(Out.size())}},
                                       Path, &Error))
      << Error;
  EXPECT_EQ(Loaded.OriginPlanes, 23);
  EXPECT_EQ(Loaded.PhysBase, 7);
  EXPECT_EQ(Loaded.ShiftCount, 23);
  EXPECT_EQ(StepIndex, 77);
  EXPECT_EQ(Time, 3.25);
  expectBitwiseEqual(Saved, Restored);

  // The window-less convenience loader still reads the v3 file (it just
  // discards the window), so fixed-window callers keep working.
  ASSERT_TRUE(loadSimulationCheckpoint(Restored, StepIndex, Time,
                                       {{Out.data(), Index(Out.size())}},
                                       Path, &Error))
      << Error;
  expectBitwiseEqual(Saved, Restored);

  std::remove(Path.c_str());
}

TEST(CheckpointTest, LegacyV2FileLoadsWithWindowAtRest) {
  // Hand-write a genuine v2 file (header + state header + particles +
  // fields, no window block): pre-window checkpoints must keep loading,
  // reporting an at-rest window.
  const std::string Path = tempPath("ckpt_v2_legacy.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 5);
  std::vector<double> Field = {1.5, -2.5, 42.0};

  ASSERT_TRUE(writeLegacyV2(Path, Saved, /*StepIndex=*/9, /*Time=*/1.125,
                           Field));

  std::vector<double> Out(Field.size(), 0.0);
  ParticleArrayAoS<double> Restored(8);
  std::int64_t StepIndex = 0;
  double Time = 0;
  CheckpointWindow Window;
  Window.OriginPlanes = 99; // must be overwritten, not left stale
  std::string Error;
  ASSERT_TRUE(loadSimulationCheckpoint(Restored, StepIndex, Time, Window,
                                       {{Out.data(), Index(Out.size())}},
                                       Path, &Error))
      << Error;
  EXPECT_EQ(Window.OriginPlanes, 0);
  EXPECT_EQ(Window.PhysBase, 0);
  EXPECT_EQ(Window.ShiftCount, 0);
  EXPECT_EQ(StepIndex, 9);
  EXPECT_EQ(Time, 1.125);
  EXPECT_EQ(0, std::memcmp(Field.data(), Out.data(),
                           Field.size() * sizeof(double)));
  expectBitwiseEqual(Saved, Restored);
  std::remove(Path.c_str());
}

/// Hostile input: a checkpoint cut at every byte offset, for the
/// ensemble format (v1) and both full-state versions (v2, v3). Every
/// prefix must be refused with a one-line reason naming the section the
/// cut falls in, never crash, and leave the full-state step index
/// untouched.
TEST(CheckpointTest, EveryTruncationFailsCleanly) {
  ParticleArrayAoS<double> Saved(4);
  seedAwkwardParticles(Saved, 3);
  const std::vector<double> Field = {std::sqrt(2.0), -0.5, 1e-9};
  auto LoadState = [&](const std::string &Path, std::string *Error) {
    ParticleArraySoA<double> Restored(4);
    std::vector<double> Out(Field.size(), 0.0);
    std::int64_t StepIndex = -1;
    double Time = -1;
    CheckpointWindow Window;
    const bool Loaded = loadSimulationCheckpoint(
        Restored, StepIndex, Time, Window, {{Out.data(), Index(Out.size())}},
        Path, Error);
    EXPECT_EQ(StepIndex, Loaded ? 5 : -1);
    return Loaded;
  };
  // The file's sections in order: byte length and the reason a cut
  // inside the section must give.
  using Layout = std::vector<std::pair<std::size_t, std::string>>;
  const std::size_t Record = 8 * sizeof(double) + sizeof(std::int16_t);
  auto Sections = [&](bool FullState, bool WithWindow) {
    Layout L = {{sizeof(checkpoint_detail::Header), "header incomplete"}};
    if (FullState)
      L.push_back({sizeof(checkpoint_detail::StateHeader),
                   "state header missing"});
    if (WithWindow)
      L.push_back({sizeof(checkpoint_detail::WindowBlock),
                   "window block missing"});
    for (Index I = 0; I < Saved.size(); ++I)
      L.push_back({Record, std::to_string(I) + " of " +
                               std::to_string(Saved.size()) +
                               " particle records present"});
    if (FullState) {
      L.push_back({sizeof(std::int64_t), "field 0 header missing"});
      L.push_back({Field.size() * sizeof(double), "field 0 data incomplete"});
    }
    return L;
  };
  const struct {
    const char *Version;
    Layout Sections;
    std::function<bool(const std::string &)> Write;
    std::function<bool(const std::string &, std::string *)> Load;
  } Versions[] = {
      {"v1", Sections(false, false),
       [&](const std::string &Path) { return saveCheckpoint(Saved, Path); },
       [](const std::string &Path, std::string *Error) {
         ParticleArraySoA<double> Restored(4);
         return loadCheckpoint(Restored, Path, Error);
       }},
      {"v2", Sections(true, false),
       [&](const std::string &Path) {
         return writeLegacyV2(Path, Saved, 5, 0.25, Field);
       },
       LoadState},
      {"v3", Sections(true, true),
       [&](const std::string &Path) {
         CheckpointWindow Window;
         Window.OriginPlanes = 9;
         Window.PhysBase = 1;
         Window.ShiftCount = 9;
         return saveSimulationCheckpoint(
             Saved, 5, 0.25, Window, {{Field.data(), Index(Field.size())}},
             Path);
       },
       LoadState},
  };
  const std::string Whole = tempPath("ckpt_whole.ckpt");
  const std::string Cut = tempPath("ckpt_cut.ckpt");
  for (const auto &V : Versions) {
    ASSERT_TRUE(V.Write(Whole)) << V.Version;
    const std::vector<char> Bytes = readBytes(Whole);
    std::size_t LayoutBytes = 0;
    for (const auto &S : V.Sections)
      LayoutBytes += S.first;
    ASSERT_EQ(LayoutBytes, Bytes.size()) << V.Version;
    auto Section = V.Sections.begin();
    std::size_t End = Section->first;
    for (std::size_t Size = 0; Size <= Bytes.size(); ++Size) {
      SCOPED_TRACE(std::string(V.Version) + " cut to " +
                   std::to_string(Size) + " bytes");
      while (Size >= End && std::next(Section) != V.Sections.end())
        End += (++Section)->first;
      std::FILE *File = std::fopen(Cut.c_str(), "wb");
      ASSERT_NE(File, nullptr);
      ASSERT_EQ(std::fwrite(Bytes.data(), 1, Size, File), Size);
      std::fclose(File);
      std::string Error;
      const bool Loaded = V.Load(Cut, &Error);
      if (Size == Bytes.size()) { // the whole file is the control
        EXPECT_TRUE(Loaded) << Error;
        continue;
      }
      EXPECT_FALSE(Loaded);
      EXPECT_NE(Error.find("truncated checkpoint (" + Section->second +
                           ")"),
                std::string::npos)
          << Error;
      EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
    }
  }
  std::remove(Whole.c_str());
  std::remove(Cut.c_str());
}

} // namespace
