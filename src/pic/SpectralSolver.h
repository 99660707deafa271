//===-- pic/SpectralSolver.h - FFT-based Maxwell solver ---------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FFT-based Maxwell solver (PSATD family) — the second of the two
/// solver options the paper names in Section 2 ("These equations can be
/// solved using FDTD [9] or FFT-based [8] techniques").
///
/// Per step, the fields are transformed to k-space and the *exact*
/// solution of Maxwell's equations with the step's (constant) current is
/// applied mode by mode:
///
///   transverse (w = c|k|, C = cos(w dt), S = sin(w dt), ^k = k/|k|):
///     E+ = C E_T + i S (^k x B)      - (S/w) 4 pi J_T
///     B+ = C B   - i S (^k x E_T)    + i ((1-C)/w) (^k x 4 pi J_T)
///   longitudinal:  E_L+ = E_L - 4 pi J_L dt
///   k = 0 mode:    E+ = E - 4 pi J dt, B unchanged.
///
/// Being exact per mode, the scheme is dispersion-free and has no
/// Courant limit — the properties the tests verify against the FDTD
/// solver's known O((k dx)^2) phase error.
///
/// The solver operates on the YeeGrid's component lattices treated as
/// collocated (staggering is a Yee-scheme concept; spectrally all
/// components live at the same points). Mixing it with staggered-aware
/// deposition is therefore first-order accurate in the staggering offset
/// — fine for the smooth-field validation and example workloads it
/// serves here.
///
/// **Backend-parallel form.** Every piece of the step is elementwise
/// independent at some granularity: the gather/scatter per component
/// lattice, each FFT pass per 1-D line (Fft3D's per-line API), and the
/// mode update per k-space point. submitStep() therefore fans the step
/// out as an event-chained launch graph — gather (waits the deposit's
/// JReady event) → three forward passes per spectrum (z, y,
/// x, chained per lattice; independent lattices overlap on asynchronous
/// backends) → one mode-update launch over k-space rows → three inverse
/// passes per E/B spectrum → scatter — and the serial step() runs the
/// exact same helpers in the same order, so both paths are bit-identical
/// for every backend, worker and tile count
/// (tests/pic/FdtdSolverTest.cpp). The k-space spectra live in member
/// buffers reused across steps (no per-call allocation, and the
/// per-line FFT scratch is per-block so concurrent lines never share
/// state).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_SPECTRALSOLVER_H
#define HICHI_PIC_SPECTRALSOLVER_H

#include "exec/ExecutionBackend.h"
#include "pic/YeeGrid.h"
#include "support/Fft.h"

#include <array>
#include <complex>

namespace hichi {
namespace pic {

/// Exact-in-time spectral Maxwell solver on a periodic power-of-two grid.
template <typename Real> class SpectralSolver {
public:
  SpectralSolver(GridSize Size, Vector3<Real> Step,
                 Real LightVelocity = Real(constants::LightVelocity))
      : Size(Size), Step(Step), C(LightVelocity),
        Fft(std::size_t(Size.Nx), std::size_t(Size.Ny),
            std::size_t(Size.Nz)) {}

  Real lightVelocity() const { return C; }

  /// Advances E and B of \p Grid by \p Dt using the grid's current J —
  /// the serial reference: the same gather / per-line transform / mode
  /// update / scatter helpers the backend launches run, in the same
  /// order.
  void step(YeeGrid<Real> &Grid, Real Dt) {
    prepareBuffers();
    for (int S = 0; S < NumSpectra; ++S)
      gatherSpectrum(Grid, S);
    std::vector<Cplx> Scratch;
    for (int S = 0; S < NumSpectra; ++S)
      for (FftAxis Axis : {FftAxis::Z, FftAxis::Y, FftAxis::X})
        for (std::size_t L = 0, E = Fft.lineCount(Axis); L < E; ++L)
          Fft.transformLine(Axis, L, Spectra[std::size_t(S)].data(),
                            /*Inverse=*/false, Scratch);
    updateModes(0, Index(Fft.size()), Dt);
    for (int S = 0; S < NumFieldSpectra; ++S)
      for (FftAxis Axis : {FftAxis::Z, FftAxis::Y, FftAxis::X})
        for (std::size_t L = 0, E = Fft.lineCount(Axis); L < E; ++L)
          Fft.transformLine(Axis, L, Spectra[std::size_t(S)].data(),
                            /*Inverse=*/true, Scratch);
    for (int S = 0; S < NumFieldSpectra; ++S)
      scatterSpectrum(Grid, S);
  }

  /// Submits the step as an event-chained launch graph through
  /// \p Backend (see the file comment): \p Tiles controls the number of
  /// schedulable chunks per elementwise launch (k-space rows of the mode
  /// update, line groups of the FFT passes), \p JReady gates the gather
  /// (the first launch that reads the grid, J included). \returns the
  /// scatter launch's event; wait it (and only then read \p Stats or
  /// reuse \p Cache) before touching the fields.
  exec::ExecEvent submitStep(YeeGrid<Real> &Grid, Real Dt,
                             exec::ExecutionBackend &Backend,
                             const exec::ExecutionContext &Ctx, int Tiles,
                             RunStats &Stats, const exec::ExecEvent &JReady,
                             exec::KernelCache &Cache) {
    prepareBuffers();
    SpectralSolver *Self = this;
    YeeGrid<Real> *G = &Grid;

    // Gather all nine component lattices into spectra (one item each).
    auto GatherBlock = [=](Index Begin, Index End, int, int) {
      for (Index S = Begin; S < End; ++S)
        Self->gatherSpectrum(*G, int(S));
    };
    const exec::ExecEvent Gathered =
        exec::submitCachedLaunch(Backend, Ctx, Stats, NumSpectra,
                                 /*GrainHint=*/1, std::move(GatherBlock),
                                 {JReady}, Cache);

    // Forward transforms: per spectrum, the z → y → x passes chain on
    // each other; the nine per-spectrum chains are mutually independent.
    std::vector<exec::ExecEvent> Transformed;
    for (int S = 0; S < NumSpectra; ++S)
      Transformed.push_back(
          submitPasses(Backend, Ctx, Stats, S, /*Inverse=*/false, Tiles,
                       Gathered, Cache));

    // The mode update over k-space rows (flat index ranges).
    auto UpdateBlock = [=](Index Begin, Index End, int, int) {
      Self->updateModes(Begin, End, Dt);
    };
    const Index Modes = Index(Fft.size());
    const exec::ExecEvent Updated =
        exec::submitCachedLaunch(Backend, Ctx, Stats, Modes,
                                 grainFor(Modes, Tiles),
                                 std::move(UpdateBlock), Transformed, Cache);

    // Inverse transforms of the six field spectra, then the scatter.
    std::vector<exec::ExecEvent> Restored;
    for (int S = 0; S < NumFieldSpectra; ++S)
      Restored.push_back(submitPasses(Backend, Ctx, Stats, S,
                                      /*Inverse=*/true, Tiles, Updated,
                                      Cache));
    auto ScatterBlock = [=](Index Begin, Index End, int, int) {
      for (Index S = Begin; S < End; ++S)
        Self->scatterSpectrum(*G, int(S));
    };
    return exec::submitCachedLaunch(Backend, Ctx, Stats, NumFieldSpectra,
                                    /*GrainHint=*/1, std::move(ScatterBlock),
                                    Restored, Cache);
  }

private:
  using Cplx = std::complex<Real>;

  /// Spectrum slots: Ex,Ey,Ez (0-2), Bx,By,Bz (3-5), Jx,Jy,Jz (6-8).
  /// The first six round-trip (transform + update + inverse + scatter);
  /// J is forward-only input.
  static constexpr int NumSpectra = 9;
  static constexpr int NumFieldSpectra = 6;

  ScalarLattice<Real> &component(YeeGrid<Real> &Grid, int Spectrum) const {
    switch (Spectrum) {
    case 0:
      return Grid.Ex;
    case 1:
      return Grid.Ey;
    case 2:
      return Grid.Ez;
    case 3:
      return Grid.Bx;
    case 4:
      return Grid.By;
    case 5:
      return Grid.Bz;
    case 6:
      return Grid.Jx;
    case 7:
      return Grid.Jy;
    case 8:
      return Grid.Jz;
    }
    unreachable("bad spectrum index");
  }

  /// Sizes the nine spectrum buffers once (no-op after the first step).
  void prepareBuffers() {
    for (auto &S : Spectra)
      S.resize(Fft.size());
  }

  void gatherSpectrum(YeeGrid<Real> &Grid, int S) {
    const auto &Raw = component(Grid, S).raw();
    std::vector<Cplx> &Out = Spectra[std::size_t(S)];
    for (std::size_t I = 0; I < Raw.size(); ++I)
      Out[I] = Cplx(Raw[I], Real(0));
  }

  void scatterSpectrum(YeeGrid<Real> &Grid, int S) {
    auto &Raw = component(Grid, S).raw();
    const std::vector<Cplx> &In = Spectra[std::size_t(S)];
    for (std::size_t I = 0; I < Raw.size(); ++I)
      Raw[I] = In[I].real();
  }

  /// The exact per-mode update over flat k-space indices
  /// [\p Begin, \p End) — the whole physics of the solver. Modes are
  /// mutually independent, so any partition of the range yields the
  /// same bits.
  void updateModes(Index Begin, Index End, Real Dt) {
    std::vector<Cplx> *E = &Spectra[0]; // Ex,Ey,Ez
    std::vector<Cplx> *B = &Spectra[3]; // Bx,By,Bz
    std::vector<Cplx> *J = &Spectra[6]; // Jx,Jy,Jz
    const Real FourPi = Real(4) * Real(constants::Pi);
    for (Index FlatI = Begin; FlatI < End; ++FlatI) {
      const std::size_t Flat = std::size_t(FlatI);
      // Wavevector of this mode.
      const std::size_t I = Flat / (std::size_t(Size.Ny) * std::size_t(Size.Nz));
      const std::size_t Jy = (Flat / std::size_t(Size.Nz)) % std::size_t(Size.Ny);
      const std::size_t Kz = Flat % std::size_t(Size.Nz);
      const Real Kx = fftFrequency<Real>(I, std::size_t(Size.Nx)) / Step.X;
      const Real Ky = fftFrequency<Real>(Jy, std::size_t(Size.Ny)) / Step.Y;
      const Real KzV = fftFrequency<Real>(Kz, std::size_t(Size.Nz)) / Step.Z;
      const Real K2 = Kx * Kx + Ky * Ky + KzV * KzV;

      Cplx Ex = E[0][Flat], Ey = E[1][Flat], Ez = E[2][Flat];
      Cplx Bx = B[0][Flat], By = B[1][Flat], Bz = B[2][Flat];
      const Cplx Jx = J[0][Flat] * FourPi, Jy_ = J[1][Flat] * FourPi,
                 Jz = J[2][Flat] * FourPi;

      if (K2 == Real(0)) {
        // Mean mode: E' = -4 pi J.
        E[0][Flat] = Ex - Jx * Dt;
        E[1][Flat] = Ey - Jy_ * Dt;
        E[2][Flat] = Ez - Jz * Dt;
        continue;
      }

      const Real KNorm = std::sqrt(K2);
      const Real Ux = Kx / KNorm, Uy = Ky / KNorm, Uz = KzV / KNorm;
      const Real W = C * KNorm;
      const Real Cos = std::cos(W * Dt);
      const Real Sin = std::sin(W * Dt);
      const Cplx IUnit(0, 1);

      // Longitudinal/transverse split of E and J along ^k.
      auto Dot3 = [&](Cplx X, Cplx Y, Cplx Z) {
        return X * Ux + Y * Uy + Z * Uz;
      };
      const Cplx EL = Dot3(Ex, Ey, Ez);
      const Cplx JL = Dot3(Jx, Jy_, Jz);
      const Cplx ETx = Ex - EL * Ux, ETy = Ey - EL * Uy, ETz = Ez - EL * Uz;
      const Cplx JTx = Jx - JL * Ux, JTy = Jy_ - JL * Uy, JTz = Jz - JL * Uz;

      // ^k x B and ^k x E_T and ^k x J_T.
      auto CrossU = [&](Cplx X, Cplx Y, Cplx Z, int D) {
        switch (D) {
        case 0:
          return Uy * Z - Uz * Y;
        case 1:
          return Uz * X - Ux * Z;
        default:
          return Ux * Y - Uy * X;
        }
      };

      Cplx NewE[3], NewB[3];
      const Cplx ET[3] = {ETx, ETy, ETz};
      const Cplx JT[3] = {JTx, JTy, JTz};
      const Cplx BV[3] = {Bx, By, Bz};
      for (int D = 0; D < 3; ++D) {
        const Cplx KxB = CrossU(BV[0], BV[1], BV[2], D);
        const Cplx KxE = CrossU(ET[0], ET[1], ET[2], D);
        const Cplx KxJ = CrossU(JT[0], JT[1], JT[2], D);
        // Transverse update + longitudinal drift.
        const Cplx LongPart =
            (D == 0 ? Ux : D == 1 ? Uy : Uz) * (EL - JL * Dt);
        NewE[D] = Cos * ET[D] + IUnit * Sin * KxB - (Sin / W) * JT[D] +
                  LongPart;
        NewB[D] = Cos * BV[D] - IUnit * Sin * KxE +
                  IUnit * ((Real(1) - Cos) / W) * KxJ;
      }
      E[0][Flat] = NewE[0];
      E[1][Flat] = NewE[1];
      E[2][Flat] = NewE[2];
      B[0][Flat] = NewB[0];
      B[1][Flat] = NewB[1];
      B[2][Flat] = NewB[2];
    }
  }

  /// Chunk size giving \p Tiles schedulable chunks over \p Items.
  static Index grainFor(Index Items, int Tiles) {
    const Index T = std::max<Index>(1, Index(Tiles));
    return (Items + T - 1) / T;
  }

  /// Submits the z → y → x pass chain over spectrum \p S; each pass is
  /// one launch whose items are the pass's independent 1-D lines.
  exec::ExecEvent submitPasses(exec::ExecutionBackend &Backend,
                               const exec::ExecutionContext &Ctx,
                               RunStats &Stats, int S, bool Inverse,
                               int Tiles, const exec::ExecEvent &After,
                               exec::KernelCache &Cache) {
    SpectralSolver *Self = this;
    exec::ExecEvent Prev = After;
    for (FftAxis Axis : {FftAxis::Z, FftAxis::Y, FftAxis::X}) {
      const Index Lines = Index(Fft.lineCount(Axis));
      auto PassBlock = [=](Index Begin, Index End, int, int) {
        std::vector<Cplx> Scratch;
        Cplx *Data = Self->Spectra[std::size_t(S)].data();
        for (Index L = Begin; L < End; ++L)
          Self->Fft.transformLine(Axis, std::size_t(L), Data, Inverse,
                                  Scratch);
      };
      Prev = exec::submitCachedLaunch(Backend, Ctx, Stats, Lines,
                                      grainFor(Lines, Tiles),
                                      std::move(PassBlock), {Prev}, Cache);
    }
    return Prev;
  }

  GridSize Size;
  Vector3<Real> Step;
  Real C;
  Fft3D<Real> Fft;
  /// Reusable k-space buffers (Ex..Ez, Bx..Bz, Jx..Jz), sized on first
  /// use — the former per-call scratch, hoisted so steps allocate
  /// nothing and tiled launches share stable storage.
  std::array<std::vector<Cplx>, NumSpectra> Spectra;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_SPECTRALSOLVER_H
