// Multi-coil (SENSE) MRI reconstruction on top of the NuFFT.
//
// Modern MRI acquires with arrays of receive coils; each coil sees the
// image modulated by its complex spatial sensitivity. Reconstruction then
// solves  min_x sum_c || F S_c x - y_c ||^2  where S_c multiplies by coil
// c's sensitivity map and F is the forward NuFFT over the non-Cartesian
// trajectory. This is precisely the iterative, NuFFT-per-step workload the
// paper's introduction motivates (refs [5], [28], [30] — the Impatient
// toolkit itself is a SENSE solver), so it is the flagship integration
// exercise for the gridding engines.
//
// Synthetic birdcage-style sensitivity maps substitute for measured coil
// calibrations (DESIGN.md §1).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/nufft.hpp"
#include "core/recon.hpp"

namespace jigsaw::core {

/// Complex coil sensitivity maps over an n x n FOV, row-major per coil.
struct CoilMaps {
  std::int64_t n = 0;
  int coils = 0;
  std::vector<std::vector<c64>> maps;  // maps[c][pixel]

  const std::vector<c64>& map(int c) const {
    return maps[static_cast<std::size_t>(c)];
  }
};

/// Synthetic birdcage-style array: `coils` smooth complex Gaussians placed
/// on a ring around the FOV, phases rotating with coil angle, normalized so
/// the voxel-wise sum of squared magnitudes is ~1 inside the FOV.
CoilMaps make_birdcage_maps(std::int64_t n, int coils,
                            double coil_radius = 0.6,
                            double coil_width = 0.45);

/// Simulate a multi-coil acquisition: y_c = forward_nufft(S_c .* image).
/// Returns coils x M sample values.
std::vector<std::vector<c64>> simulate_multicoil(
    const NufftPlan<2>& plan, const CoilMaps& maps,
    const std::vector<c64>& image);

/// The SENSE normal-equations operator  A^H W A = sum_c S_c^H F^H W F S_c
/// and right-hand side  A^H W y = sum_c S_c^H F^H W y_c, where W is an
/// optional diagonal per-sample weighting (a density compensation). Empty
/// `weights` means W = I; otherwise it holds one weight per plan sample.
///
/// `coil_threads > 1` processes coils concurrently: that many threads call
/// the one const plan (each transform leases its own work grid; a sparse
/// plan's matrix is shared), and per-coil results are then reduced in coil
/// order. Each coil's transform is computed identically whichever thread
/// runs it and the reduction order is fixed, so the output is bit-exact for
/// any thread count — including coil_threads == 1, which skips the pool
/// entirely.
class SenseOperator {
 public:
  SenseOperator(const NufftPlan<2>& plan, const CoilMaps& maps,
                unsigned coil_threads = 1,
                std::span<const double> weights = {});

  /// b = A^H W y for multi-coil data y (coils x M). The deadline is checked
  /// before every coil's transform (DeadlineExceeded on expiry).
  std::vector<c64> adjoint(const std::vector<std::vector<c64>>& y,
                           const Deadline& deadline = Deadline()) const;

  /// (A^H W A) x. Deadline semantics as in adjoint().
  std::vector<c64> gram(const std::vector<c64>& x,
                        const Deadline& deadline = Deadline()) const;

  unsigned coil_threads() const { return coil_threads_; }

 private:
  /// sum_c S_c^H transform(c): the coil transforms run coil-parallel when
  /// configured, and their images are summed in coil order either way.
  /// Serially each image is added as soon as it exists.
  std::vector<c64> coil_sum(
      const std::function<std::vector<c64>(int)>& transform) const;
  /// v .* W, in place; nothing when W = I.
  void weigh(std::vector<c64>& v) const;

  const NufftPlan<2>& plan_;
  const CoilMaps& maps_;
  std::span<const double> weights_;
  unsigned coil_threads_;
};

/// CG-SENSE reconstruction. `y[c]` holds coil c's k-space samples at the
/// plan's coordinates. `coil_threads` parallelizes the per-coil NuFFTs of
/// every operator application (see SenseOperator); the result is bit-exact
/// across thread counts. The deadline is enforced at phase boundaries
/// (right-hand side, per CG iteration, per coil transform); an expired
/// deadline raises DeadlineExceeded promptly — before any transform work
/// when it was already expired on entry.
///
/// `warm_start` seeds CG with a previous frame's image (streaming entry
/// point, same contract as iterative_recon): CG still converges to the
/// same fixed point, a good seed just gets there in fewer iterations; a
/// size mismatch silently falls back to the cold zero start.
///
/// `weights` makes it weighted CG-SENSE on  A^H W A x = A^H W y  (see
/// SenseOperator); empty solves the unweighted normal equations.
std::vector<c64> cg_sense(const NufftPlan<2>& plan, const CoilMaps& maps,
                          const std::vector<std::vector<c64>>& y,
                          int max_iterations = 15, double tolerance = 1e-6,
                          CgResult* result = nullptr,
                          unsigned coil_threads = 1,
                          const Deadline& deadline = Deadline(),
                          const std::vector<c64>* warm_start = nullptr,
                          std::span<const double> weights = {});

}  // namespace jigsaw::core
