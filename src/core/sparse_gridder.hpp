// Precomputed sparse-matrix gridder — MIRT's second operating mode.
//
// The paper's baseline toolbox (MIRT [7]) "relies on optimized matrix
// processing ... using both interpolation table and sparse matrix
// implementations". This engine implements the sparse-matrix mode: during
// plan construction the full M x G^d interpolation operator is materialized
// in CSR form (row = sample, entries = the W^d window weights); the adjoint
// is then a transposed SpMV (scatter) and the forward a plain SpMV
// (gather). Weights are computed once, so repeated transforms over a fixed
// trajectory — the iterative-reconstruction workload of the paper's
// introduction — avoid all per-transform kernel evaluation at the cost of
// O(M * W^d) precomputation time and memory (16 bytes per nonzero).
//
// This engine is the "precompute everything" endpoint of the design space
// the paper explores (binning presorts indices; Slice-and-Dice presorts
// nothing; the sparse matrix presorts indices *and* weights).
#pragma once

#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/window.hpp"
#include "obs/obs.hpp"

namespace jigsaw::core {

template <int D>
class SparseGridder final : public Gridder<D> {
 public:
  SparseGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {}

  GridderKind kind() const override { return GridderKind::Sparse; }

  /// Nonzeros currently cached (0 before the first transform).
  std::size_t nonzeros() const {
    const auto matrix = current();
    return matrix ? matrix->weights.size() : 0;
  }

  /// Bytes of precomputed matrix state.
  std::size_t matrix_bytes() const {
    return nonzeros() * (sizeof(double) + sizeof(std::int64_t));
  }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const auto matrix = matrix_for(in.coords, stats);
    const auto& columns = matrix->columns;
    const auto& weights = matrix->weights;
    out.clear();
    Timer timer;
    const auto m = static_cast<std::int64_t>(in.size());
    const std::int64_t row_nnz = pow_dim<D>(this->options_.width);
    for (std::int64_t j = 0; j < m; ++j) {
      const c64 f = in.values[static_cast<std::size_t>(j)];
      const std::size_t base = static_cast<std::size_t>(j * row_nnz);
      for (std::int64_t e = 0; e < row_nnz; ++e) {
        const std::int64_t lin = columns[base + static_cast<std::size_t>(e)];
        out[lin] += weights[base + static_cast<std::size_t>(e)] * f;
        this->trace_grid_access(lin, /*write=*/true);
      }
    }
    stats.grid_seconds += timer.seconds();
    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(row_nnz);
    stats.grid_bytes_touched += static_cast<std::uint64_t>(m) *
                                static_cast<std::uint64_t>(row_nnz) *
                                sizeof(c64);
  }

  void do_forward(const Grid<D>& in, SampleSlots<D> out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(in.size() == this->g_, "grid size mismatch in forward()");
    const auto matrix = matrix_for(out.coords, stats);
    const auto& columns = matrix->columns;
    const auto& weights = matrix->weights;
    Timer timer;
    const auto m = static_cast<std::int64_t>(out.size());
    const std::int64_t row_nnz = pow_dim<D>(this->options_.width);
    for (std::int64_t j = 0; j < m; ++j) {
      const std::size_t base = static_cast<std::size_t>(j * row_nnz);
      c64 acc{};
      for (std::int64_t e = 0; e < row_nnz; ++e) {
        acc += weights[base + static_cast<std::size_t>(e)] *
               in[columns[base + static_cast<std::size_t>(e)]];
      }
      out.values[static_cast<std::size_t>(j)] = acc;
    }
    stats.grid_seconds += timer.seconds();
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(row_nnz);
  }

 private:
  /// The CSR interpolation matrix for one coordinate set. The row count is
  /// fixed at W^D nonzeros per sample, so no row-pointer array is needed.
  struct Matrix {
    std::vector<Coord<D>> coords;  // the coordinates it was built for
    std::vector<std::int64_t> columns;
    std::vector<double> weights;
  };

  std::shared_ptr<const Matrix> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return matrix_;
  }

  /// Bitwise coordinate match: a NaN or signed-zero coordinate compares
  /// like any other value, and the compare runs at memcmp speed.
  static bool built_for(const std::shared_ptr<const Matrix>& matrix,
                        std::span<const Coord<D>> coords) {
    return matrix != nullptr && matrix->coords.size() == coords.size() &&
           (coords.empty() || std::memcmp(matrix->coords.data(), coords.data(),
                                          coords.size_bytes()) == 0);
  }

  /// The matrix for `coords`. The common case compares against the cached
  /// matrix outside the lock; otherwise it is built under the lock, so
  /// concurrent first calls build it once, and a replacement never changes
  /// a matrix another call is still reading. The build's work is counted
  /// into the calling transform's `stats`.
  std::shared_ptr<const Matrix> matrix_for(std::span<const Coord<D>> coords,
                                           GriddingStats& stats) const {
    if (auto cached = current(); built_for(cached, coords)) return cached;
    std::lock_guard<std::mutex> lock(mu_);
    if (built_for(matrix_, coords)) return matrix_;
    Timer timer;
    auto matrix = std::make_shared<Matrix>();
    matrix->coords.assign(coords.begin(), coords.end());
    const int w = this->options_.width;
    const std::int64_t g = this->g_;
    const std::int64_t row_nnz = pow_dim<D>(w);
    const auto m = static_cast<std::int64_t>(coords.size());
    auto& columns = matrix->columns;
    auto& weights = matrix->weights;
    columns.resize(static_cast<std::size_t>(m * row_nnz));
    weights.resize(static_cast<std::size_t>(m * row_nnz));

    std::int64_t idx[3][64];
    double wt[3][64];
    for (std::int64_t j = 0; j < m; ++j) {
      for (int d = 0; d < D; ++d) {
        this->window_1d(coords[static_cast<std::size_t>(j)]
                        [static_cast<std::size_t>(d)],
                        idx[d], wt[d]);
      }
      std::size_t base = static_cast<std::size_t>(j * row_nnz);
      if constexpr (D == 1) {
        for (int ox = 0; ox < w; ++ox) {
          columns[base] = idx[0][ox];
          weights[base] = wt[0][ox];
          ++base;
        }
      } else if constexpr (D == 2) {
        for (int oy = 0; oy < w; ++oy) {
          const std::int64_t row = idx[0][oy] * g;
          for (int ox = 0; ox < w; ++ox) {
            columns[base] = row + idx[1][ox];
            weights[base] = wt[0][oy] * wt[1][ox];
            ++base;
          }
        }
      } else {
        for (int oz = 0; oz < w; ++oz) {
          for (int oy = 0; oy < w; ++oy) {
            const std::int64_t row = (idx[0][oz] * g + idx[1][oy]) * g;
            const double wzy = wt[0][oz] * wt[1][oy];
            for (int ox = 0; ox < w; ++ox) {
              columns[base] = row + idx[2][ox];
              weights[base] = wzy * wt[2][ox];
              ++base;
            }
          }
        }
      }
    }
    // Build time is plan-phase work: reported as presort, not grid time.
    stats.presort_seconds += timer.seconds();
    stats.add_weight_ops(static_cast<std::uint64_t>(m) *
                             static_cast<std::uint64_t>(D) *
                             static_cast<std::uint64_t>(w),
                         this->options_.exact_weights);
    obs::add("grid.sparse-matrix.matrix_builds", 1);
    matrix_ = std::move(matrix);
    return matrix_;
  }

  mutable std::mutex mu_;
  mutable std::shared_ptr<const Matrix> matrix_;
};

}  // namespace jigsaw::core
