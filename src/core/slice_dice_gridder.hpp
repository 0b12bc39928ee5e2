// Slice-and-Dice gridder — the paper's contribution (Sec. III).
//
// The target grid is broken into virtual tiles of side T (T >= W) which are
// conceptually stacked into "dice". One worker is assigned to each of the
// T^d relative positions ("columns"); because the window is no wider than a
// tile, a sample affects at most one point per column. Samples are *not*
// presorted: a two-part decomposition of each coordinate (quotient = tile
// coordinate, remainder = relative coordinate) replaces binning. The column
// worker derives, per sample, (a) whether it is affected — the forward
// distance fd = (rel - c) mod T must be < W — and (b) which entry of its
// private accumulation array is hit — the global tile address, decremented
// in a dimension when the relative coordinate is smaller than the column
// index (tile wrap, Fig. 4).
//
// Storage uses the stacked-tile ("dice") layout: each column's accumulators
// are contiguous, which is what gives the hardware/GPU implementations
// their locality (the memory trace hook emits dice addresses).
//
// Two execution modes:
//   * direct (default): per sample, enumerate exactly the W^d affected
//     columns — what each live pipeline computes; fastest on a CPU.
//   * model-faithful (options.model_faithful_checks): per sample, test all
//     T^d columns, counting exactly M * T^d boundary checks — the work the
//     hardware performs in parallel. Results are identical (tested).
#pragma once

#include <algorithm>
#include <atomic>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/window.hpp"
#include "fft/plan_cache.hpp"

namespace jigsaw::core {

template <int D>
class SliceDiceGridder final : public Gridder<D> {
 public:
  SliceDiceGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {
    const std::int64_t t = options.tile;
    JIGSAW_REQUIRE(t >= options.width,
                   "virtual tile must be at least as wide as the window (T="
                       << t << ", W=" << options.width << ")");
    JIGSAW_REQUIRE(this->g_ % t == 0,
                   "virtual tile size must divide the oversampled grid (G="
                       << this->g_ << ", T=" << t << ")");
    ntiles_ = this->g_ / t;
  }

  GridderKind kind() const override { return GridderKind::SliceDice; }

  std::int64_t tiles_per_dim() const { return ntiles_; }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const std::int64_t t = this->options_.tile;
    const std::int64_t columns = pow_dim<D>(t);
    const std::int64_t tile_count = pow_dim<D>(ntiles_);
    fft::ScratchLease lease(static_cast<std::size_t>(columns * tile_count));
    c64* dice = lease.data();
    std::fill_n(dice, lease.size(), c64{});

    Timer timer;
    if (this->options_.model_faithful_checks) {
      adjoint_columns(in, dice, stats);
    } else {
      adjoint_direct(in, dice, stats);
    }
    stats.grid_seconds += timer.seconds();

    // Readout: dice layout -> row-major grid.
    readout(dice, out);
  }

 private:
  struct DimSelect {
    std::int64_t column;   // relative position c in [0, T)
    std::int64_t tile;     // wrapped tile coordinate q in [0, ntiles)
    double weight;
  };

  /// Per-dimension select logic for one sample: fills `sel[k]` for the W
  /// affected columns. The weight of column k is the LUT (or kernel) value
  /// at the integer grid point gint = floor(us) - k, dist = gint - u in
  /// (-W/2, W/2].
  void select_dim(double tau, DimSelect* sel) const {
    const int w = this->options_.width;
    const std::int64_t t = this->options_.tile;
    const double u = grid_coord(tau, this->g_);
    const double us = u + static_cast<double>(w) * 0.5;  // shifted coordinate
    const Decomposed dec = decompose(us, static_cast<int>(t));
    const auto fl = static_cast<std::int64_t>(dec.relative);  // floor(rel)
    for (int k = 0; k < w; ++k) {
      std::int64_t c = fl - k;
      std::int64_t q = dec.tile;
      if (c < 0) {  // tile wrap: relative coordinate below column index
        c += t;
        q -= 1;
      }
      const std::int64_t gint = dec.tile * t + fl - k;
      sel[k].column = c;
      sel[k].tile = pos_mod(q, ntiles_);
      sel[k].weight = this->weight_1d(static_cast<double>(gint) - u);
    }
  }

  void accumulate(c64* dice, std::int64_t addr, c64 v,
                  bool use_atomics) const {
    c64& slot = dice[addr];
    if (use_atomics) {
      auto* p = reinterpret_cast<double*>(&slot);
      std::atomic_ref<double> re(p[0]);
      std::atomic_ref<double> im(p[1]);
      re.fetch_add(v.real(), std::memory_order_relaxed);
      im.fetch_add(v.imag(), std::memory_order_relaxed);
    } else {
      slot += v;
    }
    this->trace_grid_access(addr, /*write=*/true);
  }

  void adjoint_direct(SampleView<D> in, c64* dice,
                      GriddingStats& stats) const {
    const int w = this->options_.width;
    const std::int64_t t = this->options_.tile;
    const std::int64_t tile_count = pow_dim<D>(ntiles_);
    const auto m = static_cast<std::int64_t>(in.size());
    const bool parallel = this->options_.threads > 1;

    auto work = [&](std::int64_t begin, std::int64_t end, unsigned) {
      DimSelect sel[3][64];
      for (std::int64_t j = begin; j < end; ++j) {
        const c64 f = in.values[static_cast<std::size_t>(j)];
        for (int d = 0; d < D; ++d) {
          select_dim(in.coords[static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(d)],
                     sel[d]);
        }
        if constexpr (D == 1) {
          for (int kx = 0; kx < w; ++kx) {
            const auto& sx = sel[0][kx];
            accumulate(dice, sx.column * tile_count + sx.tile, sx.weight * f,
                       parallel);
          }
        } else if constexpr (D == 2) {
          for (int ky = 0; ky < w; ++ky) {
            const auto& sy = sel[0][ky];
            const c64 fy = sy.weight * f;
            for (int kx = 0; kx < w; ++kx) {
              const auto& sx = sel[1][kx];
              const std::int64_t col = sy.column * t + sx.column;
              const std::int64_t tile_addr = sy.tile * ntiles_ + sx.tile;
              accumulate(dice, col * tile_count + tile_addr, sx.weight * fy,
                         parallel);
            }
          }
        } else {
          for (int kz = 0; kz < w; ++kz) {
            const auto& sz = sel[0][kz];
            const c64 fz = sz.weight * f;
            for (int ky = 0; ky < w; ++ky) {
              const auto& sy = sel[1][ky];
              const c64 fzy = sy.weight * fz;
              for (int kx = 0; kx < w; ++kx) {
                const auto& sx = sel[2][kx];
                const std::int64_t col =
                    (sz.column * t + sy.column) * t + sx.column;
                const std::int64_t tile_addr =
                    (sz.tile * ntiles_ + sy.tile) * ntiles_ + sx.tile;
                accumulate(dice, col * tile_count + tile_addr, sx.weight * fzy,
                           parallel);
              }
            }
          }
        }
      }
    };

    if (!parallel) {
      work(0, m, 0);
    } else {
      ThreadPool pool(this->options_.threads);
      pool.parallel_for(m, work);
    }

    const auto window_points = static_cast<std::uint64_t>(pow_dim<D>(w));
    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.boundary_checks +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.grid_bytes_touched +=
        static_cast<std::uint64_t>(m) * window_points * sizeof(c64);
    stats.add_weight_ops(static_cast<std::uint64_t>(m) *
                             static_cast<std::uint64_t>(D) *
                             static_cast<std::uint64_t>(w),
                         this->options_.exact_weights);
  }

  /// Model-faithful mode: every column checks every sample, exactly as the
  /// T^d hardware pipelines / GPU thread block do in parallel.
  void adjoint_columns(SampleView<D> in, c64* dice,
                       GriddingStats& stats) const {
    const int w = this->options_.width;
    const std::int64_t t = this->options_.tile;
    const std::int64_t columns = pow_dim<D>(t);
    const std::int64_t tile_count = pow_dim<D>(ntiles_);
    const auto m = static_cast<std::int64_t>(in.size());

    // Column-parallel (output-driven across columns; no synchronization,
    // each column owns its accumulation array).
    auto work = [&](std::int64_t col_begin, std::int64_t col_end, unsigned) {
      for (std::int64_t col = col_begin; col < col_end; ++col) {
        const Index<D> c = unlinear_index<D>(col, t);
        for (std::int64_t j = 0; j < m; ++j) {
          // Two-part boundary check in every dimension.
          double wt = 1.0;
          std::int64_t tile_addr = 0;
          bool affected = true;
          for (int d = 0; d < D; ++d) {
            const double u = grid_coord(
                in.coords[static_cast<std::size_t>(j)]
                         [static_cast<std::size_t>(d)],
                this->g_);
            const double us = u + static_cast<double>(w) * 0.5;
            const Decomposed dec =
                decompose(us, static_cast<int>(t));
            const double cd =
                static_cast<double>(c[static_cast<std::size_t>(d)]);
            // Forward distance fd = (rel - c) mod T.
            double fd = dec.relative - cd;
            std::int64_t q = dec.tile;
            if (fd < 0.0) {
              fd += static_cast<double>(t);
              q -= 1;  // wrap: relative coordinate < column index
            }
            if (!(fd < static_cast<double>(w))) {
              affected = false;
              break;
            }
            q = pos_mod(q, ntiles_);
            tile_addr = tile_addr * ntiles_ + q;
            // dist = g - u with g = floor(us) - k and fd = frac + k:
            const auto k = static_cast<std::int64_t>(fd);
            const std::int64_t gint =
                dec.tile * t + static_cast<std::int64_t>(dec.relative) - k;
            wt *= this->weight_1d(static_cast<double>(gint) - u);
          }
          if (!affected) continue;
          const std::int64_t addr = col * tile_count + tile_addr;
          dice[addr] += wt * in.values[static_cast<std::size_t>(j)];
          this->trace_grid_access(addr, /*write=*/true);
        }
      }
    };

    if (this->options_.threads <= 1) {
      work(0, columns, 0);
    } else {
      ThreadPool pool(this->options_.threads);
      pool.parallel_for(columns, work);
    }

    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.boundary_checks +=
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(columns);
    const auto window_points = static_cast<std::uint64_t>(pow_dim<D>(w));
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.add_weight_ops(static_cast<std::uint64_t>(m) * window_points *
                             static_cast<std::uint64_t>(D),
                         this->options_.exact_weights);
  }

  void readout(const c64* dice, Grid<D>& out) const {
    for (std::int64_t lin = 0; lin < out.total(); ++lin) {
      out[lin] = dice[dice_offset<D>(lin, this->g_, this->options_.tile,
                                     ntiles_)];
    }
  }

  std::int64_t ntiles_;
};

}  // namespace jigsaw::core
