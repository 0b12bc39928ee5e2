// Binning gridder — geometric tiling with pre-sorted bins (Impatient-like).
//
// The uniform grid is broken into tiles of side B chosen to fit an on-chip
// cache; a presort pass assigns every sample to the bin of each tile its
// interpolation window touches (samples near tile edges are duplicated into
// up to 2^d bins). Tile-bin pairs are then processed output-driven: every
// uniform point of the tile performs a boundary check against every sample
// of the bin (Fig. 3a). This reproduces the three overheads the paper
// attributes to binning: the presort pass, duplicate sample processing, and
// B^d-per-sample boundary checks. Weights come from the LUT, as in every
// engine; GridderOptions::exact_weights evaluates them on-line instead, as
// Impatient evaluates its Kaiser-Bessel kernel during processing (paper
// Sec. VI.A reason (1)).
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/window.hpp"

namespace jigsaw::core {

template <int D>
class BinningGridder final : public Gridder<D> {
 public:
  BinningGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {
    const std::int64_t b = options.tile;
    JIGSAW_REQUIRE(b >= 1 && this->g_ % b == 0,
                   "bin tile size must divide the oversampled grid (G="
                       << this->g_ << ", B=" << b << ")");
    tiles_per_dim_ = this->g_ / b;
    // A window must not wrap onto the same tile twice (that would place a
    // sample in one bin twice and double-count it), and the folded-distance
    // boundary check needs a unique torus representative.
    JIGSAW_REQUIRE(tiles_per_dim_ >= (options.width - 1) / b + 2,
                   "grid too small for this tile/window combination (G="
                       << this->g_ << ", B=" << b << ", W="
                       << options.width << ")");
    JIGSAW_REQUIRE(this->g_ > options.width,
                   "oversampled grid must exceed the window width");
  }

  GridderKind kind() const override { return GridderKind::Binning; }

  std::int64_t tiles_per_dim() const { return tiles_per_dim_; }

  /// Presort samples into per-tile bins. Returns bins of sample indices;
  /// exposed publicly so tests can assert duplicate-placement behaviour.
  std::vector<std::vector<std::int32_t>> presort(
      SampleView<D> in) const {
    const int w = this->options_.width;
    const std::int64_t g = this->g_;
    const std::int64_t b = this->options_.tile;
    const std::int64_t ntiles = pow_dim<D>(tiles_per_dim_);
    std::vector<std::vector<std::int32_t>> bins(
        static_cast<std::size_t>(ntiles));
    const auto m = static_cast<std::int64_t>(in.size());
    for (std::int64_t j = 0; j < m; ++j) {
      // Tile range per dimension covered by the window (wrapped).
      std::int64_t t0[3], t1[3];
      for (int d = 0; d < D; ++d) {
        const double u = grid_coord(
            in.coords[static_cast<std::size_t>(j)][static_cast<std::size_t>(d)],
            g);
        const std::int64_t g0 = window_start(u, w);
        t0[d] = g0 >= 0 ? g0 / b : (g0 - b + 1) / b;  // floor division
        const std::int64_t gend = g0 + w - 1;
        t1[d] = gend >= 0 ? gend / b : (gend - b + 1) / b;
      }
      // Cross product of tile ranges.
      Index<D> t{};
      for (int d = 0; d < D; ++d) t[static_cast<std::size_t>(d)] = t0[d];
      for (;;) {
        Index<D> wrapped{};
        for (int d = 0; d < D; ++d) {
          wrapped[static_cast<std::size_t>(d)] =
              pos_mod(t[static_cast<std::size_t>(d)], tiles_per_dim_);
        }
        bins[static_cast<std::size_t>(linear_index<D>(wrapped, tiles_per_dim_))]
            .push_back(static_cast<std::int32_t>(j));
        int d = D - 1;
        for (; d >= 0; --d) {
          if (++t[static_cast<std::size_t>(d)] <= t1[d]) break;
          t[static_cast<std::size_t>(d)] = t0[d];
        }
        if (d < 0) break;
      }
    }
    return bins;
  }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const std::int64_t g = this->g_;
    const std::int64_t b = this->options_.tile;
    out.clear();

    Timer presort_timer;
    const auto bins = presort(in);
    stats.presort_seconds += presort_timer.seconds();

    Timer timer;
    std::vector<std::array<double, D>> u;
    std::vector<std::array<std::int64_t, D>> w0;
    this->window_starts(in, u, w0);

    const std::int64_t ntiles = pow_dim<D>(tiles_per_dim_);
    const std::int64_t tile_points = pow_dim<D>(b);
    std::uint64_t checks = 0;
    std::uint64_t interpolations = 0;
    std::uint64_t duplicates = 0;

    auto work = [&](std::int64_t tile_begin, std::int64_t tile_end, unsigned) {
      std::uint64_t local_checks = 0, local_interp = 0, local_dups = 0;
      for (std::int64_t tl = tile_begin; tl < tile_end; ++tl) {
        const auto& bin = bins[static_cast<std::size_t>(tl)];
        if (bin.empty()) continue;
        local_dups += bin.size();
        const Index<D> tcoord = unlinear_index<D>(tl, tiles_per_dim_);
        // Output-driven: every point of the tile checks every bin sample.
        for (std::int64_t pl = 0; pl < tile_points; ++pl) {
          const Index<D> local = unlinear_index<D>(pl, b);
          Index<D> p{};
          for (int d = 0; d < D; ++d) {
            p[static_cast<std::size_t>(d)] =
                tcoord[static_cast<std::size_t>(d)] * b +
                local[static_cast<std::size_t>(d)];
          }
          const std::int64_t lin = linear_index<D>(p, g);
          c64 acc{};
          for (const std::int32_t j : bin) {
            ++local_checks;
            // The output-driven engine's boundary check
            // (Gridder::point_weight).
            double wt = 0.0;
            const auto js = static_cast<std::size_t>(j);
            if (!this->point_weight(p, u[js], w0[js], wt)) continue;
            acc += wt * in.values[js];
            ++local_interp;
          }
          // Tiles are disjoint, so no synchronization is needed here.
          out[lin] += acc;
          this->trace_grid_access(lin, /*write=*/true);
        }
      }
      __atomic_fetch_add(&checks, local_checks, __ATOMIC_RELAXED);
      __atomic_fetch_add(&interpolations, local_interp, __ATOMIC_RELAXED);
      __atomic_fetch_add(&duplicates, local_dups, __ATOMIC_RELAXED);
    };

    if (this->options_.threads <= 1) {
      work(0, ntiles, 0);
    } else {
      ThreadPool pool(this->options_.threads);
      pool.parallel_for(ntiles, work);
    }

    stats.grid_seconds += timer.seconds();
    stats.samples_processed += duplicates;  // includes bin duplicates
    stats.boundary_checks += checks;
    stats.interpolations += interpolations;
    stats.grid_bytes_touched += interpolations * sizeof(c64);
    stats.add_weight_ops(interpolations * static_cast<std::uint64_t>(D),
                         this->options_.exact_weights);
  }

 private:
  std::int64_t tiles_per_dim_;
};

}  // namespace jigsaw::core
