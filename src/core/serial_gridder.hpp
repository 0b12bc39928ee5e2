// Input-driven serial gridder — the CPU baseline (MIRT-like).
//
// Processes the (randomly ordered) samples one at a time, scattering each
// sample's W^d windowed contribution into the full-size output grid. Quick
// to determine affected points and free of write conflicts, but with poor
// memory locality: nearly every grid update is a cache miss on real problem
// sizes (paper Sec. II-C).
#pragma once

#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/window.hpp"

namespace jigsaw::core {

template <int D>
class SerialGridder final : public Gridder<D> {
 public:
  SerialGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {}

  GridderKind kind() const override { return GridderKind::Serial; }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const int w = this->options_.width;
    const std::int64_t g = this->g_;
    out.clear();
    Timer timer;

    std::int64_t idx[3][64];
    double wt[3][64];
    const auto m = static_cast<std::int64_t>(in.size());
    for (std::int64_t j = 0; j < m; ++j) {
      const c64 f = in.values[static_cast<std::size_t>(j)];
      for (int d = 0; d < D; ++d) {
        this->window_1d(in.coords[static_cast<std::size_t>(j)]
                        [static_cast<std::size_t>(d)],
                        idx[d], wt[d]);
      }
      if constexpr (D == 1) {
        for (int ox = 0; ox < w; ++ox) {
          const std::int64_t lin = idx[0][ox];
          out[lin] += wt[0][ox] * f;
          this->trace_grid_access(lin, /*write=*/true);
        }
      } else if constexpr (D == 2) {
        for (int oy = 0; oy < w; ++oy) {
          const std::int64_t row = idx[0][oy] * g;
          const c64 fy = wt[0][oy] * f;
          for (int ox = 0; ox < w; ++ox) {
            const std::int64_t lin = row + idx[1][ox];
            out[lin] += wt[1][ox] * fy;
            this->trace_grid_access(lin, /*write=*/true);
          }
        }
      } else {
        for (int oz = 0; oz < w; ++oz) {
          const std::int64_t zoff = idx[0][oz] * g * g;
          const c64 fz = wt[0][oz] * f;
          for (int oy = 0; oy < w; ++oy) {
            const std::int64_t row = zoff + idx[1][oy] * g;
            const c64 fzy = wt[1][oy] * fz;
            for (int ox = 0; ox < w; ++ox) {
              const std::int64_t lin = row + idx[2][ox];
              out[lin] += wt[2][ox] * fzy;
              this->trace_grid_access(lin, /*write=*/true);
            }
          }
        }
      }
    }

    const auto window_points = static_cast<std::uint64_t>(pow_dim<D>(w));
    stats.grid_seconds += timer.seconds();
    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.interpolations += static_cast<std::uint64_t>(m) * window_points;
    stats.grid_bytes_touched +=
        static_cast<std::uint64_t>(m) * window_points * sizeof(c64);
    stats.add_weight_ops(static_cast<std::uint64_t>(m) *
                             static_cast<std::uint64_t>(D) *
                             static_cast<std::uint64_t>(w),
                         this->options_.exact_weights);
  }
};

}  // namespace jigsaw::core
