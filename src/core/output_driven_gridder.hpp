// Naive output-driven parallel gridder — the strawman of Sec. II-C.
//
// One "thread" per uniform grid point accumulates every sample affecting it.
// Output-parallel execution needs no synchronization (disjoint writes), but
// there is no way to know whether a point is affected without a distance
// boundary check, so M checks are performed for each of the G^d grid
// points — M * G^d in total, the vast majority of which fail. This engine
// exists to quantify that cost (ablation E8); do not use it on large
// problems.
#pragma once

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/window.hpp"

namespace jigsaw::core {

template <int D>
class OutputDrivenGridder final : public Gridder<D> {
 public:
  OutputDrivenGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {
    // The folded-distance boundary check needs a unique torus
    // representative per grid point.
    JIGSAW_REQUIRE(this->g_ > options.width,
                   "oversampled grid must exceed the window width");
  }

  GridderKind kind() const override { return GridderKind::OutputDriven; }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const std::int64_t g = this->g_;
    out.clear();
    Timer timer;

    // Precompute grid-unit coordinates and window starts once.
    const auto m = static_cast<std::int64_t>(in.size());
    std::vector<std::array<double, D>> u;
    std::vector<std::array<std::int64_t, D>> w0;
    this->window_starts(in, u, w0);

    const std::int64_t total = out.total();
    std::uint64_t interpolations = 0;

    auto work = [&](std::int64_t begin, std::int64_t end, unsigned) {
      std::uint64_t local_interp = 0;
      for (std::int64_t lin = begin; lin < end; ++lin) {
        const Index<D> p = unlinear_index<D>(lin, g);
        c64 acc{};
        for (std::int64_t j = 0; j < m; ++j) {
          // Boundary check: the point must fall inside the sample's
          // interpolation window (see Gridder::point_weight).
          double wt = 0.0;
          const auto js = static_cast<std::size_t>(j);
          if (!this->point_weight(p, u[js], w0[js], wt)) continue;
          acc += wt * in.values[js];
          ++local_interp;
        }
        out[lin] = acc;
        this->trace_grid_access(lin, /*write=*/true);
      }
      // Single aggregated update below; races avoided via chunk-local count.
      __atomic_fetch_add(&interpolations, local_interp, __ATOMIC_RELAXED);
    };

    if (this->options_.threads <= 1) {
      work(0, total, 0);
    } else {
      ThreadPool pool(this->options_.threads);
      pool.parallel_for(total, work);
    }

    stats.grid_seconds += timer.seconds();
    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.boundary_checks +=
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(total);
    stats.interpolations += interpolations;
    stats.grid_bytes_touched +=
        static_cast<std::uint64_t>(total) * sizeof(c64);
  }
};

}  // namespace jigsaw::core
