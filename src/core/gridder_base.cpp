#include "core/gridder.hpp"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/window.hpp"
#include "obs/obs.hpp"

namespace jigsaw::core {
namespace {

/// Publish the work performed by one adjoint()/forward() call to the
/// global counter registry under grid.<engine>.*. The engines batch their
/// counts into the call's GriddingStats, so this is one string build +
/// shard add per counter per *operation* — invisible next to the gridding
/// itself.
void publish_call(GridderKind kind, const char* op, const GriddingStats& call,
                  std::size_t samples_in) {
  if constexpr (!obs::kEnabled) {
    (void)kind; (void)op; (void)call; (void)samples_in;
    return;
  }
  const std::string prefix = "grid." + to_string(kind) + ".";
  obs::add(prefix + op + "_calls", 1);
  obs::add(prefix + "samples_in", samples_in);
  obs::add(prefix + "samples_processed", call.samples_processed);
  obs::add(prefix + "kernel_evals", call.kernel_evals);
  obs::add(prefix + "lut_lookups", call.lut_lookups);
  obs::add(prefix + "boundary_checks", call.boundary_checks);
  obs::add(prefix + "interpolations", call.interpolations);
  obs::add(prefix + "saturations", call.saturation_events);
  obs::add(prefix + "soft_error_flips", call.soft_error_flips);
  // Bin-overlap duplicates (only the binning engine processes a sample more
  // than once; everyone else publishes 0 and the add is dropped).
  if (call.samples_processed > samples_in) {
    obs::add(prefix + "bin_duplicates", call.samples_processed - samples_in);
  }
}

}  // namespace

std::string to_string(GridderKind k) {
  switch (k) {
    case GridderKind::Serial: return "serial";
    case GridderKind::OutputDriven: return "output-driven";
    case GridderKind::Binning: return "binning";
    case GridderKind::SliceDice: return "slice-and-dice";
    case GridderKind::Jigsaw: return "jigsaw";
    case GridderKind::Sparse: return "sparse-matrix";
    case GridderKind::FloatSerial: return "serial-f32";
    case GridderKind::Auto: return "auto";
  }
  return "unknown";
}

std::string gridder_kind_names() {
  return "serial, output-driven, binning, slice-dice, jigsaw, sparse, float, "
         "auto";
}

GridderKind parse_gridder_kind(const std::string& s) {
  if (s == "serial") return GridderKind::Serial;
  if (s == "output-driven") return GridderKind::OutputDriven;
  if (s == "binning") return GridderKind::Binning;
  if (s == "slice-dice" || s == "slice-and-dice") return GridderKind::SliceDice;
  if (s == "jigsaw") return GridderKind::Jigsaw;
  if (s == "sparse" || s == "sparse-matrix") return GridderKind::Sparse;
  if (s == "float" || s == "serial-f32") return GridderKind::FloatSerial;
  if (s == "auto" || s == "tuned") return GridderKind::Auto;
  throw std::invalid_argument("unknown engine '" + s +
                              "', valid: " + gridder_kind_names());
}

template <int D>
Gridder<D>::Gridder(std::int64_t n, const GridderOptions& options)
    : n_(n), options_(options) {
  JIGSAW_REQUIRE(n >= 2, "base grid size must be >= 2");
  JIGSAW_REQUIRE(options.sigma > 1.0 && options.sigma <= 4.0,
                 "oversampling factor out of range (1, 4]");
  const double gd = options.sigma * static_cast<double>(n);
  g_ = static_cast<std::int64_t>(std::llround(gd));
  JIGSAW_REQUIRE(std::fabs(gd - static_cast<double>(g_)) < 1e-9,
                 "sigma * N must be an integer, got " << gd);
  JIGSAW_REQUIRE(options.width >= 1, "kernel width must be >= 1");
  JIGSAW_REQUIRE(g_ >= options.width,
                 "oversampled grid smaller than the kernel window");
  kernel_ = kernels::make_kernel(options.kernel, options.width, options.sigma);
  lut_ = std::make_unique<kernels::KernelLut>(*kernel_,
                                              options.table_oversampling);
}

GriddingStats& GriddingStats::operator+=(const GriddingStats& o) {
  boundary_checks += o.boundary_checks;
  samples_processed += o.samples_processed;
  interpolations += o.interpolations;
  lut_lookups += o.lut_lookups;
  kernel_evals += o.kernel_evals;
  grid_bytes_touched += o.grid_bytes_touched;
  saturation_events += o.saturation_events;
  soft_error_flips += o.soft_error_flips;
  presort_seconds += o.presort_seconds;
  grid_seconds += o.grid_seconds;
  return *this;
}

template <int D>
GriddingStats Gridder<D>::adjoint(SampleView<D> in, Grid<D>& out) const {
  using robustness::SanitizePolicy;
  JIGSAW_OBS_SPAN(span, "grid.adjoint/" + to_string(kind()));
  GriddingStats call;
  if (options_.sanitize == SanitizePolicy::None) {
    robustness::SanitizeReport report;
    report.scanned = in.size();
    report.kept = in.size();
    do_adjoint(in, out, call);
    record("adjoint", call, in.size(), std::move(report));
    return call;
  }
  auto outcome =
      robustness::sanitize<D>(in, options_.sanitize, options_.threads);
  // A clean input never takes the copy path, so sanitization is a bit-exact
  // no-op on valid data (asserted by the robustness tests).
  if (outcome.report.modified()) {
    do_adjoint(outcome.samples, out, call);
  } else {
    do_adjoint(in, out, call);
  }
  record("adjoint", call, in.size(), std::move(outcome.report));
  return call;
}

template <int D>
GriddingStats Gridder<D>::forward(const Grid<D>& in,
                                  SampleSlots<D> out) const {
  using robustness::SanitizePolicy;
  JIGSAW_OBS_SPAN(span, "grid.forward/" + to_string(kind()));
  GriddingStats call;
  robustness::SanitizeReport report;
  report.policy = options_.sanitize;
  report.scanned = out.size();
  report.kept = out.size();
  std::vector<Coord<D>> repaired;
  if (options_.sanitize != SanitizePolicy::None) {
    // Samples are output slots here: repair coordinates (Strict still
    // throws), never drop.
    repaired.assign(out.coords.begin(), out.coords.end());
    const std::size_t changed = robustness::clamp_coords<D>(repaired);
    if (options_.sanitize == SanitizePolicy::Strict) {
      JIGSAW_REQUIRE(changed == 0,
                     "forward(): " << changed
                         << " sample coordinates are non-finite or off the "
                            "torus (strict sanitize policy)");
    }
    report.out_of_range_coords = changed;
    report.defective_samples = changed;
    report.repaired = changed;
    if (changed > 0) out.coords = repaired;
  }
  do_forward(in, out, call);
  record("forward", call, out.size(), std::move(report));
  return call;
}

template <int D>
void Gridder<D>::record(const char* op, const GriddingStats& call,
                        std::size_t samples_in,
                        robustness::SanitizeReport report) const {
  publish_call(kind(), op, call, samples_in);
  std::lock_guard<std::mutex> lock(mu_);
  stats_ += call;
  sanitize_report_ = std::move(report);
}

template <int D>
robustness::SanitizeReport Gridder<D>::last_sanitize_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sanitize_report_;
}

template <int D>
GriddingStats Gridder<D>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

template <int D>
void Gridder<D>::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = GriddingStats{};
}

template <int D>
void Gridder<D>::do_forward(const Grid<D>& in, SampleSlots<D> out,
                            GriddingStats& stats) const {
  JIGSAW_REQUIRE(in.size() == g_, "grid size mismatch in forward()");
  const int w = options_.width;
  const std::int64_t g = g_;
  const auto m = static_cast<std::int64_t>(out.size());
  Timer timer;

  auto work = [&](std::int64_t begin, std::int64_t end, unsigned) {
    std::int64_t idx[3][64];
    double wt[3][64];
    for (std::int64_t j = begin; j < end; ++j) {
      for (int d = 0; d < D; ++d) {
        window_1d(out.coords[static_cast<std::size_t>(j)]
                  [static_cast<std::size_t>(d)],
                  idx[d], wt[d]);
      }
      c64 acc{};
      if constexpr (D == 1) {
        for (int ox = 0; ox < w; ++ox) {
          acc += wt[0][ox] * in[idx[0][ox]];
        }
      } else if constexpr (D == 2) {
        for (int oy = 0; oy < w; ++oy) {
          const std::int64_t row = idx[0][oy] * g;
          const double wy = wt[0][oy];
          for (int ox = 0; ox < w; ++ox) {
            acc += (wy * wt[1][ox]) * in[row + idx[1][ox]];
          }
        }
      } else {
        for (int oz = 0; oz < w; ++oz) {
          const std::int64_t zoff = idx[0][oz] * g * g;
          for (int oy = 0; oy < w; ++oy) {
            const std::int64_t row = zoff + idx[1][oy] * g;
            const double wzy = wt[0][oz] * wt[1][oy];
            for (int ox = 0; ox < w; ++ox) {
              acc += (wzy * wt[2][ox]) * in[row + idx[2][ox]];
            }
          }
        }
      }
      out.values[static_cast<std::size_t>(j)] = acc;
    }
  };

  if (options_.threads <= 1) {
    work(0, m, 0);
  } else {
    ThreadPool pool(options_.threads);
    pool.parallel_for(m, work);
  }

  stats.grid_seconds += timer.seconds();
  stats.interpolations +=
      static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(pow_dim<D>(w));
  stats.add_weight_ops(static_cast<std::uint64_t>(m) *
                           static_cast<std::uint64_t>(D) *
                           static_cast<std::uint64_t>(w),
                       options_.exact_weights);
}

template class Gridder<1>;
template class Gridder<2>;
template class Gridder<3>;

}  // namespace jigsaw::core
