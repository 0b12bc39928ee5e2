// Gridding engine interface.
//
// A Gridder owns the interpolation configuration (kernel, width W, table
// oversampling L, oversampling factor sigma) and implements the adjoint
// (non-uniform samples -> uniform grid, "gridding") and forward (uniform
// grid -> non-uniform samples, "re-gridding") interpolation steps of the
// NuFFT. Five engines are provided, mirroring the implementations the paper
// evaluates:
//
//   Serial       — input-driven serial double precision (MIRT-like baseline;
//                  the default engine)
//   OutputDriven — naive output-parallel: every sample checked against every
//                  grid point (the strawman of Sec. II-C)
//   Binning      — geometric tiling with pre-sorted bins and per-tile-point
//                  boundary checks (Impatient-like [10])
//   SliceDice    — the paper's contribution: stacked virtual tiles, two-part
//                  coordinate decomposition, no presort (Sec. III)
//   Jigsaw       — bit-exact functional model of the JIGSAW fixed-point
//                  datapath (Sec. IV); shares arithmetic with jigsaw::CycleSim
//   Sparse       — precomputed CSR interpolation matrix (MIRT's sparse
//                  mode [7]): pay O(M*W^d) setup once, then SpMV applies
//
// All engines use the same window convention (see window.hpp) and therefore
// produce numerically identical grids in double precision — a property the
// test suite asserts.
#pragma once

#include <array>
#include <climits>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/sample_set.hpp"
#include "core/window.hpp"
#include "kernels/kernel.hpp"
#include "kernels/lut.hpp"
#include "memsim/cache.hpp"
#include "robustness/sanitize.hpp"
#include "robustness/soft_error.hpp"

namespace jigsaw::core {

enum class GridderKind {
  Serial,
  OutputDriven,
  Binning,
  SliceDice,
  Jigsaw,
  Sparse,
  FloatSerial,  // single-precision (the paper's GPU numeric configuration)
  Auto,         // choose by plan reuse: resolve_auto() below; make_gridder
                // resolves it as a one-shot plan
};

std::string to_string(GridderKind k);

/// Comma-separated list of the engine names parse_gridder_kind() accepts.
std::string gridder_kind_names();

/// Parse an engine name as accepted by the CLI and the serve protocol
/// (aliases included: "slice-and-dice", "sparse-matrix", "serial-f32").
/// Throws std::invalid_argument("unknown engine '<name>', valid: ...").
GridderKind parse_gridder_kind(const std::string& s);

/// The library's one default engine, which GridderOptions and every CLI,
/// client and wire default read: serial, the fastest one-shot engine on a
/// CPU.
inline constexpr GridderKind kDefaultEngine = GridderKind::Serial;

struct GridderOptions {
  GridderKind kind = kDefaultEngine;
  double sigma = 2.0;  // grid oversampling factor
  int width = 6;       // interpolation kernel width W
  int table_oversampling = 32;  // LUT factor L (power of two)
  kernels::KernelType kernel = kernels::KernelType::KaiserBessel;
  int tile = 8;        // virtual tile dimension T (SliceDice/Jigsaw) or
                       // bin tile dimension (Binning)
  unsigned threads = 1;
  bool exact_weights = false;  // evaluate the kernel on-line instead of the
                               // LUT, as Impatient does during processing
                               // (every engine defaults to the LUT)
  bool model_faithful_checks = false;  // SliceDice: check every column per
                                       // sample (exactly M*T^d checks, as the
                                       // hardware does in parallel) instead of
                                       // walking only the W^d affected columns
  int fixed_scale_log2 = INT_MIN;  // Jigsaw: input scaling exponent;
                                   // INT_MIN = choose automatically
  robustness::SanitizePolicy sanitize = robustness::SanitizePolicy::None;
                                   // degraded-input policy applied by
                                   // Gridder::adjoint/forward before the
                                   // engine runs (None = zero overhead)
  robustness::SoftErrorConfig soft_error;  // Jigsaw/CycleSim accumulation
                                           // SRAM bit-flip campaign hook
};

/// Work/traffic counters. The prose claims of Secs. II-III (boundary-check
/// counts, duplicate sample processing, presort cost) are validated against
/// these.
struct GriddingStats {
  std::uint64_t boundary_checks = 0;   // sample-vs-point/column distance tests
  std::uint64_t samples_processed = 0; // incl. duplicates from bin overlap
  std::uint64_t interpolations = 0;    // weighted accumulations to grid points
  std::uint64_t lut_lookups = 0;
  std::uint64_t kernel_evals = 0;      // on-line kernel evaluations
  std::uint64_t grid_bytes_touched = 0;
  std::uint64_t saturation_events = 0; // Jigsaw fixed-point accumulator clips
  std::uint64_t soft_error_flips = 0;  // injected accumulator bit flips
  double presort_seconds = 0.0;
  double grid_seconds = 0.0;

  GriddingStats& operator+=(const GriddingStats& o);

  /// Count `n` per-dimension weight computations: kernel evaluations under
  /// exact weights, LUT lookups otherwise.
  void add_weight_ops(std::uint64_t n, bool exact_weights) {
    (exact_weights ? kernel_evals : lut_lookups) += n;
  }
};

/// A gridder is immutable after construction: adjoint() and forward() are
/// const and safe to call concurrently on one instance. Every buffer a call
/// needs is call-local, and each call's work counts are published to obs
/// and added to stats() under one lock. (A memory tracer, when attached,
/// sees the calls' accesses interleaved; attach one only to a gridder that
/// a single thread drives.)
template <int D>
class Gridder {
 public:
  Gridder(std::int64_t n, const GridderOptions& options);
  virtual ~Gridder() = default;

  Gridder(const Gridder&) = delete;
  Gridder& operator=(const Gridder&) = delete;

  std::int64_t base_size() const { return n_; }   // N
  std::int64_t grid_size() const { return g_; }   // G = sigma * N
  const GridderOptions& options() const { return options_; }
  const kernels::Kernel& kernel() const { return *kernel_; }
  const kernels::KernelLut& lut() const { return *lut_; }

  virtual GridderKind kind() const = 0;

  /// Adjoint interpolation (gridding): accumulate every sample's windowed
  /// contribution onto `out` (cleared first). `out` must have side G.
  /// Applies the configured sanitize policy first (see GridderOptions):
  /// with SanitizePolicy::None the input reaches the engine untouched; a
  /// clean input is never copied under any policy, so sanitization is a
  /// bit-exact no-op on valid data. Returns this call's work counts.
  GriddingStats adjoint(SampleView<D> in, Grid<D>& out) const;

  /// Forward interpolation (re-gridding): evaluate the windowed sum of grid
  /// values at each sample coordinate. Under a non-None sanitize policy the
  /// coordinates are clamped onto the torus (samples are output slots here,
  /// so nothing is ever dropped). Returns this call's work counts.
  GriddingStats forward(const Grid<D>& in, SampleSlots<D> out) const;

  /// Report of the sanitization pass performed by the last adjoint() /
  /// forward() call to finish (empty when the policy is None).
  robustness::SanitizeReport last_sanitize_report() const;

  /// Work counts summed over every call since construction or
  /// reset_stats().
  GriddingStats stats() const;
  void reset_stats();

  /// Optional grid-memory trace sink (feeds memsim::Cache). Null disables.
  void set_tracer(memsim::MemTracer* tracer) { tracer_ = tracer; }

 protected:
  /// Engine hooks behind the sanitizing entry points above. Engines see
  /// only defect-free (or policy-repaired) samples and count their work
  /// into `stats`, which belongs to the call.
  virtual void do_adjoint(SampleView<D> in, Grid<D>& out,
                          GriddingStats& stats) const = 0;

  /// Default forward implementation is input-parallel; engines may override.
  virtual void do_forward(const Grid<D>& in, SampleSlots<D> out,
                          GriddingStats& stats) const;

  /// One-dimensional interpolation weight at signed distance `dist`,
  /// honoring the exact_weights option. Counter updates are the caller's
  /// responsibility (hot loops batch them).
  double weight_1d(double dist) const {
    if (options_.exact_weights) {
      return kernel_->evaluate(dist);
    }
    return lut_->weight(dist);
  }

  /// Wrapped grid indices and weights of one dimension's W-point window
  /// for a sample at torus coordinate `tau`.
  void window_1d(double tau, std::int64_t* idx, double* wt) const {
    const int w = options_.width;
    const double u = grid_coord(tau, g_);
    const std::int64_t g0 = window_start(u, w);
    for (int o = 0; o < w; ++o) {
      idx[o] = pos_mod(g0 + o, g_);
      wt[o] = weight_1d(static_cast<double>(g0 + o) - u);
    }
  }

  /// Grid coordinate u and window start of every sample: what the
  /// output-driven boundary checks test grid points against.
  void window_starts(SampleView<D> in, std::vector<std::array<double, D>>& u,
                     std::vector<std::array<std::int64_t, D>>& w0) const {
    u.resize(in.size());
    w0.resize(in.size());
    for (std::size_t j = 0; j < in.size(); ++j) {
      for (std::size_t d = 0; d < D; ++d) {
        u[j][d] = grid_coord(in.coords[j][d], g_);
        w0[j][d] = window_start(u[j][d], options_.width);
      }
    }
  }

  /// Output-driven boundary check of grid point p against one sample's
  /// window_starts() entry: false when p lies outside the window, else its
  /// weight in `wt`. Membership comes from the same window_start
  /// decomposition the input-driven engines use, so FP ties (a sample
  /// within one ULP of a grid point puts the W/2-edge exactly on a
  /// boundary) land the edge weight on the same side in every engine.
  bool point_weight(const Index<D>& p, const std::array<double, D>& u,
                    const std::array<std::int64_t, D>& w0, double& wt) const {
    double dist[D];
    for (std::size_t d = 0; d < D; ++d) {
      const std::int64_t o = pos_mod(p[d] - w0[d], g_);
      if (o >= options_.width) return false;
      dist[d] = static_cast<double>(w0[d] + o) - u[d];
    }
    wt = 1.0;
    for (std::size_t d = 0; d < D; ++d) wt *= weight_1d(dist[d]);
    return true;
  }

  void trace_grid_access(std::int64_t lin, bool write) const {
    if (tracer_ != nullptr) {
      tracer_->access(static_cast<std::uint64_t>(lin) * sizeof(c64),
                      sizeof(c64), write);
    }
  }

  std::int64_t n_;
  std::int64_t g_;
  GridderOptions options_;
  std::unique_ptr<kernels::Kernel> kernel_;
  std::unique_ptr<kernels::KernelLut> lut_;
  memsim::MemTracer* tracer_ = nullptr;

 private:
  /// Publish one call: obs counters under grid.<engine>.*, then the totals
  /// and the sanitize report under mu_.
  void record(const char* op, const GriddingStats& call,
              std::size_t samples_in, robustness::SanitizeReport report) const;

  mutable std::mutex mu_;
  mutable GriddingStats stats_;
  mutable robustness::SanitizeReport sanitize_report_;
};

/// Resolve GridderKind::Auto by plan reuse; other kinds pass through.
///   reused   -> Sparse: the matrix build pays for itself within a few
///               applications.
///   one-shot -> Serial: the direct input-driven interpolator, the fastest
///               engine that precomputes nothing.
/// Only the kind changes. Pure: the same arguments give the same options in
/// every process.
GridderOptions resolve_auto(GridderOptions options, bool reused);

/// Factory: build a gridder for base grid size N (per dimension).
template <int D>
std::unique_ptr<Gridder<D>> make_gridder(std::int64_t n,
                                         const GridderOptions& options);

extern template class Gridder<1>;
extern template class Gridder<2>;
extern template class Gridder<3>;
extern template std::unique_ptr<Gridder<1>> make_gridder<1>(
    std::int64_t, const GridderOptions&);
extern template std::unique_ptr<Gridder<2>> make_gridder<2>(
    std::int64_t, const GridderOptions&);
extern template std::unique_ptr<Gridder<3>> make_gridder<3>(
    std::int64_t, const GridderOptions&);

}  // namespace jigsaw::core
