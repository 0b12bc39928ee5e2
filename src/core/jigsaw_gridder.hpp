// Functional (untimed) model of the JIGSAW accelerator's gridding.
//
// Streams the samples once, in order, through the fixed-point datapath of
// jigsaw_datapath.hpp — exactly the arithmetic the cycle-level simulator
// performs, minus the timing. Use this engine to study JIGSAW's numerical
// behaviour (Fig. 9) cheaply; use jigsaw::CycleSim when cycle counts and
// activity-based energy are needed. The two are bit-exact (tested).
//
// The forward (re-gridding) direction falls back to the base double-
// precision implementation: the paper's accelerator targets the adjoint
// gridding step.
#pragma once

#include <mutex>
#include <vector>

#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/jigsaw_datapath.hpp"
#include "core/window.hpp"
#include "robustness/soft_error.hpp"

namespace jigsaw::core {

template <int D>
class JigsawGridder final : public Gridder<D> {
 public:
  JigsawGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {
    const std::int64_t t = options.tile;
    JIGSAW_REQUIRE((t & (t - 1)) == 0,
                   "JIGSAW tile size must be a power of two, got " << t);
    JIGSAW_REQUIRE(t >= options.width,
                   "virtual tile must be at least as wide as the window");
    JIGSAW_REQUIRE(this->g_ % t == 0,
                   "tile size must divide the oversampled grid");
    JIGSAW_REQUIRE(
        (options.table_oversampling & (options.table_oversampling - 1)) == 0,
        "table oversampling factor must be a power of two");
    ntiles_ = this->g_ / t;
    int log2_l = 0;
    while ((1 << log2_l) < options.table_oversampling) ++log2_l;
    JIGSAW_REQUIRE(log2_l <= datapath::kCoordFracBits,
                   "table oversampling exceeds coordinate precision");
    select_cfg_ = datapath::SelectConfig{
        options.width, t, ntiles_, log2_l,
        static_cast<std::int32_t>(this->lut_->entries()) - 1};
  }

  GridderKind kind() const override { return GridderKind::Jigsaw; }

  std::int64_t tiles_per_dim() const { return ntiles_; }

  /// Scale exponent used by the last adjoint() / forward() call.
  int scale_log2() const {
    std::lock_guard<std::mutex> lock(last_mu_);
    return last_scale_log2_;
  }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const int w = this->options_.width;
    const std::int64_t t = this->options_.tile;
    const std::int64_t columns = pow_dim<D>(t);
    const std::int64_t tile_count = pow_dim<D>(ntiles_);
    std::vector<fixed::CData32> dice(
        static_cast<std::size_t>(columns * tile_count));

    const int scale_exp = this->options_.fixed_scale_log2 != INT_MIN
                              ? this->options_.fixed_scale_log2
                              : datapath::auto_scale_log2(in.values);
    const double scale = std::ldexp(1.0, scale_exp);

    Timer timer;
    const auto m = static_cast<std::int64_t>(in.size());
    std::uint64_t saturations = 0;
    // Soft-error campaign hook: possibly flip one bit per accumulation-SRAM
    // write (inactive and draw-free at the default rate of 0).
    robustness::SoftErrorInjector seu(this->options_.soft_error);
    for (std::int64_t j = 0; j < m; ++j) {
      const c64 fv = in.values[static_cast<std::size_t>(j)] * scale;
      const fixed::CData32 value = fixed::CData32::from_c64(fv);
      visit_window(in.coords[static_cast<std::size_t>(j)],
                   [&](std::int64_t addr, const datapath::CWeight32& wt) {
                     auto& slot = dice[static_cast<std::size_t>(addr)];
                     saturations += datapath::accumulate(
                         slot, datapath::interpolate(wt, value));
                     seu.corrupt(slot);
                     this->trace_grid_access(addr, /*write=*/true);
                   });
    }
    stats.grid_seconds += timer.seconds();

    // Readout: dequantize into the row-major grid.
    const double descale = 1.0 / scale;
    for (std::int64_t lin = 0; lin < out.total(); ++lin) {
      const auto addr = dice_offset<D>(lin, this->g_, t, ntiles_);
      out[lin] = dice[static_cast<std::size_t>(addr)].to_c64() * descale;
    }

    const auto window_points = static_cast<std::uint64_t>(pow_dim<D>(w));
    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.boundary_checks +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.lut_lookups += static_cast<std::uint64_t>(m) *
                         static_cast<std::uint64_t>(D) *
                         static_cast<std::uint64_t>(w);
    stats.saturation_events += saturations;
    stats.soft_error_flips += seu.flips();
    keep_last(std::move(dice), scale_exp);
  }

  /// Fixed-point forward interpolation (re-gridding): the symmetric
  /// operation for the forward NuFFT (paper Fig. 1). The grid is quantized
  /// into the dice SRAM layout and each sample gathers its W^D windowed
  /// contributions through the same select / weight-lookup / interpolate
  /// datapath, accumulating into a per-sample register. Bit-exact with
  /// jigsaw::CycleSim::run_2d_forward (tested).
  void do_forward(const Grid<D>& in, SampleSlots<D> out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(in.size() == this->g_, "grid size mismatch in forward()");
    const int w = this->options_.width;
    const std::int64_t t = this->options_.tile;
    const std::int64_t tile_count = pow_dim<D>(ntiles_);

    // Quantize the grid into dice-layout fixed point.
    const int scale_exp =
        this->options_.fixed_scale_log2 != INT_MIN
            ? this->options_.fixed_scale_log2
            : datapath::auto_scale_log2(
                  std::span<const c64>(in.data(),
                                       static_cast<std::size_t>(in.total())));
    const double scale = std::ldexp(1.0, scale_exp);
    std::vector<fixed::CData32> dice(
        static_cast<std::size_t>(pow_dim<D>(t) * tile_count));
    for (std::int64_t lin = 0; lin < in.total(); ++lin) {
      const auto addr = dice_offset<D>(lin, this->g_, t, ntiles_);
      dice[static_cast<std::size_t>(addr)] =
          fixed::CData32::from_c64(in[lin] * scale);
    }

    Timer timer;
    const auto m = static_cast<std::int64_t>(out.size());
    std::uint64_t saturations = 0;
    const double descale = 1.0 / scale;
    for (std::int64_t j = 0; j < m; ++j) {
      fixed::CData32 acc{};
      visit_window(out.coords[static_cast<std::size_t>(j)],
                   [&](std::int64_t addr, const datapath::CWeight32& wt) {
                     saturations += datapath::accumulate(
                         acc, datapath::interpolate(
                                  wt, dice[static_cast<std::size_t>(addr)]));
                   });
      out.values[static_cast<std::size_t>(j)] = acc.to_c64() * descale;
    }
    stats.grid_seconds += timer.seconds();
    const auto window_points = static_cast<std::uint64_t>(pow_dim<D>(w));
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.lut_lookups += static_cast<std::uint64_t>(m) *
                         static_cast<std::uint64_t>(D) *
                         static_cast<std::uint64_t>(w);
    stats.saturation_events += saturations;
    keep_last(std::move(dice), scale_exp);
  }

  /// Raw fixed-point dice contents of the last adjoint() call (the
  /// quantized grid after a forward()) — used by the bit-exactness test
  /// against jigsaw::CycleSim.
  std::vector<fixed::CData32> dice() const {
    std::lock_guard<std::mutex> lock(last_mu_);
    return last_dice_;
  }

 private:
  /// The datapath's select stage for one dimension of a sample at torus
  /// coordinate `tau`: the W (column, tile, LUT index) selects and their
  /// 16-bit weights.
  void select_1d(double tau, datapath::DimSelect* sel,
                 fixed::CWeight16* wsel) const {
    const int w = this->options_.width;
    const std::int64_t us_q =
        datapath::quantize_coord(grid_coord(tau, this->g_)) +
        (static_cast<std::int64_t>(w) << (datapath::kCoordFracBits - 1));
    for (int k = 0; k < w; ++k) {
      sel[k] = datapath::select_dim(us_q, k, select_cfg_);
      wsel[k] = fixed::CWeight16{this->lut_->entry_fixed(sel[k].lut_index),
                                 fixed::Weight16{}};
    }
  }

  /// One sample through the select stage, then its W^D window points in
  /// datapath order: f(dice address, combined 32-bit weight).
  template <typename F>
  void visit_window(const Coord<D>& coord, F&& f) const {
    const int w = this->options_.width;
    const std::int64_t t = this->options_.tile;
    const std::int64_t tile_count = pow_dim<D>(ntiles_);
    datapath::DimSelect sel[3][64];
    fixed::CWeight16 wsel[3][64];
    for (std::size_t d = 0; d < D; ++d) select_1d(coord[d], sel[d], wsel[d]);
    if constexpr (D == 1) {
      for (int kx = 0; kx < w; ++kx) {
        f(sel[0][kx].column * tile_count + sel[0][kx].tile,
          datapath::widen_weight(wsel[0][kx]));
      }
    } else if constexpr (D == 2) {
      for (int ky = 0; ky < w; ++ky) {
        const auto& sy = sel[0][ky];
        for (int kx = 0; kx < w; ++kx) {
          const auto& sx = sel[1][kx];
          f((sy.column * t + sx.column) * tile_count + sy.tile * ntiles_ +
                sx.tile,
            datapath::combine_weights(wsel[0][ky], wsel[1][kx]));
        }
      }
    } else {
      for (int kz = 0; kz < w; ++kz) {
        const auto& sz = sel[0][kz];
        for (int ky = 0; ky < w; ++ky) {
          const auto& sy = sel[1][ky];
          const auto wzy = datapath::combine_weights(wsel[0][kz], wsel[1][ky]);
          for (int kx = 0; kx < w; ++kx) {
            const auto& sx = sel[2][kx];
            const std::int64_t col =
                (sz.column * t + sy.column) * t + sx.column;
            const std::int64_t tile_addr =
                (sz.tile * ntiles_ + sy.tile) * ntiles_ + sx.tile;
            f(col * tile_count + tile_addr,
              datapath::combine_weights(wzy, wsel[2][kx]));
          }
        }
      }
    }
  }

  /// Keep a finished call's dice and scale exponent for the accessors.
  void keep_last(std::vector<fixed::CData32> dice, int scale_exp) const {
    std::lock_guard<std::mutex> lock(last_mu_);
    last_dice_ = std::move(dice);
    last_scale_log2_ = scale_exp;
  }

  std::int64_t ntiles_;
  datapath::SelectConfig select_cfg_;
  mutable std::mutex last_mu_;
  mutable std::vector<fixed::CData32> last_dice_;
  mutable int last_scale_log2_ = 0;
};

}  // namespace jigsaw::core
