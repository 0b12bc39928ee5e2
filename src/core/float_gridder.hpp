// Single-precision (float32) gridder — the numeric configuration of the
// paper's GPU implementations.
//
// "The GPU implementation of Slice-and-Dice uses single-precision
// floating-point values to closely match the prior work" (Sec. V), and
// Sec. VI-C compares 32-bit float against JIGSAW's 32-bit fixed point
// (NRMSD 0.047% vs 0.012%). This engine performs the LUT lookup,
// per-dimension weight product and grid accumulation entirely in float32,
// converting only at the API boundary, so those comparisons can be made
// with a first-class library engine.
#pragma once

#include <complex>
#include <vector>

#include "common/timer.hpp"
#include "core/gridder.hpp"
#include "core/window.hpp"

namespace jigsaw::core {

template <int D>
class FloatGridder final : public Gridder<D> {
 public:
  FloatGridder(std::int64_t n, const GridderOptions& options)
      : Gridder<D>(n, options) {
    lut32_.resize(this->lut_->entries());
    for (std::size_t i = 0; i < lut32_.size(); ++i) {
      lut32_[i] = static_cast<float>(
          this->lut_->entry(static_cast<std::int32_t>(i)));
    }
  }

  GridderKind kind() const override { return GridderKind::FloatSerial; }

  void do_adjoint(SampleView<D> in, Grid<D>& out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(out.size() == this->g_, "grid size mismatch in adjoint()");
    const int w = this->options_.width;
    const std::int64_t g = this->g_;
    std::vector<std::complex<float>> grid32(
        static_cast<std::size_t>(out.total()));
    Timer timer;

    std::int64_t idx[3][64];
    float wt[3][64];
    const auto m = static_cast<std::int64_t>(in.size());
    for (std::int64_t j = 0; j < m; ++j) {
      const auto& vj = in.values[static_cast<std::size_t>(j)];
      const std::complex<float> f(static_cast<float>(vj.real()),
                                  static_cast<float>(vj.imag()));
      for (int d = 0; d < D; ++d) {
        window_1d_f32(in.coords[static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(d)],
                      idx[d], wt[d]);
      }
      if constexpr (D == 1) {
        for (int ox = 0; ox < w; ++ox) {
          grid32[static_cast<std::size_t>(idx[0][ox])] += wt[0][ox] * f;
        }
      } else if constexpr (D == 2) {
        for (int oy = 0; oy < w; ++oy) {
          const std::int64_t row = idx[0][oy] * g;
          const std::complex<float> fy = wt[0][oy] * f;
          for (int ox = 0; ox < w; ++ox) {
            grid32[static_cast<std::size_t>(row + idx[1][ox])] +=
                wt[1][ox] * fy;
          }
        }
      } else {
        for (int oz = 0; oz < w; ++oz) {
          const std::complex<float> fz = wt[0][oz] * f;
          for (int oy = 0; oy < w; ++oy) {
            const std::int64_t row = (idx[0][oz] * g + idx[1][oy]) * g;
            const std::complex<float> fzy = wt[1][oy] * fz;
            for (int ox = 0; ox < w; ++ox) {
              grid32[static_cast<std::size_t>(row + idx[2][ox])] +=
                  wt[2][ox] * fzy;
            }
          }
        }
      }
    }
    // Boundary conversion to the double API.
    for (std::int64_t i = 0; i < out.total(); ++i) {
      const auto& v = grid32[static_cast<std::size_t>(i)];
      out[i] = c64(v.real(), v.imag());
    }

    const auto window_points = static_cast<std::uint64_t>(pow_dim<D>(w));
    stats.grid_seconds += timer.seconds();
    stats.samples_processed += static_cast<std::uint64_t>(m);
    stats.interpolations +=
        static_cast<std::uint64_t>(m) * window_points;
    stats.lut_lookups += static_cast<std::uint64_t>(m) *
                         static_cast<std::uint64_t>(D) *
                         static_cast<std::uint64_t>(w);
  }

  void do_forward(const Grid<D>& in, SampleSlots<D> out,
                  GriddingStats& stats) const override {
    JIGSAW_REQUIRE(in.size() == this->g_, "grid size mismatch in forward()");
    const int w = this->options_.width;
    const std::int64_t g = this->g_;
    std::vector<std::complex<float>> grid32(
        static_cast<std::size_t>(in.total()));
    for (std::int64_t i = 0; i < in.total(); ++i) {
      grid32[static_cast<std::size_t>(i)] =
          std::complex<float>(static_cast<float>(in[i].real()),
                              static_cast<float>(in[i].imag()));
    }
    Timer timer;
    std::int64_t idx[3][64];
    float wt[3][64];
    const auto m = static_cast<std::int64_t>(out.size());
    for (std::int64_t j = 0; j < m; ++j) {
      for (int d = 0; d < D; ++d) {
        window_1d_f32(out.coords[static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(d)],
                      idx[d], wt[d]);
      }
      std::complex<float> acc{};
      if constexpr (D == 1) {
        for (int ox = 0; ox < w; ++ox) {
          acc += wt[0][ox] * grid32[static_cast<std::size_t>(idx[0][ox])];
        }
      } else if constexpr (D == 2) {
        for (int oy = 0; oy < w; ++oy) {
          const std::int64_t row = idx[0][oy] * g;
          for (int ox = 0; ox < w; ++ox) {
            acc += (wt[0][oy] * wt[1][ox]) *
                   grid32[static_cast<std::size_t>(row + idx[1][ox])];
          }
        }
      } else {
        for (int oz = 0; oz < w; ++oz) {
          for (int oy = 0; oy < w; ++oy) {
            const std::int64_t row = (idx[0][oz] * g + idx[1][oy]) * g;
            const float wzy = wt[0][oz] * wt[1][oy];
            for (int ox = 0; ox < w; ++ox) {
              acc += (wzy * wt[2][ox]) *
                     grid32[static_cast<std::size_t>(row + idx[2][ox])];
            }
          }
        }
      }
      out.values[static_cast<std::size_t>(j)] = c64(acc.real(), acc.imag());
    }
    stats.grid_seconds += timer.seconds();
    stats.interpolations += static_cast<std::uint64_t>(m) *
                            static_cast<std::uint64_t>(pow_dim<D>(w));
  }

 private:
  /// window_1d with float32 LUT weights.
  void window_1d_f32(double tau, std::int64_t* idx, float* wt) const {
    const int w = this->options_.width;
    const double u = grid_coord(tau, this->g_);
    const std::int64_t g0 = window_start(u, w);
    for (int o = 0; o < w; ++o) {
      idx[o] = pos_mod(g0 + o, this->g_);
      const double dist = static_cast<double>(g0 + o) - u;
      wt[o] = lut32_[static_cast<std::size_t>(
          this->lut_->index_of(dist < 0 ? -dist : dist))];
    }
  }

  std::vector<float> lut32_;
};

}  // namespace jigsaw::core
