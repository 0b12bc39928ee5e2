#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fft/plan_cache.hpp"
#include "obs/obs.hpp"

namespace jigsaw::fft {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Plain complex product: std::complex's operator* also runs the C99
/// inf/NaN recovery, which a finite FFT never needs.
inline c64 cmul(c64 a, c64 b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// One stage of the mixed-radix kernel: a radix-p butterfly that joins p
/// interleaved sub-transforms of length m each.
struct Stage {
  std::size_t p;
  std::size_t m;
};

/// The generic butterfly keeps its p inputs on the stack.
constexpr std::size_t kMaxGenericRadix = 7;

/// Whether every prime factor of n (n >= 1) is at most kMaxGenericRadix.
bool seven_smooth(std::size_t n) {
  for (const std::size_t p : {2, 3, 5, 7}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

/// Stages of a 7-smooth n, outermost first, taking fours before the single
/// two that may remain, then 3, 5 and 7 (the KISS FFT order).
std::vector<Stage> factor_small_radices(std::size_t n) {
  std::vector<Stage> stages;
  for (const std::size_t p : {4, 2, 3, 5, 7}) {
    while (n % p == 0) {
      n /= p;
      stages.push_back({p, n});
    }
  }
  return stages;
}

// Butterflies over f[k + q*m], q < p: the p sub-transforms' bin k, each
// twiddled by tw[q*k*fstride]. `tw` holds the n roots of the transform's
// own direction, so only the radix-4 rotation by ±i needs the direction.
// Every butterfly runs B lines at once ("lanes"): bin k of lane b is
// f[(k + q*m) * B + b], and each lane does exactly the arithmetic of a
// one-line transform, so any B gives the same bits. They are forced inline
// into the pass loop: left to GCC's choice, banded 2D executes of 64² to
// 256² ran 15-20 % slower (x86-64, -O3, one thread, min of 9).

template <std::size_t B>
[[gnu::always_inline]] inline void bfly2(c64* f, std::size_t fstride,
                                         const c64* tw, std::size_t m) {
  c64* g = f + m * B;
  for (std::size_t k = 0; k < m; ++k) {
    const c64 w = tw[k * fstride];
    for (std::size_t i = k * B; i < (k + 1) * B; ++i) {
      const c64 t = cmul(g[i], w);
      g[i] = f[i] - t;
      f[i] += t;
    }
  }
}

template <std::size_t B, bool Inverse>
[[gnu::always_inline]] inline void bfly4(c64* f, std::size_t fstride,
                                         const c64* tw, std::size_t m) {
  const std::size_t mb = m * B;
  for (std::size_t k = 0; k < m; ++k) {
    const c64 w1 = tw[k * fstride];
    const c64 w2 = tw[2 * k * fstride];
    const c64 w3 = tw[3 * k * fstride];
    for (std::size_t i = k * B; i < (k + 1) * B; ++i) {
      const c64 s0 = cmul(f[i + mb], w1);
      const c64 s1 = cmul(f[i + 2 * mb], w2);
      const c64 s2 = cmul(f[i + 3 * mb], w3);
      const c64 even = f[i] + s1;
      const c64 odd = f[i] - s1;
      const c64 s3 = s0 + s2;
      const c64 s4 = s0 - s2;
      // s4 times -i (forward) or +i (inverse).
      const c64 r = Inverse ? c64(-s4.imag(), s4.real())
                            : c64(s4.imag(), -s4.real());
      f[i] = even + s3;
      f[i + mb] = odd + r;
      f[i + 2 * mb] = even - s3;
      f[i + 3 * mb] = odd - r;
    }
  }
}

template <std::size_t B>
[[gnu::always_inline]] inline void bfly3(c64* f, std::size_t fstride,
                                         const c64* tw, std::size_t m) {
  const double sin3 = tw[fstride * m].imag();  // Im of the cube root
  const std::size_t mb = m * B;
  for (std::size_t k = 0; k < m; ++k) {
    const c64 w1 = tw[k * fstride];
    const c64 w2 = tw[2 * k * fstride];
    for (std::size_t i = k * B; i < (k + 1) * B; ++i) {
      const c64 s1 = cmul(f[i + mb], w1);
      const c64 s2 = cmul(f[i + 2 * mb], w2);
      const c64 sum = s1 + s2;
      const c64 d = (s1 - s2) * sin3;
      const c64 h = f[i] - 0.5 * sum;
      f[i] += sum;
      f[i + mb] = c64(h.real() - d.imag(), h.imag() + d.real());
      f[i + 2 * mb] = c64(h.real() + d.imag(), h.imag() - d.real());
    }
  }
}

template <std::size_t B>
[[gnu::always_inline]] inline void bfly5(c64* f, std::size_t fstride,
                                         const c64* tw, std::size_t m) {
  const c64 ya = tw[fstride * m];      // fifth root w
  const c64 yb = tw[2 * fstride * m];  // w^2
  const std::size_t mb = m * B;
  for (std::size_t k = 0; k < m; ++k) {
    const c64 w1 = tw[k * fstride];
    const c64 w2 = tw[2 * k * fstride];
    const c64 w3 = tw[3 * k * fstride];
    const c64 w4 = tw[4 * k * fstride];
    for (std::size_t i = k * B; i < (k + 1) * B; ++i) {
      const c64 s0 = f[i];
      const c64 s1 = cmul(f[i + mb], w1);
      const c64 s2 = cmul(f[i + 2 * mb], w2);
      const c64 s3 = cmul(f[i + 3 * mb], w3);
      const c64 s4 = cmul(f[i + 4 * mb], w4);
      // w^4 = conj(w) and w^3 = conj(w^2) pair the terms into sums and
      // differences.
      const c64 s7 = s1 + s4, s10 = s1 - s4;
      const c64 s8 = s2 + s3, s9 = s2 - s3;
      f[i] = s0 + s7 + s8;
      const c64 s5 = s0 + s7 * ya.real() + s8 * yb.real();
      const c64 s6(s10.imag() * ya.imag() + s9.imag() * yb.imag(),
                   -(s10.real() * ya.imag() + s9.real() * yb.imag()));
      f[i + mb] = s5 - s6;
      f[i + 4 * mb] = s5 + s6;
      const c64 s11 = s0 + s7 * yb.real() + s8 * ya.real();
      const c64 s12(s9.imag() * ya.imag() - s10.imag() * yb.imag(),
                    s10.real() * yb.imag() - s9.real() * ya.imag());
      f[i + 2 * mb] = s11 + s12;
      f[i + 3 * mb] = s11 - s12;
    }
  }
}

/// Direct p-point butterfly for an odd radix without its own kernel (7).
template <std::size_t B>
[[gnu::always_inline]] inline void bfly_generic(c64* f, std::size_t fstride,
                                                const c64* tw, std::size_t m,
                                                std::size_t p, std::size_t n) {
  c64 in[kMaxGenericRadix];
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t q = 0; q < p; ++q) in[q] = f[(u + q * m) * B + b];
      for (std::size_t q1 = 0; q1 < p; ++q1) {
        const std::size_t k = u + q1 * m;
        const std::size_t step = fstride * k;  // < n
        std::size_t idx = 0;
        c64 acc = in[0];
        for (std::size_t q = 1; q < p; ++q) {
          idx += step;
          if (idx >= n) idx -= n;
          acc += cmul(in[q], tw[idx]);
        }
        f[k * B + b] = acc;
      }
    }
  }
}

/// The butterfly passes over B lanes of n elements in digit-reversed
/// order, innermost stage first. A stage (p, m) joins each run of p*m
/// elements; the n / (p*m) runs are the p^s sub-transforms a recursive
/// decimation in time would join at that depth, with the same twiddle
/// stride.
template <std::size_t B, bool Inverse>
void run_passes(c64* a, const std::vector<Stage>& stages, const c64* tw,
                std::size_t n) {
  c64* const end = a + n * B;
  for (auto s = stages.rbegin(); s != stages.rend(); ++s) {
    const std::size_t p = s->p;
    const std::size_t m = s->m;
    const std::size_t fstride = n / (p * m);
    const std::size_t run = p * m * B;
    switch (p) {
      case 2:
        for (c64* f = a; f != end; f += run) bfly2<B>(f, fstride, tw, m);
        break;
      case 3:
        for (c64* f = a; f != end; f += run) bfly3<B>(f, fstride, tw, m);
        break;
      case 4:
        for (c64* f = a; f != end; f += run) {
          bfly4<B, Inverse>(f, fstride, tw, m);
        }
        break;
      case 5:
        for (c64* f = a; f != end; f += run) bfly5<B>(f, fstride, tw, m);
        break;
      default:
        for (c64* f = a; f != end; f += run) {
          bfly_generic<B>(f, fstride, tw, m, p, n);
        }
        break;
    }
  }
}

/// The mixed-radix decimation-in-time kernel of one 7-smooth length n,
/// powers of two included, run iteratively: gather the input in
/// digit-reversed order, then one butterfly pass per stage. It performs
/// exactly the butterflies of the textbook recursive form, each on the
/// same operands, so the two give the same bits.
struct Kernel {
  std::size_t n;
  std::vector<Stage> stages;  // outermost first
  // Element i of the digit-reversed order is input element digit_rev[i]:
  // the mixed-radix generalisation of the bit-reversal permutation.
  std::vector<std::uint32_t> digit_rev;
  // The n roots e^{-2*pi*i*k/n} per direction (forward, then inverse =
  // conjugate).
  std::vector<c64> roots[2];

  explicit Kernel(std::size_t length)
      : n(length), stages(factor_small_radices(length)), digit_rev(length) {
    for (std::size_t i = 0; i < n; ++i) {
      // Digit s of i, counted in units of m_s, picks sub-sequence q of
      // stage s, which starts at input element q * (p_0 * ... * p_{s-1}).
      std::size_t from = 0;
      std::size_t fstride = 1;
      for (const Stage& s : stages) {
        from += (i / s.m) % s.p * fstride;
        fstride *= s.p;
      }
      digit_rev[i] = static_cast<std::uint32_t>(from);
    }
    roots[0].resize(n);
    roots[1].resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double ang =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      roots[0][k] = c64(std::cos(ang), std::sin(ang));
      roots[1][k] = std::conj(roots[0][k]);
    }
  }

  /// Writes the transforms of B lines to out[i * B + b]: element i of lane
  /// b is read from in[i * stride + b * lane_step].
  template <std::size_t B>
  void transform(const c64* in, std::size_t stride, std::size_t lane_step,
                 Direction dir, c64* out) const {
    for (std::size_t i = 0; i < n; ++i) {
      const c64* from = in + digit_rev[i] * stride;
      for (std::size_t b = 0; b < B; ++b) out[i * B + b] = from[b * lane_step];
    }
    if (dir == Direction::Forward) {
      run_passes<B, false>(out, stages, roots[0].data(), n);
    } else {
      run_passes<B, true>(out, stages, roots[1].data(), n);
    }
  }
};

/// Bluestein's convolution length for n: the smallest 7-smooth m >= 2n-1.
std::size_t bluestein_length(std::size_t n) {
  std::size_t m = 2 * n - 1;
  while (!seven_smooth(m)) ++m;
  return m;
}

/// Whether index i of a g-point axis lies in the band of an n-point image
/// embedded at the grid's wrap-around centre (k in [-n/2, n - n/2) sits at
/// pos_mod(k, g)). Band 0 means no embedding: every index is in it.
bool in_band(std::size_t i, std::size_t g, std::size_t n) {
  return n == 0 || i < n - n / 2 || i >= g - n / 2;
}

/// Whether every coordinate of `index`, a row-major index over the axes
/// [first, last) of `dims`, lies in the band.
bool coords_in_band(std::size_t index, const std::vector<std::size_t>& dims,
                    std::size_t first, std::size_t last, std::size_t band) {
  for (std::size_t a = last; a > first; --a) {
    const std::size_t d = dims[a - 1];
    if (!in_band(index % d, d, band)) return false;
    index /= d;
  }
  return true;
}

/// A run of adjacent lines of one axis that FftNd transforms as one unit:
/// kLineGroup lines through Fft1D::execute_group, or one through
/// Fft1D::execute_strided.
struct LineGroup {
  std::size_t base;   // element offset of the first line
  std::size_t lanes;  // kLineGroup or 1
};

}  // namespace

struct Fft1D::Impl {
  // Runs length n itself when n is 7-smooth; otherwise Bluestein's
  // convolution of length bluestein_length(n).
  Kernel kernel;
  // Bluestein only:
  std::vector<c64> chirp;      // b[k] = e^{-i*pi*k^2/n} (forward direction)
  std::vector<c64> chirp_fft;  // FFT_m of the chirp filter e^{+i*pi*k^2/n}

  explicit Impl(std::size_t n)
      : kernel(seven_smooth(n) ? n : bluestein_length(n)) {
    if (kernel.n == n) return;
    const std::size_t m = kernel.n;
    chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      // Use k^2 mod 2n to avoid precision loss for large k.
      const std::uint64_t k2 = (static_cast<std::uint64_t>(k) * k) % (2 * n);
      const double ang = -std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
      chirp[k] = c64(std::cos(ang), std::sin(ang));
    }
    std::vector<c64> filter(m, c64{});
    filter[0] = std::conj(chirp[0]);
    for (std::size_t k = 1; k < n; ++k) {
      filter[k] = std::conj(chirp[k]);
      filter[m - k] = std::conj(chirp[k]);
    }
    chirp_fft.resize(m);
    kernel.transform<1>(filter.data(), 1, 0, Direction::Forward,
                        chirp_fft.data());
  }

  bool bluestein() const { return !chirp.empty(); }

  /// Bluestein's transform of the line data[k * stride], k < n:
  /// X[k] = conj(b[k]) * IFFT( FFT(a.*b) .* FFT(filter) ) with b[k] =
  /// chirp. For the inverse direction conjugate the chirps. Borrows its
  /// convolution scratch from the pool.
  void run_bluestein(c64* data, std::size_t stride, Direction dir) const {
    const std::size_t n = chirp.size();
    const std::size_t m = kernel.n;
    const bool forward = dir == Direction::Forward;
    ScratchLease lease(2 * m);
    c64* const a = lease.data();
    c64* const spectrum = a + m;
    for (std::size_t k = 0; k < n; ++k) {
      a[k] = data[k * stride] * (forward ? chirp[k] : std::conj(chirp[k]));
    }
    std::fill(a + n, a + m, c64{});
    kernel.transform<1>(a, 1, 0, Direction::Forward, spectrum);
    if (forward) {
      for (std::size_t k = 0; k < m; ++k) spectrum[k] *= chirp_fft[k];
    } else {
      // The conjugated filter's FFT is conj(chirp_fft) reversed:
      // FFT(conj(x))[k] = conj(FFT(x)[(m-k) mod m]).
      for (std::size_t k = 0; k < m; ++k) {
        spectrum[k] *= std::conj(chirp_fft[(m - k) % m]);
      }
    }
    kernel.transform<1>(spectrum, 1, 0, Direction::Inverse, a);
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t k = 0; k < n; ++k) {
      data[k * stride] =
          a[k] * inv_m * (forward ? chirp[k] : std::conj(chirp[k]));
    }
  }
};

// NOTE: no plan holds mutable state. Grouped and strided executes write
// through the caller's scratch block and Bluestein executes borrow convolution
// scratch from the global ScratchPool per call, so every plan is safe for
// concurrent execute() on distinct buffers. This is what allows
// FftPlanCache to hand one shared plan to many threads. Oversampled NuFFT
// grids (sigma*N with sigma=2) are 7-smooth whenever N is: the stream's
// N=48 grid is 96 = 2^5*3, and a Toeplitz operator at N=48 grids its PSF
// on 192. Bluestein is left for lengths with a prime factor above 7.

Fft1D::Fft1D(std::size_t n) : n_(n) {
  JIGSAW_REQUIRE(n >= 1, "FFT length must be >= 1, got " << n);
  // Bluestein's kernel length stays within the uint32 digit-reversal table.
  JIGSAW_REQUIRE(n <= (std::size_t{1} << 31),
                 "FFT length " << n << " exceeds 2^31");
  impl_ = std::make_unique<Impl>(n);
}

Fft1D::~Fft1D() = default;
Fft1D::Fft1D(Fft1D&&) noexcept = default;
Fft1D& Fft1D::operator=(Fft1D&&) noexcept = default;

void Fft1D::execute(c64* data, Direction dir) const {
  if (n_ == 1) return;
  if (impl_->bluestein()) {
    impl_->run_bluestein(data, 1, dir);
    return;
  }
  ScratchLease lease(n_);
  execute_lines<1>(data, 1, 0, dir, lease.data());
}

void Fft1D::execute_strided(c64* data, std::size_t stride, Direction dir,
                            c64* scratch) const {
  execute_lines<1>(data, stride, 0, dir, scratch);
}

void Fft1D::execute_group(c64* data, std::size_t stride,
                          std::size_t lane_step, Direction dir,
                          c64* scratch) const {
  execute_lines<kLineGroup>(data, stride, lane_step, dir, scratch);
}

template <std::size_t B>
void Fft1D::execute_lines(c64* data, std::size_t stride,
                          std::size_t lane_step, Direction dir,
                          c64* scratch) const {
  if (impl_->bluestein()) {
    // Bluestein lines run one at a time.
    for (std::size_t b = 0; b < B; ++b) {
      impl_->run_bluestein(data + b * lane_step, stride, dir);
    }
    return;
  }
  // Out of place from the lines into scratch, then back.
  impl_->kernel.transform<B>(data, stride, lane_step, dir, scratch);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t b = 0; b < B; ++b) {
      data[i * stride + b * lane_step] = scratch[i * B + b];
    }
  }
}

FftNd::FftNd(std::vector<std::size_t> dims) : dims_(std::move(dims)) {
  JIGSAW_REQUIRE(!dims_.empty(), "FftNd needs at least one dimension");
  total_ = 1;
  for (std::size_t d : dims_) {
    JIGSAW_REQUIRE(d >= 1, "FFT dimension must be >= 1");
    total_ *= d;
  }
  for (std::size_t d : dims_) {
    std::shared_ptr<Fft1D> plan;
    for (std::size_t j = 0; j < plans_.size(); ++j) {
      if (plans_[j]->size() == d) {
        plan = plans_[j];
        break;
      }
    }
    if (!plan) plan = std::make_shared<Fft1D>(d);
    plans_.push_back(std::move(plan));
  }
}

void FftNd::execute(c64* data, Direction dir, unsigned threads,
                    std::size_t band) const {
  obs::add("fft.execs", 1);
  obs::Span obs_span("fft.execute");
  const std::size_t ndim = dims_.size();
  for (const std::size_t d : dims_) {
    JIGSAW_REQUIRE(band <= d, "FFT band " << band << " exceeds dimension "
                                          << d);
  }
  const bool forward = dir == Direction::Forward;
  std::vector<LineGroup> groups;
  std::vector<c64> scratch;
  // For each dimension, transform the 1-D lines along it that the band
  // needs: a forward pass skips the lines out of band on an axis still to
  // come (they are zero), an inverse pass those out of band on an axis
  // already done (nobody reads them).
  for (std::size_t axis = 0; axis < ndim; ++axis) {
    const std::size_t n = dims_[axis];
    if (n == 1) continue;
    std::size_t stride = 1;
    for (std::size_t a = axis + 1; a < ndim; ++a) stride *= dims_[a];
    const std::size_t block = stride * n;  // elements spanned by one line set
    // Line l starts at first(l). Adjacent strided lines sit one element
    // apart within a block; adjacent contiguous lines (the last axis, a
    // row each) sit n elements apart everywhere.
    const std::size_t lane_step = stride == 1 ? n : 1;
    const auto first = [&](std::size_t l) {
      return l / stride * block + l % stride;
    };
    const std::size_t count = total_ / n;  // lines along this axis
    groups.clear();
    std::size_t run = 0;  // needed lines just before `l`, not yet grouped
    for (std::size_t l = 0; l <= count; ++l) {
      const bool needed =
          l < count &&
          (forward ? coords_in_band(l % stride, dims_, axis + 1, ndim, band)
                   : coords_in_band(l / stride, dims_, 0, axis, band));
      // A group never spans two blocks of a strided axis.
      if (!needed || (stride > 1 && l % stride == 0)) {
        for (; run > 0; --run) groups.push_back({first(l - run), 1});
      }
      if (needed && ++run == kLineGroup) {
        groups.push_back({first(l + 1 - kLineGroup), kLineGroup});
        run = 0;
      }
    }
    std::size_t lines = 0;
    for (const LineGroup& g : groups) lines += g.lanes;
    obs::add("fft.lines", lines);

    const Fft1D& plan = *plans_[axis];
    const auto run_groups = [&](std::size_t begin, std::size_t end,
                                c64* local) {
      for (std::size_t i = begin; i < end; ++i) {
        c64* line = data + groups[i].base;
        if (groups[i].lanes == kLineGroup) {
          plan.execute_group(line, stride, lane_step, dir, local);
        } else {
          plan.execute_strided(line, stride, dir, local);
        }
      }
    };
    if (threads > 1) {
      ThreadPool pool(threads);
      pool.parallel_for(
          static_cast<std::int64_t>(groups.size()),
          [&](std::int64_t begin, std::int64_t end, unsigned) {
            std::vector<c64> local(kLineGroup * n);
            run_groups(static_cast<std::size_t>(begin),
                       static_cast<std::size_t>(end), local.data());
          });
      continue;
    }
    if (scratch.size() < kLineGroup * n) scratch.resize(kLineGroup * n);
    run_groups(0, groups.size(), scratch.data());
  }
}

void dft_reference(const c64* in, c64* out, std::size_t n, Direction dir) {
  // Reducing j*k mod n before taking the angle keeps every root exact to
  // an ulp, whatever n: the oracle must stay well below the 1e-12 it
  // checks the fast paths to.
  const double sign = dir == Direction::Forward ? -1.0 : 1.0;
  std::vector<c64> roots(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double ang =
        sign * kTwoPi * static_cast<double>(r) / static_cast<double>(n);
    roots[r] = c64(std::cos(ang), std::sin(ang));
  }
  for (std::size_t k = 0; k < n; ++k) {
    c64 acc{};
    std::size_t r = 0;  // j*k mod n
    for (std::size_t j = 0; j < n; ++j) {
      acc += in[j] * roots[r];
      r += k;
      if (r >= n) r -= n;
    }
    out[k] = acc;
  }
}

namespace {
void shift_axis(c64* data, const std::vector<std::size_t>& dims,
                std::size_t axis, std::size_t amount) {
  const std::size_t n = dims[axis];
  if (n == 1 || amount == 0) return;
  std::size_t stride = 1;
  for (std::size_t a = axis + 1; a < dims.size(); ++a) stride *= dims[a];
  std::size_t total = 1;
  for (std::size_t d : dims) total *= d;
  const std::size_t block = stride * n;
  std::vector<c64> line(n);
  for (std::size_t base = 0; base < total; base += block) {
    for (std::size_t off = 0; off < stride; ++off) {
      c64* p = data + base + off;
      for (std::size_t i = 0; i < n; ++i) line[i] = p[i * stride];
      for (std::size_t i = 0; i < n; ++i) {
        p[((i + amount) % n) * stride] = line[i];
      }
    }
  }
}
}  // namespace

void fftshift(c64* data, const std::vector<std::size_t>& dims) {
  for (std::size_t axis = 0; axis < dims.size(); ++axis) {
    shift_axis(data, dims, axis, dims[axis] / 2);
  }
}

void ifftshift(c64* data, const std::vector<std::size_t>& dims) {
  for (std::size_t axis = 0; axis < dims.size(); ++axis) {
    shift_axis(data, dims, axis, dims[axis] - dims[axis] / 2);
  }
}

}  // namespace jigsaw::fft
