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

/// Bit-reversal permutation table for length n = 2^log2n.
std::vector<std::uint32_t> make_bitrev(std::size_t n) {
  std::vector<std::uint32_t> rev(n);
  std::uint32_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t r = 0;
    for (std::uint32_t b = 0; b < log2n; ++b) {
      r |= ((i >> b) & 1u) << (log2n - 1 - b);
    }
    rev[i] = r;
  }
  return rev;
}

/// Forward-direction twiddles for every stage, flattened: for stage with
/// half-size m there are m entries e^{-i*pi*j/m}.
std::vector<c64> make_twiddles(std::size_t n) {
  std::vector<c64> tw;
  for (std::size_t m = 1; m < n; m *= 2) {
    for (std::size_t j = 0; j < m; ++j) {
      const double ang = -kTwoPi * static_cast<double>(j) /
                         static_cast<double>(2 * m);
      tw.emplace_back(std::cos(ang), std::sin(ang));
    }
  }
  return tw;
}

/// Plain complex product: std::complex's operator* also runs the C99
/// inf/NaN recovery, which a finite FFT never needs.
inline c64 cmul(c64 a, c64 b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// Every kernel below runs B lines at once ("lanes"): element i of lane b
// sits at a[i * B + b], so a group of kLineGroup adjacent strided lines is
// read and written one cache line at a time. Each lane does exactly the
// arithmetic of a one-line transform, so B = 1 is the one-line kernel and
// any B gives the same bits.

/// Radix-2 into `a`: first the input in bit-reversed order, either by
/// swaps in place (in == a) or by gathering element i of lane b from
/// in[i * in_step + b], then the butterflies in place. Kept out of line:
/// whether GCC inlines it into Fft1D::execute follows the size of
/// execute's Bluestein branch, and the inlined butterfly loop ran about
/// 1.4x slower (x86-64, -O3, 2D sizes 64-512).
template <std::size_t B>
[[gnu::noinline]] void radix2_core(c64* a, const c64* in, std::size_t in_step,
                                   std::size_t n,
                                   const std::vector<std::uint32_t>& rev,
                                   const std::vector<c64>& tw, Direction dir) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = rev[i];
    if (in != a) {
      for (std::size_t b = 0; b < B; ++b) a[r * B + b] = in[i * in_step + b];
    } else if (i < r) {
      for (std::size_t b = 0; b < B; ++b) std::swap(a[i * B + b], a[r * B + b]);
    }
  }
  std::size_t tw_base = 0;
  for (std::size_t m = 1; m < n; m *= 2) {
    for (std::size_t k = 0; k < n; k += 2 * m) {
      for (std::size_t j = 0; j < m; ++j) {
        c64 w = tw[tw_base + j];
        if (dir == Direction::Inverse) w = std::conj(w);
        c64* lo = a + (k + j) * B;
        c64* hi = a + (k + j + m) * B;
        for (std::size_t b = 0; b < B; ++b) {
          const c64 t = cmul(hi[b], w);
          const c64 u = lo[b];
          lo[b] = u + t;
          hi[b] = u - t;
        }
      }
    }
    tw_base += m;
  }
}

/// One stage of the mixed-radix kernel: a radix-p butterfly that joins p
/// interleaved sub-transforms of length m each.
struct Stage {
  std::size_t p;
  std::size_t m;
};

/// The generic butterfly keeps its p inputs on the stack.
constexpr std::size_t kMaxGenericRadix = 7;

/// Stages of n, outermost first, taking fours before the single two that
/// may remain, then 3, 5 and 7 (the KISS FFT order). Empty when n has a
/// prime factor above kMaxGenericRadix: such lengths take Bluestein.
std::vector<Stage> factor_small_radices(std::size_t n) {
  std::vector<Stage> stages;
  std::size_t rest = n;
  for (const std::size_t p : {4, 2, 3, 5, 7}) {
    while (rest % p == 0) {
      rest /= p;
      stages.push_back({p, rest});
    }
  }
  if (rest != 1) stages.clear();
  return stages;
}

// Butterflies over f[k + q*m], q < p: the p sub-transforms' bin k, each
// twiddled by tw[q*k*fstride]. `tw` holds the n roots of the transform's
// own direction, so only the radix-4 rotation by ±i needs the direction.
// Bin k of lane b is f[(k + q*m) * B + b].

template <std::size_t B>
void bfly2(c64* f, std::size_t fstride, const c64* tw, std::size_t m) {
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
void bfly4(c64* f, std::size_t fstride, const c64* tw, std::size_t m) {
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
void bfly3(c64* f, std::size_t fstride, const c64* tw, std::size_t m) {
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
void bfly5(c64* f, std::size_t fstride, const c64* tw, std::size_t m) {
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
void bfly_generic(c64* f, std::size_t fstride, const c64* tw, std::size_t m,
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

/// Out-of-place decimation-in-time recursion: writes the transforms of the
/// B adjacent n-point lines in[j * in_step + b] to out[0..n*B). Each stage
/// first transforms its p interleaved sub-sequences into consecutive runs
/// of `out`, then joins them with one radix-p butterfly pass.
template <std::size_t B, bool Inverse>
void mixed_work(c64* out, const c64* in, std::size_t in_step,
                std::size_t fstride, const Stage* stage, const c64* tw,
                std::size_t n) {
  const std::size_t p = stage->p;
  const std::size_t m = stage->m;
  const std::size_t step = fstride * in_step;
  if (m == 1) {
    for (std::size_t q = 0; q < p; ++q) {
      for (std::size_t b = 0; b < B; ++b) out[q * B + b] = in[q * step + b];
    }
  } else {
    for (std::size_t q = 0; q < p; ++q) {
      mixed_work<B, Inverse>(out + q * m * B, in + q * step, in_step,
                             fstride * p, stage + 1, tw, n);
    }
  }
  switch (p) {
    case 2: bfly2<B>(out, fstride, tw, m); break;
    case 3: bfly3<B>(out, fstride, tw, m); break;
    case 4: bfly4<B, Inverse>(out, fstride, tw, m); break;
    case 5: bfly5<B>(out, fstride, tw, m); break;
    default: bfly_generic<B>(out, fstride, tw, m, p, n); break;
  }
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
  // Radix-2 path (n power of two):
  std::vector<std::uint32_t> bitrev;
  std::vector<c64> twiddles;

  // Mixed-radix path (every prime factor of n is <= 7, n not a power of
  // two): the stages and the n roots e^{-2*pi*i*k/n} per direction
  // (forward, then inverse = conjugate).
  std::vector<Stage> stages;
  std::vector<c64> roots[2];

  // Bluestein path (a prime factor > 7): convolution length
  // m = next_pow2(2n-1).
  std::size_t bluestein_m = 0;
  std::vector<std::uint32_t> m_bitrev;
  std::vector<c64> m_twiddles;
  std::vector<c64> chirp;       // b[k] = e^{-i*pi*k^2/n} (forward direction)
  std::vector<c64> chirp_fft;   // FFT_m of the chirp filter e^{+i*pi*k^2/n}
};

// NOTE: no plan holds mutable state. Grouped and strided executes write
// through the caller's scratch block and Bluestein executes borrow convolution
// scratch from the global ScratchPool per call, so every plan is safe for
// concurrent execute() on distinct buffers. This is what allows
// FftPlanCache to hand one shared plan to many threads. Oversampled NuFFT
// grids (sigma*N with sigma=2) are radix-2 for power-of-two N and
// mixed-radix otherwise: the stream's N=48 grid is 96 = 2^5*3, and a
// Toeplitz operator at N=48 grids its PSF on 192. Bluestein is left for
// lengths with a prime factor above 7.

Fft1D::Fft1D(std::size_t n) : n_(n), impl_(std::make_unique<Impl>()) {
  JIGSAW_REQUIRE(n >= 1, "FFT length must be >= 1, got " << n);
  if (is_pow2(n)) {
    impl_->bitrev = make_bitrev(n);
    impl_->twiddles = make_twiddles(n);
    return;
  }
  impl_->stages = factor_small_radices(n);
  if (!impl_->stages.empty()) {
    impl_->roots[0].resize(n);
    impl_->roots[1].resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double ang =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      impl_->roots[0][k] = c64(std::cos(ang), std::sin(ang));
      impl_->roots[1][k] = std::conj(impl_->roots[0][k]);
    }
    return;
  }
  // Bluestein setup.
  const std::size_t m = next_pow2(2 * n - 1);
  impl_->bluestein_m = m;
  impl_->m_bitrev = make_bitrev(m);
  impl_->m_twiddles = make_twiddles(m);
  impl_->chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Use k^2 mod 2n to avoid precision loss for large k.
    const std::uint64_t k2 = (static_cast<std::uint64_t>(k) * k) % (2 * n);
    const double ang = -std::numbers::pi * static_cast<double>(k2) /
                       static_cast<double>(n);
    impl_->chirp[k] = c64(std::cos(ang), std::sin(ang));
  }
  impl_->chirp_fft.assign(m, c64{});
  impl_->chirp_fft[0] = std::conj(impl_->chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    impl_->chirp_fft[k] = std::conj(impl_->chirp[k]);
    impl_->chirp_fft[m - k] = std::conj(impl_->chirp[k]);
  }
  c64* filter = impl_->chirp_fft.data();
  radix2_core<1>(filter, filter, 1, m, impl_->m_bitrev, impl_->m_twiddles,
                 Direction::Forward);
}

Fft1D::~Fft1D() = default;
Fft1D::Fft1D(Fft1D&&) noexcept = default;
Fft1D& Fft1D::operator=(Fft1D&&) noexcept = default;

void Fft1D::execute(c64* data, Direction dir) const {
  if (n_ == 1) return;
  if (!impl_->stages.empty()) {
    ScratchLease lease(n_);
    execute_lines<1>(data, 1, dir, lease.data());
    return;
  }
  if (impl_->bluestein_m == 0) {
    radix2_core<1>(data, data, 1, n_, impl_->bitrev, impl_->twiddles, dir);
    return;
  }
  // Bluestein: X[k] = conj(b[k]) * IFFT( FFT(a.*b) .* FFT(filter) ) with
  // b[k] = chirp. For the inverse direction conjugate the chirps.
  const std::size_t m = impl_->bluestein_m;
  ScratchLease lease(m);
  auto& work = lease.buffer();
  std::fill(work.begin(), work.end(), c64{});
  for (std::size_t k = 0; k < n_; ++k) {
    const c64 b =
        dir == Direction::Forward ? impl_->chirp[k] : std::conj(impl_->chirp[k]);
    work[k] = data[k] * b;
  }
  radix2_core<1>(work.data(), work.data(), 1, m, impl_->m_bitrev,
                 impl_->m_twiddles, Direction::Forward);
  if (dir == Direction::Forward) {
    for (std::size_t k = 0; k < m; ++k) work[k] *= impl_->chirp_fft[k];
  } else {
    // The conjugated filter's FFT is conj(chirp_fft) reversed:
    // FFT(conj(x))[k] = conj(FFT(x)[(m-k) mod m]).
    for (std::size_t k = 0; k < m; ++k) {
      work[k] *= std::conj(impl_->chirp_fft[(m - k) % m]);
    }
  }
  radix2_core<1>(work.data(), work.data(), 1, m, impl_->m_bitrev,
                 impl_->m_twiddles, Direction::Inverse);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n_; ++k) {
    const c64 b =
        dir == Direction::Forward ? impl_->chirp[k] : std::conj(impl_->chirp[k]);
    data[k] = work[k] * inv_m * b;
  }
}

void Fft1D::execute_strided(c64* data, std::size_t stride, Direction dir,
                            c64* scratch) const {
  execute_lines<1>(data, stride, dir, scratch);
}

void Fft1D::execute_group(c64* data, std::size_t stride, Direction dir,
                          c64* scratch) const {
  execute_lines<kLineGroup>(data, stride, dir, scratch);
}

template <std::size_t B>
void Fft1D::execute_lines(c64* data, std::size_t stride, Direction dir,
                          c64* scratch) const {
  const auto scatter = [&] {
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t b = 0; b < B; ++b) {
        data[i * stride + b] = scratch[i * B + b];
      }
    }
  };
  if (!impl_->stages.empty()) {
    // Out of place from the strided lines into scratch, then back.
    const Stage* first = impl_->stages.data();
    if (dir == Direction::Forward) {
      mixed_work<B, false>(scratch, data, stride, 1, first,
                           impl_->roots[0].data(), n_);
    } else {
      mixed_work<B, true>(scratch, data, stride, 1, first,
                          impl_->roots[1].data(), n_);
    }
    scatter();
    return;
  }
  if constexpr (B > 1) {
    if (impl_->bluestein_m != 0) {
      // Bluestein lines stay one at a time.
      for (std::size_t b = 0; b < B; ++b) {
        execute_lines<1>(data + b, stride, dir, scratch);
      }
      return;
    }
  } else if (stride == 1) {
    execute(data, dir);  // one contiguous line runs in place
    return;
  }
  if (impl_->bluestein_m == 0) {
    radix2_core<B>(scratch, data, stride, n_, impl_->bitrev, impl_->twiddles,
                   dir);
  } else {
    for (std::size_t i = 0; i < n_; ++i) scratch[i] = data[i * stride];
    execute(scratch, dir);
  }
  scatter();
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
    groups.clear();
    for (std::size_t outer = 0; outer < total_ / block; ++outer) {
      if (!forward && !coords_in_band(outer, dims_, 0, axis, band)) continue;
      const std::size_t base = outer * block;
      std::size_t run = 0;  // needed lines just before `off` not yet grouped
      for (std::size_t off = 0; off <= stride; ++off) {
        if (off < stride &&
            (!forward || coords_in_band(off, dims_, axis + 1, ndim, band))) {
          if (++run == kLineGroup) {
            groups.push_back({base + off + 1 - kLineGroup, kLineGroup});
            run = 0;
          }
          continue;
        }
        for (; run > 0; --run) groups.push_back({base + off - run, 1});
      }
    }
    std::size_t lines = 0;
    for (const LineGroup& g : groups) lines += g.lanes;
    obs::add("fft.lines", lines);

    const Fft1D& plan = *plans_[axis];
    const auto run_groups = [&](std::size_t begin, std::size_t end,
                                c64* local) {
      for (std::size_t i = begin; i < end; ++i) {
        c64* first = data + groups[i].base;
        if (groups[i].lanes == kLineGroup) {
          plan.execute_group(first, stride, dir, local);
        } else {
          plan.execute_strided(first, stride, dir, local);
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

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace jigsaw::fft
