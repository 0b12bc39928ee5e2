// Self-contained complex FFT library (no external dependency).
//
// Supports any transform length through one kernel: an iterative
// mixed-radix decimation-in-time FFT with radix-4/2/3/5 butterflies and a
// generic one for 7. A length whose prime factors are all <= 7 (powers of
// two, 96 = 2^5*3, 80, 120, ...) runs it directly; any other length runs
// Bluestein's chirp-z algorithm, whose convolution runs the kernel on the
// smallest such length >= 2n-1.
//
// FftNd runs every axis in groups of kLineGroup adjacent lines: four
// strided c64 lines fill one 64-byte cache line, so a column pass reads and
// writes whole cache lines, and four adjacent rows of the contiguous last
// axis run together too. The kernel takes the group's lane count as a
// template parameter; every lane does exactly the arithmetic of a lone
// line, so grouping never changes a bit, and the one-line instantiation
// runs the tail of a group run and Fft1D::execute. Bluestein lines run one
// at a time.
//
// Conventions:
//   Forward : X[k] = sum_n x[n] e^{-2*pi*i*n*k/N}   (unnormalized)
//   Inverse : x[n] = sum_k X[k] e^{+2*pi*i*n*k/N}   (unnormalized)
// A round trip Forward then Inverse multiplies the signal by N.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace jigsaw::fft {

enum class Direction { Forward, Inverse };

/// Adjacent lines FftNd transforms together on every axis.
inline constexpr std::size_t kLineGroup = 4;

/// One-dimensional complex-to-complex FFT plan of fixed length.
/// Plans are immutable after construction and safe to share across threads
/// for concurrent execute() calls on distinct buffers.
class Fft1D {
 public:
  explicit Fft1D(std::size_t n);
  ~Fft1D();
  Fft1D(Fft1D&&) noexcept;
  Fft1D& operator=(Fft1D&&) noexcept;
  Fft1D(const Fft1D&) = delete;
  Fft1D& operator=(const Fft1D&) = delete;

  std::size_t size() const { return n_; }

  /// In-place transform of `data[0..n)`.
  void execute(c64* data, Direction dir) const;

  /// Strided in-place transform: element i lives at data[i * stride].
  /// Uses the provided scratch buffer (length >= n); a 7-smooth length
  /// needs no other memory, so a caller that holds one scratch line per
  /// thread runs it without allocating.
  void execute_strided(c64* data, std::size_t stride, Direction dir,
                       c64* scratch) const;

  /// kLineGroup lines at once: element i of line b lives at
  /// data[i * stride + b * lane_step]. FftNd passes lane step 1 for
  /// adjacent strided lines and n for adjacent rows. Uses scratch of length
  /// >= kLineGroup * n. Bit-identical to kLineGroup execute_strided calls.
  void execute_group(c64* data, std::size_t stride, std::size_t lane_step,
                     Direction dir, c64* scratch) const;

 private:
  /// B lines lane_step apart; B = 1 is execute_strided.
  template <std::size_t B>
  void execute_lines(c64* data, std::size_t stride, std::size_t lane_step,
                     Direction dir, c64* scratch) const;

  struct Impl;
  std::size_t n_;
  std::unique_ptr<Impl> impl_;
};

/// Multi-dimensional complex FFT via the row-column method. Data is row-major
/// with the last dimension fastest.
class FftNd {
 public:
  explicit FftNd(std::vector<std::size_t> dims);

  const std::vector<std::size_t>& dims() const { return dims_; }
  std::size_t total_size() const { return total_; }

  /// In-place transform of `data[0..total_size())`.
  ///
  /// `band` is the side n of an image embedded at the grid's wrap-around
  /// centre, as a σ-oversampled NuFFT embeds it: on an axis of length g,
  /// index i is in band iff i < n - n/2 or i >= g - n/2 (image index k in
  /// [-n/2, n - n/2) sits at pos_mod(k, g)). 0 means no embedding; n must
  /// not exceed any dimension. The passes run axis 0 to D-1 either way.
  ///   * Forward: the input must be zero outside the band on every axis.
  ///     A pass skips the lines out of band on an axis not yet
  ///     transformed, which are exact zeros, so the result is the full
  ///     transform, bit for bit. (A Bluestein length turns a zero line
  ///     into some -0.0, so there an output that is exactly zero may
  ///     differ in its sign.)
  ///   * Inverse: only the in-band outputs (in band on every axis) are
  ///     defined, and they equal the full transform's bit for bit. A pass
  ///     skips the lines out of band on an axis already transformed; the
  ///     outputs out of band are left unspecified.
  /// In 2D with n = g/2 that is 3/4 of the lines, in 3D 7/12.
  ///
  /// `threads > 1` splits each axis's line groups across a thread pool,
  /// for every plan kind; each group is the same work on any thread, so
  /// the result is bit-identical to one thread's. The paper's conclusion
  /// makes the FFT the post-JIGSAW bottleneck; this is the library's
  /// corresponding knob. Regardless of `threads`, execute() is const and
  /// thread-safe: concurrent calls on one plan with distinct buffers are
  /// allowed (the coil-parallel reconstruction path relies on this).
  void execute(c64* data, Direction dir, unsigned threads = 1,
               std::size_t band = 0) const;

 private:
  std::vector<std::size_t> dims_;
  std::size_t total_;
  std::vector<std::shared_ptr<Fft1D>> plans_;  // one per dim (shared when equal)
};

/// Direct O(N^2) DFT used as a test oracle.
void dft_reference(const c64* in, c64* out, std::size_t n, Direction dir);

/// Swap halves in every dimension (centers DC). For odd n the split is
/// ceil/floor as in numpy.fft.fftshift.
void fftshift(c64* data, const std::vector<std::size_t>& dims);
void ifftshift(c64* data, const std::vector<std::size_t>& dims);

}  // namespace jigsaw::fft
