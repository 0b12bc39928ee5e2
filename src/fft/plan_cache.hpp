// Process-wide FFT plan and scratch-buffer caches.
//
// Planning an FftNd costs root, digit-reversal and chirp table construction
// per distinct length — cheap once, wasteful when every NufftPlan and Toeplitz
// operator re-plans the same (sigma*N)^d geometry. The cache
// hands out shared immutable plans keyed by the dimension vector, so any
// number of transform objects (and any number of threads) reuse one table
// set. FftNd::execute is const and carries no per-plan mutable state, so a
// shared plan is safe for concurrent execution on distinct buffers.
//
// The scratch pool complements it: hot paths that need a temporary c64
// buffer (Bluestein convolution scratch, Toeplitz embedding grids, the
// per-call NuFFT work grid and slice-and-dice dice) borrow from a bounded
// freelist instead of hitting the allocator per call. Lines of a 7-smooth
// length inside FftNd::execute borrow nothing: they run through the scratch
// block of kLineGroup lines that FftNd::execute holds per call (one per
// thread when threaded).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fft/fft.hpp"

namespace jigsaw::fft {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // == number of plans constructed
};

/// Thread-safe cache of FftNd plans keyed by their dimension vector.
/// Planning happens under the cache lock, so two threads racing on the same
/// key never build the plan twice; the loser of the race blocks briefly and
/// receives the winner's plan.
class FftPlanCache {
 public:
  /// Shared plan for `dims` (row-major, last dimension fastest).
  std::shared_ptr<const FftNd> get(const std::vector<std::size_t>& dims);

  /// Convenience: shared plan for a `dim`-dimensional cube of side `side`.
  std::shared_ptr<const FftNd> get_cube(int dim, std::size_t side);

  PlanCacheStats stats() const;
  std::size_t size() const;

  /// Drop every cached plan (outstanding shared_ptrs stay valid).
  void clear();

  /// Process-wide instance used by NufftPlan / ToeplitzOperator.
  static FftPlanCache& global();

 private:
  mutable std::mutex mu_;
  std::map<std::vector<std::size_t>, std::shared_ptr<const FftNd>> plans_;
  PlanCacheStats stats_;
};

/// Thread-safe freelist of c64 scratch buffers. acquire() returns a buffer
/// of capacity >= `size` (contents unspecified); release() returns it for
/// reuse. The pool retains at most kMaxRetained buffers — excess releases
/// simply deallocate, bounding the cache footprint.
class ScratchPool {
 public:
  static constexpr std::size_t kMaxRetained = 32;

  std::vector<c64> acquire(std::size_t size);
  void release(std::vector<c64> buffer);

  /// Buffers currently parked in the freelist (diagnostic).
  std::size_t retained() const;

  static ScratchPool& global();

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<c64>> free_;
};

/// RAII lease on a ScratchPool buffer, resized to exactly `size` elements
/// (values unspecified — callers that need zeros clear it themselves).
class ScratchLease {
 public:
  explicit ScratchLease(std::size_t size,
                        ScratchPool& pool = ScratchPool::global())
      : pool_(&pool), buffer_(pool.acquire(size)) {
    buffer_.resize(size);
  }
  ~ScratchLease() { pool_->release(std::move(buffer_)); }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  c64* data() { return buffer_.data(); }
  std::size_t size() const { return buffer_.size(); }
  std::vector<c64>& buffer() { return buffer_; }

 private:
  ScratchPool* pool_;
  std::vector<c64> buffer_;
};

}  // namespace jigsaw::fft
