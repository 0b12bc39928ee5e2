// Batched, coil-parallel NuFFT execution.
//
// Iterative and dynamic MRI apply the same trajectory to many value sets
// (time frames, coils, iterations). BatchedNufft amortizes everything
// reusable — the gridder (including the sparse engine's precomputed
// matrix), the FFT plan (shared process-wide via FftPlanCache), and the
// apodization profile — across the batch, and reports aggregate per-phase
// timing. This is the "millions of NuFFTs per volume" usage pattern of the
// paper's introduction packaged as an API.
//
// With `coil_threads > 1` the frames themselves run concurrently: that many
// threads call the one const NufftPlan, each transform leasing its own
// work grid, and frames are distributed over the threads through the
// ThreadPool. Each frame is processed start-to-finish by one call on one
// plan, so the result for a given frame is bit-exact regardless of thread
// count — the same determinism contract the gridders make for their
// internal threading.
#pragma once

#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/nufft.hpp"

namespace jigsaw::core {

template <int D>
class BatchedNufft {
 public:
  /// `coil_threads` is the number of frames gridded/FFT'd concurrently
  /// (1 = the classic serial frame loop; 0 is treated as 1). Independent of
  /// `options.threads`, which parallelizes *within* one transform.
  BatchedNufft(std::int64_t n, std::vector<Coord<D>> coords,
               const GridderOptions& options, unsigned coil_threads = 1)
      : plan_(n, std::move(coords), options),
        coil_threads_(std::max(1u, coil_threads)) {}

  /// The plan every frame runs on.
  const NufftPlan<D>& plan() const { return plan_; }

  unsigned coil_threads() const { return coil_threads_; }

  /// Adjoint transform of every frame. frames[f] holds M sample values.
  /// The deadline is checked before every frame (and at the phase
  /// boundaries inside each transform); a passed deadline raises
  /// DeadlineExceeded on the calling thread, ThreadPool's first-error-wins
  /// semantics included.
  std::vector<std::vector<c64>> adjoint(
      const std::vector<std::vector<c64>>& frames,
      NufftTimings* total = nullptr,
      const Deadline& deadline = Deadline()) const {
    return run(frames, total, /*adjoint=*/true, deadline);
  }

  /// Forward transform of every frame. frames[f] holds an N^D image.
  std::vector<std::vector<c64>> forward(
      const std::vector<std::vector<c64>>& frames,
      NufftTimings* total = nullptr,
      const Deadline& deadline = Deadline()) const {
    return run(frames, total, /*adjoint=*/false, deadline);
  }

 private:
  std::vector<std::vector<c64>> run(
      const std::vector<std::vector<c64>>& frames, NufftTimings* total,
      bool adjoint, const Deadline& deadline) const {
    std::vector<std::vector<c64>> out(frames.size());
    std::vector<NufftTimings> per_frame(frames.size());
    const auto frame_range = [&](std::int64_t begin, std::int64_t end,
                                 unsigned) {
      for (std::int64_t f = begin; f < end; ++f) {
        deadline.check("batch.frame");
        const auto uf = static_cast<std::size_t>(f);
        out[uf] = adjoint
                      ? plan_.adjoint(frames[uf], &per_frame[uf], deadline)
                      : plan_.forward(frames[uf], &per_frame[uf], deadline);
      }
    };
    const auto threads = static_cast<unsigned>(
        std::min<std::size_t>(coil_threads_, frames.size()));
    if (threads <= 1) {
      frame_range(0, static_cast<std::int64_t>(frames.size()), 0);
    } else {
      ThreadPool(threads).parallel_for(
          static_cast<std::int64_t>(frames.size()), frame_range);
    }
    if (total != nullptr) {
      NufftTimings sum;  // frame-order reduction: deterministic
      for (const auto& t : per_frame) {
        sum.grid_seconds += t.grid_seconds;
        sum.fft_seconds += t.fft_seconds;
        sum.apod_seconds += t.apod_seconds;
        sum.presort_seconds += t.presort_seconds;
      }
      *total = sum;
    }
    return out;
  }

  NufftPlan<D> plan_;
  unsigned coil_threads_;
};

}  // namespace jigsaw::core
