// FramePipeline: stateful per-session reconstruction of a frame sequence.
//
// One pipeline owns the state a dynamic-MRI session accumulates across
// frames and that a stateless per-request recon cannot exploit:
//
//   * the NufftPlan of the previous frame — reused outright when the
//     trajectory repeats (coordinate hash match), and even when the window
//     slid the new plan's FFT stage comes from the shared FftPlanCache, so
//     only the gridder's sample setup is paid per frame;
//   * the previous frame's image — the CG / CG-SENSE warm start. CG on the
//     (PSD) normal equations converges to the same fixed point from any
//     seed; consecutive frames differ little, so seeding from frame f-1
//     reaches the tolerance in a fraction of the cold-start iterations
//     (the whole point of the streaming workload, ROADMAP item 3);
//   * a divergence guard: a warm start is accepted only while its initial
//     relative residual stays below `divergence_guard` (a cold start's is
//     exactly 1.0, so the default 1.0 means "never start worse than
//     cold"). On a scene cut the guard trips, the frame re-solves cold,
//     and warm-starting resumes from the fresh image.
//
// Per-frame iterations / residual / latency are reported through the
// returned FrameResult, the cumulative PipelineStats, and obs ("stream.*"
// counters, "stream.frame" tracer spans). The per-frame deadline is
// enforced at phase boundaries (admission, plan build, solve, respond) via
// common/deadline.hpp; a timed-out frame raises DeadlineExceeded and leaves
// the previous frame's warm-start state untouched.
//
// Thread contract: a pipeline is a session — one frame at a time, called
// from one thread (the serve engine's dispatcher, or a bench/test loop).
// Bit-exactness: with a bit-exact engine (e.g. binning) the frame sequence
// is reproducible bit-for-bit for any options.threads, because every
// frame's solve consumes only deterministic inputs (samples + the previous
// frame's image).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.hpp"
#include "core/gridder.hpp"
#include "core/nufft.hpp"
#include "core/sense.hpp"

namespace jigsaw::stream {

struct PipelineConfig {
  std::int64_t n = 128;          // base grid side
  core::GridderOptions options;  // engine / kernel / threads for every frame
  int iters = 10;                // CG iteration cap per frame (>= 1)
  double tolerance = 1e-5;       // CG stop: relative residual
  int coils = 1;                 // > 1 = CG-SENSE with birdcage maps
  unsigned coil_threads = 1;     // coil parallelism (bit-exact, see sense.hpp)
  bool warm_start = true;        // seed each frame with the previous image
  double divergence_guard = 1.0;  // max accepted warm initial rel-residual;
                                  // <= 0 disables the guard
};

/// One frame's outcome.
struct FrameResult {
  std::vector<c64> image;      // n*n pixels
  int iterations = 0;          // CG iterations this frame consumed (guard
                               // trips include the discarded warm attempt)
  double residual = 0.0;       // final relative residual
  bool warm_started = false;   // the accepted solve was warm-seeded
  bool guard_tripped = false;  // warm attempt discarded, cold re-solve used
  bool plan_reused = false;    // trajectory matched the previous frame's
  double latency_ms = 0.0;     // wall clock inside recon_frame()
};

/// Cumulative session totals (mirrored to stream.* obs counters).
struct PipelineStats {
  std::uint64_t frames = 0;
  std::uint64_t warm_frames = 0;
  std::uint64_t cold_frames = 0;
  std::uint64_t guard_trips = 0;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_reuses = 0;
  std::uint64_t total_iterations = 0;
};

class FramePipeline {
 public:
  explicit FramePipeline(const PipelineConfig& config);
  ~FramePipeline();

  FramePipeline(const FramePipeline&) = delete;
  FramePipeline& operator=(const FramePipeline&) = delete;

  /// Reconstruct one frame: `values` holds coils blocks of coords.size()
  /// samples (coil-major, single block when coils == 1). Throws
  /// DeadlineExceeded at a phase boundary past the deadline (state of the
  /// previous frame is preserved), std::invalid_argument on a size
  /// mismatch.
  FrameResult recon_frame(const std::vector<Coord<2>>& coords,
                          const std::vector<c64>& values,
                          const Deadline& deadline = Deadline());

  const PipelineConfig& config() const { return config_; }
  const PipelineStats& stats() const { return stats_; }

  /// The warm-start seed the next frame would use (empty before the first
  /// successful frame).
  const std::vector<c64>& last_image() const { return prev_image_; }

  /// Drop the warm-start image and resident plan (a scene cut / session
  /// reset). Cumulative stats are kept.
  void reset();

 private:
  FrameResult solve(const std::vector<c64>& values, const Deadline& deadline,
                    const std::vector<c64>* warm, core::CgResult* cg);

  const PipelineConfig config_;
  PipelineStats stats_;
  std::unique_ptr<const core::NufftPlan<2>> plan_;
  std::uint64_t plan_coords_hash_ = 0;
  std::size_t plan_samples_ = 0;
  const core::CoilMaps maps_;  // birdcage when coils > 1, else identity
  std::vector<c64> prev_image_;
};

}  // namespace jigsaw::stream
