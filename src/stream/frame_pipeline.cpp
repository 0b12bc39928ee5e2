#include "stream/frame_pipeline.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/obs.hpp"

namespace jigsaw::stream {

FramePipeline::FramePipeline(const PipelineConfig& config)
    : config_(config),
      maps_(config.coils > 1 ? core::make_birdcage_maps(config.n, config.coils)
                             : core::CoilMaps::identity(config.n)) {
  JIGSAW_REQUIRE(config_.n >= 2, "stream: grid side must be >= 2");
  JIGSAW_REQUIRE(config_.iters >= 1, "stream: CG iteration cap must be >= 1");
  JIGSAW_REQUIRE(config_.coils >= 1, "stream: coil count must be >= 1");
}

FramePipeline::~FramePipeline() = default;

void FramePipeline::reset() {
  prev_image_.clear();
  plan_.reset();
  plan_coords_hash_ = 0;
  plan_samples_ = 0;
}

FrameResult FramePipeline::solve(const std::vector<c64>& values,
                                 const Deadline& deadline,
                                 const std::vector<c64>* warm,
                                 core::CgResult* cg) {
  FrameResult out;
  out.warm_started = warm != nullptr;
  out.image = core::cg_sense(*plan_, maps_, values, config_.iters,
                             config_.tolerance, cg, config_.coil_threads,
                             deadline, warm);
  out.iterations = cg->iterations;
  out.residual = cg->final_residual;
  return out;
}

FrameResult FramePipeline::recon_frame(const std::vector<Coord<2>>& coords,
                                       const std::vector<c64>& values,
                                       const Deadline& deadline) {
  obs::Span span("stream.frame");
  const auto t0 = std::chrono::steady_clock::now();
  deadline.check("stream.admit");
  JIGSAW_REQUIRE(!coords.empty(), "stream: empty frame");
  JIGSAW_REQUIRE(values.size() ==
                     coords.size() * static_cast<std::size_t>(config_.coils),
                 "stream: value count does not equal samples x coils");

  // Plan phase: reuse the resident plan when the trajectory repeats (a
  // static window, or window == stride with a repeating schedule); a slid
  // window rebuilds the gridder but still shares the cached FFT plan.
  const std::uint64_t hash = fnv1a(
      coords.data(), coords.size() * sizeof(Coord<2>), kFnv1aShortBasis);
  const bool reuse = plan_ != nullptr && plan_samples_ == coords.size() &&
                     plan_coords_hash_ == hash;
  if (!reuse) {
    deadline.check("stream.plan");
    plan_ = std::make_unique<core::NufftPlan<2>>(config_.n, coords,
                                                 config_.options);
    plan_coords_hash_ = hash;
    plan_samples_ = coords.size();
    ++stats_.plan_builds;
    obs::add("stream.plan_builds", 1);
  } else {
    ++stats_.plan_reuses;
    obs::add("stream.plan_reuses", 1);
  }

  const std::size_t pixels = static_cast<std::size_t>(config_.n) *
                             static_cast<std::size_t>(config_.n);
  const std::vector<c64>* warm =
      config_.warm_start && prev_image_.size() == pixels
          ? &prev_image_
          : nullptr;

  core::CgResult cg;
  FrameResult out = solve(values, deadline, warm, &cg);

  // Divergence guard: residual_history.front() is the warm seed's initial
  // relative residual (a cold start's is exactly 1.0). A seed that starts
  // worse than the guard came from a different scene — discard the warm
  // solve and redo this frame cold; warm-starting resumes from its image.
  if (warm != nullptr && config_.divergence_guard > 0.0 &&
      !cg.residual_history.empty() &&
      cg.residual_history.front() > config_.divergence_guard) {
    const int wasted = out.iterations;
    core::CgResult cold;
    out = solve(values, deadline, nullptr, &cold);
    out.iterations += wasted;  // honest accounting: the trip was paid for
    out.guard_tripped = true;
    ++stats_.guard_trips;
    obs::add("stream.guard_trips", 1);
  }
  out.plan_reused = reuse;

  deadline.check("stream.respond");
  prev_image_ = out.image;

  ++stats_.frames;
  if (out.warm_started && !out.guard_tripped) {
    ++stats_.warm_frames;
  } else {
    ++stats_.cold_frames;
  }
  stats_.total_iterations += static_cast<std::uint64_t>(out.iterations);
  obs::add("stream.frames", 1);
  obs::add(out.warm_started && !out.guard_tripped ? "stream.warm_frames"
                                                  : "stream.cold_frames",
           1);
  if (out.iterations > 0) {
    obs::add("stream.iterations", static_cast<std::uint64_t>(out.iterations));
  }

  out.latency_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  obs::set_gauge("stream.last_latency_ms", out.latency_ms);
  obs::set_gauge("stream.last_iterations",
                 static_cast<double>(out.iterations));
  obs::set_gauge("stream.last_residual", out.residual);
  return out;
}

}  // namespace jigsaw::stream
