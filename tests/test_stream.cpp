// Streaming subsystem tests: sliding-window golden-angle frame source,
// FramePipeline warm-start semantics (cold fixed point, iteration savings
// at equal accuracy, divergence guard, plan reuse), frame-sequence
// bit-exactness across gridder thread counts, and session-scoped serving
// (engine sessions, in-flight drain, socket round trip, router
// stickiness and its session failure policy, and the warm-start iteration
// floor through a router). Every Stream* suite also runs in the CI TSan
// stage (scripts/ci.sh).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/sense.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "stream/frame_pipeline.hpp"
#include "stream/frame_source.hpp"

namespace jigsaw::stream {
namespace {

FrameWindow small_window() {
  FrameWindow w;
  w.spokes_per_frame = 4;
  w.window_spokes = 10;
  w.samples_per_spoke = 32;
  return w;
}

PipelineConfig small_config(std::int64_t n = 32) {
  PipelineConfig config;
  config.n = n;
  config.options.kind = core::GridderKind::SliceDice;
  config.options.width = 4;
  config.iters = 40;
  config.tolerance = 1e-4;
  return config;
}

/// NRMSE against the real ground-truth image after a least-squares complex
/// scalar fit (the recon chain is free to introduce a global scale).
double fitted_nrmse(const std::vector<c64>& recon,
                    const std::vector<double>& truth) {
  c64 num{};
  double den = 0.0, tnorm = 0.0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    num += truth[i] * std::conj(recon[i]);
    den += std::norm(recon[i]);
    tnorm += truth[i] * truth[i];
  }
  const c64 alpha = den > 0.0 ? num / den : c64{};
  double err = 0.0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    err += std::norm(alpha * recon[i] - truth[i]);
  }
  return std::sqrt(err / tnorm);
}

// ------------------------------------------------------------ frame source

TEST(StreamSource, SlidingWindowGeometryAndOverlap) {
  const FrameWindow w = small_window();
  const FrameSource source(w, 5);
  EXPECT_EQ(source.frames(), 5);
  EXPECT_EQ(source.samples_per_frame(),
            static_cast<std::size_t>(w.window_spokes * w.samples_per_spoke));

  // Consecutive frames share the window minus the stride: the last
  // (window - stride) spokes of frame f ARE the first spokes of f+1.
  const std::size_t shared =
      static_cast<std::size_t>(w.window_spokes - w.spokes_per_frame) *
      static_cast<std::size_t>(w.samples_per_spoke);
  for (int f = 0; f + 1 < source.frames(); ++f) {
    const auto a = source.frame_coords(f);
    const auto b = source.frame_coords(f + 1);
    for (std::size_t i = 0; i < shared; ++i) {
      EXPECT_EQ(a[a.size() - shared + i][0], b[i][0]) << "frame " << f;
      EXPECT_EQ(a[a.size() - shared + i][1], b[i][1]) << "frame " << f;
    }
  }

  // Frame timestamps advance monotonically through (0, 1).
  double prev = -1.0;
  for (int f = 0; f < source.frames(); ++f) {
    const double t = source.frame_time(f);
    EXPECT_GT(t, prev);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 1.0);
    prev = t;
  }

  // Golden-angle spokes never repeat: no two frames are identical.
  const auto first = source.frame_coords(0);
  const auto last = source.frame_coords(source.frames() - 1);
  EXPECT_NE(first[0][0], last[0][0]);
}

TEST(StreamSource, RejectsDegenerateWindows) {
  FrameWindow w = small_window();
  w.window_spokes = 2;  // narrower than the stride
  EXPECT_THROW(FrameSource(w, 4), std::invalid_argument);
  EXPECT_THROW(FrameSource(small_window(), 0), std::invalid_argument);
}

// A pipeline exists to iterate: zero CG iterations from a zero start would
// answer every frame with an all-zero image.
TEST(StreamPipeline, RequiresAtLeastOneIteration) {
  PipelineConfig config = small_config();
  config.coils = 2;
  config.iters = 0;
  EXPECT_THROW(FramePipeline{config}, std::invalid_argument);
}

TEST(StreamSource, DynamicPhantomVariesSmoothlyOverTime) {
  const DynamicPhantom phantom;
  const int n = 32;
  const auto a = phantom.image_at(0.1, n);
  const auto b = phantom.image_at(0.15, n);
  const auto c = phantom.image_at(0.6, n);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(n * n));
  // The phantom moves: distinct instants give distinct images, and nearby
  // instants are closer than distant ones (the slow variation warm-start
  // feeds on).
  double ab = 0.0, ac = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ab += (a[i] - b[i]) * (a[i] - b[i]);
    ac += (a[i] - c[i]) * (a[i] - c[i]);
  }
  EXPECT_GT(ab, 0.0);
  EXPECT_LT(ab, ac);
}

// ---------------------------------------------------------------- pipeline

TEST(StreamPipeline, WarmStartReachesColdFixedPoint) {
  // CG on the PSD normal equations has one fixed point; a warm seed must
  // land on the same image the cold solve finds, just faster.
  const FrameSource source(small_window(), 2);
  const DynamicPhantom phantom;
  PipelineConfig config = small_config();
  config.tolerance = 1e-6;
  config.iters = 500;  // headroom: the cold solve must actually converge

  const auto coords = source.frame_coords(0);
  const auto values =
      phantom.kspace_at(coords, source.frame_time(0), static_cast<int>(config.n));

  FramePipeline warm(config);
  const FrameResult cold_solve = warm.recon_frame(coords, values);
  EXPECT_FALSE(cold_solve.warm_started);
  ASSERT_LT(cold_solve.iterations, config.iters)
      << "cold solve hit the cap; raise iters so it reaches tolerance";
  // Same frame again: seeded with the converged image, the initial residual
  // is already below tolerance, so CG exits (almost) immediately at the
  // same fixed point.
  const FrameResult warm_solve = warm.recon_frame(coords, values);
  EXPECT_TRUE(warm_solve.warm_started);
  EXPECT_TRUE(warm_solve.plan_reused);
  EXPECT_LT(warm_solve.iterations, cold_solve.iterations / 4);
  EXPECT_LT(core::nrmsd(warm_solve.image, cold_solve.image), 1e-4);
}

TEST(StreamPipeline, WarmStartSavesIterationsAtEqualAccuracy) {
  // The subsystem's core claim: over a slowly-varying sequence, warm-start
  // reaches the same per-frame accuracy (same CG tolerance) with fewer
  // total iterations.
  const FrameSource source(small_window(), 8);
  const DynamicPhantom phantom;
  PipelineConfig config = small_config();

  PipelineConfig cold_config = config;
  cold_config.warm_start = false;
  FramePipeline warm(config);
  FramePipeline cold(cold_config);

  double warm_nrmse = 0.0, cold_nrmse = 0.0;
  for (int f = 0; f < source.frames(); ++f) {
    const auto coords = source.frame_coords(f);
    const double t = source.frame_time(f);
    const auto values =
        phantom.kspace_at(coords, t, static_cast<int>(config.n));
    const FrameResult w = warm.recon_frame(coords, values);
    const FrameResult c = cold.recon_frame(coords, values);
    EXPECT_EQ(w.warm_started, f > 0) << "frame " << f;
    EXPECT_FALSE(c.warm_started) << "frame " << f;
    const auto truth = phantom.image_at(t, static_cast<int>(config.n));
    warm_nrmse += fitted_nrmse(w.image, truth);
    cold_nrmse += fitted_nrmse(c.image, truth);
  }
  const auto& ws = warm.stats();
  const auto& cs = cold.stats();
  EXPECT_EQ(ws.frames, 8u);
  EXPECT_EQ(ws.warm_frames, 7u);
  EXPECT_EQ(cs.cold_frames, 8u);
  // Strictly fewer iterations (frame 0 is cold in both, so any saving is
  // real), at per-frame accuracy within 5% of the cold run's.
  EXPECT_LT(ws.total_iterations, cs.total_iterations);
  EXPECT_LE(warm_nrmse, cold_nrmse * 1.05);
}

TEST(StreamPipeline, DivergenceGuardTripsOnSceneCut) {
  const FrameSource source(small_window(), 3);
  const DynamicPhantom phantom;
  PipelineConfig config = small_config();
  config.divergence_guard = 1.0;  // never accept a worse-than-cold seed

  FramePipeline pipeline(config);
  const auto coords = source.frame_coords(0);
  const auto values =
      phantom.kspace_at(coords, source.frame_time(0), static_cast<int>(config.n));
  pipeline.recon_frame(coords, values);

  // A scene cut: same trajectory, violently different data (negated and
  // rescaled), so the previous image is a terrible seed.
  std::vector<c64> cut = values;
  for (auto& v : cut) v = -25.0 * v;
  const FrameResult r = pipeline.recon_frame(coords, cut);
  EXPECT_TRUE(r.guard_tripped);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(pipeline.stats().guard_trips, 1u);

  // Warm-starting resumes from the post-cut image.
  const FrameResult next = pipeline.recon_frame(coords, cut);
  EXPECT_TRUE(next.warm_started);
  EXPECT_FALSE(next.guard_tripped);
}

TEST(StreamPipeline, PlanReuseTracksTrajectoryIdentity) {
  const FrameSource source(small_window(), 2);
  const DynamicPhantom phantom;
  FramePipeline pipeline(small_config());

  const auto coords0 = source.frame_coords(0);
  const auto v0 =
      phantom.kspace_at(coords0, source.frame_time(0), 32);
  EXPECT_FALSE(pipeline.recon_frame(coords0, v0).plan_reused);
  EXPECT_TRUE(pipeline.recon_frame(coords0, v0).plan_reused);
  // The window slid: new trajectory, new plan.
  const auto coords1 = source.frame_coords(1);
  const auto v1 =
      phantom.kspace_at(coords1, source.frame_time(1), 32);
  EXPECT_FALSE(pipeline.recon_frame(coords1, v1).plan_reused);
  EXPECT_EQ(pipeline.stats().plan_builds, 2u);
  EXPECT_EQ(pipeline.stats().plan_reuses, 1u);
}

TEST(StreamPipeline, ResetDropsWarmStateKeepsStats) {
  const FrameSource source(small_window(), 1);
  const DynamicPhantom phantom;
  FramePipeline pipeline(small_config());
  const auto coords = source.frame_coords(0);
  const auto values = phantom.kspace_at(coords, source.frame_time(0), 32);
  pipeline.recon_frame(coords, values);
  EXPECT_FALSE(pipeline.last_image().empty());
  pipeline.reset();
  EXPECT_TRUE(pipeline.last_image().empty());
  EXPECT_EQ(pipeline.stats().frames, 1u);
  // After reset the next frame is cold and rebuilds the plan.
  const FrameResult r = pipeline.recon_frame(coords, values);
  EXPECT_FALSE(r.warm_started);
  EXPECT_FALSE(r.plan_reused);
}

TEST(StreamPipeline, ExpiredDeadlinePreservesWarmState) {
  const FrameSource source(small_window(), 1);
  const DynamicPhantom phantom;
  FramePipeline pipeline(small_config());
  const auto coords = source.frame_coords(0);
  const auto values = phantom.kspace_at(coords, source.frame_time(0), 32);
  pipeline.recon_frame(coords, values);
  const std::vector<c64> before = pipeline.last_image();

  Deadline expired = Deadline::after_ms(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_THROW(pipeline.recon_frame(coords, values, expired),
               DeadlineExceeded);
  // The timed-out frame must not have clobbered the warm-start seed.
  EXPECT_EQ(core::max_abs_diff(pipeline.last_image(), before), 0.0);
}

// ------------------------------------------------- thread invariance

TEST(StreamPipeline, FrameSequenceBitExactAcrossThreads) {
  // A frame sequence is a chain: frame f's solve consumes frame f-1's
  // image. With a bit-exact engine the whole chain must be reproducible
  // bit-for-bit under any gridder thread count — one non-deterministic
  // frame would poison every later warm start.
  const FrameSource source(small_window(), 4);
  const DynamicPhantom phantom;

  auto run_chain = [&](unsigned threads) {
    PipelineConfig config = small_config();
    config.options.kind = core::GridderKind::Binning;  // bit-exact contract
    config.options.threads = threads;
    config.iters = 12;
    FramePipeline pipeline(config);
    std::vector<std::vector<c64>> images;
    for (int f = 0; f < source.frames(); ++f) {
      const auto coords = source.frame_coords(f);
      const auto values =
          phantom.kspace_at(coords, source.frame_time(f), 32);
      images.push_back(pipeline.recon_frame(coords, values).image);
    }
    return images;
  };

  const auto ref = run_chain(1);
  for (unsigned t : {2u, 8u}) {
    const auto got = run_chain(t);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t f = 0; f < ref.size(); ++f) {
      EXPECT_EQ(core::max_abs_diff(got[f], ref[f]), 0.0)
          << "threads=" << t << " frame=" << f;
    }
  }
}

}  // namespace
}  // namespace jigsaw::stream

// ------------------------------------------------- session serving

namespace jigsaw::serve {
namespace {

using stream::DynamicPhantom;
using stream::FrameSource;
using stream::FrameWindow;

FrameWindow test_window() {
  FrameWindow w;
  w.spokes_per_frame = 4;
  w.window_spokes = 10;
  w.samples_per_spoke = 32;
  return w;
}

OpenSessionWire open_wire(std::uint32_t n = 32) {
  OpenSessionWire open;
  open.engine = static_cast<std::uint32_t>(core::GridderKind::SliceDice);
  open.n = n;
  open.iters = 8;
  open.kernel_width = 4;
  return open;
}

PushFrameWire frame_wire(const FrameSource& source,
                         const DynamicPhantom& phantom, int f,
                         std::uint64_t session_id, std::uint32_t n = 32) {
  PushFrameWire push;
  push.session_id = session_id;
  push.frame_index = static_cast<std::uint64_t>(f);
  push.client_tag = static_cast<std::uint64_t>(f);
  push.coords = source.frame_coords(f);
  push.values =
      phantom.kspace_at(push.coords, source.frame_time(f), static_cast<int>(n));
  return push;
}

ServeConfig engine_config() {
  ServeConfig config;
  config.exec_threads = 2;
  return config;
}

TEST(StreamSessionProtocol, WireRoundTrips) {
  OpenSessionWire open = open_wire();
  open.warm_start = 0;
  open.divergence_guard = 2.5;
  open.frame_deadline_ms = 77;
  open.client_tag = 9;
  {
    const auto bytes = encode_open_session(open);
    const auto back = decode_open_session(bytes.data(), bytes.size());
    EXPECT_EQ(back.engine, open.engine);
    EXPECT_EQ(back.n, open.n);
    EXPECT_EQ(back.iters, open.iters);
    EXPECT_EQ(back.warm_start, 0u);
    EXPECT_EQ(back.divergence_guard, 2.5);
    EXPECT_EQ(back.frame_deadline_ms, 77u);
    EXPECT_EQ(back.client_tag, 9u);
  }
  const FrameSource source(test_window(), 1);
  const DynamicPhantom phantom;
  const PushFrameWire push = frame_wire(source, phantom, 0, 0xABCDull);
  {
    const auto bytes = encode_push_frame(push);
    const auto back = decode_push_frame(bytes.data(), bytes.size());
    EXPECT_EQ(back.session_id, push.session_id);
    ASSERT_EQ(back.coords.size(), push.coords.size());
    EXPECT_EQ(back.coords[5][1], push.coords[5][1]);
    ASSERT_EQ(back.values.size(), push.values.size());
    EXPECT_EQ(back.values[7], push.values[7]);
    // Truncated body must throw, not over-read.
    EXPECT_THROW(decode_push_frame(bytes.data(), bytes.size() - 5),
                 ProtocolError);
  }
  FrameReplyWire reply;
  reply.status = Status::kOk;
  reply.n = 32;
  reply.iterations = 6;
  reply.flags = kFrameWarmFlag | kFramePlanReusedFlag;
  reply.session_id = 0xABCDull;
  reply.frame_index = 3;
  reply.residual = 1e-5;
  reply.image.assign(32 * 32, c64{0.25, -0.5});
  {
    const auto bytes = encode_frame_reply(reply);
    const auto back = decode_frame_reply(bytes.data(), bytes.size());
    EXPECT_EQ(back.status, Status::kOk);
    EXPECT_EQ(back.iterations, 6u);
    EXPECT_EQ(back.flags, reply.flags);
    EXPECT_EQ(back.residual, reply.residual);
    ASSERT_EQ(back.image.size(), reply.image.size());
    EXPECT_EQ(back.image[100], reply.image[100]);
  }
}

TEST(StreamSessionEngine, OpenPushCloseLifecycle) {
  ServeEngine engine(engine_config());
  const FrameSource source(test_window(), 4);
  const DynamicPhantom phantom;

  const SessionOutcome opened = engine.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk) << opened.message;
  EXPECT_NE(opened.session_id, 0u);

  std::uint64_t iterations = 0;
  for (int f = 0; f < source.frames(); ++f) {
    std::promise<FrameOutcome> done;
    auto fut = done.get_future();
    engine.submit_frame(
        frame_job_from_wire(
            frame_wire(source, phantom, f, opened.session_id)),
        [&done](FrameOutcome outcome) { done.set_value(std::move(outcome)); });
    const FrameOutcome outcome = fut.get();
    ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
    EXPECT_EQ(outcome.frame_index, static_cast<std::uint64_t>(f));
    EXPECT_EQ(outcome.warm_started, f > 0) << "frame " << f;
    EXPECT_EQ(outcome.image.size(), std::size_t(32 * 32));
    iterations += static_cast<std::uint64_t>(outcome.iterations);
  }

  std::promise<SessionOutcome> closed_p;
  auto closed_f = closed_p.get_future();
  engine.submit_close(opened.session_id, 0, [&closed_p](SessionOutcome o) {
    closed_p.set_value(std::move(o));
  });
  const SessionOutcome closed = closed_f.get();
  EXPECT_EQ(closed.status, Status::kOk);
  EXPECT_EQ(closed.frames, 4u);
  EXPECT_EQ(closed.total_iterations, iterations);

  const EngineCounts counts = engine.counts();
  EXPECT_EQ(counts.sessions_opened, 1u);
  EXPECT_EQ(counts.sessions_closed, 1u);
  EXPECT_EQ(counts.active_sessions, 0u);
  EXPECT_EQ(counts.frames_submitted, 4u);
  EXPECT_EQ(counts.frames_ok, 4u);
  EXPECT_EQ(counts.warm_frames, 3u);
}

// A 2-coil session: every frame is the coil-major block of both coils, and
// its image is cg_sense with birdcage maps called directly, warm-started
// from the previous frame's image, bit for bit.
TEST(StreamSessionEngine, MultiCoilSessionMatchesDirectCgSense) {
  constexpr std::int64_t kN = 32;
  constexpr int kCoils = 2;
  constexpr int kFrames = 4;
  ServeEngine engine(engine_config());
  const FrameSource source(test_window(), kFrames);
  const DynamicPhantom phantom;
  OpenSessionWire open = open_wire(kN);
  open.coils = kCoils;
  const SessionOutcome opened = engine.open_session(open);
  ASSERT_EQ(opened.status, Status::kOk) << opened.message;

  core::GridderOptions options;
  options.kind = core::GridderKind::SliceDice;
  options.width = static_cast<int>(open.kernel_width);
  options.sigma = open.sigma;
  const auto maps = core::make_birdcage_maps(kN, kCoils);
  std::vector<c64> prev;
  for (int f = 0; f < kFrames; ++f) {
    const auto coords = source.frame_coords(f);
    const core::NufftPlan<2> plan(kN, coords, options);
    const auto truth = phantom.image_at(source.frame_time(f), kN);
    PushFrameWire push;
    push.coils = kCoils;
    push.session_id = opened.session_id;
    push.frame_index = static_cast<std::uint64_t>(f);
    push.coords = coords;
    push.values = core::simulate_multicoil(
        plan, maps, std::vector<c64>(truth.begin(), truth.end()));

    core::CgResult cg;
    const auto expected = core::cg_sense(
        plan, maps, push.values, static_cast<int>(open.iters),
        engine_config().cg_tolerance, &cg, 1, Deadline(),
        f > 0 ? &prev : nullptr);

    std::promise<FrameOutcome> done;
    auto fut = done.get_future();
    engine.submit_frame(
        frame_job_from_wire(std::move(push)),
        [&done](FrameOutcome outcome) { done.set_value(std::move(outcome)); });
    const FrameOutcome outcome = fut.get();
    ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
    EXPECT_EQ(outcome.warm_started, f > 0) << "frame " << f;
    EXPECT_FALSE(outcome.guard_tripped) << "frame " << f;
    EXPECT_EQ(outcome.iterations, cg.iterations) << "frame " << f;
    EXPECT_EQ(outcome.image, expected) << "frame " << f;
    prev = expected;
  }

  std::promise<SessionOutcome> closed_p;
  auto closed_f = closed_p.get_future();
  engine.submit_close(opened.session_id, 0, [&closed_p](SessionOutcome o) {
    closed_p.set_value(std::move(o));
  });
  EXPECT_EQ(closed_f.get().frames, static_cast<std::uint64_t>(kFrames));
  const EngineCounts counts = engine.counts();
  EXPECT_EQ(counts.frames_submitted, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(counts.frames_ok, counts.frames_submitted);
  EXPECT_EQ(counts.warm_frames, static_cast<std::uint64_t>(kFrames - 1));
}

TEST(StreamSessionEngine, RejectsUnknownAndClosedSessions) {
  ServeEngine engine(engine_config());
  const FrameSource source(test_window(), 1);
  const DynamicPhantom phantom;

  // Unknown session id.
  std::promise<FrameOutcome> p1;
  auto f1 = p1.get_future();
  engine.submit_frame(
      frame_job_from_wire(frame_wire(source, phantom, 0, 0x1234ull)),
      [&p1](FrameOutcome o) { p1.set_value(std::move(o)); });
  EXPECT_EQ(f1.get().status, Status::kRejected);

  // Push after close is rejected even while the close drains.
  const SessionOutcome opened = engine.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk);
  std::promise<SessionOutcome> pc;
  auto fc = pc.get_future();
  engine.submit_close(opened.session_id, 0,
                      [&pc](SessionOutcome o) { pc.set_value(std::move(o)); });
  std::promise<FrameOutcome> p2;
  auto f2 = p2.get_future();
  engine.submit_frame(
      frame_job_from_wire(frame_wire(source, phantom, 0, opened.session_id)),
      [&p2](FrameOutcome o) { p2.set_value(std::move(o)); });
  EXPECT_EQ(f2.get().status, Status::kRejected);
  EXPECT_EQ(fc.get().status, Status::kOk);
}

TEST(StreamSessionEngine, CapsConcurrentSessions) {
  ServeConfig config = engine_config();
  config.max_sessions = 2;
  ServeEngine engine(config);
  // The iteration bounds refuse an open before any session exists: a
  // session needs at least one CG iteration, and the wire's u32 iters is
  // compared unsigned, so 2^31 and above are refused by the cap too, never
  // wrapped past it.
  const auto max_iters = static_cast<std::uint32_t>(config.max_iters);
  for (const std::uint32_t iters :
       {0u, max_iters + 1, 1u << 31, 0xFFFFFFFFu}) {
    OpenSessionWire deep = open_wire();
    deep.iters = iters;
    const SessionOutcome refused = engine.open_session(deep);
    EXPECT_EQ(refused.status, Status::kRejected) << iters;
    EXPECT_EQ(refused.message.rfind("iteration count outside", 0), 0u)
        << refused.message;
  }
  EXPECT_EQ(engine.counts().active_sessions, 0u);
  const SessionOutcome a = engine.open_session(open_wire());
  const SessionOutcome b = engine.open_session(open_wire());
  ASSERT_EQ(a.status, Status::kOk);
  ASSERT_EQ(b.status, Status::kOk);
  EXPECT_NE(a.session_id, b.session_id);
  EXPECT_EQ(engine.open_session(open_wire()).status, Status::kRejected);
}

TEST(StreamSessionEngine, DrainAnswersEveryInFlightFrame) {
  // The lossless-drain contract: frames accepted before drain() are all
  // answered (ok or timeout — never dropped), and drain() returns only
  // after the last callback fired.
  ServeEngine engine(engine_config());
  const int frames = 6;
  const FrameSource source(test_window(), frames);
  const DynamicPhantom phantom;
  const SessionOutcome opened = engine.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk);

  std::vector<std::future<FrameOutcome>> futures;
  auto promises =
      std::make_shared<std::vector<std::promise<FrameOutcome>>>(frames);
  for (int f = 0; f < frames; ++f) {
    futures.push_back((*promises)[static_cast<std::size_t>(f)].get_future());
    engine.submit_frame(
        frame_job_from_wire(frame_wire(source, phantom, f, opened.session_id)),
        [promises, f](FrameOutcome o) {
          (*promises)[static_cast<std::size_t>(f)].set_value(std::move(o));
        });
  }
  engine.drain();
  int ok = 0;
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "drain() returned with a frame still unanswered";
    const FrameOutcome o = fut.get();
    EXPECT_TRUE(o.status == Status::kOk || o.status == Status::kTimeout);
    if (o.status == Status::kOk) ++ok;
  }
  EXPECT_GT(ok, 0);
  const EngineCounts counts = engine.counts();
  EXPECT_EQ(counts.frames_submitted, static_cast<std::uint64_t>(frames));
  EXPECT_EQ(counts.frames_completed(), counts.frames_submitted);
  // Post-drain traffic is rejected outright.
  EXPECT_EQ(engine.open_session(open_wire()).status, Status::kRejected);
}

// ------------------------------------------------- socket round trip

TEST(StreamServe, SessionOverSocketWithWarmStart) {
  ServeConfig config = engine_config();
  config.listen = "127.0.0.1:0";
  ReconServer server(config);
  server.start();
  const std::string endpoint = to_string(server.bound_endpoints().front());

  const int frames = 5;
  const FrameSource source(test_window(), frames);
  const DynamicPhantom phantom;
  ServeClient client(endpoint);

  const SessionReplyWire opened = client.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk) << opened.message;

  std::uint64_t iterations = 0;
  for (int f = 0; f < frames; ++f) {
    const FrameReplyWire reply =
        client.push_frame(frame_wire(source, phantom, f, opened.session_id));
    ASSERT_EQ(reply.status, Status::kOk) << reply.message;
    EXPECT_EQ(reply.frame_index, static_cast<std::uint64_t>(f));
    EXPECT_EQ(reply.client_tag, static_cast<std::uint64_t>(f));
    EXPECT_EQ((reply.flags & kFrameWarmFlag) != 0, f > 0) << "frame " << f;
    EXPECT_EQ(reply.image.size(), std::size_t(32 * 32));
    iterations += reply.iterations;
  }

  CloseSessionWire close;
  close.session_id = opened.session_id;
  const SessionReplyWire closed = client.close_session(close);
  EXPECT_EQ(closed.status, Status::kOk);
  EXPECT_EQ(closed.frames, static_cast<std::uint64_t>(frames));
  EXPECT_EQ(closed.total_iterations, iterations);
  server.stop();
}

TEST(StreamServe, StopAnswersPipelinedInFlightFrames) {
  // The SIGTERM-drain contract over the wire: push several frames without
  // reading replies (pipelined), stop the server mid-stream, then read —
  // every pushed frame must have a terminal reply queued, zero drops.
  ServeConfig config = engine_config();
  config.listen = "127.0.0.1:0";
  auto server = std::make_unique<ReconServer>(config);
  server->start();
  const std::string endpoint = to_string(server->bound_endpoints().front());

  const int frames = 4;
  const FrameSource source(test_window(), frames);
  const DynamicPhantom phantom;
  ServeClient client(endpoint);
  const SessionReplyWire opened = client.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk);

  for (int f = 0; f < frames; ++f) {
    client.send_push_frame(frame_wire(source, phantom, f, opened.session_id));
  }
  // Stop concurrently with the in-flight frames; stop() drains the engine,
  // so every queued frame still gets its reply before the socket closes.
  std::thread stopper([&server] { server->stop(); });
  int answered = 0;
  for (int f = 0; f < frames; ++f) {
    const FrameReplyWire reply = client.recv_frame_reply();
    EXPECT_EQ(reply.frame_index, static_cast<std::uint64_t>(f));
    EXPECT_TRUE(reply.status == Status::kOk ||
                reply.status == Status::kTimeout ||
                reply.status == Status::kRejected)
        << to_string(reply.status);
    ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, frames);
}

// ------------------------------------------------- router stickiness

TEST(StreamRouter, SessionSticksToOneWorkerThroughRouter) {
  std::vector<std::unique_ptr<ReconServer>> fleet;
  std::vector<std::string> specs;
  for (int w = 0; w < 2; ++w) {
    ServeConfig config = engine_config();
    config.listen = "127.0.0.1:0";
    fleet.push_back(std::make_unique<ReconServer>(config));
    fleet.back()->start();
    specs.push_back(to_string(fleet.back()->bound_endpoints().front()));
  }
  RouterConfig rconfig;
  rconfig.listen = "127.0.0.1:0";
  rconfig.workers = specs;
  rconfig.connect_timeout_ms = 500;
  Router router(rconfig);
  router.start();
  ServeClient client(to_string(router.bound_endpoints().front()));

  const int frames = 5;
  const FrameSource source(test_window(), frames);
  const DynamicPhantom phantom;
  const SessionReplyWire opened = client.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk) << opened.message;

  for (int f = 0; f < frames; ++f) {
    const FrameReplyWire reply =
        client.push_frame(frame_wire(source, phantom, f, opened.session_id));
    ASSERT_EQ(reply.status, Status::kOk) << reply.message;
    // Warm continuity across frames proves every push landed on the SAME
    // worker: a rerouted frame would find no session (or a cold pipeline).
    EXPECT_EQ((reply.flags & kFrameWarmFlag) != 0, f > 0) << "frame " << f;
  }

  CloseSessionWire close;
  close.session_id = opened.session_id;
  const SessionReplyWire closed = client.close_session(close);
  EXPECT_EQ(closed.status, Status::kOk);
  EXPECT_EQ(closed.frames, static_cast<std::uint64_t>(frames));

  const RouterCounts rc = router.counts();
  EXPECT_EQ(rc.session_opens, 1u);
  EXPECT_EQ(rc.session_frames, static_cast<std::uint64_t>(frames));
  EXPECT_EQ(rc.session_closes, 1u);
  EXPECT_EQ(rc.sessions_pinned, 0u);  // unpinned at close

  // Exactly one worker hosted the session; the other saw no frames.
  std::uint64_t hosted = 0, idle = 0;
  for (const auto& worker : fleet) {
    const EngineCounts c = worker->engine().counts();
    if (c.frames_submitted > 0) {
      ++hosted;
      EXPECT_EQ(c.frames_ok, static_cast<std::uint64_t>(frames));
      EXPECT_EQ(c.sessions_opened, 1u);
      EXPECT_EQ(c.sessions_closed, 1u);
    } else {
      ++idle;
      EXPECT_EQ(c.sessions_opened, 0u);
    }
  }
  EXPECT_EQ(hosted, 1u);
  EXPECT_EQ(idle, 1u);

  router.stop();
  for (auto& worker : fleet) worker->stop();
}

TEST(StreamRouter, UnknownSessionRejectedAtRouter) {
  ServeConfig config = engine_config();
  config.listen = "127.0.0.1:0";
  ReconServer worker(config);
  worker.start();
  RouterConfig rconfig;
  rconfig.listen = "127.0.0.1:0";
  rconfig.workers = {to_string(worker.bound_endpoints().front())};
  Router router(rconfig);
  router.start();
  ServeClient client(to_string(router.bound_endpoints().front()));

  const FrameSource source(test_window(), 1);
  const DynamicPhantom phantom;
  const FrameReplyWire reply =
      client.push_frame(frame_wire(source, phantom, 0, 0xDEADull));
  EXPECT_EQ(reply.status, Status::kRejected);
  EXPECT_NE(reply.message.find("unknown session"), std::string::npos)
      << reply.message;
  router.stop();
  worker.stop();
}

// ------------------------------------------------- router session failures

/// TCP workers behind a router with health pings off, so every worker loss
/// below is found by the forwarding path itself, deterministically.
struct RoutedFleet {
  std::vector<std::unique_ptr<ReconServer>> workers;
  std::unique_ptr<Router> router;
};

RoutedFleet routed_fleet(int workers,
                         const ServeConfig& worker = engine_config()) {
  RoutedFleet fleet;
  RouterConfig rconfig;
  rconfig.listen = "127.0.0.1:0";
  rconfig.connect_timeout_ms = 500;
  rconfig.health_interval_ms = 0;
  for (int w = 0; w < workers; ++w) {
    ServeConfig config = worker;
    config.listen = "127.0.0.1:0";
    fleet.workers.push_back(std::make_unique<ReconServer>(config));
    fleet.workers.back()->start();
    rconfig.workers.push_back(
        to_string(fleet.workers.back()->bound_endpoints().front()));
  }
  fleet.router = std::make_unique<Router>(rconfig);
  fleet.router->start();
  return fleet;
}

std::string router_endpoint(const RoutedFleet& fleet) {
  return to_string(fleet.router->bound_endpoints().front());
}

/// One session's totals over a whole frame sequence.
struct SessionRun {
  std::uint64_t frames = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeout = 0;
  std::uint64_t warm_frames = 0;  // warm-started, guard not tripped
  std::uint64_t iterations = 0;   // from the close reply
  double mean_nrmse = 0.0;        // over the OK frames
};

SessionRun run_session(const std::string& endpoint, const FrameSource& source,
                       const DynamicPhantom& phantom, std::uint32_t n,
                       bool warm) {
  ServeClient client(endpoint);
  OpenSessionWire open;
  open.n = n;
  open.iters = 60;
  open.warm_start = warm ? 1u : 0u;
  const SessionReplyWire opened = client.open_session(open);
  EXPECT_EQ(opened.status, Status::kOk) << opened.message;

  SessionRun run;
  double nrmse_sum = 0.0;
  for (int f = 0; f < source.frames(); ++f) {
    const FrameReplyWire reply =
        client.push_frame(frame_wire(source, phantom, f, opened.session_id, n));
    ++run.frames;
    if (reply.status == Status::kOk) {
      ++run.ok;
      nrmse_sum += stream::fitted_nrmse(
          reply.image, phantom.image_at(source.frame_time(f),
                                        static_cast<int>(n)));
    } else if (reply.status == Status::kTimeout) {
      ++run.timeout;
    } else {
      ADD_FAILURE() << "frame " << f << ": " << to_string(reply.status)
                    << " " << reply.message;
    }
    if ((reply.flags & kFrameWarmFlag) && !(reply.flags & kFrameGuardFlag)) {
      ++run.warm_frames;
    }
  }
  CloseSessionWire close;
  close.session_id = opened.session_id;
  const SessionReplyWire closed = client.close_session(close);
  EXPECT_EQ(closed.status, Status::kOk) << closed.message;
  EXPECT_EQ(closed.frames, run.ok);
  run.iterations = closed.total_iterations;
  if (run.ok > 0) run.mean_nrmse = nrmse_sum / static_cast<double>(run.ok);
  return run;
}

// The streaming subsystem's acceptance floor, end to end: a 32-frame
// sliding window (n48, 13 of 34 spokes new per frame) through a router to
// 2 workers, once cold and once warm over identical frames. The solve is
// bound by the CG tolerance, not the iteration cap, so both runs reach the
// same accuracy and warm start must save at least 30 % of the iterations.
TEST(StreamRouter, WarmStartSavesThirtyPercentOfIterationsThroughRouter) {
  ServeConfig worker = engine_config();
  worker.cg_tolerance = 1e-4;
  worker.max_iters = 128;
  RoutedFleet fleet = routed_fleet(2, worker);

  constexpr std::uint32_t n = 48;
  FrameWindow window;
  window.spokes_per_frame = 13;
  window.window_spokes = 34;
  window.samples_per_spoke = static_cast<int>(n);
  const FrameSource source(window, 32);
  const DynamicPhantom phantom;

  const SessionRun cold =
      run_session(router_endpoint(fleet), source, phantom, n, false);
  const SessionRun warm =
      run_session(router_endpoint(fleet), source, phantom, n, true);
  for (const SessionRun* run : {&cold, &warm}) {
    EXPECT_EQ(run->ok, 32u);
    EXPECT_EQ(run->frames, run->ok + run->timeout);
  }
  EXPECT_EQ(cold.warm_frames, 0u);
  EXPECT_EQ(warm.warm_frames, 31u);
  EXPECT_LE(warm.iterations * 10, cold.iterations * 7)
      << "warm " << warm.iterations << " vs cold " << cold.iterations
      << " CG iterations";
  EXPECT_LE(warm.mean_nrmse, cold.mean_nrmse * 1.05);
}

TEST(StreamRouter, PushToLostHomeWorkerErrorsAndDropsThePin) {
  RoutedFleet fleet = routed_fleet(2);
  ServeClient client(router_endpoint(fleet));
  const FrameSource source(test_window(), 3);
  const DynamicPhantom phantom;
  const SessionReplyWire opened = client.open_session(open_wire());
  ASSERT_EQ(opened.status, Status::kOk) << opened.message;
  ASSERT_EQ(client.push_frame(frame_wire(source, phantom, 0, opened.session_id))
                .status,
            Status::kOk);

  // Kill the home worker: the session's pipeline state dies with it.
  for (auto& worker : fleet.workers) {
    if (worker->engine().counts().sessions_opened == 1) worker.reset();
  }
  const FrameReplyWire lost =
      client.push_frame(frame_wire(source, phantom, 1, opened.session_id));
  EXPECT_EQ(lost.status, Status::kError) << lost.message;
  EXPECT_EQ(fleet.router->counts().sessions_pinned, 0u);

  // No failover: the next push is refused by the router itself.
  const FrameReplyWire after =
      client.push_frame(frame_wire(source, phantom, 2, opened.session_id));
  EXPECT_EQ(after.status, Status::kRejected);
  EXPECT_NE(after.message.find("router: unknown session"), std::string::npos)
      << after.message;

  const RouterCounts rc = fleet.router->counts();
  EXPECT_EQ(rc.session_frames, 3u);
  EXPECT_EQ(rc.errors, 1u);
  EXPECT_EQ(rc.rejected, 1u);
  EXPECT_EQ(rc.received, rc.completed());
  for (const auto& worker : fleet.workers) {
    if (worker) {
      EXPECT_EQ(worker->engine().counts().frames_submitted, 0u);
    }
  }
}

TEST(StreamRouter, OpenSpillsPastDeadTopRankedWorkerAndSticksThere) {
  RoutedFleet fleet = routed_fleet(2);
  const OpenSessionWire open = open_wire();
  const std::uint64_t key = Router::session_shard_hash(open);
  const std::size_t top =
      Router::rendezvous_score(key, 0) >= Router::rendezvous_score(key, 1)
          ? 0
          : 1;
  const std::size_t spill = 1 - top;
  fleet.workers[top].reset();

  ServeClient client(router_endpoint(fleet));
  const SessionReplyWire opened = client.open_session(open);
  ASSERT_EQ(opened.status, Status::kOk) << opened.message;
  {
    const RouterCounts rc = fleet.router->counts();
    EXPECT_GE(rc.reroutes, 1u);
    EXPECT_EQ(rc.sessions_pinned, 1u);
    EXPECT_FALSE(rc.workers[top].healthy);
  }

  const int frames = 3;
  const FrameSource source(test_window(), frames);
  const DynamicPhantom phantom;
  for (int f = 0; f < frames; ++f) {
    const FrameReplyWire reply =
        client.push_frame(frame_wire(source, phantom, f, opened.session_id));
    ASSERT_EQ(reply.status, Status::kOk) << reply.message;
    EXPECT_EQ((reply.flags & kFrameWarmFlag) != 0, f > 0) << "frame " << f;
  }
  const EngineCounts c = fleet.workers[spill]->engine().counts();
  EXPECT_EQ(c.sessions_opened, 1u);
  EXPECT_EQ(c.frames_ok, static_cast<std::uint64_t>(frames));
}

TEST(StreamRouter, CloseAlwaysDropsThePin) {
  RoutedFleet fleet = routed_fleet(1);
  ServeClient client(router_endpoint(fleet));
  const SessionReplyWire a = client.open_session(open_wire());
  const SessionReplyWire b = client.open_session(open_wire());
  ASSERT_EQ(a.status, Status::kOk) << a.message;
  ASSERT_EQ(b.status, Status::kOk) << b.message;
  ASSERT_EQ(fleet.router->counts().sessions_pinned, 2u);

  const FrameSource source(test_window(), 1);
  const DynamicPhantom phantom;
  const auto expect_unknown_at_router = [&](std::uint64_t session_id) {
    const FrameReplyWire reply =
        client.push_frame(frame_wire(source, phantom, 0, session_id));
    EXPECT_EQ(reply.status, Status::kRejected);
    EXPECT_NE(reply.message.find("router: unknown session"),
              std::string::npos)
        << reply.message;
  };

  // A close the worker answers drops the pin.
  CloseSessionWire close;
  close.session_id = a.session_id;
  EXPECT_EQ(client.close_session(close).status, Status::kOk);
  EXPECT_EQ(fleet.router->counts().sessions_pinned, 1u);
  expect_unknown_at_router(a.session_id);
  EXPECT_EQ(fleet.workers[0]->engine().counts().frames_submitted, 0u);

  // So does a close whose worker is gone.
  fleet.workers[0].reset();
  close.session_id = b.session_id;
  const SessionReplyWire closed = client.close_session(close);
  EXPECT_EQ(closed.status, Status::kError) << closed.message;
  EXPECT_EQ(fleet.router->counts().sessions_pinned, 0u);
  expect_unknown_at_router(b.session_id);
}

}  // namespace
}  // namespace jigsaw::serve
