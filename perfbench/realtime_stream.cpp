// realtime-stream: an open loop pushing sliding-window golden-angle frames
// of stream::DynamicPhantom into one session through the Router, one frame
// every kIntervalMs whether or not earlier frames are answered. One sender
// thread pipelines send_push_frame on a fixed schedule; one receiver thread
// collects recv_frame_reply. Frames solve by warm-started CG with the
// divergence guard on an n = 48 grid (oversampled 96, the Bluestein FFT).
//
// Latency is timed from each frame's due time, so a stall also charges the
// frames queued behind it; the sender's own lateness is reported apart.
//
// A traced run replays the first kSample frames in a fresh session through
// direct core calls, the in-process engine, a worker socket and the router,
// untraced and then traced.
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/recon.hpp"
#include "fft/plan_cache.hpp"
#include "serve/client.hpp"
#include "serve/session.hpp"
#include "stream/frame_source.hpp"

namespace perfbench {
namespace {

namespace core = jigsaw::core;
namespace obs = jigsaw::obs;
namespace serve = jigsaw::serve;
namespace stream = jigsaw::stream;
using jigsaw::Coord;

constexpr std::uint32_t kN = 48;  // grid 96: not a power of two
constexpr std::uint32_t kIters = 30;
constexpr double kTolerance = 1e-4;
constexpr double kGuard = 1.0;
// About half of what the reference host serves while it is loaded by other
// tenants (a frame then takes 100-170 ms), so deadline misses stay rare.
constexpr double kIntervalMs = 300.0;
constexpr int kSample = 9;  // replayed frames; the first, cold, is not timed
constexpr int kReplays = 2;  // fresh-session passes per entry point
constexpr int kSetups = 9;
constexpr double kMatchTol = 1e-9;

serve::ServeConfig worker_config() {
  serve::ServeConfig c;
  c.exec_threads = 1;
  c.cg_tolerance = kTolerance;
  return c;
}

serve::OpenSessionWire open_request() {
  serve::OpenSessionWire o;
  o.engine = static_cast<std::uint32_t>(core::GridderKind::SliceDice);
  o.n = kN;
  o.iters = kIters;
  o.warm_start = 1;
  o.divergence_guard = kGuard;
  return o;
}

/// Frames and their exact k-space, generated before timing. Frame 0 is the
/// set-up's warm-up frame; frames 1.. are measured.
struct Frames {
  stream::DynamicPhantom phantom;
  std::unique_ptr<stream::FrameSource> source;
  std::vector<serve::PushFrameWire> push;

  Frames(std::uint64_t seed, int count) {
    // The seed turns the spoke stream and shifts where in the phantom's
    // cycle the sequence starts; the work per frame stays alike.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double theta = M_PI * u(rng);
    phase = u(rng);
    stream::FrameWindow window;
    window.samples_per_spoke = static_cast<int>(kN);
    source = std::make_unique<stream::FrameSource>(window, count);
    for (int f = 0; f < count; ++f) {
      serve::PushFrameWire p;
      p.frame_index = static_cast<std::uint64_t>(f);
      p.client_tag = static_cast<std::uint64_t>(f);
      p.coords = rotated(source->frame_coords(f), theta);
      p.values = phantom.kspace_at(p.coords, time(f), static_cast<int>(kN));
      push.push_back(std::move(p));
    }
  }

  /// Phantom time of frame f.
  double time(int f) const { return source->frame_time(f) + phase; }

  double phase = 0.0;
};

/// Fleet, router connection and open session; one warm-up frame answered.
struct Deployment {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<serve::ServeClient> client;
  std::uint64_t session = 0;

  void start(Frames& frames) {
    fleet = std::make_unique<Fleet>(1, worker_config());
    client = std::make_unique<serve::ServeClient>(fleet->router_endpoint());
    const auto opened = client->open_session(open_request());
    if (opened.status != serve::Status::kOk) {
      throw std::runtime_error("open_session failed: " + opened.message);
    }
    session = opened.session_id;
    auto warm = frames.push[0];
    warm.session_id = session;
    if (client->push_frame(warm).status != serve::Status::kOk) {
      throw std::runtime_error("warm-up frame failed");
    }
  }
  void stop() {
    client.reset();
    fleet.reset();
  }
};

/// What FramePipeline does for one frame, as direct public core calls:
/// plan build, adjoint right-hand side, warm-started CG and the guard.
/// Spans are "pb.*" except under the "warm-up" tag.
std::vector<c64> direct_frame(const serve::PushFrameWire& f,
                              const std::vector<c64>& prev, Report& report,
                              const std::string& tag) {
  const std::string ns = tag == "warm-up" ? "warm-up." : "pb.";
  obs::Span span(ns + "path.direct");
  std::unique_ptr<core::NufftPlan<2>> plan;
  core::GridderOptions options;
  options.threads = 1;
  {
    obs::Span build(ns + "plan");
    plan = std::make_unique<core::NufftPlan<2>>(kN, f.coords, options);
  }
  TimedNufft nufft(*plan, report, tag);
  obs::Span solve(ns + "solve");
  const auto b = nufft.adjoint(f.values);
  const auto gram = [&](const std::vector<c64>& v) {
    return nufft.adjoint(nufft.forward(v));
  };
  std::vector<c64> x = prev.size() == b.size() ? prev : std::vector<c64>();
  const bool warm = !x.empty();
  const auto cg = core::conjugate_gradient(gram, b, x, kIters, kTolerance);
  if (warm && !cg.residual_history.empty() &&
      cg.residual_history.front() > kGuard) {
    x.clear();
    core::conjugate_gradient(gram, b, x, kIters, kTolerance);
  }
  return x;
}

/// Replay frames 1..kSample through the four entry points, each in a fresh
/// session of its own. Every frame goes through the entry points back to
/// back, so their differences are taken under the same host conditions.
/// Frame 1 starts cold and only seeds the warm starts: it is not timed and
/// its direct calls carry no "pb." span.
void replay(Frames& frames, Fleet& fleet, Report& report,
            const std::string& tag) {
  serve::ServeSession engine(worker_config());
  serve::ServeClient worker(fleet.worker_endpoints().front());
  serve::ServeClient router(fleet.router_endpoint());
  const auto engine_session =
      engine.engine().open_session(open_request()).session_id;
  const auto worker_session = worker.open_session(open_request()).session_id;
  const auto router_session = router.open_session(open_request()).session_id;
  std::vector<c64> prev;  // the direct calls' warm start
  for (int f = 1; f <= kSample; ++f) {
    const bool timed = f > 1;
    std::vector<c64> reference;
    for (const Path p : {Path::kDirect, Path::kEngine, Path::kSocket,
                         Path::kRouter}) {
      serve::PushFrameWire push = frames.push[f];
      serve::FrameReplyWire reply;
      const CounterDelta work;
      const auto t0 = Clock::now();
      switch (p) {
        case Path::kDirect:
          reply.status = serve::Status::kOk;
          reply.image =
              direct_frame(push, prev, report, timed ? tag : "warm-up");
          break;
        case Path::kEngine: {
          obs::Span span("pb.path.engine");
          push.session_id = engine_session;
          std::promise<serve::FrameOutcome> done;
          auto fut = done.get_future();
          engine.engine().submit_frame(
              serve::frame_job_from_wire(std::move(push)),
              [&done](serve::FrameOutcome o) { done.set_value(std::move(o)); });
          auto out = fut.get();
          reply.status = out.status;
          reply.message = out.message;
          reply.image = std::move(out.image);
          break;
        }
        case Path::kSocket: {
          obs::Span span("pb.path.socket");
          push.session_id = worker_session;
          reply = worker.push_frame(push);
          break;
        }
        case Path::kRouter: {
          obs::Span span("pb.path.router");
          push.session_id = router_session;
          reply = router.push_frame(push);
          break;
        }
      }
      const double ms = ms_between(t0, Clock::now());
      if (p == Path::kDirect && timed) {
        report.add(tag + ".direct.interpolations",
                   work.sum("grid.", ".interpolations"));
      }
      if (timed) report.series[tag + ".path." + path_name(p)].push_back(ms);
      report.check(reply.status == serve::Status::kOk,
                   std::string("replay frame OK via ") + path_name(p),
                   reply.message);
      if (p == Path::kDirect) {
        reference = reply.image;
        prev = reply.image;
      } else {
        const double err = rel_l2(reply.image, reference);
        report.check(err <= kMatchTol,
                     std::string("frame matches direct calls via ") +
                         path_name(p),
                     "rel-L2 " + std::to_string(err));
      }
      if (p == Path::kRouter && timed) {
        const auto t1 = Clock::now();
        std::size_t bytes = 0;
        {
          obs::Span span("pb.codec");
          const auto body = serve::encode_push_frame(frames.push[f]);
          const auto back = serve::decode_push_frame(body.data(), body.size());
          const auto rbody = serve::encode_frame_reply(reply);
          const auto rback =
              serve::decode_frame_reply(rbody.data(), rbody.size());
          bytes = body.size() + rbody.size();
          report.check(back.coords.size() == frames.push[f].coords.size() &&
                           rback.image.size() == reply.image.size(),
                       "codec round trip", "size mismatch");
        }
        report.series[tag + ".codec"].push_back(ms_between(t1, Clock::now()));
        report.add(tag + ".wire_bytes", static_cast<double>(bytes));
      }
    }
  }
  std::promise<void> closed;
  engine.engine().submit_close(engine_session, 0, [&closed](auto) {
    closed.set_value();
  });
  closed.get_future().get();
  serve::CloseSessionWire close;
  close.session_id = worker_session;
  worker.close_session(close);
  close.session_id = router_session;
  router.close_session(close);
}

}  // namespace

void run_realtime_stream(const RunOptions& opt, Report& report) {
  const double open_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const int measured =
      std::max(kSample, static_cast<int>(1e3 * open_s / kIntervalMs));
  Frames frames(opt.seed, measured + 1);

  Deployment dep;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) dep.stop();
    jigsaw::fft::FftPlanCache::global().clear();
    const auto t0 = Clock::now();
    dep.start(frames);
    report.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  for (auto& p : frames.push) p.session_id = dep.session;

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kIntervalMs));
  std::vector<double> due(measured), sent(measured), replied(measured, NAN);
  std::vector<serve::FrameReplyWire> replies(measured);
  std::string send_error;
  const CounterDelta counters;
  // Each frame runs with the whole process on the next CPU in turn.
  CpuRotation cpus;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  std::thread sender([&] {
    try {
      for (int f = 0; f < measured; ++f) {
        const auto at = start + f * interval;
        std::this_thread::sleep_until(at);
        cpus.next();
        due[f] = ms_between(start, at);
        sent[f] = ms_between(start, Clock::now());
        dep.client->send_push_frame(frames.push[f + 1]);
      }
    } catch (const std::exception& e) {
      send_error = e.what();
      ::shutdown(dep.client->fd(), SHUT_RDWR);  // unblock the receiver
    }
  });
  std::string recv_error;
  int answered = 0;
  try {
    for (; answered < measured; ++answered) {
      replies[answered] = dep.client->recv_frame_reply();
      replied[answered] = ms_between(start, Clock::now());
    }
  } catch (const std::exception& e) {
    recv_error = e.what();
    ::shutdown(dep.client->fd(), SHUT_RDWR);  // unblock the sender
  }
  sender.join();
  report.wall_s = seconds_between(start, Clock::now());
  cpus.restore();
  report.check(send_error.empty(), "sender", send_error);
  report.check(recv_error.empty(), "receiver", recv_error);

  std::vector<double> ok(measured, 0.0);
  double warm = 0, trips = 0, reused = 0;
  for (int f = 0; f < answered; ++f) {
    const auto& r = replies[f];
    report.check(r.frame_index == static_cast<std::uint64_t>(f + 1),
                 "replies in push order", std::to_string(r.frame_index));
    if (r.status == serve::Status::kOk) {
      ok[f] = 1.0;
      report.nrmse.push_back(fitted_nrmse(
          r.image, frames.phantom.image_at(frames.time(f + 1),
                                           static_cast<int>(kN))));
    } else {
      ++report.failed;
    }
    if (r.flags & serve::kFrameGuardFlag) {
      ++trips;
    } else if (r.flags & serve::kFrameWarmFlag) {
      ++warm;
    }
    if (r.flags & serve::kFramePlanReusedFlag) ++reused;
  }
  // Latency, lateness and deadline accounting happen in run.py.
  report.series["due_ms"] = due;
  report.series["sent_ms"] = sent;
  report.series["replied_ms"] = replied;
  report.series["ok"] = ok;
  report.values["interval_ms"] = kIntervalMs;
  report.attempted = static_cast<std::uint64_t>(measured);
  report.failed += static_cast<std::uint64_t>(measured - answered);
  report.values["stream.frames"] = answered;
  report.values["stream.warm_frames"] = warm;
  report.values["stream.guard_trips"] = trips;
  report.values["stream.plan_reuses"] = reused;
  report.values["untraced.ops"] = answered;
  report.values["untraced.wall_s"] = report.wall_s;
  counters.record(report, "untraced");

  serve::CloseSessionWire close;
  close.session_id = dep.session;
  const auto closed = dep.client->close_session(close);
  const auto pushed = static_cast<std::uint64_t>(measured) + 1;  // + warm-up
  report.check(closed.status == serve::Status::kOk, "close_session",
               closed.message);
  report.check(closed.frames == pushed &&
                   static_cast<std::uint64_t>(answered) + 1 == pushed,
               "frames pushed == answered == close reply frames",
               std::to_string(pushed) + " pushed, " +
                   std::to_string(answered + 1) + " answered, " +
                   std::to_string(closed.frames) + " in close reply");
  record_fleet(*dep.fleet, report);

  if (opt.trace) {
    for (int r = 0; r < kReplays; ++r) {
      replay(frames, *dep.fleet, report, "untraced");
    }
    report.trace_path = opt.work_dir + "/realtime-stream.trace.json";
    obs::trace_start();
    for (int r = 0; r < kReplays; ++r) {
      replay(frames, *dep.fleet, report, "traced");
    }
    obs::trace_stop_write(report.trace_path);
  }
  dep.client.reset();
  check_fleet(*dep.fleet, report);
}

}  // namespace perfbench
