// jigsaw_client: command-line client for jigsaw_serve / jigsaw_router.
//
//   jigsaw_client recon --endpoint unix:/tmp/jigsaw_serve.sock --n 128
//       --samples 40000 --traj radial --engine serial --out img.pgm
//   jigsaw_client stats --endpoint 127.0.0.1:7421
//
// --endpoint accepts "unix:/path" or "host:port" (--socket PATH is the
// older spelling of the Unix form and still works). recon synthesizes
// Shepp-Logan k-space on the requested trajectory (the same data path
// jigsaw_cli uses), sends it, and reports the reply status and round-trip
// time; --count N repeats the request sequentially.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/pgm.hpp"
#include "core/gridder.hpp"
#include "robustness/sanitize.hpp"
#include "serve/client.hpp"
#include "stream/frame_source.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace {

using namespace jigsaw;

trajectory::TrajectoryType parse_traj(const std::string& s) {
  if (s == "radial") return trajectory::TrajectoryType::Radial;
  if (s == "spiral") return trajectory::TrajectoryType::Spiral;
  if (s == "rosette") return trajectory::TrajectoryType::Rosette;
  if (s == "random") return trajectory::TrajectoryType::Random;
  if (s == "cartesian") return trajectory::TrajectoryType::Cartesian;
  if (s == "golden-radial" || s == "golden") {
    return trajectory::TrajectoryType::GoldenRadial;
  }
  if (s == "vd-spiral") return trajectory::TrajectoryType::VdSpiral;
  if (s == "propeller") return trajectory::TrajectoryType::Propeller;
  throw std::invalid_argument(
      "unknown trajectory '" + s +
      "', valid: radial, golden-radial, spiral, vd-spiral, rosette, "
      "propeller, random, cartesian");
}

// --endpoint (any spec) wins over --socket (Unix path only, the original
// flag); the default matches jigsaw_serve's default socket.
std::string endpoint_spec(const CliArgs& args) {
  return args.get("endpoint",
                  args.get("socket", "/tmp/jigsaw_serve.sock"));
}

// --engine as a wire engine code; the default is core's default engine.
std::uint32_t engine_arg(const CliArgs& args) {
  return serve::engine_code(core::parse_gridder_kind(
      args.get("engine", core::to_string(core::kDefaultEngine))));
}

int cmd_stats(const CliArgs& args) {
  serve::ServeClient client(endpoint_spec(args));
  std::printf("%s", client.statsz().c_str());
  return 0;
}

int cmd_recon(const CliArgs& args) {
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 128));
  const std::int64_t m = args.get_int("samples", 40000);
  const int count = static_cast<int>(args.get_int("count", 1));

  serve::ReconRequestWire req;
  req.engine = engine_arg(args);
  req.n = n;
  req.iters = static_cast<std::uint32_t>(args.get_int("iters", 0));
  req.coils = static_cast<std::uint32_t>(args.get_int("coils", 1));
  req.sanitize = static_cast<std::uint32_t>(
      robustness::parse_sanitize_policy(args.get("sanitize", "none")));
  req.kernel_width = static_cast<std::uint32_t>(args.get_int("width", 6));
  req.sigma = args.get_double("sigma", 2.0);
  req.deadline_ms =
      static_cast<std::uint64_t>(args.get_int("deadline-ms", 0));
  if (req.coils > 1) {
    throw std::invalid_argument(
        "multi-coil requests need per-coil data; this client synthesizes "
        "single-coil phantom k-space only");
  }

  req.coords = trajectory::make_2d(parse_traj(args.get("traj", "radial")), m,
                                   static_cast<std::uint64_t>(
                                       args.get_int("seed", 42)));
  req.values = trajectory::kspace_samples(trajectory::shepp_logan(),
                                          req.coords, static_cast<int>(n));

  serve::ServeClient client(endpoint_spec(args));
  serve::ReconReplyWire reply;
  for (int i = 0; i < count; ++i) {
    req.client_tag = static_cast<std::uint64_t>(i);
    const auto t0 = std::chrono::steady_clock::now();
    reply = client.recon(req);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("reply %d/%d: %s (%.1f ms", i + 1, count,
                serve::to_string(reply.status), ms);
    if (reply.sanitize_dropped + reply.sanitize_repaired > 0) {
      std::printf(", sanitized: %llu dropped, %llu repaired",
                  static_cast<unsigned long long>(reply.sanitize_dropped),
                  static_cast<unsigned long long>(reply.sanitize_repaired));
    }
    if (!reply.message.empty()) std::printf(", %s", reply.message.c_str());
    std::printf(")\n");
  }

  if (args.has("out") && !reply.image.empty()) {
    const std::string path = args.get("out");
    write_pgm(path, reply.image, static_cast<int>(reply.n),
              static_cast<int>(reply.n));
    std::printf("wrote %s (%u x %u)\n", path.c_str(), reply.n, reply.n);
  }
  return reply.status == serve::Status::kOk ||
                 reply.status == serve::Status::kSanitizedPartial
             ? 0
             : 2;
}

// Stream a sliding-window golden-angle frame sequence of the dynamic
// phantom through a session: open, push --frames frames, close, report
// per-frame status / iterations / latency and the session totals.
int cmd_stream(const CliArgs& args) {
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 128));
  const int frames = static_cast<int>(args.get_int("frames", 32));
  if (frames < 1) throw std::invalid_argument("--frames must be >= 1");

  stream::FrameWindow window;
  window.spokes_per_frame = static_cast<int>(args.get_int("spokes", 13));
  window.window_spokes = static_cast<int>(args.get_int("window", 34));
  window.samples_per_spoke =
      static_cast<int>(args.get_int("spoke-samples", 128));
  const stream::FrameSource source(window, frames);
  const stream::DynamicPhantom phantom;

  serve::OpenSessionWire open;
  open.engine = engine_arg(args);
  open.n = n;
  open.iters = static_cast<std::uint32_t>(args.get_int("iters", 10));
  open.coils = 1;
  open.kernel_width = static_cast<std::uint32_t>(args.get_int("width", 6));
  open.warm_start = args.get_int("warm", 1) != 0 ? 1u : 0u;
  open.sigma = args.get_double("sigma", 2.0);
  open.divergence_guard = args.get_double("guard", 1.0);
  open.frame_deadline_ms =
      static_cast<std::uint64_t>(args.get_int("deadline-ms", 0));

  serve::ServeClient client(endpoint_spec(args));
  const serve::SessionReplyWire opened = client.open_session(open);
  if (opened.status != serve::Status::kOk) {
    std::fprintf(stderr, "open failed: %s (%s)\n",
                 serve::to_string(opened.status), opened.message.c_str());
    return 2;
  }
  std::printf("session %llx open (n=%u iters=%u warm=%u)\n",
              static_cast<unsigned long long>(opened.session_id), n,
              open.iters, open.warm_start);

  int ok = 0, warm = 0;
  serve::FrameReplyWire reply;
  for (int f = 0; f < frames; ++f) {
    serve::PushFrameWire push;
    push.session_id = opened.session_id;
    push.frame_index = static_cast<std::uint64_t>(f);
    push.client_tag = static_cast<std::uint64_t>(f);
    push.coords = source.frame_coords(f);
    push.values = phantom.kspace_at(push.coords, source.frame_time(f),
                                    static_cast<int>(n));
    const auto t0 = std::chrono::steady_clock::now();
    reply = client.push_frame(push);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const bool was_warm = (reply.flags & serve::kFrameWarmFlag) != 0;
    if (reply.status == serve::Status::kOk) ++ok;
    if (was_warm) ++warm;
    std::printf("frame %3d/%d: %s (%.1f ms, %u iters%s%s%s",
                f + 1, frames, serve::to_string(reply.status), ms,
                reply.iterations, was_warm ? ", warm" : ", cold",
                (reply.flags & serve::kFrameGuardFlag) ? ", guard" : "",
                (reply.flags & serve::kFramePlanReusedFlag)
                    ? ", plan-reused"
                    : "");
    if (!reply.message.empty()) std::printf(", %s", reply.message.c_str());
    std::printf(")\n");
    // Line-flush: a streaming client's progress must be visible (and
    // greppable by CI) in real time, not on stdio's buffer schedule.
    std::fflush(stdout);
  }

  serve::CloseSessionWire close;
  close.session_id = opened.session_id;
  const serve::SessionReplyWire closed = client.close_session(close);
  std::printf("session closed: %s (%llu frames, %llu total CG iterations, "
              "%d/%d ok, %d warm)\n",
              serve::to_string(closed.status),
              static_cast<unsigned long long>(closed.frames),
              static_cast<unsigned long long>(closed.total_iterations), ok,
              frames, warm);

  if (args.has("out") && !reply.image.empty()) {
    const std::string path = args.get("out");
    write_pgm(path, reply.image, static_cast<int>(reply.n),
              static_cast<int>(reply.n));
    std::printf("wrote %s (%u x %u)\n", path.c_str(), reply.n, reply.n);
  }
  return ok == frames && closed.status == serve::Status::kOk ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::fprintf(stderr,
                   "usage: jigsaw_client <recon|stream|stats> "
                   "[--endpoint unix:/path|host:port] [--n N] [--samples M] "
                   "[--traj T] [--engine E] [--iters K] [--sanitize P] "
                   "[--deadline-ms D] [--count C] [--out F.pgm]\n"
                   "       stream also takes: [--frames N] [--spokes S] "
                   "[--window W] [--spoke-samples P] [--warm 0|1] "
                   "[--guard G]\n");
      return 1;
    }
    const std::string cmd = argv[1];
    const CliArgs args(argc - 1, argv + 1,
                       {"socket", "endpoint", "n", "samples", "traj",
                        "engine", "iters", "coils", "sanitize", "width",
                        "sigma", "deadline-ms", "count", "seed", "out",
                        "stream", "frames", "spokes", "window",
                        "spoke-samples", "warm", "guard"});
    if (cmd == "stats") return cmd_stats(args);
    // `recon --stream` is an accepted spelling of the stream command.
    if (cmd == "stream" || (cmd == "recon" && args.has("stream"))) {
      return cmd_stream(args);
    }
    if (cmd == "recon") return cmd_recon(args);
    std::fprintf(stderr,
                 "error: unknown command '%s', valid: recon, stream, "
                 "stats\n",
                 cmd.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
