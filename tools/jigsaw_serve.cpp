// jigsaw_serve: the reconstruction daemon.
//
// Listens on a Unix-domain socket, admits requests into a bounded queue,
// fuses same-geometry requests onto shared NuFFT plans, enforces per-request
// deadlines, and exports metrics via the stats message (see docs/serving.md).
// SIGTERM / SIGINT trigger a graceful drain: no new connections or jobs,
// every admitted job completes and is answered, then the process exits 0.
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace jigsaw;
  try {
    const CliArgs args(argc, argv,
                       {"socket", "listen", "queue", "batch", "plans",
                        "threads", "max-n", "max-samples", "max-iters",
                        "max-coils", "reply-timeout"});
    serve::ServeConfig config;
    // --listen host:port adds a TCP endpoint alongside (or instead of) the
    // Unix socket. Bind 127.0.0.1 unless you mean to serve other machines —
    // the protocol has no authentication (docs/serving.md).
    config.listen = args.get("listen", "");
    config.socket_path = args.get(
        "socket", config.listen.empty() ? "/tmp/jigsaw_serve.sock" : "");
    config.max_queue = static_cast<std::size_t>(args.get_int("queue", 64));
    config.max_batch = static_cast<std::size_t>(args.get_int("batch", 8));
    config.max_plans = static_cast<std::size_t>(args.get_int("plans", 16));
    config.exec_threads =
        static_cast<unsigned>(args.get_int("threads", 2));
    config.max_n = args.get_int("max-n", 1024);
    config.max_request_samples =
        static_cast<std::size_t>(args.get_int("max-samples", 1 << 21));
    config.max_iters = static_cast<int>(args.get_int("max-iters", 64));
    config.max_coils = static_cast<int>(args.get_int("max-coils", 32));
    // Wall-clock bound per reply write (ms); < 0 disables the bound.
    config.reply_write_timeout_ms =
        static_cast<int>(args.get_int("reply-timeout", 5000));

    serve::ReconServer server(config);
    std::signal(SIGTERM, handle_stop);
    std::signal(SIGINT, handle_stop);
    server.start();
    for (const auto& ep : server.bound_endpoints()) {
      std::printf("jigsaw_serve: listening on %s (queue %zu, batch %zu, "
                  "plans %zu, %u threads per plan)\n",
                  serve::to_string(ep).c_str(), config.max_queue,
                  config.max_batch, config.max_plans, config.exec_threads);
    }
    std::fflush(stdout);

    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    std::printf("jigsaw_serve: draining...\n");
    std::fflush(stdout);
    server.stop();

    const serve::EngineCounts c = server.engine().counts();
    std::printf("jigsaw_serve: done. submitted=%llu ok=%llu partial=%llu "
                "timeout=%llu rejected=%llu error=%llu batches=%llu "
                "plan_builds=%llu plan_hits=%llu\n",
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.ok),
                static_cast<unsigned long long>(c.sanitized_partial),
                static_cast<unsigned long long>(c.timeout),
                static_cast<unsigned long long>(c.rejected),
                static_cast<unsigned long long>(c.error),
                static_cast<unsigned long long>(c.batches),
                static_cast<unsigned long long>(c.plan_builds),
                static_cast<unsigned long long>(c.plan_hits));
    // Streaming sessions get their own accounting line: a drain is lossless
    // only if every submitted frame reached a terminal status.
    std::printf("jigsaw_serve: sessions opened=%llu closed=%llu "
                "frames=%llu answered=%llu (ok=%llu timeout=%llu "
                "rejected=%llu error=%llu warm=%llu)\n",
                static_cast<unsigned long long>(c.sessions_opened),
                static_cast<unsigned long long>(c.sessions_closed),
                static_cast<unsigned long long>(c.frames_submitted),
                static_cast<unsigned long long>(c.frames_completed()),
                static_cast<unsigned long long>(c.frames_ok),
                static_cast<unsigned long long>(c.frames_timeout),
                static_cast<unsigned long long>(c.frames_rejected),
                static_cast<unsigned long long>(c.frames_error),
                static_cast<unsigned long long>(c.warm_frames));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
