// jigsaw_router: the geometry-sharded front tier for jigsaw_serve workers.
//
// Usage:
//   jigsaw_router --listen 127.0.0.1:7421 WORKER [WORKER...]
//
// Each WORKER is an endpoint spec — "unix:/path" or "host:port" — of a
// running jigsaw_serve. The router speaks the same JSRV framed protocol on
// its own endpoint and forwards every recon request to the worker that
// rendezvous-hashing assigns its geometry, so each worker's plan pool and
// FFT plan cache stay hot (see src/serve/router.hpp for the full policy).
// SIGTERM / SIGINT trigger a graceful drain: stop accepting, finish and
// answer every in-flight forward, exit 0.
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "serve/router.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace jigsaw;
  try {
    const CliArgs args(argc, argv,
                       {"listen", "connect-timeout", "forward-timeout",
                        "deadline-slack", "health-interval", "ping-timeout",
                        "reply-timeout", "pool"});
    serve::RouterConfig config;
    config.listen = args.get("listen", "127.0.0.1:7421");
    config.workers = args.positional();
    config.connect_timeout_ms =
        static_cast<int>(args.get_int("connect-timeout", 1000));
    // Reply wait for requests that carry no deadline of their own (ms).
    config.forward_timeout_ms =
        static_cast<int>(args.get_int("forward-timeout", 30000));
    config.deadline_slack_ms =
        static_cast<int>(args.get_int("deadline-slack", 250));
    // Worker ping period (ms); <= 0 disables the health thread.
    config.health_interval_ms =
        static_cast<int>(args.get_int("health-interval", 250));
    config.ping_timeout_ms =
        static_cast<int>(args.get_int("ping-timeout", 1000));
    config.reply_write_timeout_ms =
        static_cast<int>(args.get_int("reply-timeout", 5000));
    config.max_pooled_connections =
        static_cast<std::size_t>(args.get_int("pool", 8));
    if (config.workers.empty()) {
      std::fprintf(stderr,
                   "usage: jigsaw_router --listen HOST:PORT|unix:/path "
                   "WORKER [WORKER...]\n");
      return 1;
    }

    serve::Router router(config);
    std::signal(SIGTERM, handle_stop);
    std::signal(SIGINT, handle_stop);
    router.start();
    const auto bound = router.bound_endpoints();
    std::printf("jigsaw_router: listening on %s, %zu workers:\n",
                serve::to_string(bound.front()).c_str(),
                config.workers.size());
    for (const auto& w : config.workers) {
      std::printf("jigsaw_router:   worker %s\n", w.c_str());
    }
    std::fflush(stdout);

    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    std::printf("jigsaw_router: draining...\n");
    std::fflush(stdout);
    router.stop();

    const serve::RouterCounts c = router.counts();
    std::printf("jigsaw_router: done. received=%llu relayed=%llu "
                "error=%llu timeout=%llu rejected=%llu reroutes=%llu\n",
                static_cast<unsigned long long>(c.received),
                static_cast<unsigned long long>(c.relayed),
                static_cast<unsigned long long>(c.errors),
                static_cast<unsigned long long>(c.timeouts),
                static_cast<unsigned long long>(c.rejected),
                static_cast<unsigned long long>(c.reroutes));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
