// Router: the geometry-sharded front tier of the reconstruction service.
//
// One router listens on its own endpoint (Unix or TCP — same JSRV frames
// as the workers) and forwards each recon request to one worker out of a
// configured pool, chosen by RENDEZVOUS (highest-random-weight) hashing of
// the request's geometry: the shard key is an FNV-1a hash of its geometry
// class {N, M, W, sigma, coils} (shard_hash below), so every request of
// one class lands on the same worker and that worker's NuFFT plan pool and
// FFT plan cache stay hot for "its" geometries. Rendezvous hashing gives
// the spill property for free: when a worker is unhealthy its keys fall to
// the next-ranked worker, and only its keys — the rest of the fleet's
// assignment is untouched; when it recovers, exactly those keys come back.
//
// Forwarding is store-and-forward per request on the client connection's
// reader thread: decode enough of the body to route it, then relay the
// original frame bytes verbatim (deadline and client_tag ride along
// unmodified) over a pooled worker connection, and wait for the reply with
// a wall-clock bound derived from the request's own deadline (`deadline_ms`
// + slack, or forward_timeout_ms when unbounded) — a dead or wedged worker
// can never hang a client past its deadline.
//
// Every worker exchange is one attempt: send on a pooled connection (a
// stale pooled fd is dropped and the send retried, ending with one fresh
// connect), then wait for the reply. An attempt ends in one of three ways:
//   * relayed       -> the worker's reply goes to the client verbatim;
//   * not executed  -> connect/send failure, clean EOF before any reply
//     byte, or (sharded only) a REJECTED reply saying "draining": the
//     worker never ran the request, so it is safe to try another worker;
//   * terminal      -> reply timeout, mid-reply EOF, a reply of the wrong
//     type or (sharded only) a malformed one: the request may have run, so
//     it is never retried; the client gets ERROR, or TIMEOUT when its own
//     deadline governs.
//
// Each client message type has one entry in a policy table (router.cpp):
//
//   type              policy         on "not executed"        pin effect
//   recon        (1)  sharded        next-ranked worker       -
//   open session (3)  sharded        next-ranked worker       pin if OK,
//                                                             before relay
//   push frame   (4)  sticky         ERROR, no failover       unpin if the
//                                                             worker is lost
//   close        (5)  sticky         ERROR, no failover       always unpin
//   stats        (2)  local          the router's own JSON    -
//
// Any other type (a reply type, or a code no message has) closes the
// client's connection, exactly as a worker does.
//
// Sharded requests walk the workers in rendezvous rank order of their shard
// key, healthy ones first (a request must not fail just because the health
// thread has not yet seen a recovery), and get REJECTED "no healthy worker"
// when every worker is exhausted. A reply timeout reads TIMEOUT once the
// request's deadline has passed. Sticky requests go to the worker the
// session's open landed on, because the session's pipeline state lives
// there; an unpinned session gets REJECTED "unknown session", and a reply
// timeout reads TIMEOUT whenever the frame carries a deadline.
//
// A health thread pings every worker each health_interval_ms (connect +
// stats round-trip, ping_timeout_ms bound). Failures mark the worker
// unhealthy and close its pooled connections; a successful ping re-admits
// it. Stats requests to the router answer with the ROUTER's own JSON
// (shard table, per-worker health and counts) — operators query workers
// directly for engine internals.
//
// stop() is the graceful-drain path SIGTERM triggers in jigsaw_router:
// stop accepting, then half-close client connections (SHUT_RD) so each
// reader finishes its in-flight forward, writes the reply, and exits.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace jigsaw::serve {

struct RouterConfig {
  std::string listen;                // endpoint spec (unix:/path | host:port)
  std::vector<std::string> workers;  // worker endpoint specs, >= 1
  std::size_t max_request_bytes = 256u << 20;
  std::size_t max_reply_bytes = 1ull << 30;
  int reply_write_timeout_ms = 5000;  // bound per client reply write
  int connect_timeout_ms = 1000;      // bound per worker connect
  int forward_timeout_ms = 30000;     // reply wait for deadline-less requests
  int deadline_slack_ms = 250;        // reply wait past the request deadline
  int health_interval_ms = 250;       // worker ping period (<= 0 disables)
  int ping_timeout_ms = 1000;         // bound per health round-trip
  std::size_t max_pooled_connections = 8;  // idle sockets kept per worker
};

/// Point-in-time per-worker state for stats and tests.
struct WorkerSnapshot {
  std::string endpoint;
  bool healthy = true;
  std::uint64_t forwarded = 0;      // frames fully sent to this worker
  std::uint64_t replies = 0;        // replies relayed from this worker
  std::uint64_t failures = 0;       // connect/send/recv/timeout failures
  std::uint64_t drain_rejects = 0;  // REJECTED-draining replies (rerouted)
};

/// Router totals. Every recon request the router received terminates in
/// exactly one bucket: relayed (a worker's reply was forwarded verbatim)
/// or one of the router-generated statuses — after a drain,
/// received == relayed + errors + timeouts + rejected.
struct RouterCounts {
  std::uint64_t received = 0;   // recon requests decoded
  std::uint64_t relayed = 0;    // worker replies forwarded to clients
  std::uint64_t errors = 0;     // router-generated ERROR (worker died or
                                // wedged mid-request, malformed body — the
                                // same recovering-parse semantics a worker
                                // gives a direct client)
  std::uint64_t timeouts = 0;   // router-generated TIMEOUT (deadline passed)
  std::uint64_t rejected = 0;   // router-generated REJECTED (oversized
                                // frame, no healthy worker)
  std::uint64_t reroutes = 0;   // retries on a next-ranked worker
  std::uint64_t stats = 0;      // stats round-trips answered
  // Per-type requests: decoded, refused as oversized, or malformed (a
  // malformed body also counts in received and errors).
  std::uint64_t session_opens = 0;   // open-session requests
  std::uint64_t session_frames = 0;  // push-frame requests
  std::uint64_t session_closes = 0;  // close-session requests
  std::size_t sessions_pinned = 0;   // live session -> worker pins
  std::vector<WorkerSnapshot> workers;

  std::uint64_t completed() const {
    return relayed + errors + timeouts + rejected;
  }
};

class Router : public FrameServer {
 public:
  /// Binds the listen endpoint and resolves the worker specs. Throws
  /// std::invalid_argument on malformed endpoints, std::runtime_error on
  /// bind failure or an empty worker list.
  explicit Router(const RouterConfig& config);
  ~Router() override;  // stop(), if still running

  RouterCounts counts() const;
  std::string statsz_json() const;

  /// The shard key for a decoded request: a hash of its geometry class
  /// (n, m, kernel width, sigma, coils), never of its coordinates. Exposed
  /// so tests can predict placement.
  static std::uint64_t shard_hash(const ReconRequestWire& wire);

  /// The shard key for a streaming session, from its open parameters.
  /// m = 0: frame sample counts are unknown at open time, so the key is
  /// geometry-only — sessions of one (n, width, sigma, coils) class share
  /// a home worker, keeping its plans warm across sessions.
  static std::uint64_t session_shard_hash(const OpenSessionWire& wire);

  /// Rendezvous rank of worker `index` for `key_hash` (highest wins).
  static std::uint64_t rendezvous_score(std::uint64_t key_hash,
                                        std::size_t index);

 protected:
  void serve_connection(const std::shared_ptr<Connection>& conn) override;
  /// Stops the health pinger — workers being shut down around the same
  /// time must not be spammed with doomed pings.
  void on_stop_accepting() override;
  /// SHUT_RD: readers finish the in-flight forward and still write the
  /// reply before seeing EOF — the router's half of a graceful drain.
  int shutdown_how() const override;

 private:
  struct Worker;
  struct Policy;
  struct Request;
  struct ForwardResult;

  static const Policy* policy_for(MsgType type);  // nullptr: not a request
  std::vector<std::size_t> rank_workers(std::uint64_t key_hash) const;
  // One client request end to end; returns false when the connection must
  // close.
  bool handle(const std::shared_ptr<Connection>& conn, const Policy& policy,
              const Frame& frame);
  ForwardResult route(const Policy& policy, const Frame& frame,
                      const Request& request);
  ForwardResult forward_sharded(const Policy& policy, const Frame& frame,
                                const Request& request);
  ForwardResult attempt(Worker& w, const Frame& frame, const Policy& policy,
                        std::chrono::steady_clock::time_point wait_deadline);
  void count_terminal(const ForwardResult& result);
  bool send_to_client(const std::shared_ptr<Connection>& conn, MsgType type,
                      const std::vector<std::uint8_t>& body);
  void health_loop();
  void stop_health();                 // idempotent; also run by stop()
  bool ping_worker(Worker& w);
  void mark_unhealthy(Worker& w, const char* why);
  int take_pooled(Worker& w);         // idle pooled fd, or -1
  void give_back_connection(Worker& w, int fd);
  void close_pool(Worker& w);

  const RouterConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex counts_mu_;
  RouterCounts counts_;

  // Session stickiness: session_id -> home worker index, pinned when an
  // open reply with status OK is relayed, unpinned on close (or when the
  // home worker is lost mid-session).
  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::size_t> session_workers_;

  std::thread health_thread_;
  std::atomic<bool> health_stop_{false};
  std::mutex health_mu_;               // cv wait for prompt shutdown
  std::condition_variable health_cv_;
};

}  // namespace jigsaw::serve
