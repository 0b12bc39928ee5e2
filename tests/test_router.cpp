// Router-tier test battery: endpoint parsing, differential correctness
// through the router vs a direct worker, the rendezvous sharding property
// (same geometry class -> one worker, one plan build per geometry per
// worker), fault injection (dead worker, silent worker, rolling drain) and
// JSRV protocol robustness over TCP against both a worker and the router.
// Every Router* test also runs in the CI TSan stage (scripts/ci.sh).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::serve {
namespace {

std::vector<Coord<2>> traj(std::int64_t m, std::uint64_t seed = 42) {
  return trajectory::make_2d(trajectory::TrajectoryType::Radial, m, seed);
}

ReconRequestWire make_request(std::uint32_t n, std::int64_t m,
                              std::uint64_t seed = 42,
                              std::uint64_t tag = 0) {
  ReconRequestWire req;
  req.engine = 3;  // slice-dice: deterministic
  req.n = n;
  req.kernel_width = 4;
  req.coords = traj(m, seed);
  req.values = trajectory::kspace_samples(trajectory::shepp_logan(),
                                          req.coords, static_cast<int>(n));
  req.client_tag = tag;
  return req;
}

/// The rendezvous winner for a request among `total` workers — the same
/// arithmetic the router runs, used to place requests on purpose.
std::size_t predicted_worker(const ReconRequestWire& req, std::size_t total) {
  const std::uint64_t h = Router::shard_hash(req);
  std::size_t best = 0;
  for (std::size_t i = 1; i < total; ++i) {
    if (Router::rendezvous_score(h, i) > Router::rendezvous_score(h, best)) {
      best = i;
    }
  }
  return best;
}

/// A request whose geometry rendezvous-hashes to worker `want`. The shard
/// key depends on (n, m, width, sigma, coils) only, so we walk m.
ReconRequestWire request_for_worker(std::size_t want, std::size_t total,
                                    std::uint32_t n, std::int64_t m_base,
                                    std::uint64_t seed = 42) {
  for (std::int64_t m = m_base;; ++m) {
    ReconRequestWire req = make_request(n, m, seed);
    if (predicted_worker(req, total) == want) return req;
  }
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/jsrt_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

ServeConfig worker_config() {
  ServeConfig config;
  config.exec_threads = 2;
  config.max_request_bytes = 8u << 20;  // tests never need more
  return config;
}

std::unique_ptr<ReconServer> start_worker(ServeConfig config) {
  auto server = std::make_unique<ReconServer>(config);
  server->start();
  return server;
}

std::unique_ptr<ReconServer> start_tcp_worker() {
  ServeConfig config = worker_config();
  config.listen = "127.0.0.1:0";
  return start_worker(config);
}

std::string endpoint_of(const FrameServer& server) {
  return to_string(server.bound_endpoints().front());
}

RouterConfig router_config(std::vector<std::string> workers) {
  RouterConfig config;
  config.listen = "127.0.0.1:0";
  config.workers = std::move(workers);
  config.max_request_bytes = 8u << 20;
  config.connect_timeout_ms = 500;
  config.health_interval_ms = 50;
  config.ping_timeout_ms = 500;
  return config;
}

std::unique_ptr<Router> start_router(const RouterConfig& config) {
  auto router = std::make_unique<Router>(config);
  router->start();
  return router;
}

void expect_engine_invariant(const EngineCounts& c) {
  EXPECT_EQ(c.submitted, c.ok + c.sanitized_partial + c.timeout + c.rejected +
                             c.error);
}

// ---------------------------------------------------------------- endpoints

TEST(RouterEndpoint, ParsesAllAcceptedForms) {
  const Endpoint u = parse_endpoint("unix:/tmp/a.sock");
  EXPECT_FALSE(u.is_tcp());
  EXPECT_EQ(u.path, "/tmp/a.sock");
  EXPECT_EQ(to_string(u), "unix:/tmp/a.sock");

  const Endpoint bare = parse_endpoint("/tmp/b.sock");  // original --socket
  EXPECT_FALSE(bare.is_tcp());
  EXPECT_EQ(bare.path, "/tmp/b.sock");

  const Endpoint t = parse_endpoint("127.0.0.1:7421");
  EXPECT_TRUE(t.is_tcp());
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7421);
  EXPECT_EQ(to_string(t), "127.0.0.1:7421");

  EXPECT_EQ(parse_endpoint("localhost:0").port, 0);  // ephemeral
}

TEST(RouterEndpoint, RejectsMalformedSpecsWithOneLineDiagnostic) {
  for (const char* bad : {"", "nocolon", "host:", ":123", "host:12ab",
                          "host:70000", "unix:"}) {
    try {
      parse_endpoint(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("expected unix:/path or host:port"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------- differential

TEST(RouterDifferential, BitIdenticalWithDirectWorkerAndCountsBalance) {
  auto direct = start_tcp_worker();
  auto w0 = start_tcp_worker();
  auto w1 = start_tcp_worker();
  auto router =
      start_router(router_config({endpoint_of(*w0), endpoint_of(*w1)}));

  ServeClient direct_client(endpoint_of(*direct));
  ServeClient routed_client(endpoint_of(*router));

  const std::uint32_t grids[3] = {32, 48, 64};
  for (int g = 0; g < 3; ++g) {
    for (int rep = 0; rep < 2; ++rep) {
      const ReconRequestWire req =
          make_request(grids[g], 1500 + 10 * g, /*seed=*/7,
                       /*tag=*/static_cast<std::uint64_t>(10 * g + rep));
      const ReconReplyWire a = direct_client.recon(req);
      const ReconReplyWire b = routed_client.recon(req);
      ASSERT_EQ(a.status, Status::kOk);
      ASSERT_EQ(b.status, Status::kOk);
      EXPECT_EQ(b.client_tag, req.client_tag);
      ASSERT_EQ(a.image.size(), b.image.size());
      // The router relays worker bytes verbatim and every worker runs the
      // same deterministic engine: images must match bit for bit.
      EXPECT_EQ(std::memcmp(a.image.data(), b.image.data(),
                            a.image.size() * sizeof(c64)),
                0)
          << "n=" << grids[g];
    }
  }

  const RouterCounts rc = router->counts();
  EXPECT_EQ(rc.received, 6u);
  EXPECT_EQ(rc.relayed, 6u);
  EXPECT_EQ(rc.completed(), rc.received);
  EXPECT_EQ(rc.errors, 0u);

  // submitted == sum of statuses on every worker, and the fleet served
  // exactly the routed requests (health pings hit stats, not recon).
  const EngineCounts c0 = w0->engine().counts();
  const EngineCounts c1 = w1->engine().counts();
  expect_engine_invariant(c0);
  expect_engine_invariant(c1);
  EXPECT_EQ(c0.submitted + c1.submitted, 6u);
  EXPECT_EQ(c0.ok + c1.ok, 6u);
}

// ----------------------------------------------------------------- sharding

TEST(RouterSharding, ShardHashIsStableAndFieldSensitive) {
  ReconRequestWire a;
  a.n = 24;
  a.kernel_width = 4;
  a.sigma = 2.0;
  a.coords.resize(600);
  ReconRequestWire b = a;
  EXPECT_EQ(Router::shard_hash(a), Router::shard_hash(b));
  b.coords.resize(601);
  EXPECT_NE(Router::shard_hash(a), Router::shard_hash(b));
  b = a;
  b.sigma = 1.25;
  EXPECT_NE(Router::shard_hash(a), Router::shard_hash(b));
}

TEST(RouterSharding, GeometryClassPinsToOneWorkerWithOnePlanBuild) {
  auto w0 = start_tcp_worker();
  auto w1 = start_tcp_worker();
  auto router =
      start_router(router_config({endpoint_of(*w0), endpoint_of(*w1)}));
  ServeClient client(endpoint_of(*router));

  // Three distinct geometry classes, several requests each, interleaved the
  // way a mixed client population would send them.
  const ReconRequestWire geometry[3] = {
      make_request(32, 1500), make_request(48, 1700), make_request(64, 1900)};
  std::uint64_t expected_submitted[2] = {0, 0};
  std::uint64_t expected_plans[2] = {0, 0};
  for (int g = 0; g < 3; ++g) {
    ++expected_plans[predicted_worker(geometry[g], 2)];
  }
  constexpr int kReps = 4;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int g = 0; g < 3; ++g) {
      ReconRequestWire req = geometry[g];
      req.client_tag = static_cast<std::uint64_t>(rep * 3 + g);
      ASSERT_EQ(client.recon(req).status, Status::kOk);
      expected_submitted[predicted_worker(req, 2)] += 1;
    }
  }

  // Placement followed the rendezvous prediction exactly...
  const EngineCounts c[2] = {w0->engine().counts(), w1->engine().counts()};
  EXPECT_EQ(c[0].submitted, expected_submitted[0]);
  EXPECT_EQ(c[1].submitted, expected_submitted[1]);
  // ...and repeats of a geometry hit the worker's plan pool: one build per
  // geometry class per worker, regardless of rep count.
  EXPECT_EQ(c[0].plan_builds, expected_plans[0]);
  EXPECT_EQ(c[1].plan_builds, expected_plans[1]);
  EXPECT_EQ(c[0].plan_builds + c[1].plan_builds, 3u);

  // Same geometry, different trajectory: still the same worker (the shard
  // key is the geometry class, which deliberately ignores the coordinates).
  const std::size_t home = predicted_worker(geometry[0], 2);
  const std::uint64_t before =
      (home == 0 ? w0 : w1)->engine().counts().submitted;
  ReconRequestWire other_traj = make_request(32, 1500, /*seed=*/99);
  ASSERT_EQ(predicted_worker(other_traj, 2), home);
  ASSERT_EQ(client.recon(other_traj).status, Status::kOk);
  EXPECT_EQ((home == 0 ? w0 : w1)->engine().counts().submitted, before + 1);
}

// ------------------------------------------------------------------- faults

TEST(RouterFault, DeadWorkerIsReroutedThenReadmittedAfterRestart) {
  // Unix endpoints: a restarted worker can re-bind the same address.
  ServeConfig cfg0 = worker_config();
  cfg0.socket_path = unique_socket_path("dead0");
  ServeConfig cfg1 = worker_config();
  cfg1.socket_path = unique_socket_path("dead1");
  auto w0 = start_worker(cfg0);
  auto w1 = start_worker(cfg1);
  // Ping slowly enough that the kill below is always discovered by the
  // forward path (a deterministic reroute), not by a racing health ping.
  RouterConfig rcfg =
      router_config({"unix:" + cfg0.socket_path, "unix:" + cfg1.socket_path});
  rcfg.health_interval_ms = 400;
  auto router = start_router(rcfg);
  ServeClient client(endpoint_of(*router));

  // A geometry that lives on worker 0.
  const ReconRequestWire req = request_for_worker(0, 2, 32, 1500);
  ASSERT_EQ(client.recon(req).status, Status::kOk);
  ASSERT_EQ(w0->engine().counts().ok, 1u);

  // Kill worker 0 (destruction closes its listener too). The same-geometry
  // request must spill to worker 1 — relayed OK, counted as a reroute.
  w0.reset();
  ASSERT_EQ(client.recon(req).status, Status::kOk);
  EXPECT_EQ(w1->engine().counts().ok, 1u);
  {
    const RouterCounts rc = router->counts();
    EXPECT_GE(rc.reroutes, 1u);
    EXPECT_EQ(rc.errors, 0u);
    EXPECT_FALSE(rc.workers[0].healthy);
  }

  // Restart worker 0 on the same endpoint; the health thread re-admits it
  // and its shard comes home.
  w0 = start_worker(cfg0);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (!router->counts().workers[0].healthy) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker 0 was never re-admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(client.recon(req).status, Status::kOk);
  EXPECT_EQ(w0->engine().counts().ok, 1u);  // fresh instance got it back
}

TEST(RouterFault, SilentWorkerAnswersWithinDeadlineNeverHangs) {
  // A worker that accepts connections and consumes nothing: the router's
  // reply wait must expire — TIMEOUT when the request carried a deadline,
  // ERROR otherwise — and never hang past it.
  Listener silent(parse_endpoint("127.0.0.1:0"));
  std::atomic<bool> stop{false};
  std::vector<int> accepted;
  std::thread acceptor([&] {
    while (!stop.load()) {
      pollfd pfd{silent.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) > 0) {
        const int fd = ::accept(silent.fd(), nullptr, nullptr);
        if (fd >= 0) accepted.push_back(fd);
      }
    }
  });

  RouterConfig config =
      router_config({to_string(silent.bound())});
  config.health_interval_ms = 0;  // keep the only worker "healthy"
  config.forward_timeout_ms = 300;
  config.deadline_slack_ms = 100;
  auto router = start_router(config);
  ServeClient client(endpoint_of(*router));

  ReconRequestWire req = make_request(32, 1200);
  req.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  const ReconReplyWire bounded = client.recon(req);
  const auto bounded_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(bounded.status, Status::kTimeout);
  EXPECT_LT(bounded_ms.count(), 2000);

  req.deadline_ms = 0;  // unbounded request: forward_timeout_ms rules
  t0 = std::chrono::steady_clock::now();
  const ReconReplyWire unbounded = client.recon(req);
  const auto unbounded_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(unbounded.status, Status::kError);
  EXPECT_LT(unbounded_ms.count(), 2000);

  const RouterCounts rc = router->counts();
  EXPECT_EQ(rc.timeouts, 1u);
  EXPECT_EQ(rc.errors, 1u);
  EXPECT_EQ(rc.completed(), rc.received);

  router.reset();
  stop.store(true);
  acceptor.join();
  for (const int fd : accepted) ::close(fd);
}

TEST(RouterDrain, RollingWorkerRestartDropsNoInFlightRequests) {
  ServeConfig cfg0 = worker_config();
  cfg0.socket_path = unique_socket_path("roll0");
  ServeConfig cfg1 = worker_config();
  cfg1.socket_path = unique_socket_path("roll1");
  auto w0 = start_worker(cfg0);
  auto w1 = start_worker(cfg1);
  auto router = start_router(
      router_config({"unix:" + cfg0.socket_path, "unix:" + cfg1.socket_path}));

  // Four closed-loop clients hammer two geometry classes while worker 0 is
  // rolled (drain + destroy, then restart). Every request must come back
  // OK: drained jobs are answered, refused ones spill to worker 1.
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::atomic<int> ok{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int cid = 0; cid < kClients; ++cid) {
    clients.emplace_back([&, cid] {
      ServeClient client(endpoint_of(*router));
      for (int i = 0; i < kPerClient; ++i) {
        ReconRequestWire req =
            make_request(cid % 2 == 0 ? 32 : 48, 1500 + 100 * (cid % 2),
                         /*seed=*/11, static_cast<std::uint64_t>(cid * 100 + i));
        const ReconReplyWire reply = client.recon(req);
        (reply.status == Status::kOk ? ok : other).fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  w0.reset();  // SIGTERM-equivalent: ReconServer dtor stops (drains) first
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  w0 = start_worker(cfg0);  // rolling restart completes
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(other.load(), 0);
  const RouterCounts rc = router->counts();
  EXPECT_EQ(rc.received, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(rc.relayed, rc.received);
  EXPECT_EQ(rc.errors, 0u);
  EXPECT_EQ(rc.timeouts, 0u);
  expect_engine_invariant(w1->engine().counts());
}

// ------------------------------------------------- protocol robustness (TCP)

void expect_recovers_like_unix(const std::string& endpoint,
                               std::uint32_t good_n) {
  const ReconRequestWire good = make_request(good_n, 1200);

  // Malformed body: ERROR reply, connection survives, next request works.
  {
    ServeClient client(endpoint);
    client.send_raw(MsgType::kRecon, {0xDE, 0xAD, 0xBE, 0xEF});
    EXPECT_EQ(client.recv_recon_reply().status, Status::kError);
    EXPECT_EQ(client.recon(good).status, Status::kOk);
  }

  // Oversized header: REJECTED before the body is read, then close — and
  // no multi-gigabyte allocation happens (the advertised size is absurd).
  {
    ServeClient client(endpoint);
    client.send_raw_header(static_cast<std::uint32_t>(MsgType::kRecon),
                           1ull << 62);
    EXPECT_EQ(client.recv_recon_reply().status, Status::kRejected);
    EXPECT_THROW(client.recv_recon_reply(), std::runtime_error);  // closed
  }

  // Mid-frame disconnect: advertise 4096 bytes, send 100, vanish. The
  // server must shrug it off and keep serving fresh connections.
  {
    ServeClient client(endpoint);
    client.send_raw_header(static_cast<std::uint32_t>(MsgType::kRecon), 4096);
    client.send_raw_bytes(std::vector<std::uint8_t>(100, 0x5A));
    client.shutdown_write();
  }
  {
    ServeClient client(endpoint);
    EXPECT_EQ(client.recon(good).status, Status::kOk);
  }

  // Randomized: truncate or corrupt a valid frame; every fate is allowed
  // except a hang or a wedged server.
  std::mt19937 rng(7);
  const auto valid = encode_recon_request(good);
  for (int round = 0; round < 25; ++round) {
    ServeClient client(endpoint);
    std::vector<std::uint8_t> body = valid;
    if (rng() % 2 == 0) {
      body.resize(rng() % body.size());
      client.send_raw_header(static_cast<std::uint32_t>(MsgType::kRecon),
                             valid.size());
      client.send_raw_bytes(body);
      client.shutdown_write();  // truncation: mid-frame EOF
    } else {
      for (int i = 0; i < 8; ++i) body[rng() % body.size()] ^= 0xFF;
      client.send_raw(MsgType::kRecon, body);
      try {
        const ReconReplyWire reply = client.recv_recon_reply();
        // Corruption was either detected (ERROR) or produced a formally
        // valid request the server answered; both keep the stream usable.
        EXPECT_EQ(client.recon(good).status, Status::kOk);
        (void)reply;
      } catch (const std::exception&) {
        // Connection torn down — acceptable for unsalvageable streams.
      }
    }
  }
  // The server is still fully alive afterwards.
  ServeClient client(endpoint);
  EXPECT_EQ(client.recon(good).status, Status::kOk);
}

TEST(RouterProtocol, WorkerOverTcpRecoversLikeUnix) {
  auto worker = start_tcp_worker();
  expect_recovers_like_unix(endpoint_of(*worker), 32);
  const EngineCounts c = worker->engine().counts();
  expect_engine_invariant(c);
  EXPECT_GE(c.error, 1u);     // the malformed-body probe
  EXPECT_GE(c.rejected, 1u);  // the oversized-header probe
}

TEST(RouterProtocol, RouterEndpointRecoversLikeUnix) {
  auto worker = start_tcp_worker();
  auto router = start_router(router_config({endpoint_of(*worker)}));
  expect_recovers_like_unix(endpoint_of(*router), 32);
  const RouterCounts rc = router->counts();
  EXPECT_EQ(rc.completed(), rc.received);
  EXPECT_GE(rc.errors, 1u);
  EXPECT_GE(rc.rejected, 1u);
}

// A frame whose type no request has, the retired dataset request (6)
// included, is refused like any other unknown type: the connection closes,
// no request is counted, and a fresh connection is still served.
TEST(RouterProtocol, UnknownMessageTypeClosesTheConnection) {
  auto worker = start_tcp_worker();
  auto router = start_router(router_config({endpoint_of(*worker)}));
  const ReconRequestWire good = make_request(32, 1200);
  for (const std::string& endpoint :
       {endpoint_of(*worker), endpoint_of(*router)}) {
    for (const std::uint32_t type : {6u, 77u}) {
      SCOPED_TRACE(endpoint + " type " + std::to_string(type));
      {
        ServeClient client(endpoint);
        client.send_raw_header(type, 8);
        client.send_raw_bytes(std::vector<std::uint8_t>(8, 0x11));
        EXPECT_THROW(client.recv_recon_reply(), std::runtime_error);
      }
      ServeClient fresh(endpoint);
      EXPECT_EQ(fresh.recon(good).status, Status::kOk);
    }
  }
  const RouterCounts rc = router->counts();
  EXPECT_EQ(rc.received, 2u);  // the two routed recon requests only
  EXPECT_EQ(rc.completed(), rc.received);
  const EngineCounts c = worker->engine().counts();
  EXPECT_EQ(c.submitted, 4u);  // two direct, two routed
  expect_engine_invariant(c);
}

// -------------------------------------------------------------------- stats

TEST(RouterStats, JsonNamesEveryWorkerWithHealthAndCounts) {
  auto w0 = start_tcp_worker();
  auto w1 = start_tcp_worker();
  auto router =
      start_router(router_config({endpoint_of(*w0), endpoint_of(*w1)}));
  ServeClient client(endpoint_of(*router));
  ASSERT_EQ(client.recon(make_request(32, 1300)).status, Status::kOk);

  const std::string json = client.statsz();
  EXPECT_NE(json.find("\"router\": true"), std::string::npos);
  EXPECT_NE(json.find("\"relayed\": 1"), std::string::npos);
  EXPECT_NE(json.find(endpoint_of(*w0)), std::string::npos);
  EXPECT_NE(json.find(endpoint_of(*w1)), std::string::npos);
  EXPECT_NE(json.find("\"healthy\": true"), std::string::npos);
}

}  // namespace
}  // namespace jigsaw::serve
