#include "serve/router.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace jigsaw::serve {

namespace {

using Clock = std::chrono::steady_clock;

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Milliseconds until `deadline`, clamped to [1, INT_MAX] — a caller that
/// already checked the deadline never hands a blocking call a zero budget.
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 1;
  return static_cast<int>(std::min<long long>(left, INT_MAX));
}

/// When the router stops waiting for a worker: slightly past the client's
/// own deadline, so a worker that answers TIMEOUT itself gets its
/// (authoritative) reply relayed; forward_timeout_ms when unbounded.
Clock::time_point wait_deadline(const RouterConfig& config,
                                Clock::time_point start,
                                std::uint64_t deadline_ms) {
  return start + std::chrono::milliseconds(
                     deadline_ms > 0
                         ? static_cast<long long>(deadline_ms) +
                               config.deadline_slack_ms
                         : static_cast<long long>(config.forward_timeout_ms));
}

enum class Route {
  kSharded,  // rendezvous rank order of a shard key, with spill
  kSticky,   // the session's pinned worker, no failover
  kLocal,    // answered by the router itself
};

/// The shard key of a geometry class: FNV-1a over a packed canonical
/// encoding of {dims, n, m, width, coils, threads, sigma} (fixed-width
/// integers plus the raw double), so it is stable across processes on one
/// platform. Requests are 2D and run one thread per plan, so dims and
/// threads are constants; they stay in the encoding, which keeps every
/// placement where it was.
std::uint64_t geometry_hash(std::int64_t n, std::int64_t m, int width,
                            double sigma, int coils) {
  struct {
    std::int64_t dims, n, m, width, coils, threads;
    double sigma;
  } packed{2, n, m, width, coils, 1, sigma};
  return fnv1a(&packed, sizeof packed, kFnv1aShortBasis);
}

enum class Pin {
  kNone,
  kOnOk,        // an OK reply pins its session to the answering worker
  kDropIfLost,  // a lost worker takes the session with it
  kDrop,        // the session ends here whatever the outcome
};

}  // namespace

struct Router::Worker {
  explicit Worker(const Endpoint& ep) : endpoint(ep), spec(to_string(ep)) {}

  const Endpoint endpoint;
  const std::string spec;
  std::atomic<bool> healthy{true};
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> replies{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> drain_rejects{0};

  std::mutex pool_mu;
  std::vector<int> pool;  // idle connected fds, most recently used last
};

/// What the router needs from a request body: where the request goes and
/// how to address a reply the router makes itself.
struct Router::Request {
  std::uint64_t shard = 0;        // sharded: rendezvous key
  std::uint64_t session_id = 0;   // sticky
  std::uint64_t frame_index = 0;
  std::uint64_t deadline_ms = 0;  // 0 = unbounded
  std::uint64_t client_tag = 0;
  std::uint32_t n = 0;

  /// A router-made reply of `type` carrying `status` and `message`.
  std::vector<std::uint8_t> answer(MsgType type, Status status,
                                   std::string message) const {
    if (type == MsgType::kReconReply) {
      ReconReplyWire r;
      r.status = status;
      r.n = n;
      r.client_tag = client_tag;
      r.message = std::move(message);
      return encode_recon_reply(r);
    }
    if (type == MsgType::kSessionReply) {
      SessionReplyWire r;
      r.status = status;
      r.session_id = session_id;
      r.client_tag = client_tag;
      r.message = std::move(message);
      return encode_session_reply(r);
    }
    FrameReplyWire r;
    r.status = status;
    r.session_id = session_id;
    r.frame_index = frame_index;
    r.client_tag = client_tag;
    r.message = std::move(message);
    return encode_frame_reply(r);
  }
};

/// One client message type's routing: the rows of the table in router.hpp.
struct Router::Policy {
  MsgType type;
  Route route;
  MsgType reply;                         // the type that answers it
  Pin pin;
  std::uint64_t RouterCounts::*tally;    // per-type count, or nullptr
  Request (*decode)(const Frame& frame);  // throws on a malformed body
};

/// One attempt's or one request's outcome: a worker's reply body to relay
/// verbatim, or a router-made status.
struct Router::ForwardResult {
  enum class Outcome { kRelayed, kNotExecuted, kTerminal };
  Outcome outcome = Outcome::kTerminal;
  std::vector<std::uint8_t> reply_body;  // when relayed
  Status status = Status::kError;        // otherwise
  std::string message;
  std::size_t worker = 0;      // the worker that answered
  std::uint64_t reroutes = 0;  // attempts beyond the first worker
  bool timed_out = false;      // no reply within the wait deadline
  bool worker_lost = false;    // the worker is presumed gone, and any
                               // session state with it

  bool relayed() const { return outcome == Outcome::kRelayed; }
};

Router::Router(const RouterConfig& config) : config_(config) {
  if (config_.workers.empty()) {
    throw std::runtime_error("router: no workers configured");
  }
  for (const auto& spec : config_.workers) {
    workers_.push_back(std::make_unique<Worker>(parse_endpoint(spec)));
  }
  if (config_.listen.empty()) {
    throw std::runtime_error("router: no listen endpoint configured");
  }
  add_listener(parse_endpoint(config_.listen));
  if (config_.health_interval_ms > 0) {
    health_thread_ = std::thread([this] { health_loop(); });
  }
}

Router::~Router() {
  stop();
  stop_health();  // in case start() was never called (stop() is then a no-op)
  for (auto& w : workers_) close_pool(*w);
}

int Router::shutdown_how() const { return SHUT_RD; }

void Router::on_stop_accepting() { stop_health(); }

std::uint64_t Router::shard_hash(const ReconRequestWire& wire) {
  return geometry_hash(wire.n, static_cast<std::int64_t>(wire.coords.size()),
                       static_cast<int>(wire.kernel_width), wire.sigma,
                       static_cast<int>(wire.coils));
}

std::uint64_t Router::session_shard_hash(const OpenSessionWire& wire) {
  return geometry_hash(wire.n, /*m=*/0, static_cast<int>(wire.kernel_width),
                       wire.sigma, static_cast<int>(wire.coils));
}

std::uint64_t Router::rendezvous_score(std::uint64_t key_hash,
                                       std::size_t index) {
  const std::uint64_t packed[2] = {key_hash,
                                   static_cast<std::uint64_t>(index)};
  return fnv1a(packed, sizeof packed, kFnv1aShortBasis);
}

std::vector<std::size_t> Router::rank_workers(std::uint64_t key_hash) const {
  std::vector<std::size_t> order(workers_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [key_hash](std::size_t a, std::size_t b) {
              const auto sa = rendezvous_score(key_hash, a);
              const auto sb = rendezvous_score(key_hash, b);
              return sa != sb ? sa > sb : a < b;
            });
  return order;
}

int Router::take_pooled(Worker& w) {
  std::lock_guard<std::mutex> lk(w.pool_mu);
  if (w.pool.empty()) return -1;
  const int fd = w.pool.back();
  w.pool.pop_back();
  return fd;
}

void Router::give_back_connection(Worker& w, int fd) {
  if (w.healthy.load()) {
    std::lock_guard<std::mutex> lk(w.pool_mu);
    if (w.pool.size() < config_.max_pooled_connections) {
      w.pool.push_back(fd);
      return;
    }
  }
  close_quietly(fd);
}

void Router::close_pool(Worker& w) {
  std::vector<int> doomed;
  {
    std::lock_guard<std::mutex> lk(w.pool_mu);
    doomed.swap(w.pool);
  }
  for (const int fd : doomed) close_quietly(fd);
}

void Router::mark_unhealthy(Worker& w, const char* why) {
  if (w.healthy.exchange(false)) {
    std::fprintf(stderr, "router: worker %s marked unhealthy (%s)\n",
                 w.spec.c_str(), why);
  }
  // Pooled fds share the worker's fate: anything idle predates the failure.
  close_pool(w);
}

const Router::Policy* Router::policy_for(MsgType type) {
  static const Policy kPolicies[] = {
      {MsgType::kRecon, Route::kSharded, MsgType::kReconReply, Pin::kNone,
       nullptr,
       [](const Frame& f) {
         const ReconRequestWire w =
             decode_recon_request(f.body.data(), f.body.size());
         Request r;
         r.shard = shard_hash(w);
         r.deadline_ms = w.deadline_ms;
         r.client_tag = w.client_tag;
         r.n = w.n;
         return r;
       }},
      {MsgType::kOpenSession, Route::kSharded, MsgType::kSessionReply,
       Pin::kOnOk, &RouterCounts::session_opens,
       [](const Frame& f) {
         const OpenSessionWire w =
             decode_open_session(f.body.data(), f.body.size());
         Request r;
         r.shard = session_shard_hash(w);
         r.client_tag = w.client_tag;
         return r;
       }},
      {MsgType::kPushFrame, Route::kSticky, MsgType::kFrameReply,
       Pin::kDropIfLost, &RouterCounts::session_frames,
       [](const Frame& f) {
         const PushFrameWire w =
             decode_push_frame(f.body.data(), f.body.size());
         Request r;
         r.session_id = w.session_id;
         r.frame_index = w.frame_index;
         r.deadline_ms = w.deadline_ms;
         r.client_tag = w.client_tag;
         return r;
       }},
      {MsgType::kCloseSession, Route::kSticky, MsgType::kSessionReply,
       Pin::kDrop, &RouterCounts::session_closes,
       [](const Frame& f) {
         const CloseSessionWire w =
             decode_close_session(f.body.data(), f.body.size());
         Request r;
         r.session_id = w.session_id;
         r.client_tag = w.client_tag;
         return r;
       }},
      {MsgType::kStats, Route::kLocal, MsgType::kStatsReply, Pin::kNone,
       &RouterCounts::stats, nullptr},
  };
  for (const Policy& p : kPolicies) {
    if (p.type == type) return &p;
  }
  return nullptr;
}

Router::ForwardResult Router::attempt(Worker& w, const Frame& frame,
                                      const Policy& policy,
                                      Clock::time_point wait_deadline) {
  const bool sticky = policy.route == Route::kSticky;
  const auto who = [&] {
    return (sticky ? "router: session worker " : "router: worker ") + w.spec;
  };
  ForwardResult out;
  // The worker never consumed the request.
  const auto not_executed = [&](const char* why, const char* what) {
    mark_unhealthy(w, why);
    out.outcome = ForwardResult::Outcome::kNotExecuted;
    out.message = who() + what;
    out.worker_lost = true;
    return out;
  };

  for (;;) {
    // A pooled connection may be stale (the worker restarted since it was
    // pooled) — that is this router's fault, not the worker's, so a pooled
    // fd that fails before the worker consumed anything is dropped and the
    // send retried, ending with one fresh connect.
    int fd = take_pooled(w);
    const bool pooled = fd >= 0;
    if (!pooled) {
      try {
        fd = connect_endpoint(w.endpoint, config_.connect_timeout_ms);
      } catch (const std::exception&) {
        ++w.failures;
        return not_executed("connect failed", " unreachable");
      }
    }
    try {
      send_frame(fd, frame.type, frame.body, remaining_ms(wait_deadline));
    } catch (const std::exception&) {
      close_quietly(fd);
      ++w.failures;
      if (pooled) continue;
      return not_executed("send failed", " lost");
    }
    ++w.forwarded;

    Frame reply;
    bool got = false;
    try {
      got = recv_frame(fd, reply, config_.max_reply_bytes,
                       remaining_ms(wait_deadline));
    } catch (const RecvTimeout&) {
      // The worker consumed the request but has not answered: it may be
      // mid-execution (wedged or just slow), and a session may still be
      // intact — never retry, never hang.
      close_quietly(fd);
      ++w.failures;
      mark_unhealthy(w, "reply timed out");
      out.timed_out = true;
      out.message = who() + " did not reply in time";
      return out;
    } catch (const std::exception&) {
      // Mid-reply EOF or garbage: the request may have executed and the
      // reply is unrecoverable — terminal, same no-retry rule.
      close_quietly(fd);
      ++w.failures;
      mark_unhealthy(w, "reply stream broke");
      out.worker_lost = true;
      out.message = who() + " connection broke mid-reply";
      return out;
    }
    if (!got) {
      // Clean EOF before any reply byte: the worker shut down without
      // consuming the request (drain teardown, exit).
      close_quietly(fd);
      ++w.failures;
      if (pooled) continue;
      return not_executed("closed before replying",
                          " closed before replying");
    }
    if (reply.type != policy.reply) {
      close_quietly(fd);
      out.message = "router: worker " + w.spec +
                    " sent unexpected frame type " +
                    std::to_string(static_cast<std::uint32_t>(reply.type));
      return out;
    }
    if (!sticky) {
      // Peek at the status: a draining worker answers REJECTED to
      // everything it did not admit — that request belongs on the next
      // worker, which is what makes a rolling restart lossless. A sticky
      // request has no next worker, so its reply is relayed as it is.
      ReplyHead head;
      try {
        head = peek_reply(policy.reply, reply.body.data(), reply.body.size());
      } catch (const std::exception&) {
        close_quietly(fd);
        out.message = "router: worker " + w.spec + " sent a malformed reply";
        return out;
      }
      if (head.status == Status::kRejected &&
          head.message.find("draining") != std::string::npos) {
        ++w.drain_rejects;
        close_quietly(fd);  // the worker is going away; never pool it
        return not_executed("draining", " is draining");
      }
    }
    ++w.replies;
    give_back_connection(w, fd);
    out.outcome = ForwardResult::Outcome::kRelayed;
    out.reply_body = std::move(reply.body);
    return out;
  }
}

Router::ForwardResult Router::forward_sharded(const Policy& policy,
                                              const Frame& frame,
                                              const Request& request) {
  const auto ranked = rank_workers(request.shard);
  std::vector<std::size_t> order;
  order.reserve(ranked.size());
  for (const bool want_healthy : {true, false}) {
    for (const std::size_t i : ranked) {
      if (workers_[i]->healthy.load() == want_healthy) order.push_back(i);
    }
  }

  const bool bounded = request.deadline_ms > 0;
  const auto start = Clock::now();
  const auto client_deadline =
      start + std::chrono::milliseconds(
                  static_cast<long long>(request.deadline_ms));
  const auto wait = wait_deadline(config_, start, request.deadline_ms);
  const auto expired = [&](const char* when) {
    ForwardResult e;
    e.status = bounded ? Status::kTimeout : Status::kError;
    e.message = std::string("router: deadline expired ") + when;
    return e;
  };

  ForwardResult out;
  out.status = Status::kRejected;
  out.message = "router: no healthy worker (" +
                std::to_string(workers_.size()) + " configured, all failed)";
  std::uint64_t attempts = 0;
  for (const std::size_t wi : order) {
    if (Clock::now() >= wait) {
      out = expired("before a worker");
      break;
    }
    ++attempts;
    ForwardResult r = attempt(*workers_[wi], frame, policy, wait);
    if (r.outcome == ForwardResult::Outcome::kNotExecuted) continue;
    if (r.timed_out && bounded && Clock::now() >= client_deadline) {
      r = expired("waiting for a worker reply");
    }
    out = std::move(r);
    out.worker = wi;
    break;
  }
  out.reroutes = attempts > 0 ? attempts - 1 : 0;
  return out;
}

Router::ForwardResult Router::route(const Policy& policy, const Frame& frame,
                                    const Request& request) {
  if (policy.route == Route::kSharded) {
    return forward_sharded(policy, frame, request);
  }
  ForwardResult out;
  out.status = Status::kRejected;
  std::size_t home = 0;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    const auto it = session_workers_.find(request.session_id);
    if (it == session_workers_.end()) {
      out.message =
          "router: unknown session " + std::to_string(request.session_id);
      return out;
    }
    home = it->second;
  }
  // A session's pipeline state lives on its home worker, so even a request
  // the worker never executed is terminal here.
  out = attempt(*workers_[home], frame, policy,
                wait_deadline(config_, Clock::now(), request.deadline_ms));
  if (out.timed_out && request.deadline_ms > 0) out.status = Status::kTimeout;
  return out;
}

void Router::count_terminal(const ForwardResult& result) {
  std::lock_guard<std::mutex> lk(counts_mu_);
  counts_.reroutes += result.reroutes;
  if (result.relayed()) {
    ++counts_.relayed;
  } else if (result.status == Status::kTimeout) {
    ++counts_.timeouts;
  } else if (result.status == Status::kRejected) {
    ++counts_.rejected;
  } else {
    ++counts_.errors;
  }
}

bool Router::send_to_client(const std::shared_ptr<Connection>& conn,
                            MsgType type,
                            const std::vector<std::uint8_t>& body) {
  try {
    std::lock_guard<std::mutex> lk(conn->write_mu);
    send_frame(conn->fd, type, body, config_.reply_write_timeout_ms);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool Router::handle(const std::shared_ptr<Connection>& conn,
                    const Policy& policy, const Frame& frame) {
  if (policy.route == Route::kLocal) {
    {
      std::lock_guard<std::mutex> lk(counts_mu_);
      ++(counts_.*policy.tally);
    }
    const std::string json = statsz_json();
    return send_to_client(conn, policy.reply,
                          std::vector<std::uint8_t>(json.begin(), json.end()));
  }

  Request request;
  try {
    request = policy.decode(frame);
  } catch (const std::exception& e) {
    // Recovering parse, exactly like a worker: the malformed body was
    // fully consumed, so the connection survives.
    {
      std::lock_guard<std::mutex> lk(counts_mu_);
      ++counts_.received;
      if (policy.tally != nullptr) ++(counts_.*policy.tally);
      ++counts_.errors;
    }
    return send_to_client(
        conn, policy.reply,
        Request().answer(policy.reply, Status::kError, e.what()));
  }
  {
    std::lock_guard<std::mutex> lk(counts_mu_);
    ++counts_.received;
    if (policy.tally != nullptr) ++(counts_.*policy.tally);
  }

  ForwardResult result = route(policy, frame, request);
  count_terminal(result);
  if (policy.pin == Pin::kOnOk && result.relayed()) {
    // Pin BEFORE relaying: the client may push its first frame the instant
    // it sees the open reply. attempt() already validated the body, so
    // this decode cannot throw.
    const SessionReplyWire opened = decode_session_reply(
        result.reply_body.data(), result.reply_body.size());
    if (opened.status == Status::kOk) {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      session_workers_[opened.session_id] = result.worker;
    }
  } else if (policy.pin == Pin::kDrop ||
             (policy.pin == Pin::kDropIfLost && result.worker_lost)) {
    // A close ends the session from the router's view even when its reply
    // is lost: the worker reaps what is left, but no more frames route.
    std::lock_guard<std::mutex> lk(sessions_mu_);
    session_workers_.erase(request.session_id);
  }
  if (result.relayed()) {
    return send_to_client(conn, policy.reply, result.reply_body);
  }
  return send_to_client(
      conn, policy.reply,
      request.answer(policy.reply, result.status, std::move(result.message)));
}

void Router::serve_connection(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Frame frame;
    try {
      if (!recv_frame(conn->fd, frame, config_.max_request_bytes)) {
        return;  // clean EOF
      }
    } catch (const FrameTooLarge& e) {
      // Same admission semantics as a worker: the body was never read, the
      // stream cannot be resynchronized — answer with the header type's
      // reply, count it as that type's rejection, close. Stats and reply
      // types have no status reply and just close.
      const Policy* policy = policy_for(e.type);
      if (policy != nullptr && policy->route != Route::kLocal) {
        {
          std::lock_guard<std::mutex> lk(counts_mu_);
          ++counts_.received;
          if (policy->tally != nullptr) ++(counts_.*policy->tally);
          ++counts_.rejected;
        }
        send_to_client(conn, policy->reply,
                       Request().answer(policy->reply, Status::kRejected,
                                        e.what()));
      }
      return;
    } catch (const std::exception&) {
      return;  // bad magic / unknown type / truncation / peer I/O error
    }

    const Policy* policy = policy_for(frame.type);
    if (policy == nullptr) {
      return;  // a client sending reply types is not salvageable
    }
    if (!handle(conn, *policy, frame)) {
      // Peer gone or the reply write timed out mid-frame: unrecoverable
      // stream — unblock the reader so the connection retires.
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
  }
}

bool Router::ping_worker(Worker& w) {
  int fd = -1;
  try {
    fd = connect_endpoint(w.endpoint, config_.ping_timeout_ms);
    send_frame(fd, MsgType::kStats, nullptr, 0, config_.ping_timeout_ms);
    Frame reply;
    const bool got =
        recv_frame(fd, reply, 1u << 20, config_.ping_timeout_ms);
    close_quietly(fd);
    if (!got || reply.type != MsgType::kStatsReply) {
      mark_unhealthy(w, "ping got no stats reply");
      return false;
    }
  } catch (const std::exception&) {
    close_quietly(fd);
    mark_unhealthy(w, "ping failed");
    return false;
  }
  if (!w.healthy.exchange(true)) {
    std::fprintf(stderr, "router: worker %s re-admitted\n", w.spec.c_str());
  }
  return true;
}

void Router::health_loop() {
  std::unique_lock<std::mutex> lk(health_mu_);
  while (!health_stop_.load()) {
    health_cv_.wait_for(lk,
                        std::chrono::milliseconds(config_.health_interval_ms),
                        [&] { return health_stop_.load(); });
    if (health_stop_.load()) return;
    lk.unlock();
    for (auto& w : workers_) ping_worker(*w);
    lk.lock();
  }
}

void Router::stop_health() {
  if (!health_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(health_mu_);
    health_stop_.store(true);
  }
  health_cv_.notify_all();
  health_thread_.join();
}

RouterCounts Router::counts() const {
  RouterCounts out;
  {
    std::lock_guard<std::mutex> lk(counts_mu_);
    out = counts_;
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    out.sessions_pinned = session_workers_.size();
  }
  out.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerSnapshot s;
    s.endpoint = w->spec;
    s.healthy = w->healthy.load();
    s.forwarded = w->forwarded.load();
    s.replies = w->replies.load();
    s.failures = w->failures.load();
    s.drain_rejects = w->drain_rejects.load();
    out.workers.push_back(std::move(s));
  }
  return out;
}

std::string Router::statsz_json() const {
  const RouterCounts c = counts();
  std::ostringstream os;
  os << "{\n";
  os << "  \"router\": true,\n";
  os << "  \"requests\": {\n";
  os << "    \"received\": " << c.received << ",\n";
  os << "    \"relayed\": " << c.relayed << ",\n";
  os << "    \"error\": " << c.errors << ",\n";
  os << "    \"timeout\": " << c.timeouts << ",\n";
  os << "    \"rejected\": " << c.rejected << ",\n";
  os << "    \"reroutes\": " << c.reroutes << ",\n";
  os << "    \"stats\": " << c.stats << "\n";
  os << "  },\n";
  os << "  \"sessions\": {\n";
  os << "    \"pinned\": " << c.sessions_pinned << ",\n";
  os << "    \"opens\": " << c.session_opens << ",\n";
  os << "    \"frames\": " << c.session_frames << ",\n";
  os << "    \"closes\": " << c.session_closes << "\n";
  os << "  },\n";
  os << "  \"workers\": [";
  for (std::size_t i = 0; i < c.workers.size(); ++i) {
    const WorkerSnapshot& w = c.workers[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"endpoint\": \"" << w.endpoint << "\",\n";
    os << "      \"healthy\": " << (w.healthy ? "true" : "false") << ",\n";
    os << "      \"forwarded\": " << w.forwarded << ",\n";
    os << "      \"replies\": " << w.replies << ",\n";
    os << "      \"failures\": " << w.failures << ",\n";
    os << "      \"drain_rejects\": " << w.drain_rejects << "\n";
    os << "    }";
  }
  os << (c.workers.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace jigsaw::serve
