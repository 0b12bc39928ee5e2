// serve-mixed: a closed loop of 3 client connections through an in-process
// Router to 2 ReconServer workers on loopback TCP (exec_threads = 1).
//
// The seeded request mix: mostly adjoint-only requests on 3 recurring
// geometry classes (they batch and hit the plan pool), a minority of CG
// requests on the same classes (the single-job path), and a small share of
// one-off trajectories (rotated copies of a class, so they land on the
// class's worker and miss its plan pool).
//
// After the loop a fixed sample of the mix is replayed one request at a
// time: direct core calls and the router in every run (the router's images
// must match the direct ones), and in a traced run also the in-process
// ServeSession and a worker socket, untraced and then traced. Differences
// between the four entry points attribute time to engine, wire and router.
#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/recon.hpp"
#include "fft/plan_cache.hpp"
#include "serve/client.hpp"
#include "serve/session.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace perfbench {
namespace {

namespace core = jigsaw::core;
namespace obs = jigsaw::obs;
namespace serve = jigsaw::serve;
namespace traj = jigsaw::trajectory;
using jigsaw::Coord;

constexpr int kWorkers = 2;
constexpr int kClients = 3;
// Three geometry classes on a 64 grid (oversampled 128, the radix-2 FFT),
// told apart by their sample counts, which also shard them.
constexpr std::uint32_t kN = 64;
constexpr std::int64_t kClassM[] = {1024, 1536, 2048};
constexpr int kClasses = 3;
constexpr std::uint32_t kWidth = 4;
constexpr std::uint32_t kCgIters = 4;
constexpr double kCgShare = 0.12;
constexpr double kOneOffShare = 0.08;
constexpr int kOneOffPool = 24;  // per class; more than max_plans (16)
constexpr int kSequence = 4096;  // requests per client, cycled
constexpr int kSetups = 9;
constexpr int kReplays = 4;  // passes over the sample per entry point
constexpr double kMatchTol = 1e-9;

enum class Kind { kAdjoint, kCg, kOneOff };

struct Request {
  Kind kind = Kind::kAdjoint;
  int cls = 0;
  serve::ReconRequestWire wire;
};

serve::ServeConfig worker_config() {
  serve::ServeConfig c;
  c.exec_threads = 1;
  return c;
}

core::GridderOptions plan_options() {
  core::GridderOptions o;
  o.width = static_cast<int>(kWidth);
  o.threads = 1;
  return o;
}

/// A radial trajectory of about kClassM[cls] samples whose shard key puts
/// class `cls` on worker cls % kWorkers, so the classes use both workers.
std::vector<Coord<2>> class_trajectory(int cls) {
  for (std::int64_t m = kClassM[cls]; m < 2 * kClassM[cls]; m += 64) {
    serve::ReconRequestWire probe;
    probe.n = kN;
    probe.kernel_width = kWidth;
    probe.coords = traj::make_2d(traj::TrajectoryType::Radial, m);
    const auto key = serve::Router::shard_hash(probe);
    std::size_t best = 0;
    for (std::size_t w = 1; w < kWorkers; ++w) {
      if (serve::Router::rendezvous_score(key, w) >
          serve::Router::rendezvous_score(key, best)) {
        best = w;
      }
    }
    if (best == static_cast<std::size_t>(cls % kWorkers)) return probe.coords;
  }
  throw std::runtime_error("no sample count shards class " +
                           std::to_string(cls) + " as wanted");
}

Request make_request(Kind kind, int cls, std::vector<Coord<2>> coords) {
  Request r;
  r.kind = kind;
  r.cls = cls;
  r.wire.engine = static_cast<std::uint32_t>(core::GridderKind::SliceDice);
  r.wire.n = kN;
  r.wire.kernel_width = kWidth;
  r.wire.iters = kind == Kind::kCg ? kCgIters : 0;
  r.wire.values = traj::kspace_samples(traj::shepp_logan(), coords,
                                       static_cast<int>(r.wire.n));
  r.wire.coords = std::move(coords);
  return r;
}

/// Every input of the workload, generated from the seed before timing.
struct Inputs {
  std::vector<std::vector<Coord<2>>> class_coords;
  std::vector<Request> adjoint, cg;      // one per class
  std::vector<Request> oneoffs;          // kOneOffPool per class
  std::vector<std::vector<const Request*>> sequences;  // per client
  std::vector<std::pair<Kind, int>> sample;  // the replayed slice of the mix
  std::vector<std::vector<double>> truth;    // phantom per class
  std::mt19937_64 rng;

  explicit Inputs(std::uint64_t seed) : rng(seed) {
    std::uniform_real_distribution<double> angle(0.0, M_PI);
    for (int c = 0; c < kClasses; ++c) {
      class_coords.push_back(rotated(class_trajectory(c), angle(rng)));
      adjoint.push_back(make_request(Kind::kAdjoint, c, class_coords[c]));
      cg.push_back(make_request(Kind::kCg, c, class_coords[c]));
      truth.push_back(traj::rasterize(traj::shepp_logan(),
                                      static_cast<int>(kN)));
    }
    for (int i = 0; i < kOneOffPool * kClasses; ++i) {
      oneoffs.push_back(fresh_oneoff(i % kClasses));
    }
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> pick(0, kClasses - 1);
    std::size_t next_oneoff = 0;
    for (int k = 0; k < kClients; ++k) {
      std::vector<const Request*> seq;
      for (int r = 0; r < kSequence; ++r) {
        const double x = u(rng);
        const int c = pick(rng);
        if (x < kOneOffShare) {
          seq.push_back(&oneoffs[next_oneoff++ % oneoffs.size()]);
        } else if (x < kOneOffShare + kCgShare) {
          seq.push_back(&cg[c]);
        } else {
          seq.push_back(&adjoint[c]);
        }
      }
      sequences.push_back(std::move(seq));
    }
    // 7 adjoint + 1 CG per class and 2 one-offs: the mix's proportions.
    for (int c = 0; c < kClasses; ++c) {
      for (int i = 0; i < 7; ++i) sample.emplace_back(Kind::kAdjoint, c);
      sample.emplace_back(Kind::kCg, c);
    }
    sample.emplace_back(Kind::kOneOff, 0);
    sample.emplace_back(Kind::kOneOff, 2);
    std::shuffle(sample.begin(), sample.end(), rng);
  }

  Request fresh_oneoff(int cls) {
    std::uniform_real_distribution<double> angle(0.0, M_PI);
    return make_request(Kind::kOneOff, cls,
                        rotated(class_coords[cls], angle(rng)));
  }
};

/// The set-up a user pays before the first request: fleet and router
/// start, client connections, and one warm-up request per class.
struct Deployment {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<serve::ServeClient>> clients;

  void start(const Inputs& in) {
    fleet = std::make_unique<Fleet>(kWorkers, worker_config());
    for (int k = 0; k < kClients; ++k) {
      clients.push_back(
          std::make_unique<serve::ServeClient>(fleet->router_endpoint()));
    }
    for (const auto& req : in.adjoint) {
      const auto reply = clients[0]->recon(req.wire);
      if (reply.status != serve::Status::kOk) {
        throw std::runtime_error("warm-up request failed: " + reply.message);
      }
    }
  }
  void stop() {
    clients.clear();
    fleet.reset();
  }
};

/// One-at-a-time replay of the sample through the four entry points.
class Replay {
 public:
  Replay(Inputs& in, Fleet& fleet, Report& report)
      : in_(in), report_(report), router_(fleet.router_endpoint()),
        worker_(fleet.worker_endpoints().front()) {
    for (int c = 0; c < kClasses; ++c) {
      plans_.push_back(std::make_unique<core::NufftPlan<2>>(
          kN, in.class_coords[c], plan_options()));
    }
  }

  /// Warm the worker socket's and the in-process engine's plan pools with
  /// the recurring classes (the loop already warmed the router's workers).
  void warm() {
    for (const auto& req : in_.adjoint) {
      worker_.recon(req.wire);
      session().recon(serve::job_from_wire(req.wire));
    }
  }

  /// Replay the sample through `paths`; images of every path are checked
  /// against the direct core calls. Timings go to series["<tag>.path.*"].
  void run(const std::vector<Path>& paths, const std::string& tag) {
    for (const auto& [kind, cls] : in_.sample) {
      Request oneoff;
      const Request* req = nullptr;
      switch (kind) {
        case Kind::kAdjoint: req = &in_.adjoint[cls]; break;
        case Kind::kCg: req = &in_.cg[cls]; break;
        case Kind::kOneOff:
          oneoff = in_.fresh_oneoff(cls);
          req = &oneoff;
          break;
      }
      std::vector<c64> reference;
      for (const Path p : paths) {
        if (kind == Kind::kOneOff && p != Path::kDirect) {
          oneoff = in_.fresh_oneoff(cls);  // a miss on every path
          req = &oneoff;
        }
        std::vector<c64> image;
        serve::ReconReplyWire reply;
        const CounterDelta work;
        const auto t0 = Clock::now();
        switch (p) {
          case Path::kDirect: image = direct(*req, tag); break;
          case Path::kEngine: {
            obs::Span span("pb.path.engine");
            auto out = session().recon(serve::job_from_wire(req->wire));
            reply.status = out.status;
            image = std::move(out.image);
            break;
          }
          case Path::kSocket: {
            obs::Span span("pb.path.socket");
            reply = worker_.recon(req->wire);
            image = reply.image;
            break;
          }
          case Path::kRouter: {
            obs::Span span("pb.path.router");
            reply = router_.recon(req->wire);
            image = reply.image;
            break;
          }
        }
        const double ms = ms_between(t0, Clock::now());
        if (p == Path::kDirect) {
          report_.add(tag + ".direct.interpolations",
                      work.sum("grid.", ".interpolations"));
        }
        report_.series[tag + ".path." + path_name(p)].push_back(ms);
        if (p != Path::kDirect) {
          report_.check(reply.status == serve::Status::kOk,
                        std::string("replay OK via ") + path_name(p),
                        reply.message);
        }
        if (p == Path::kDirect) {
          reference = image;
          if (kind != Kind::kOneOff) {
            report_.nrmse.push_back(fitted_nrmse(image, in_.truth[cls]));
          }
        } else {
          // A one-off is fresh on every path: check it against its own
          // direct calls.
          if (kind == Kind::kOneOff) reference = expected(*req);
          const double err = rel_l2(image, reference);
          report_.check(err <= kMatchTol,
                        std::string("image matches direct call via ") +
                            path_name(p),
                        "rel-L2 " + std::to_string(err));
        }
        if (p == Path::kRouter) codec(*req, reply, tag);
      }
    }
  }

 private:
  serve::ServeSession& session() {
    if (!session_) {
      session_ = std::make_unique<serve::ServeSession>(worker_config());
    }
    return *session_;
  }

  /// The image a request must come back with: plain NufftPlan and
  /// iterative_recon calls, untimed.
  static std::vector<c64> expected(const Request& req) {
    core::NufftPlan<2> plan(req.wire.n, req.wire.coords, plan_options());
    if (req.wire.iters == 0) return plan.adjoint(req.wire.values);
    return core::iterative_recon<2>(plan, req.wire.values,
                                    static_cast<int>(req.wire.iters),
                                    worker_config().cg_tolerance);
  }

  /// What the engine runs for this request, as direct public core calls.
  std::vector<c64> direct(const Request& req, const std::string& tag) {
    obs::Span span("pb.path.direct");
    std::unique_ptr<core::NufftPlan<2>> fresh;
    core::NufftPlan<2>* plan = plans_[req.cls].get();
    if (req.kind == Kind::kOneOff) {
      obs::Span build("pb.plan");
      fresh = std::make_unique<core::NufftPlan<2>>(
          req.wire.n, req.wire.coords, plan_options());
      plan = fresh.get();
    }
    TimedNufft nufft(*plan, report_, tag);
    if (req.wire.iters == 0) return nufft.adjoint(req.wire.values);
    obs::Span solve("pb.solve");
    const auto b = nufft.adjoint(req.wire.values);
    std::vector<c64> x(b.size());
    core::conjugate_gradient(
        [&](const std::vector<c64>& v) {
          return nufft.adjoint(nufft.forward(v));
        },
        b, x, static_cast<int>(req.wire.iters), worker_config().cg_tolerance);
    return x;
  }

  /// Encode and decode this request and its reply, as client, router and
  /// worker do between them.
  void codec(const Request& req, const serve::ReconReplyWire& reply,
             const std::string& tag) {
    const auto t0 = Clock::now();
    std::size_t bytes = 0;
    {
      obs::Span span("pb.codec");
      const auto body = serve::encode_recon_request(req.wire);
      const auto back = serve::decode_recon_request(body.data(), body.size());
      const auto rbody = serve::encode_recon_reply(reply);
      const auto rback = serve::decode_recon_reply(rbody.data(), rbody.size());
      bytes = body.size() + rbody.size();
      report_.check(back.coords.size() == req.wire.coords.size() &&
                        rback.image.size() == reply.image.size(),
                    "codec round trip", "size mismatch");
    }
    report_.series[tag + ".codec"].push_back(ms_between(t0, Clock::now()));
    report_.add(tag + ".wire_bytes", static_cast<double>(bytes));
  }

  Inputs& in_;
  Report& report_;
  serve::ServeClient router_;
  serve::ServeClient worker_;
  std::unique_ptr<serve::ServeSession> session_;
  std::vector<std::unique_ptr<core::NufftPlan<2>>> plans_;
};

}  // namespace

void run_serve_mixed(const RunOptions& opt, Report& report) {
  Inputs in(opt.seed);

  Deployment dep;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) dep.stop();
    jigsaw::fft::FftPlanCache::global().clear();
    const auto t0 = Clock::now();
    dep.start(in);
    report.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  // Per client: (completion time, latency), merged in completion order.
  std::vector<std::vector<std::pair<double, double>>> lat(kClients);
  std::vector<std::uint64_t> sent(kClients, 0), ok(kClients, 0);
  std::vector<std::string> errors(kClients);
  const CounterDelta counters;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(loop_s));
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        try {
          const auto& seq = in.sequences[k];
          for (std::size_t i = 0; Clock::now() < end; ++i) {
            const auto t0 = Clock::now();
            const auto& req = seq[i % seq.size()]->wire;
            const auto reply = dep.clients[k]->recon(req);
            const auto t1 = Clock::now();
            lat[k].emplace_back(ms_between(start, t1), ms_between(t0, t1));
            ++sent[k];
            if (reply.status == serve::Status::kOk) ++ok[k];
          }
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  report.wall_s = seconds_between(start, Clock::now());
  std::vector<std::pair<double, double>> done;
  for (int k = 0; k < kClients; ++k) {
    report.check(errors[k].empty(), "client connection", errors[k]);
    done.insert(done.end(), lat[k].begin(), lat[k].end());
    report.attempted += sent[k];
    report.on_time += ok[k];
    report.failed += sent[k] - ok[k];
  }
  std::sort(done.begin(), done.end());
  for (const auto& d : done) report.latencies_ms.push_back(d.second);
  report.values["untraced.ops"] = static_cast<double>(report.on_time);
  report.values["untraced.wall_s"] = report.wall_s;
  counters.record(report, "untraced");
  record_fleet(*dep.fleet, report);

  Replay replay(in, *dep.fleet, report);
  if (!opt.trace) {
    replay.run({Path::kDirect, Path::kRouter}, "verify");
  } else {
    const std::vector<Path> all = {Path::kDirect, Path::kEngine, Path::kSocket,
                                   Path::kRouter};
    replay.warm();
    for (int r = 0; r < kReplays; ++r) replay.run(all, "untraced");
    report.trace_path = opt.work_dir + "/serve-mixed.trace.json";
    obs::trace_start();
    for (int r = 0; r < kReplays; ++r) replay.run(all, "traced");
    obs::trace_stop_write(report.trace_path);
  }
  dep.clients.clear();
  check_fleet(*dep.fleet, report);
}

}  // namespace perfbench
