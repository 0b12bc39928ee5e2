#include "serve/engine.hpp"

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>

#include "common/hash.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "obs/obs.hpp"
#include "robustness/sanitize.hpp"

namespace jigsaw::serve {

namespace {

const char* status_counter(Status s) {
  switch (s) {
    case Status::kOk: return "serve.ok";
    case Status::kSanitizedPartial: return "serve.sanitized_partial";
    case Status::kTimeout: return "serve.timeout";
    case Status::kRejected: return "serve.rejected";
    case Status::kError: return "serve.error";
  }
  return "serve.error";
}

ReconOutcome make_outcome(Status status, std::string message,
                          std::int64_t n = 0) {
  ReconOutcome o;
  o.status = status;
  o.message = std::move(message);
  o.n = n;
  return o;
}

const char* frame_status_counter(Status s) {
  switch (s) {
    case Status::kOk: return "serve.frames_ok";
    case Status::kSanitizedPartial: return "serve.frames_ok";  // not emitted
    case Status::kTimeout: return "serve.frames_timeout";
    case Status::kRejected: return "serve.frames_rejected";
    case Status::kError: return "serve.frames_error";
  }
  return "serve.frames_error";
}

}  // namespace

core::GridderKind decode_engine(std::uint32_t engine) {
  if (engine > static_cast<std::uint32_t>(core::GridderKind::Auto)) {
    throw std::invalid_argument("unknown engine code " +
                                std::to_string(engine));
  }
  return static_cast<core::GridderKind>(engine);
}

ServeEngine::ServeEngine(const ServeConfig& config) : config_(config) {
  // Session ids must differ across workers (the router relays ids between
  // processes), so the high bits carry per-process entropy and the low bits
  // a sequence number.
  session_salt_ = (static_cast<std::uint64_t>(std::random_device{}()) << 32);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ServeEngine::~ServeEngine() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  dispatcher_.join();
}

ServeEngine::GeometryKey ServeEngine::key_of(const ReconJob& job) {
  GeometryKey key;
  key.n = job.n;
  key.m = job.samples.coords.size();
  // Coord<2> is a contiguous trivially-copyable array, so the coordinate
  // set hashes as one byte range. A 64-bit collision between two *queued*
  // geometries is vanishingly unlikely; m and n participating in the key
  // narrows it further.
  key.traj_hash = fnv1a(job.samples.coords.data(),
                        key.m * sizeof(Coord<2>), kFnv1aShortBasis);
  const auto& o = job.options;
  // engine=auto resolves by reuse (core::resolve_auto), so its requests
  // split into a one-shot and a reused plan; a named engine keeps one plan
  // for adjoint and CG requests alike.
  const bool auto_reused = o.kind == core::GridderKind::Auto &&
                           (job.iters > 0 || job.coils > 1);
  // The struct is hashed as raw bytes, so it must have no padding hole
  // (indeterminate bytes would enter the key): an even count of int32
  // fields before the double, with the two booleans sharing `flags`.
  struct {
    std::int32_t kind, kernel, width, table, tile, flags;
    double sigma;
  } sig{static_cast<std::int32_t>(o.kind),
        static_cast<std::int32_t>(o.kernel),
        o.width,
        o.table_oversampling,
        o.tile,
        (o.exact_weights ? 1 : 0) | (auto_reused ? 2 : 0),
        o.sigma};
  static_assert(sizeof(sig) == 6 * sizeof(std::int32_t) + sizeof(double),
                "options signature must have no padding bytes");
  key.options_sig = fnv1a(&sig, sizeof sig, kFnv1aShortBasis);
  return key;
}

void ServeEngine::submit(ReconJob job, Callback done) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counts_.submitted;
  }
  obs::add("serve.submitted", 1);

  Pending p;
  p.job = std::move(job);
  p.done = std::move(done);

  // Admission-control limits first: violations are REJECTED (a policy
  // decision), not ERROR (a malformed request).
  const auto& j = p.job;
  std::string reject;
  if (j.n < 2 || j.n > config_.max_n) {
    reject = "grid size " + std::to_string(j.n) + " outside [2, " +
             std::to_string(config_.max_n) + "]";
  } else if (j.samples.coords.empty()) {
    reject = "empty sample set";
  } else if (j.samples.coords.size() > config_.max_request_samples) {
    reject = "sample count " + std::to_string(j.samples.coords.size()) +
             " exceeds max_request_samples " +
             std::to_string(config_.max_request_samples);
  } else if (j.iters < 0 || j.iters > config_.max_iters) {
    reject = "iteration count outside [0, " +
             std::to_string(config_.max_iters) + "]";
  } else if (j.coils < 1 || j.coils > config_.max_coils) {
    reject = "coil count outside [1, " + std::to_string(config_.max_coils) +
             "]";
  } else if (j.coils > 1 &&
             j.options.sanitize != robustness::SanitizePolicy::None) {
    // The sanitizer operates on a coords/values pair of equal length;
    // multi-coil payloads carry coils blocks of values per coordinate set.
    reject = "sanitize policies are single-coil only";
  }
  if (!reject.empty()) {
    finish(p, make_outcome(Status::kRejected, std::move(reject)),
           /*was_inflight=*/false);
    return;
  }
  if (j.samples.values.size() !=
      j.samples.coords.size() * static_cast<std::size_t>(j.coils)) {
    finish(p,
           make_outcome(Status::kError,
                        "value count does not equal samples x coils"),
           /*was_inflight=*/false);
    return;
  }
  if (j.deadline.expired()) {
    finish(p,
           make_outcome(Status::kTimeout, "deadline expired at admission"),
           /*was_inflight=*/false);
    return;
  }

  p.key = key_of(p.job);
  std::string refusal = enqueue(p);
  if (!refusal.empty()) {
    finish(p, make_outcome(Status::kRejected, std::move(refusal)),
           /*was_inflight=*/false);
  }
}

SessionOutcome ServeEngine::open_session(const OpenSessionWire& req) {
  SessionOutcome out;
  out.client_tag = req.client_tag;

  core::GridderKind kind{};
  std::string error;
  try {
    kind = decode_engine(req.engine);
    if (req.kernel_width < 2 || req.kernel_width > 16) {
      error = "kernel width " + std::to_string(req.kernel_width) +
              " outside [2, 16]";
    } else if (!(req.sigma >= 1.125 && req.sigma <= 4.0)) {
      error = "oversampling sigma outside [1.125, 4]";
    } else if (!(req.divergence_guard >= 0.0)) {  // !>= rejects NaN too
      error = "divergence guard must be >= 0 (0 disables the guard)";
    }
  } catch (const std::invalid_argument& e) {
    error = e.what();
  }
  if (!error.empty()) {
    out.status = Status::kError;
    out.message = std::move(error);
    return out;
  }

  std::string reject;
  if (req.n < 2 || static_cast<std::int64_t>(req.n) > config_.max_n) {
    reject = "grid size " + std::to_string(req.n) + " outside [2, " +
             std::to_string(config_.max_n) + "]";
  } else if (static_cast<std::int64_t>(req.iters) > config_.max_iters) {
    reject = "iteration count outside [1, " +
             std::to_string(config_.max_iters) + "]";
  } else if (static_cast<std::int64_t>(req.coils) > config_.max_coils) {
    reject = "coil count outside [1, " + std::to_string(config_.max_coils) +
             "]";
  }
  if (!reject.empty()) {
    out.status = Status::kRejected;
    out.message = std::move(reject);
    return out;
  }

  stream::PipelineConfig pc;
  pc.n = static_cast<std::int64_t>(req.n);
  pc.options.kind = kind;
  pc.options.width = static_cast<int>(req.kernel_width);
  pc.options.sigma = req.sigma;
  pc.iters = static_cast<int>(req.iters);
  pc.tolerance = config_.cg_tolerance;
  pc.coils = static_cast<int>(req.coils);
  pc.warm_start = req.warm_start != 0;
  pc.divergence_guard = req.divergence_guard;

  auto session = std::make_shared<StreamSession>();
  session->n = pc.n;
  session->coils = pc.coils;
  session->frame_deadline_ms = req.frame_deadline_ms;
  try {
    // Cheap: coil maps for coils > 1, no plan until the first frame.
    session->pipeline = std::make_unique<stream::FramePipeline>(pc);
  } catch (const std::exception& e) {
    out.status = Status::kError;
    out.message = e.what();
    return out;
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ || stop_) {
      out.status = Status::kRejected;
      out.message = "server draining";
      return out;
    }
    if (sessions_.size() >= config_.max_sessions) {
      out.status = Status::kRejected;
      out.message = "session limit reached (" +
                    std::to_string(config_.max_sessions) + ")";
      return out;
    }
    session->id = session_salt_ | ++session_seq_;
    sessions_[session->id] = session;
    ++counts_.sessions_opened;
    publish_gauges();
  }
  obs::add("serve.sessions_opened", 1);
  out.status = Status::kOk;
  out.session_id = session->id;
  return out;
}

void ServeEngine::submit_frame(StreamFrameJob job, FrameCallback done) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counts_.frames_submitted;
  }
  obs::add("serve.frames_submitted", 1);

  Pending p;
  p.frame = std::move(job);
  p.frame_done = std::move(done);

  std::shared_ptr<StreamSession> session = live_session(p.frame.session_id);
  auto reject_frame = [&](Status status, std::string message) {
    FrameOutcome out;
    out.status = status;
    out.message = std::move(message);
    out.session_id = p.frame.session_id;
    out.frame_index = p.frame.frame_index;
    out.client_tag = p.frame.client_tag;
    finish_frame(p, std::move(out), /*was_inflight=*/false);
  };

  if (!session) {
    reject_frame(Status::kRejected,
                 "unknown or closed session " +
                     std::to_string(p.frame.session_id));
    return;
  }
  if (p.frame.coords.empty()) {
    reject_frame(Status::kError, "empty frame");
    return;
  }
  if (p.frame.coords.size() > config_.max_request_samples) {
    reject_frame(Status::kRejected,
                 "sample count " + std::to_string(p.frame.coords.size()) +
                     " exceeds max_request_samples " +
                     std::to_string(config_.max_request_samples));
    return;
  }
  if (p.frame.coils != session->coils) {
    reject_frame(Status::kError,
                 "frame carries " + std::to_string(p.frame.coils) +
                     " coils, session has " +
                     std::to_string(session->coils));
    return;
  }
  if (p.frame.values.size() !=
      p.frame.coords.size() * static_cast<std::size_t>(session->coils)) {
    reject_frame(Status::kError,
                 "value count does not equal samples x coils");
    return;
  }
  // A push with no deadline of its own inherits the session's default.
  if (!p.frame.deadline.bounded() && session->frame_deadline_ms > 0) {
    p.frame.deadline = Deadline::after_ms(
        static_cast<std::int64_t>(session->frame_deadline_ms));
  }
  if (p.frame.deadline.expired()) {
    reject_frame(Status::kTimeout, "deadline expired at admission");
    return;
  }

  p.session = std::move(session);
  std::string refusal = enqueue(p);
  if (!refusal.empty()) reject_frame(Status::kRejected, std::move(refusal));
}

void ServeEngine::submit_close(std::uint64_t session_id,
                               std::uint64_t client_tag,
                               SessionCallback done) {
  Pending p;
  p.close = true;
  p.frame.session_id = session_id;
  p.frame.client_tag = client_tag;
  p.close_done = std::move(done);

  p.session = live_session(session_id);
  std::string refusal =
      p.session != nullptr
          ? enqueue(p)
          : "unknown or closed session " + std::to_string(session_id);
  if (refusal.empty()) return;
  SessionOutcome out;
  out.status = Status::kRejected;
  out.message = std::move(refusal);
  out.session_id = session_id;
  out.client_tag = client_tag;
  finish_close(p, std::move(out), /*was_inflight=*/false);
}

std::shared_ptr<ServeEngine::StreamSession> ServeEngine::live_session(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->closed) return nullptr;
  return it->second;
}

std::string ServeEngine::enqueue(Pending& p) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (p.session != nullptr && p.session->closed) return "session closed";
    if (draining_ || stop_) return "server draining";
    if (queue_.size() >= config_.max_queue) {
      return "admission queue full (" + std::to_string(config_.max_queue) +
             ")";
    }
    // A close marks its session closed under the same lock as its push:
    // pushes that arrive after it are refused, frames already queued still
    // complete (the sentinel sits behind them in FIFO order).
    if (p.close) p.session->closed = true;
    queue_.push_back(std::move(p));
    publish_gauges();
  }
  cv_work_.notify_one();
  return {};
}

void ServeEngine::retire() {
  std::lock_guard<std::mutex> lk(mu_);
  --inflight_;
  publish_gauges();
  if (queue_.empty() && inflight_ == 0) cv_idle_.notify_all();
}

void ServeEngine::count_status(Status status) {
  obs::add(status_counter(status), 1);
  std::lock_guard<std::mutex> lk(mu_);
  switch (status) {
    case Status::kOk: ++counts_.ok; break;
    case Status::kSanitizedPartial: ++counts_.sanitized_partial; break;
    case Status::kTimeout: ++counts_.timeout; break;
    case Status::kRejected: ++counts_.rejected; break;
    case Status::kError: ++counts_.error; break;
  }
}

void ServeEngine::count_external(Status status) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counts_.submitted;
  }
  obs::add("serve.submitted", 1);
  count_status(status);
}

void ServeEngine::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  publish_gauges();
  cv_work_.notify_all();
  cv_idle_.wait(lk, [&] { return queue_.empty() && inflight_ == 0; });
}

void ServeEngine::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      // Session jobs (frames / close sentinels) dispatch solo: ordering
      // within a session is the warm-start contract, and their plan lives
      // in the session's pipeline, not the shared pool.
      if (queue_.front().session != nullptr) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        inflight_ += 1;
        publish_gauges();
      } else {
        // Plan-aware grouping: the oldest job anchors the dispatch; every
        // queued non-session job with the same geometry key rides along
        // (FIFO order preserved within the group), up to max_batch.
        const GeometryKey key = queue_.front().key;
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < config_.max_batch;) {
          if (it->session == nullptr && it->key == key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
        inflight_ += batch.size();
        publish_gauges();
      }
    }
    if (batch.size() == 1 && batch.front().session != nullptr) {
      process_stream(std::move(batch.front()));
    } else {
      process_batch(std::move(batch));
    }
  }
}

void ServeEngine::process_stream(Pending p) {
  const std::shared_ptr<StreamSession> session = p.session;

  if (p.close) {
    SessionOutcome out;
    out.status = Status::kOk;
    out.session_id = session->id;
    out.client_tag = p.frame.client_tag;
    {
      std::lock_guard<std::mutex> lk(mu_);
      out.frames = session->frames;
      out.total_iterations = session->total_iterations;
      sessions_.erase(session->id);
      ++counts_.sessions_closed;
      publish_gauges();
    }
    obs::add("serve.sessions_closed", 1);
    finish_close(p, std::move(out), /*was_inflight=*/true);
    return;
  }

  FrameOutcome out;
  out.session_id = session->id;
  out.frame_index = p.frame.frame_index;
  out.client_tag = p.frame.client_tag;
  out.n = session->n;
  if (p.frame.deadline.expired()) {
    out.status = Status::kTimeout;
    out.message = "deadline expired in queue";
    finish_frame(p, std::move(out), /*was_inflight=*/true);
    return;
  }
  try {
    stream::FrameResult r = session->pipeline->recon_frame(
        p.frame.coords, p.frame.values, p.frame.deadline);
    out.status = Status::kOk;
    out.image = std::move(r.image);
    out.iterations = r.iterations;
    out.residual = r.residual;
    out.warm_started = r.warm_started;
    out.guard_tripped = r.guard_tripped;
    out.plan_reused = r.plan_reused;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++session->frames;
      session->total_iterations += static_cast<std::uint64_t>(r.iterations);
      if (r.warm_started && !r.guard_tripped) ++counts_.warm_frames;
      if (r.guard_tripped) ++counts_.guard_trips;
    }
    if (r.warm_started && !r.guard_tripped) obs::add("serve.warm_frames", 1);
    if (r.guard_tripped) obs::add("serve.guard_trips", 1);
  } catch (const DeadlineExceeded& e) {
    out.status = Status::kTimeout;
    out.message = e.what();
  } catch (const std::exception& e) {
    out.status = Status::kError;
    out.message = e.what();
  }
  finish_frame(p, std::move(out), /*was_inflight=*/true);
}

void ServeEngine::process_batch(std::vector<Pending> batch) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counts_.batches;
    if (batch.size() >= 2) counts_.batched_jobs += batch.size();
  }
  obs::add("serve.batches", 1);
  if (batch.size() >= 2) {
    obs::add("serve.batched_jobs", static_cast<std::uint64_t>(batch.size()));
  }
  obs::set_gauge("serve.batch_occupancy", static_cast<double>(batch.size()));

  // Phase boundary 1: deadline at dispatch.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p.job.deadline.expired()) {
      finish(p, make_outcome(Status::kTimeout, "deadline expired in queue"),
             /*was_inflight=*/true);
    } else {
      live.push_back(std::move(p));
    }
  }

  // Phase boundary 2: per-request sanitize. A pass that modifies the sample
  // set changes the geometry, so the job leaves the fused group and
  // executes on its own (pooled) plan.
  std::vector<Pending> fused;
  std::vector<std::pair<Pending, ReconOutcome>> solo;  // outcome = partial
  for (auto& p : live) {
    using robustness::SanitizePolicy;
    const SanitizePolicy policy = p.job.options.sanitize;
    ReconOutcome partial;  // carries sanitize counts into the final status
    if (policy != SanitizePolicy::None) {
      try {
        auto outcome = robustness::sanitize<2>(p.job.samples, policy, 1);
        if (outcome.report.modified()) {
          partial.sanitize_dropped = outcome.report.dropped;
          partial.sanitize_repaired = outcome.report.repaired;
          p.job.samples = std::move(outcome.samples);
          p.key = key_of(p.job);
          if (p.job.samples.coords.empty()) {
            finish(p,
                   make_outcome(Status::kError,
                                "sanitizer dropped every sample"),
                   /*was_inflight=*/true);
            continue;
          }
          solo.emplace_back(std::move(p), std::move(partial));
          continue;
        }
      } catch (const std::exception& e) {  // Strict policy: first defect
        finish(p, make_outcome(Status::kError, e.what()),
               /*was_inflight=*/true);
        continue;
      }
    }
    // Multi-coil and iterative jobs execute per-request even when fused
    // into the dispatch (they still share the pooled plan).
    if (p.job.coils > 1 || p.job.iters > 0) {
      solo.emplace_back(std::move(p), std::move(partial));
    } else {
      fused.push_back(std::move(p));
    }
  }

  if (!fused.empty()) {
    std::shared_ptr<const core::BatchedNufft<2>> plan;
    try {
      plan = plan_for(fused.front());
    } catch (const std::exception& e) {
      for (auto& p : fused) {
        finish(p, make_outcome(Status::kError, e.what()),
               /*was_inflight=*/true);
      }
      fused.clear();
    }
    if (!fused.empty()) execute_adjoint_batch(plan, fused);
  }

  for (auto& [p, partial] : solo) {
    ReconOutcome outcome;
    try {
      auto plan = plan_for(p);
      outcome = execute_single(p, plan);
    } catch (const DeadlineExceeded& e) {
      outcome = make_outcome(Status::kTimeout, e.what());
    } catch (const std::exception& e) {
      outcome = make_outcome(Status::kError, e.what());
    }
    if (outcome.status == Status::kOk &&
        (partial.sanitize_dropped > 0 || partial.sanitize_repaired > 0)) {
      outcome.status = Status::kSanitizedPartial;
      outcome.sanitize_dropped = partial.sanitize_dropped;
      outcome.sanitize_repaired = partial.sanitize_repaired;
    }
    finish(p, std::move(outcome), /*was_inflight=*/true);
  }
}

void ServeEngine::execute_adjoint_batch(
    const std::shared_ptr<const core::BatchedNufft<2>>& plan,
    std::vector<Pending>& group) {
  // Backstop deadline: the most patient member's. Members that expire
  // mid-batch get their own post-execution check below; once even the
  // latest deadline passes, the whole dispatch aborts at the next frame
  // boundary and the survivors report TIMEOUT.
  auto max_remaining = Deadline::Clock::duration::zero();
  bool all_bounded = true;
  for (const auto& p : group) {
    const auto rem = p.job.deadline.remaining();
    if (rem == Deadline::Clock::duration::max()) all_bounded = false;
    max_remaining = std::max(max_remaining, rem);
  }
  const Deadline backstop =
      all_bounded ? Deadline::after(max_remaining) : Deadline::never();

  std::vector<std::vector<c64>> frames;
  frames.reserve(group.size());
  for (auto& p : group) frames.push_back(std::move(p.job.samples.values));

  std::vector<std::vector<c64>> images;
  try {
    images = plan->adjoint(frames, nullptr, backstop);
  } catch (const DeadlineExceeded& e) {
    for (auto& p : group) {
      finish(p, make_outcome(Status::kTimeout, e.what()),
             /*was_inflight=*/true);
    }
    return;
  } catch (const std::exception& e) {
    for (auto& p : group) {
      finish(p, make_outcome(Status::kError, e.what()),
             /*was_inflight=*/true);
    }
    return;
  }

  for (std::size_t i = 0; i < group.size(); ++i) {
    Pending& p = group[i];
    if (p.job.deadline.expired()) {
      finish(p,
             make_outcome(Status::kTimeout, "deadline expired during batch"),
             /*was_inflight=*/true);
      continue;
    }
    ReconOutcome outcome = make_outcome(Status::kOk, "", p.job.n);
    outcome.image = std::move(images[i]);
    finish(p, std::move(outcome), /*was_inflight=*/true);
  }
}

ReconOutcome ServeEngine::execute_single(
    Pending& p, const std::shared_ptr<const core::BatchedNufft<2>>& plan) {
  ReconJob& job = p.job;
  job.deadline.check("serve.execute");
  std::vector<c64> image;
  std::string note;
  if (job.coils > 1) {
    // Multi-coil: synthetic birdcage maps (the calibration-free convention
    // the CLI uses); values arrive as coils consecutive blocks of m.
    const auto maps =
        core::make_birdcage_maps(job.n, job.coils);
    const std::size_t m = job.samples.coords.size();
    std::vector<std::vector<c64>> y(static_cast<std::size_t>(job.coils));
    for (int c = 0; c < job.coils; ++c) {
      const auto* first = job.samples.values.data() +
                          static_cast<std::size_t>(c) * m;
      y[static_cast<std::size_t>(c)].assign(first, first + m);
    }
    // Adjoint-only (iters == 0) is undefined for CG-SENSE; the wire
    // contract (protocol.hpp, docs/serving.md) documents that iters == 0
    // selects the configured default depth, surfaced in the reply message.
    const int iters =
        job.iters > 0 ? job.iters : config_.default_sense_iters;
    if (job.iters == 0) {
      note = "cg_sense iters=" + std::to_string(iters) + " (default)";
    }
    image = core::cg_sense(plan->plan(), maps, y, iters,
                           config_.cg_tolerance, nullptr,
                           /*coil_threads=*/1, job.deadline);
  } else if (job.iters > 0) {
    image = core::iterative_recon<2>(plan->plan(), job.samples.values,
                                     job.iters, config_.cg_tolerance,
                                     /*use_toeplitz=*/false, nullptr,
                                     job.deadline);
  } else {
    image = plan->plan().adjoint(job.samples.values, nullptr, job.deadline);
  }
  // Phase boundary: respond. Work that finished past its deadline still
  // reports TIMEOUT — the client has long stopped waiting.
  job.deadline.check("serve.respond");
  ReconOutcome outcome = make_outcome(Status::kOk, std::move(note), job.n);
  outcome.image = std::move(image);
  return outcome;
}

std::shared_ptr<const core::BatchedNufft<2>> ServeEngine::plan_for(
    const Pending& p) {
  const auto it = plans_.find(p.key);
  if (it != plans_.end()) {
    it->second.last_used = ++plan_tick_;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++counts_.plan_hits;
    }
    obs::add("serve.plan_hits", 1);
    return it->second.plan;
  }

  // The resident plan is geometry-only: per-request policies (sanitize,
  // soft-error injection) run as pipeline stages before it, and intra-
  // transform threading stays at 1 — parallelism comes from exec_threads
  // threads over the one plan.
  core::GridderOptions options = p.job.options;
  options.sanitize = robustness::SanitizePolicy::None;
  options.soft_error = {};
  options.threads = 1;
  if (options.kind == core::GridderKind::Auto) {
    // CG and CG-SENSE apply the plan many times, an adjoint once.
    options =
        core::resolve_auto(options, p.job.iters > 0 || p.job.coils > 1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++counts_.tuned_plans;
    }
    obs::add("serve.tuned_plans", 1);
  }
  auto plan = std::make_shared<core::BatchedNufft<2>>(
      p.job.n, p.job.samples.coords, options,
      std::max(1u, config_.exec_threads));
  plans_[p.key] = PlanEntry{plan, ++plan_tick_};
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counts_.plan_builds;
  }
  obs::add("serve.plan_builds", 1);

  while (plans_.size() > config_.max_plans) {
    auto lru = plans_.begin();
    for (auto cand = plans_.begin(); cand != plans_.end(); ++cand) {
      if (cand->second.last_used < lru->second.last_used) lru = cand;
    }
    plans_.erase(lru);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++counts_.plan_evictions;
    }
    obs::add("serve.plan_evictions", 1);
  }
  return plan;
}

void ServeEngine::finish(Pending& p, ReconOutcome outcome, bool was_inflight) {
  outcome.client_tag = p.job.client_tag;
  if (outcome.n == 0) outcome.n = p.job.n;
  // Count BEFORE completing: a caller that observes its reply must already
  // see itself in the per-status totals.
  count_status(outcome.status);
  if (p.done) p.done(std::move(outcome));
  // Retire from inflight only AFTER the callback: drain() must not return
  // (and the server must not tear down connections) while a reply is still
  // being written.
  if (was_inflight) retire();
}

void ServeEngine::finish_frame(Pending& p, FrameOutcome outcome,
                               bool was_inflight) {
  const Status status = outcome.status;
  // Same ordering contract as finish(): count before the callback, retire
  // from inflight only after it — drain() must not return while a frame
  // reply is still being written.
  obs::add(frame_status_counter(status), 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    switch (status) {
      case Status::kOk:
      case Status::kSanitizedPartial: ++counts_.frames_ok; break;
      case Status::kTimeout: ++counts_.frames_timeout; break;
      case Status::kRejected: ++counts_.frames_rejected; break;
      case Status::kError: ++counts_.frames_error; break;
    }
  }
  if (p.frame_done) p.frame_done(std::move(outcome));
  if (was_inflight) retire();
}

void ServeEngine::finish_close(Pending& p, SessionOutcome outcome,
                               bool was_inflight) {
  if (p.close_done) p.close_done(std::move(outcome));
  if (was_inflight) retire();
}

void ServeEngine::publish_gauges() {
  counts_.queue_depth = queue_.size();
  counts_.inflight = inflight_;
  counts_.active_sessions = sessions_.size();
  counts_.draining = draining_;
  obs::set_gauge("serve.queue_depth", static_cast<double>(queue_.size()));
  obs::set_gauge("serve.inflight", static_cast<double>(inflight_));
  obs::set_gauge("serve.active_sessions",
                 static_cast<double>(sessions_.size()));
  obs::set_gauge("serve.draining", draining_ ? 1.0 : 0.0);
}

EngineCounts ServeEngine::counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  EngineCounts c = counts_;
  c.queue_depth = queue_.size();
  c.inflight = inflight_;
  c.active_sessions = sessions_.size();
  c.draining = draining_;
  return c;
}

std::string ServeEngine::statsz_json() const {
  const EngineCounts c = counts();
  std::ostringstream os;
  os << "{\n";
  os << "  \"queue_depth\": " << c.queue_depth << ",\n";
  os << "  \"inflight\": " << c.inflight << ",\n";
  os << "  \"draining\": " << (c.draining ? "true" : "false") << ",\n";
  os << "  \"requests\": {\n";
  os << "    \"submitted\": " << c.submitted << ",\n";
  os << "    \"ok\": " << c.ok << ",\n";
  os << "    \"sanitized_partial\": " << c.sanitized_partial << ",\n";
  os << "    \"timeout\": " << c.timeout << ",\n";
  os << "    \"rejected\": " << c.rejected << ",\n";
  os << "    \"error\": " << c.error << "\n";
  os << "  },\n";
  os << "  \"scheduler\": {\n";
  os << "    \"batches\": " << c.batches << ",\n";
  os << "    \"batched_jobs\": " << c.batched_jobs << ",\n";
  os << "    \"plan_builds\": " << c.plan_builds << ",\n";
  os << "    \"plan_hits\": " << c.plan_hits << ",\n";
  os << "    \"plan_evictions\": " << c.plan_evictions << ",\n";
  os << "    \"tuned_plans\": " << c.tuned_plans << "\n";
  os << "  },\n";
  os << "  \"sessions\": {\n";
  os << "    \"active\": " << c.active_sessions << ",\n";
  os << "    \"opened\": " << c.sessions_opened << ",\n";
  os << "    \"closed\": " << c.sessions_closed << ",\n";
  os << "    \"frames_submitted\": " << c.frames_submitted << ",\n";
  os << "    \"frames_ok\": " << c.frames_ok << ",\n";
  os << "    \"frames_timeout\": " << c.frames_timeout << ",\n";
  os << "    \"frames_rejected\": " << c.frames_rejected << ",\n";
  os << "    \"frames_error\": " << c.frames_error << ",\n";
  os << "    \"warm_frames\": " << c.warm_frames << ",\n";
  os << "    \"guard_trips\": " << c.guard_trips << "\n";
  os << "  },\n";
  // The obs CounterRegistry snapshot (empty maps under JIGSAW_OBS=OFF).
  const obs::Snapshot snap = obs::snapshot();
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace jigsaw::serve
