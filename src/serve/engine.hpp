// ServeEngine: the socket-free core of the reconstruction service.
//
// One engine owns
//   * a bounded admission queue — submit() either admits a job or completes
//     it immediately with REJECTED (queue full / limits / draining) or
//     TIMEOUT (deadline already passed at admission); backpressure is a
//     status code, never a blocking producer;
//   * a plan-aware scheduler — a single dispatcher thread repeatedly takes
//     the oldest queued job plus every queued job with the same geometry
//     key (grid size, gridder options, trajectory hash) up to max_batch and
//     processes them as one dispatch, so a burst of same-geometry requests
//     shares one resident NufftPlan, run by exec_threads threads;
//   * an LRU pool of BatchedNufft plans keyed by geometry — the serve-layer
//     plan cache above fft::FftPlanCache. A same-geometry burst of N
//     requests builds exactly one plan (serve.plan_builds == distinct
//     geometries), the acceptance invariant of this subsystem;
//   * per-request deadline enforcement at every phase boundary (admission,
//     sanitize, execute, respond) via common/deadline.hpp.
//
// The per-request pipeline is: admission checks -> SampleSanitizer with the
// request's policy (a modified sample set leaves the batch and executes on
// its own plan, since its geometry changed) -> adjoint / CG recon /
// CG-SENSE -> completion callback with one of the five protocol statuses.
//
// Completion callbacks run on the dispatcher thread (or inline in submit()
// for requests that never reach the queue) and are invoked exactly once per
// submitted job. drain() stops admission and returns once every queued and
// in-flight job has completed — the graceful-shutdown half of SIGTERM
// handling; jobs submitted afterwards are REJECTED.
//
// The engine keeps its own per-status totals (EngineCounts, available even
// with JIGSAW_OBS=OFF) and mirrors them to obs counters/gauges under
// serve.* for the /statsz snapshot.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "core/batch.hpp"
#include "core/sample_set.hpp"
#include "serve/protocol.hpp"
#include "stream/frame_pipeline.hpp"

namespace jigsaw::serve {

struct ServeConfig {
  std::string socket_path;      // ReconServer: AF_UNIX socket file ("" = off)
  std::string listen;           // ReconServer: TCP "host:port" ("" = off);
                                // bind 127.0.0.1 unless another interface
                                // is named explicitly
  std::size_t max_queue = 64;   // admission queue capacity (jobs)
  std::size_t max_batch = 8;    // same-geometry jobs fused per dispatch
  std::size_t max_plans = 16;   // resident geometry plans (LRU-evicted)
  std::size_t max_request_samples = 1u << 21;  // per-request M cap
  std::size_t max_request_bytes = 256u << 20;  // frame-size admission cap
  unsigned exec_threads = 2;    // threads over one pooled plan (batched
                                // adjoint frames)
  std::int64_t max_n = 1024;    // largest accepted base grid side
  int max_iters = 64;           // largest accepted CG iteration count
  int max_coils = 32;
  double cg_tolerance = 1e-6;
  int default_sense_iters = 10;  // CG-SENSE depth when coils > 1, iters == 0
  int reply_write_timeout_ms = 5000;  // wall-clock bound per reply write; a
                                      // peer that stops reading is cut off
                                      // instead of stalling the dispatcher
                                      // (< 0 = unbounded)
  std::size_t max_sessions = 8;  // concurrent streaming sessions
};

/// The engine field of a request (ReconRequestWire, OpenSessionWire) as a
/// core::GridderKind. Throws std::invalid_argument ("unknown engine code
/// <N>") for a code above GridderKind::Auto.
core::GridderKind decode_engine(std::uint32_t engine);

/// A parsed, validated-enough-to-try reconstruction job.
struct ReconJob {
  core::GridderOptions options;  // sanitize policy rides in options.sanitize
  std::int64_t n = 128;
  int iters = 0;   // 0 = adjoint only
  int coils = 1;   // >1 = CG-SENSE with synthetic birdcage maps
  Deadline deadline;
  core::SampleSet<2> samples;  // coils > 1: values holds coils blocks of m
  std::uint64_t client_tag = 0;
};

struct ReconOutcome {
  Status status = Status::kError;
  std::string message;
  std::int64_t n = 0;
  std::vector<c64> image;  // filled for kOk / kSanitizedPartial
  std::uint64_t sanitize_dropped = 0;
  std::uint64_t sanitize_repaired = 0;
  std::uint64_t client_tag = 0;
};

/// One frame of an open streaming session, headed for that session's
/// FramePipeline on the dispatcher thread.
struct StreamFrameJob {
  std::uint64_t session_id = 0;
  std::uint64_t frame_index = 0;
  std::uint64_t client_tag = 0;
  int coils = 1;  // cross-checked against the session's coil count
  Deadline deadline;
  std::vector<Coord<2>> coords;
  std::vector<c64> values;  // coils consecutive blocks of coords.size()
};

/// Completion record for one streamed frame (maps onto FrameReplyWire).
struct FrameOutcome {
  Status status = Status::kError;
  std::string message;
  std::int64_t n = 0;
  std::vector<c64> image;
  int iterations = 0;
  double residual = 0.0;
  bool warm_started = false;
  bool guard_tripped = false;
  bool plan_reused = false;
  std::uint64_t session_id = 0;
  std::uint64_t frame_index = 0;
  std::uint64_t client_tag = 0;
};

/// Completion record for open_session / close (maps onto SessionReplyWire).
struct SessionOutcome {
  Status status = Status::kError;
  std::string message;
  std::uint64_t session_id = 0;
  std::uint64_t client_tag = 0;
  std::uint64_t frames = 0;            // frames completed over the session
  std::uint64_t total_iterations = 0;  // CG iterations across those frames
};

/// Point-in-time totals. Monotonic counts on the left; queue_depth /
/// inflight are instantaneous gauges.
struct EngineCounts {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t sanitized_partial = 0;
  std::uint64_t timeout = 0;
  std::uint64_t rejected = 0;
  std::uint64_t error = 0;
  std::uint64_t batches = 0;          // dispatches executed
  std::uint64_t batched_jobs = 0;     // jobs that rode a >= 2 job dispatch
  std::uint64_t plan_builds = 0;      // geometry-pool misses
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_evictions = 0;
  std::uint64_t tuned_plans = 0;      // plan builds that resolved engine=auto
  std::uint64_t sessions_opened = 0;  // streaming sessions (accepted opens)
  std::uint64_t sessions_closed = 0;
  std::uint64_t frames_submitted = 0;  // streamed frames entering submit_frame
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_timeout = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t frames_error = 0;
  std::uint64_t warm_frames = 0;       // frames solved from a warm seed
  std::uint64_t guard_trips = 0;       // warm solves redone cold
  std::size_t queue_depth = 0;
  std::size_t inflight = 0;
  std::size_t active_sessions = 0;
  bool draining = false;

  std::uint64_t completed() const {
    return ok + sanitized_partial + timeout + rejected + error;
  }
  std::uint64_t frames_completed() const {
    return frames_ok + frames_timeout + frames_rejected + frames_error;
  }
};

class ServeEngine {
 public:
  using Callback = std::function<void(ReconOutcome)>;
  using FrameCallback = std::function<void(FrameOutcome)>;
  using SessionCallback = std::function<void(SessionOutcome)>;

  explicit ServeEngine(const ServeConfig& config);
  ~ServeEngine();  // drains, then joins the dispatcher

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admit or immediately reject `job`. `done` is invoked exactly once —
  /// inline (from this call) for REJECTED/TIMEOUT-at-admission, from the
  /// dispatcher thread otherwise. Callbacks must not call back into the
  /// engine.
  void submit(ReconJob job, Callback done);

  /// Open a streaming session: allocate a session id and its FramePipeline
  /// shell (no plan is built until the first frame arrives, so this is
  /// cheap and synchronous). REJECTED when limits are violated or the
  /// engine is draining; the returned outcome carries the session id.
  SessionOutcome open_session(const OpenSessionWire& req);

  /// Admit one frame of an open session. Frames of a session execute in
  /// submission order on the dispatcher thread (warm-start needs the
  /// previous frame's image); `done` fires exactly once, inline for
  /// REJECTED/TIMEOUT-at-admission. Like submit(), admitted frames are
  /// always answered — drain() waits for them before returning.
  void submit_frame(StreamFrameJob job, FrameCallback done);

  /// Close a session. The close is a queue sentinel: frames admitted
  /// before it still complete (FIFO), frames pushed after it are REJECTED.
  /// `done` receives the session's lifetime totals.
  void submit_close(std::uint64_t session_id, std::uint64_t client_tag,
                    SessionCallback done);

  /// Record a request of `type` that terminated outside the engine (the
  /// socket layer refusing an oversized frame -> kRejected, a malformed
  /// body -> kError), counted as an in-band outcome of that type is: a
  /// recon in submitted and its status, a pushed frame in frames_submitted
  /// and its frame status. Opens and closes have no per-status totals.
  void count_external(MsgType type, Status status);

  /// Stop admitting, finish every queued + in-flight job, return when the
  /// engine is idle. Idempotent; subsequent submits are REJECTED.
  void drain();

  EngineCounts counts() const;
  const ServeConfig& config() const { return config_; }

  /// JSON snapshot of counts + obs counters/gauges (the /statsz body).
  std::string statsz_json() const;

 private:
  struct GeometryKey {
    std::int64_t n = 0;
    std::uint64_t options_sig = 0;
    std::uint64_t traj_hash = 0;
    std::size_t m = 0;
    auto operator<=>(const GeometryKey&) const = default;
  };

  // One open streaming session. `closed` is guarded by mu_; the pipeline
  // and lifetime totals are touched only by the dispatcher thread (every
  // frame/close of a session is processed there, serially).
  struct StreamSession {
    std::uint64_t id = 0;
    std::int64_t n = 0;
    int coils = 1;
    std::uint64_t frame_deadline_ms = 0;  // default when a push carries none
    std::unique_ptr<stream::FramePipeline> pipeline;
    std::uint64_t frames = 0;
    std::uint64_t total_iterations = 0;
    bool closed = false;
  };

  struct Pending {
    ReconJob job;
    Callback done;
    GeometryKey key;
    // Streaming extension: a Pending with `session` set is a frame (or,
    // with `close` set, the close sentinel) and dispatches solo — never
    // fused with recon jobs or with other sessions' frames.
    std::shared_ptr<StreamSession> session;
    bool close = false;
    StreamFrameJob frame;
    FrameCallback frame_done;
    SessionCallback close_done;
  };

  struct PlanEntry {
    std::shared_ptr<const core::BatchedNufft<2>> plan;
    std::uint64_t last_used = 0;
  };

  void dispatcher_loop();
  void process_batch(std::vector<Pending> batch);
  void process_stream(Pending p);  // one frame or close sentinel
  void execute_adjoint_batch(
      const std::shared_ptr<const core::BatchedNufft<2>>& plan,
      std::vector<Pending>& group);
  ReconOutcome execute_single(
      Pending& p, const std::shared_ptr<const core::BatchedNufft<2>>& plan);
  std::shared_ptr<const core::BatchedNufft<2>> plan_for(const Pending& p);

  // The session `id` names, or nullptr when it is unknown or closed.
  std::shared_ptr<StreamSession> live_session(std::uint64_t id) const;
  // The one admission step of submit, submit_frame and submit_close: under
  // mu_, refuse a closed session, a draining engine or a full queue, else
  // push `p` (moved from), publish the gauges and wake the dispatcher.
  // Returns the refusal, empty when admitted.
  std::string enqueue(Pending& p);
  // The one retire step after an admitted job's callback: inflight
  // decrement, gauges, and the idle wakeup drain() waits for.
  void retire();
  void count_status(Status status);        // per-status request totals
  void count_frame_status(Status status);  // per-status frame totals

  void finish(Pending& p, ReconOutcome outcome, bool was_inflight);
  void finish_frame(Pending& p, FrameOutcome outcome, bool was_inflight);
  void finish_close(Pending& p, SessionOutcome outcome, bool was_inflight);
  void publish_gauges();  // queue_depth / inflight / draining, under mu_

  static GeometryKey key_of(const ReconJob& job);

  const ServeConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // dispatcher wakeup
  std::condition_variable cv_idle_;   // drain() wakeup
  std::deque<Pending> queue_;
  std::size_t inflight_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  EngineCounts counts_;

  // Plan pool: dispatcher-thread-only (no lock needed beyond the queue's).
  // Keyed on the ORIGINAL options signature (Auto included) plus, for Auto
  // only, the request's reuse class (key_of), so a burst of one-shot
  // engine=auto requests resolves to one pooled plan and CG requests of the
  // same geometry to another; plan_for() resolves Auto
  // (core::resolve_auto) when it builds the plan.
  std::map<GeometryKey, PlanEntry> plans_;
  std::uint64_t plan_tick_ = 0;

  // Streaming sessions, keyed by id. Server-scoped (not per-connection):
  // the router pools worker connections, so a session must survive frames
  // arriving over different sockets. Map guarded by mu_.
  std::map<std::uint64_t, std::shared_ptr<StreamSession>> sessions_;
  std::uint64_t session_salt_ = 0;  // per-process high bits of session ids
  std::uint64_t session_seq_ = 0;

  std::thread dispatcher_;
};

}  // namespace jigsaw::serve
