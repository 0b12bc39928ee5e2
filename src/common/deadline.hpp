// Deadline / abort token for long-running reconstruction work.
//
// A Deadline is a cheap value type carried down through the transform and
// solver entry points (NufftPlan, BatchedNufft, conjugate_gradient,
// cg_sense). Work is *never* preempted mid-kernel: callees call check() at
// phase boundaries (per gridding/FFT/apodization phase, per batch frame,
// per CG iteration, per coil) and a passed deadline raises DeadlineExceeded
// there. This keeps the hot loops branch-free while bounding how long an
// expired request can hold an execution thread — the serving layer
// (src/serve/) maps the exception to its TIMEOUT status.
//
// A default-constructed Deadline never expires, so every entry point can
// take one as a trailing default argument with zero behavior change for
// existing callers. An optional cancel flag turns the same token into a
// cooperative abort handle: expiry is "time passed OR flag raised".
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace jigsaw {

/// Raised by check() at the first phase boundary past the deadline (or
/// after the attached cancel flag was raised). The message names the
/// boundary, e.g. "deadline exceeded at cg.iteration".
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& phase)
      : std::runtime_error("deadline exceeded at " + phase) {}
};

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires (and has no cancel flag).
  Deadline() = default;

  static Deadline never() { return Deadline{}; }

  /// Expires `d` from now. Non-positive durations are already expired.
  static Deadline after(Clock::duration d) { return at(Clock::now() + d); }

  static Deadline after_ms(std::int64_t ms) {
    return after(std::chrono::milliseconds(ms));
  }

  static Deadline at(Clock::time_point tp) {
    Deadline dl;
    dl.tp_ = tp;
    dl.bounded_ = true;
    return dl;
  }

  /// Already expired on construction (tests, admission-time rejection).
  static Deadline already_expired() { return at(Clock::time_point::min()); }

  /// Attach a cooperative cancel flag: once `*flag` is true the deadline
  /// reports expired regardless of time. The flag must outlive every use
  /// of this Deadline (and its copies).
  void attach_cancel(const std::atomic<bool>* flag) { cancel_ = flag; }

  bool bounded() const { return bounded_ || cancel_ != nullptr; }

  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  bool expired() const {
    if (cancelled()) return true;
    return bounded_ && Clock::now() >= tp_;
  }

  /// Time left; Clock::duration::max() when unbounded, zero when expired.
  Clock::duration remaining() const {
    if (!bounded_) return Clock::duration::max();
    const auto now = Clock::now();
    return now >= tp_ ? Clock::duration::zero() : tp_ - now;
  }

  /// Throw DeadlineExceeded naming `phase` if expired. The intended call
  /// sites are phase boundaries only — never per-sample hot loops.
  void check(const char* phase) const {
    if (expired()) throw DeadlineExceeded(phase);
  }

 private:
  Clock::time_point tp_ = Clock::time_point::max();
  bool bounded_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace jigsaw
