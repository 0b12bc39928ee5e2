// Shared pieces of the benchmark program: the raw report it hands to run.py,
// timed NuFFT calls with spans, counter deltas, the host fingerprint and the
// in-process worker fleet.
//
// The program measures; run.py turns the raw report into metrics. Every span
// the program records is named "pb.<layer>" and wraps one call into a public
// function of that layer, so run.py can compute self times from the Chrome
// trace without seeing any span from inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/nufft.hpp"
#include "obs/obs.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using jigsaw::c64;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files (dataset, trace) live here
};

/// Raw measurements of one run, written as JSON for run.py.
struct Report {
  std::vector<double> setup_s;       // one entry per set-up repetition
  std::vector<double> latencies_ms;  // one entry per measured operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t on_time = 0;  // OK and within the workload's deadline
  double wall_s = 0.0;        // the measured window
  std::vector<double> nrmse;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::map<std::string, double> values;  // named raw inputs to the metrics
  std::map<std::string, std::vector<double>> series;
  std::string trace_path;

  /// Record an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& name, const std::string& detail);
  void add(const std::string& key, double v) { values[key] += v; }
  void write(const std::string& path) const;
};

/// Counter deltas since construction (all zero when JIGSAW_OBS is off).
class CounterDelta {
 public:
  CounterDelta() : before_(jigsaw::obs::snapshot()) {}
  /// Delta of one counter.
  double get(const std::string& name) const;
  /// Sum of the deltas of every counter whose name starts with `prefix`
  /// and ends with `suffix`.
  double sum(const std::string& prefix, const std::string& suffix) const;
  /// Record the counters the per-layer metrics read as values["<tag>.<name>"].
  void record(Report& report, const std::string& tag) const;

 private:
  jigsaw::obs::Snapshot before_;
};

/// A NufftPlan whose every call is a "pb.nufft.<op>" span and whose phase
/// timings accumulate into the report under "<tag>.nufft.*".
class TimedNufft {
 public:
  TimedNufft(jigsaw::core::NufftPlan<2>& plan, Report& report,
             std::string tag)
      : plan_(plan), report_(report), tag_(std::move(tag)) {}
  std::vector<c64> adjoint(const std::vector<c64>& values);
  std::vector<c64> forward(const std::vector<c64>& image);

 private:
  void account(const jigsaw::core::NufftTimings& t);
  jigsaw::core::NufftPlan<2>& plan_;
  Report& report_;
  std::string tag_;
};

/// Confines every thread of this process to one CPU, the next allowed one
/// in turn on each next(). On a shared host each vCPU runs at its own speed
/// for minutes at a time, and a busy thread left alone stays on one of
/// them, so a run would measure that vCPU; rotating per operation spreads a
/// run's operations over all of them. restore() (also run on destruction)
/// gives every thread the process's original affinity back.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();
  void restore();

 private:
  std::vector<int> cpus_;  // empty when the affinity cannot be read
  std::size_t calls_ = 0;
  bool rotated_ = false;
};

/// Host class and build fingerprint, recorded in every report.
std::map<std::string, std::string> fingerprint();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// NRMSE of a complex image against a real reference after the
/// least-squares complex scalar fit (removes global gain and phase).
double fitted_nrmse(const std::vector<c64>& image,
                    const std::vector<double>& truth);

/// `coords` rotated by `theta` about the k-space center, wrapped onto the
/// torus [-0.5, 0.5)^2.
std::vector<jigsaw::Coord<2>> rotated(
    const std::vector<jigsaw::Coord<2>>& coords, double theta);

/// ||a - b|| / ||b||.
double rel_l2(const std::vector<c64>& a, const std::vector<c64>& b);

/// ReconServer workers on loopback TCP behind an in-process Router.
class Fleet {
 public:
  Fleet(int workers, const jigsaw::serve::ServeConfig& config);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::string& router_endpoint() const { return router_endpoint_; }
  const std::vector<std::string>& worker_endpoints() const { return specs_; }
  jigsaw::serve::Router& router() { return *router_; }
  std::vector<std::unique_ptr<jigsaw::serve::ReconServer>>& workers() {
    return workers_;
  }
  /// Graceful drain of router then workers (idempotent).
  void stop();

 private:
  std::vector<std::unique_ptr<jigsaw::serve::ReconServer>> workers_;
  std::vector<std::string> specs_;
  std::unique_ptr<jigsaw::serve::Router> router_;
  std::string router_endpoint_;
  bool stopped_ = false;
};

/// Record the router's and workers' totals so far as values["fleet.*"].
void record_fleet(Fleet& fleet, Report& report);

/// Stop the fleet and check the accounting invariants every run must hold.
void check_fleet(Fleet& fleet, Report& report);

/// The four entry points a replay times the same operations through.
enum class Path { kDirect, kEngine, kSocket, kRouter };
const char* path_name(Path p);

void run_offline_sense(const RunOptions& opt, Report& report);
void run_serve_mixed(const RunOptions& opt, Report& report);
void run_realtime_stream(const RunOptions& opt, Report& report);

}  // namespace perfbench
