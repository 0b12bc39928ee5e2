// Benchmark program: runs one workload and writes its raw report.
//
//   perfbench --workload offline-sense|serve-mixed|realtime-stream
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --out REPORT.json
//
// run.py builds and calls this program and derives every metric from the
// report; see README.md beside this file.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "kernels/simd/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(v[i]);
  }
  return out + "]";
}

/// Set the affinity of every thread of this process.
void set_process_affinity(const cpu_set_t& set) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
  closedir(dir);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[calls_++ % cpus_.size()], &one);
  set_process_affinity(one);
  rotated_ = true;
}

void CpuRotation::restore() {
  if (!rotated_) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int c : cpus_) CPU_SET(c, &all);
  set_process_affinity(all);
  rotated_ = false;
}

void Report::check(bool ok, const std::string& name,
                   const std::string& detail) {
  if (!ok) failed_checks.emplace_back(name, detail);
}

void Report::write(const std::string& path) const {
  std::ostringstream os;
  os << "{\n  \"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : fingerprint()) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  os << "},\n  \"setup_s\": " << json_array(setup_s)
     << ",\n  \"latencies_ms\": " << json_array(latencies_ms)
     << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
     << ",\n  \"on_time\": " << on_time
     << ",\n  \"wall_s\": " << json_number(wall_s)
     << ",\n  \"nrmse\": " << json_array(nrmse)
     << ",\n  \"peak_rss_mb\": " << json_number(peak_rss_mb())
     << ",\n  \"trace_path\": " << json_string(trace_path)
     << ",\n  \"failed_checks\": [";
  for (std::size_t i = 0; i < failed_checks.size(); ++i) {
    os << (i > 0 ? ", " : "") << "{\"name\": "
       << json_string(failed_checks[i].first)
       << ", \"detail\": " << json_string(failed_checks[i].second) << "}";
  }
  os << "],\n  \"values\": {";
  first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ",") << "\n    " << json_string(k) << ": "
       << json_number(v);
    first = false;
  }
  os << "},\n  \"series\": {";
  first = true;
  for (const auto& [k, v] : series) {
    os << (first ? "" : ",") << "\n    " << json_string(k) << ": "
       << json_array(v);
    first = false;
  }
  os << "}\n}\n";
  std::ofstream f(path);
  f << os.str();
  if (!f) throw std::runtime_error("cannot write report " + path);
}

double CounterDelta::get(const std::string& name) const {
  const auto now = jigsaw::obs::snapshot();
  return static_cast<double>(now.counter(name) - before_.counter(name));
}

double CounterDelta::sum(const std::string& prefix,
                         const std::string& suffix) const {
  const auto now = jigsaw::obs::snapshot();
  double total = 0.0;
  for (const auto& [name, value] : now.counters) {
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += static_cast<double>(value - before_.counter(name));
    }
  }
  return total;
}

void CounterDelta::record(Report& report, const std::string& tag) const {
  for (const char* name :
       {"nufft.adjoints", "nufft.forwards", "nufft.plans", "fft.execs",
        "fftcache.hits", "fftcache.misses", "cg.iterations", "dcf.runs",
        "dcf.iterations", "data.chunks_read"}) {
    report.values[tag + "." + name] = get(name);
  }
  report.values[tag + ".grid.interpolations"] = sum("grid.", ".interpolations");
}

std::vector<c64> TimedNufft::adjoint(const std::vector<c64>& values) {
  jigsaw::core::NufftTimings t;
  std::vector<c64> out;
  {
    jigsaw::obs::Span span("pb.nufft.adjoint");
    out = plan_.adjoint(values, &t);
  }
  account(t);
  return out;
}

std::vector<c64> TimedNufft::forward(const std::vector<c64>& image) {
  jigsaw::core::NufftTimings t;
  std::vector<c64> out;
  {
    jigsaw::obs::Span span("pb.nufft.forward");
    out = plan_.forward(image, &t);
  }
  account(t);
  return out;
}

void TimedNufft::account(const jigsaw::core::NufftTimings& t) {
  report_.add(tag_ + ".nufft.calls", 1.0);
  report_.add(tag_ + ".nufft.grid_s", t.grid_seconds + t.presort_seconds);
  report_.add(tag_ + ".nufft.fft_s", t.fft_seconds);
  report_.add(tag_ + ".nufft.apod_s", t.apod_seconds);
}

std::map<std::string, std::string> fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  namespace simd = jigsaw::kernels::simd;
  return {{"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"cpu_model", cpu},
          {"simd_isa", simd::to_string(simd::active())},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"jigsaw_obs", jigsaw::obs::kEnabled ? "ON" : "OFF"}};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double fitted_nrmse(const std::vector<c64>& image,
                    const std::vector<double>& truth) {
  if (image.size() != truth.size()) {
    throw std::runtime_error("nrmse: image and reference sizes differ");
  }
  c64 num{};
  double den = 0.0, tnorm = 0.0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    num += truth[i] * std::conj(image[i]);
    den += std::norm(image[i]);
    tnorm += truth[i] * truth[i];
  }
  const c64 alpha = den > 0.0 ? num / den : c64{};
  double err = 0.0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    err += std::norm(alpha * image[i] - truth[i]);
  }
  return tnorm > 0.0 ? std::sqrt(err / tnorm) : 0.0;
}

std::vector<jigsaw::Coord<2>> rotated(
    const std::vector<jigsaw::Coord<2>>& coords, double theta) {
  const double c = std::cos(theta), s = std::sin(theta);
  std::vector<jigsaw::Coord<2>> out(coords.size());
  for (std::size_t j = 0; j < coords.size(); ++j) {
    const double x = coords[j][0], y = coords[j][1];
    out[j] = {c * x - s * y, s * x + c * y};
    for (double& v : out[j]) {
      if (v >= 0.5) v -= 1.0;
      if (v < -0.5) v += 1.0;
    }
  }
  return out;
}

double rel_l2(const std::vector<c64>& a, const std::vector<c64>& b) {
  if (a.size() != b.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(a[i] - b[i]);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

const char* path_name(Path p) {
  switch (p) {
    case Path::kDirect: return "direct";
    case Path::kEngine: return "engine";
    case Path::kSocket: return "socket";
    case Path::kRouter: return "router";
  }
  return "?";
}

Fleet::Fleet(int workers, const jigsaw::serve::ServeConfig& config) {
  namespace serve = jigsaw::serve;
  for (int w = 0; w < workers; ++w) {
    serve::ServeConfig c = config;
    c.listen = "127.0.0.1:0";
    workers_.push_back(std::make_unique<serve::ReconServer>(c));
    workers_.back()->start();
    specs_.push_back(
        serve::to_string(workers_.back()->bound_endpoints().front()));
  }
  serve::RouterConfig rc;
  rc.listen = "127.0.0.1:0";
  rc.workers = specs_;
  router_ = std::make_unique<serve::Router>(rc);
  router_->start();
  router_endpoint_ = serve::to_string(router_->bound_endpoints().front());
}

Fleet::~Fleet() { stop(); }

void Fleet::stop() {
  if (stopped_) return;
  stopped_ = true;
  router_->stop();
  for (auto& w : workers_) w->stop();
}

void record_fleet(Fleet& fleet, Report& report) {
  const auto rc = fleet.router().counts();
  double forwarded = 0.0, most = 0.0;
  for (const auto& w : rc.workers) {
    forwarded += static_cast<double>(w.forwarded);
    most = std::max(most, static_cast<double>(w.forwarded));
  }
  report.values["fleet.forwarded"] = forwarded;
  report.values["fleet.max_worker_forwarded"] = most;
  report.values["fleet.reroutes"] = static_cast<double>(rc.reroutes);
  double submitted = 0.0, batched = 0.0, hits = 0.0, builds = 0.0;
  for (auto& w : fleet.workers()) {
    const auto c = w->engine().counts();
    submitted += static_cast<double>(c.submitted);
    batched += static_cast<double>(c.batched_jobs);
    hits += static_cast<double>(c.plan_hits);
    builds += static_cast<double>(c.plan_builds);
  }
  report.values["fleet.submitted"] = submitted;
  report.values["fleet.batched_jobs"] = batched;
  report.values["fleet.plan_hits"] = hits;
  report.values["fleet.plan_builds"] = builds;
}

void check_fleet(Fleet& fleet, Report& report) {
  fleet.stop();
  const auto rc = fleet.router().counts();
  report.check(rc.received == rc.relayed, "router received == relayed",
               std::to_string(rc.received) + " received, " +
                   std::to_string(rc.relayed) + " relayed");
  for (auto& w : fleet.workers()) {
    const auto c = w->engine().counts();
    report.check(c.submitted == c.completed(), "submitted == sum(status)",
                 std::to_string(c.submitted) + " submitted, " +
                     std::to_string(c.completed()) + " completed");
    report.check(c.frames_submitted == c.frames_completed(),
                 "frames_submitted == sum(frame status)",
                 std::to_string(c.frames_submitted) + " submitted, " +
                     std::to_string(c.frames_completed()) + " completed");
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string out;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val != "0";
      } else if (key == "--work-dir") {
        opt.work_dir = val;
      } else if (key == "--out") {
        out = val;
      } else {
        throw std::invalid_argument("unknown flag " + key);
      }
    }
    if (out.empty() || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
      throw std::invalid_argument(
          "usage: perfbench --workload W --seed N --seconds S "
          "--trace 0|1 --work-dir DIR --out REPORT.json");
    }
    Report report;
    if (opt.workload == "offline-sense") {
      run_offline_sense(opt, report);
    } else if (opt.workload == "serve-mixed") {
      run_serve_mixed(opt, report);
    } else if (opt.workload == "realtime-stream") {
      run_realtime_stream(opt, report);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    report.write(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
