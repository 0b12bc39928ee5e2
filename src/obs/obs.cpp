#include "obs/obs.hpp"

#if JIGSAW_OBS_ENABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace jigsaw::obs {
namespace {

constexpr std::size_t kMaxCounters = 1024;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

/// One thread's counter slots. Only the owning thread writes (relaxed
/// load+store, no RMW contention); snapshot() reads concurrently with
/// relaxed loads — counters are monotonic, so a torn *view* is still a
/// valid recent value per slot.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> slots{};
};

class Registry {
 public:
  std::uint32_t intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = ids_.find(std::string(name));
    if (it != ids_.end()) return it->second;
    if (names_.size() >= kMaxCounters) {
      throw std::runtime_error("obs: counter registry full");
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  void attach(const std::shared_ptr<Shard>& shard) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(shard);
  }

  /// Fold a dying thread's shard into the retired accumulator and unlink it.
  void retire(const Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = shards_.begin(); it != shards_.end(); ++it) {
      if (it->get() != shard) continue;
      for (std::size_t i = 0; i < kMaxCounters; ++i) {
        retired_[i] += (*it)->slots[i].load(std::memory_order_relaxed);
      }
      shards_.erase(it);
      return;
    }
  }

  void set_gauge(std::string_view name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    gauges_[std::string(name)] = v;
  }

  Snapshot snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> sums(names_.size(), 0);
    for (std::size_t i = 0; i < sums.size(); ++i) sums[i] = retired_[i];
    for (const auto& shard : shards_) {
      for (std::size_t i = 0; i < sums.size(); ++i) {
        sums[i] += shard->slots[i].load(std::memory_order_relaxed);
      }
    }
    Snapshot snap;
    for (std::size_t i = 0; i < sums.size(); ++i) {
      if (sums[i] != 0) snap.counters.emplace(names_[i], sums[i]);
    }
    snap.gauges.insert(gauges_.begin(), gauges_.end());
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.fill(0);
    for (const auto& shard : shards_) {
      for (auto& slot : shard->slots) {
        slot.store(0, std::memory_order_relaxed);
      }
    }
    gauges_.clear();
  }

  /// Leaked singleton: a thread that retires its shard at process teardown
  /// (any worker joined or exiting during static destruction) must still
  /// find a live registry.
  static Registry& instance() {
    static Registry* r = new Registry();
    return *r;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<Shard>> shards_;
  std::array<std::uint64_t, kMaxCounters> retired_{};
  std::unordered_map<std::string, double> gauges_;
};

/// Registers this thread's shard on first counter add, retires it (folding
/// the values into the registry) at thread exit.
struct ShardOwner {
  std::shared_ptr<Shard> shard = std::make_shared<Shard>();
  ShardOwner() { Registry::instance().attach(shard); }
  ~ShardOwner() { Registry::instance().retire(shard.get()); }
};

Shard& local_shard() {
  thread_local ShardOwner owner;
  return *owner.shard;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct TraceEvent {
  char name[48];
  std::uint64_t t0_ns;
  std::uint64_t dur_ns;
};

/// Per-thread event buffer. The owning thread appends; the writer drains.
/// Both take the buffer mutex, but the two only overlap when
/// trace_stop_write races an in-flight span end, so the lock is
/// uncontended in steady state.
struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

class TraceState {
 public:
  void start() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      std::lock_guard<std::mutex> bl(b->mu);
      b->events.clear();
    }
    epoch_ns_.store(now_ns(), std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
  }

  bool active() const { return active_.load(std::memory_order_acquire); }
  std::uint64_t epoch_ns() const {
    return epoch_ns_.load(std::memory_order_relaxed);
  }

  void attach(const std::shared_ptr<TraceBuffer>& buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }

  std::size_t stop_write(const std::string& path) {
    active_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("obs: cannot open trace file " + path);
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::size_t written = 0;
    for (const auto& b : buffers_) {
      std::lock_guard<std::mutex> bl(b->mu);
      for (const TraceEvent& e : b->events) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"jigsaw\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                     written == 0 ? "" : ",\n", e.name, b->tid,
                     static_cast<double>(e.t0_ns) * 1e-3,
                     static_cast<double>(e.dur_ns) * 1e-3);
        ++written;
      }
      b->events.clear();
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return written;
  }

  static TraceState& instance() {
    static TraceState* t = new TraceState();  // leaked, like the registry
    return *t;
  }

 private:
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> epoch_ns_{0};
  std::mutex mu_;
  std::vector<std::shared_ptr<TraceBuffer>> buffers_;
  std::uint32_t next_tid_ = 0;
};

TraceBuffer& local_trace_buffer() {
  // The shared_ptr keeps a dead thread's events alive in TraceState until
  // the next start()/stop_write() drains them.
  thread_local std::shared_ptr<TraceBuffer> buffer = [] {
    auto b = std::make_shared<TraceBuffer>();
    TraceState::instance().attach(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

Counter counter(std::string_view name) {
  return Counter(Registry::instance().intern(name));
}

void add(Counter c, std::uint64_t v) {
  if (v == 0) return;
  auto& slot = local_shard().slots[c.id_];
  slot.store(slot.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}

void add(std::string_view name, std::uint64_t v) {
  if (v == 0) return;
  add(counter(name), v);
}

void set_gauge(std::string_view name, double v) {
  Registry::instance().set_gauge(name, v);
}

Snapshot snapshot() { return Registry::instance().snapshot(); }

void reset() { Registry::instance().reset(); }

void trace_start() { TraceState::instance().start(); }

bool trace_active() { return TraceState::instance().active(); }

std::size_t trace_stop_write(const std::string& path) {
  return TraceState::instance().stop_write(path);
}

Span::Span(std::string_view name) {
  if (!TraceState::instance().active()) return;
  active_ = true;
  const std::size_t len = std::min(name.size(), sizeof(name_) - 1);
  std::memcpy(name_, name.data(), len);
  name_[len] = '\0';
  t0_ns_ = now_ns() - TraceState::instance().epoch_ns();
}

Span::~Span() {
  if (!active_) return;
  TraceEvent e;
  std::memcpy(e.name, name_, sizeof(name_));
  e.t0_ns = t0_ns_;
  const std::uint64_t end = now_ns() - TraceState::instance().epoch_ns();
  e.dur_ns = end > t0_ns_ ? end - t0_ns_ : 0;
  TraceBuffer& buf = local_trace_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(e);
}

}  // namespace jigsaw::obs

#else

// Translation unit intentionally empty when observability is compiled out.
namespace jigsaw::obs {
void obs_disabled_anchor() {}
}  // namespace jigsaw::obs

#endif  // JIGSAW_OBS_ENABLED
