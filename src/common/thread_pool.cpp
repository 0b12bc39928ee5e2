#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/obs.hpp"

namespace jigsaw {
namespace {

std::uint64_t obs_now_ns() {
  if constexpr (!obs::kEnabled) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned /*id*/) {
  for (;;) {
    Task task;
    {
      const std::uint64_t wait_begin = obs_now_ns();
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      // Idle time: from wanting work to holding a task (or shutdown). One
      // add per wakeup, so the cost is dwarfed by the task body.
      obs::add("pool.idle_ns", obs_now_ns() - wait_begin);
      if (stop_ && pending_.empty()) return;
      task = pending_.back();
      pending_.pop_back();
    }
    try {
      obs::add("pool.tasks", 1);
      (*task.fn)(task.begin, task.end, task.worker_id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--inflight_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t, unsigned)>& fn) {
  if (n <= 0) return;
  obs::add("pool.parallel_fors", 1);
  const unsigned nthreads = thread_count();
  if (nthreads == 1 || n == 1 || workers_.empty()) {
    obs::add("pool.tasks", 1);
    fn(0, n, 0);
    return;
  }
  const unsigned chunks = std::min<std::int64_t>(nthreads, n);
  const std::int64_t step = (n + chunks - 1) / chunks;

  // Chunk 0 runs on the calling thread; the rest are queued.
  {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = nullptr;
    for (unsigned c = 1; c < chunks; ++c) {
      Task t;
      t.fn = &fn;
      t.begin = static_cast<std::int64_t>(c) * step;
      t.end = std::min<std::int64_t>(n, t.begin + step);
      t.worker_id = c;
      if (t.begin >= t.end) continue;
      pending_.push_back(t);
      ++inflight_;
    }
  }
  cv_task_.notify_all();
  // The caller's chunk gets the same treatment as worker chunks: catch,
  // record the first error, and — crucially — keep waiting for the inflight
  // chunks. Letting the exception escape here would unwind `fn` while
  // workers still hold a pointer to it.
  try {
    obs::add("pool.tasks", 1);
    fn(0, std::min<std::int64_t>(n, step), 0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return inflight_ == 0; });
    if (error_) {
      auto err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

}  // namespace jigsaw
