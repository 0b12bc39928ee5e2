// Minimal work-sharing thread pool with a blocking parallel_for.
//
// The GPU implementations in the paper are reproduced here as multithreaded
// CPU code; this pool is the substrate. On a single-core host the pool
// degrades gracefully to serial execution (zero worker threads).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jigsaw {

/// Fixed-size pool executing index-range chunks. parallel_for blocks until
/// every chunk has completed; exceptions from workers are rethrown on the
/// calling thread.
class ThreadPool {
 public:
  /// threads == 0 -> hardware_concurrency(); threads == 1 -> fully serial.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Invoke fn(begin, end, worker_id) over [0, n) split into roughly equal
  /// chunks, one per thread (worker_id in [0, thread_count())).
  ///
  /// Error semantics are first-error-wins: if any chunk throws (including
  /// the chunk run on the calling thread), parallel_for waits for every
  /// inflight chunk to finish, then rethrows the first recorded exception
  /// on the calling thread. The pool remains usable afterwards.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t,
                                             unsigned)>& fn);

 private:
  struct Task {
    const std::function<void(std::int64_t, std::int64_t, unsigned)>* fn = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    unsigned worker_id = 0;
  };

  void worker_loop(unsigned id);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::vector<Task> pending_;
  unsigned inflight_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace jigsaw
