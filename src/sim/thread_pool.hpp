// Persistent worker pool for index-parallel loops.
//
// Extracted from SweepRunner::for_each_index so the same claiming loop can
// serve both inter-run fan-out (one experiment per index) and intra-run
// fan-out (one chunk of the epoch's nodes per index inside
// DirqNetwork::process_epoch's sensing phase). Workers park on a condition
// variable between jobs, so a pool owned by a network costs nothing
// between dispatches and no thread is ever created on the epoch hot path.
//
// Scheduling is dynamic (a shared atomic claim counter), so completion
// order is nondeterministic — callers must only do index-addressed writes
// (slot i belongs to index i) and consume them in index order afterwards,
// which is exactly what keeps the parallel epoch path byte-identical to
// the sequential one.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dirq::sim {

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread;
  /// 0 means std::thread::hardware_concurrency() (at least 1). A pool of
  /// size 1 spawns no workers and runs every job inline.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs work(i) for every i in [0, count). The calling thread
  /// participates; returns after all indices completed. Exceptions are
  /// captured and the lowest-indexed one is rethrown after the join, so
  /// error reporting is deterministic regardless of scheduling. Not
  /// reentrant: `work` must not call parallel_for on the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& work);

  /// 0 -> hardware_concurrency (at least 1), anything else unchanged.
  [[nodiscard]] static unsigned resolve(unsigned threads) {
    return threads != 0 ? threads
                        : std::max(1u, std::thread::hardware_concurrency());
  }

 private:
  void worker_loop();
  void run_claims(const std::function<void(std::size_t)>& work,
                  std::size_t count);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  bool stop_ = false;
  std::size_t generation_ = 0;  // bumped per parallel_for; wakes workers
  unsigned active_ = 0;         // workers still inside the current job

  // Current job, valid while active_ > 0 (published under mutex_).
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};

  // The current job's lowest-indexed failure (guarded by error_mutex_).
  std::mutex error_mutex_;
  std::size_t error_index_ = 0;
  std::exception_ptr error_;
};

}  // namespace dirq::sim
