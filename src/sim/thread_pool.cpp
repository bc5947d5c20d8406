#include "sim/thread_pool.hpp"

#include <utility>

namespace dirq::sim {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = resolve(threads);
  workers_.reserve(n - 1);
  for (unsigned t = 1; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_claims(const std::function<void(std::size_t)>& work,
                            std::size_t count) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < count; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      work(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_ || i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::size_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      count = count_;
    }
    run_claims(*job, count);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& work) {
  if (workers_.empty() || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) work(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &work;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<unsigned>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  run_claims(work, count);  // the calling thread is part of the pool
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    job_ = nullptr;
  }
  // Every worker has left run_claims (active_ == 0 under mutex_), so the
  // error slot is quiescent.
  if (std::exception_ptr e = std::exchange(error_, nullptr)) {
    std::rethrow_exception(e);
  }
}

}  // namespace dirq::sim
