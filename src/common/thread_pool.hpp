#pragma once
// Small persistent worker pool for sharding epoch hot loops.
//
// The only primitive is parallel_for(n, fn): run fn(0..n-1) with the
// calling thread participating, returning once every invocation has
// finished. Work is handed out through an atomic index, so the mapping
// of index -> thread is nondeterministic — callers preserve determinism
// by writing into index-addressed slots and reducing sequentially in
// index order afterwards (see RanController::serve_epoch).

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slices {

class ThreadPool {
 public:
  /// `concurrency` counts the calling thread: ThreadPool(1) spawns no
  /// workers and parallel_for runs inline; ThreadPool(4) spawns 3.
  explicit ThreadPool(std::size_t concurrency) {
    const std::size_t workers = concurrency > 1 ? concurrency - 1 : 0;
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Calling thread + workers.
  [[nodiscard]] std::size_t concurrency() const noexcept { return threads_.size() + 1; }

  /// Run fn(i) for every i in [0, n). Blocks until all invocations have
  /// returned. fn must not throw and must not call parallel_for on the
  /// same pool reentrantly.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (threads_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    Job job(fn, n);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      assert(job_ == nullptr && "reentrant parallel_for");
      job_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
    drain(job);
    // Retire the job in the same critical section that sees it finished
    // and unjoined, so no late worker can pick up a dead record.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&job] {
      return job.pending.load(std::memory_order_acquire) == 0 && job.workers == 0;
    });
    job_ = nullptr;
  }

 private:
  /// One parallel_for call. Lives on the caller's stack; published in
  /// job_ only while live, and workers join it (workers++) only under
  /// the lock while it is published.
  struct Job {
    Job(const std::function<void(std::size_t)>& f, std::size_t count)
        : fn(f), n(count), pending(count) {}
    const std::function<void(std::size_t)>& fn;
    const std::size_t n;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> pending;
    std::size_t workers = 0;  ///< guarded by mutex_
  };

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      Job& job = *job_;
      ++job.workers;
      lock.unlock();
      drain(job);
      lock.lock();
      // parallel_for may be blocked on the last worker leaving the job.
      if (--job.workers == 0) done_cv_.notify_all();
    }
  }

  void drain(Job& job) {
    while (true) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return;
      job.fn(i);
      if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  Job* job_ = nullptr;  ///< the live job, or null between jobs
};

}  // namespace slices
