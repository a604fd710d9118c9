#pragma once
// Small persistent worker pool for sharding epoch hot loops.
//
// The only primitive is the free range loop parallel_for(pool, n,
// grain, fn): it runs fn(begin, end) over disjoint ranges that cover
// [0, n) exactly once, with the calling thread participating, and
// returns once every range has finished. Workers claim `grain` indices
// per atomic fetch_add, so a call costs one claim per grain-sized range
// and one call of the (templated, never type-erased) body per range.
// Which thread runs which range is nondeterministic — callers preserve
// determinism by writing into index-addressed slots and reducing
// sequentially in index order afterwards (see RanController::serve_epoch).
// With a null pool, a pool of width 1, or n <= grain it runs fn(0, n)
// inline.

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace slices {

class ThreadPool;

/// Run fn(begin, end) over ranges of at most `grain` indices that
/// partition [0, n). Blocks until all ranges have returned. fn must not
/// throw and must not call parallel_for on the same pool reentrantly.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain, Fn&& fn);

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

 private:
  template <typename Fn>
  friend void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain, Fn&& fn);

  /// The pooled half of parallel_for: at least one worker, n > grain.
  template <typename Fn>
  void run(std::size_t n, std::size_t grain, Fn& fn) {
    using Body = std::remove_reference_t<Fn>;
    Job job(n, grain, const_cast<void*>(static_cast<const void*>(&fn)),
            [](void* body, std::size_t begin, std::size_t end) {
              (*static_cast<Body*>(body))(begin, end);
            });
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      assert(job_ == nullptr && "reentrant parallel_for");
      job_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
    drain(job);
    // Every range is claimed once the caller's drain returns; a claimed
    // range belongs to the caller or to a worker that joined the job.
    // Retire the job in the same critical section that sees no worker
    // left in it, so no late worker can pick up a dead record.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&job] { return job.workers == 0; });
    job_ = nullptr;
  }

  /// One parallel_for call. Lives on the caller's stack; published in
  /// job_ only while live, and workers join it (workers++) only under
  /// the lock while it is published.
  struct Job {
    using Call = void (*)(void*, std::size_t, std::size_t);
    Job(std::size_t count, std::size_t step, void* b, Call c)
        : n(count), grain(step), body(b), call(c) {}
    const std::size_t n;
    const std::size_t grain;
    void* const body;
    const Call call;
    std::atomic<std::size_t> next{0};
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

  static void drain(Job& job) {
    while (true) {
      const std::size_t begin = job.next.fetch_add(job.grain, std::memory_order_relaxed);
      if (begin >= job.n) return;
      const std::size_t end = job.n - begin < job.grain ? job.n : begin + job.grain;
      job.call(job.body, begin, end);
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

template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain, Fn&& fn) {
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->threads_.empty() || n <= grain) {
    if (n > 0) fn(std::size_t{0}, n);
    return;
  }
  pool->run(n, grain, fn);
}

}  // namespace slices
