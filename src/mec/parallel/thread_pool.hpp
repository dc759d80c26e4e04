// Deterministic fork-join parallelism for the embarrassingly-parallel
// layers of the library: independent simulation replications and per-user
// sweeps (best responses, utilization maps).
//
// Design constraints, in order:
//   1. *Bit-identical results regardless of thread count.*  The pool never
//      reduces anything itself; callers write each index's result into its
//      own output slot and merge serially in index order afterwards.  The
//      chunk boundaries handed to workers are fixed ([k*grain, (k+1)*grain)
//      for chunk k) and independent of the thread count — only the
//      chunk->thread assignment is dynamic, and that assignment is
//      observationally irrelevant because no two indices share state.
//   2. Zero overhead in the serial case: a pool constructed with one thread
//      spawns no workers and runs everything inline in the caller.
//   3. The caller participates in the work, so a pool with T threads uses
//      T CPUs (T-1 workers + the caller), and `ThreadPool(1)` is exactly
//      the serial loop.
#pragma once

#include <cstddef>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace mec::parallel {

/// Largest thread count a caller may request: a pool starts one OS thread
/// per lane but the caller's.
inline constexpr std::size_t kMaxThreads = 1024;

/// `requested` threads, except 0 selects the hardware concurrency (>= 1).
/// A request above kMaxThreads throws mec::ContractViolation naming it.
std::size_t resolve_thread_count(std::size_t requested);

/// A fixed-size worker pool executing blocking parallel-for loops.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane);
  /// 0 selects the hardware concurrency.  The count is resolved, and
  /// refused above kMaxThreads, before any worker starts.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of concurrent lanes (workers + the calling thread).
  std::size_t thread_count() const noexcept { return threads_; }

  /// Calls fn(i) for every i in [0, n) and blocks until all calls return.
  /// Indices are dispatched in fixed chunks of `grain`; fn must not touch
  /// state shared with other indices (write results to per-index slots).
  /// The first exception thrown by fn is rethrown here after the loop
  /// drains.  Not reentrant: fn must not call back into the same pool.
  void parallel_for_each(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t grain = 1);

 private:
  struct Job;
  void worker_loop();
  static void drain(Job& job);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers on a new job
  std::condition_variable done_cv_;  ///< wakes the caller on completion
  Job* job_ = nullptr;               ///< current job; guarded by mutex_
  std::uint64_t generation_ = 0;     ///< guarded by mutex_
  bool stop_ = false;                ///< guarded by mutex_
};

}  // namespace mec::parallel
