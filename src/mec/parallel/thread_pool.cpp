#include "mec/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "mec/common/error.hpp"

namespace mec::parallel {

std::size_t resolve_thread_count(std::size_t requested) {
  check_option(requested <= kMaxThreads, "ThreadPool", "threads", requested,
               "a value in [0, 1024] (0 selects the hardware concurrency)");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// One blocking parallel-for invocation.  Chunks are claimed via a shared
/// cursor; `in_flight` counts workers currently draining (guarded by the
/// pool mutex) so the caller can tell when every claimed chunk has retired.
struct ThreadPool::Job {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> cursor{0};
  int in_flight = 0;                  ///< guarded by ThreadPool::mutex_
  std::mutex error_mutex;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(resolve_thread_count(threads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(Job& job) {
  for (;;) {
    const std::size_t begin = job.cursor.fetch_add(job.grain);
    if (begin >= job.n) return;
    const std::size_t end = std::min(begin + job.grain, job.n);
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      // Park the cursor past the end so no lane claims further chunks.
      job.cursor.store(job.n);
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    Job& job = *job_;
    ++job.in_flight;
    lock.unlock();
    drain(job);
    lock.lock();
    --job.in_flight;
    if (job.in_flight == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for_each(std::size_t n,
                                   const std::function<void(std::size_t)>& fn,
                                   std::size_t grain) {
  MEC_EXPECTS(grain >= 1);
  MEC_EXPECTS(static_cast<bool>(fn));
  if (n == 0) return;
  if (workers_.empty() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job;
  job.n = n;
  job.grain = grain;
  job.fn = &fn;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();
  drain(job);  // the caller is a lane too
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.in_flight == 0; });
    job_ = nullptr;  // late-waking workers see no job for this generation
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace mec::parallel
