// A small fixed-size thread pool with a blocking parallel_for. Workers are
// identified by a dense index so callers can keep per-worker scratch state
// (the MCDRAM-style decompression buffers) without locking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cqs {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs body(index, worker_id) for index in [0, count), blocking until all
  /// iterations finish. Iterations are distributed by atomic work stealing
  /// of contiguous chunks. Safe to call from one thread at a time.
  ///
  /// If an iteration throws, the remaining iterations of its chunk are
  /// skipped, every other claimed iteration still runs, and the first
  /// exception is rethrown on the calling thread once the job drains.
  ///
  /// Reentrant: calling parallel_for from inside a body (i.e. from one of
  /// this pool's workers) runs the nested loop inline on that worker,
  /// serially, under the caller's worker id.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t index,
                                             std::size_t worker)>& body);

  /// Enqueues a standalone task for any idle worker; the returned future
  /// carries the task's exception, if it throws. Workers run queued tasks
  /// whenever no parallel_for chunk is available, so submitted work
  /// overlaps with (but yields to) the bulk loops. Tasks still queued at
  /// destruction are drained, not dropped — every returned future becomes
  /// ready.
  std::future<void> submit(std::function<void()> task);

 private:
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t next = 0;          // next index to hand out
    std::size_t done = 0;          // iterations completed
    std::size_t generation = 0;    // bumped per parallel_for call
    std::exception_ptr error;      // first exception thrown by any iteration
  };

  void worker_loop(std::size_t worker_id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job job_;
  std::deque<std::packaged_task<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace cqs
