#ifndef RDFSPARK_SPARK_SCHEDULER_H_
#define RDFSPARK_SPARK_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rdfspark::spark {

/// Fixed-size executor thread pool that runs per-partition tasks
/// concurrently — the physical counterpart of the simulated executors.
/// One pool per SparkContext, sized by ClusterConfig::num_executors, so a
/// "4 executor" cluster really computes at most 4 partitions at a time and
/// wall-clock numbers track the simulated stage model instead of being the
/// serial sum of all tasks.
///
/// Scheduling model: any number of batches (parallel-fors) may be in
/// flight at once — one per driver thread, which is how the serving layer
/// runs many queries concurrently on one cluster. Work is claimed in
/// shrinking chunks: each claim takes
/// max(1, remaining / (2 x participants)) consecutive indices of one batch
/// under the pool mutex (participants = pool threads + the calling
/// driver), so a batch of N tasks costs O(participants x log N) lock
/// round-trips instead of 2N, while the shrinking tail keeps the last
/// claims small enough to balance. Pool
/// workers round-robin their claims across the live batches so no
/// in-flight query starves behind a long one. The callback runs outside
/// the lock. The calling thread participates in its own batch instead of
/// idling, which keeps the latency of a small query bounded by its own
/// work even when the pool is saturated by other batches.
class TaskScheduler {
 public:
  explicit TaskScheduler(int num_threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Covers [0, count) with calls fn(begin, end) over disjoint chunks run
  /// across the pool, and blocks until every chunk returned. `fn` owns its
  /// whole range: the scheduler retires a chunk when its call returns or
  /// throws, so a callback that must run every index despite a failing one
  /// catches per index and rethrows at the end of its range. The first
  /// exception out of one of this batch's chunks is rethrown here after the
  /// batch drains; the batch's other chunks still run, and concurrent
  /// batches fail independently. Safe to call from several driver threads
  /// at once. Must not be called from a pool worker thread (callers detect
  /// that with InWorkerThread() and run inline instead).
  void ParallelFor(int count, const std::function<void(int, int)>& fn);

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// True when the calling thread is a pool worker (of any TaskScheduler).
  static bool InWorkerThread();

 private:
  /// One in-flight ParallelFor. Owned by the stack frame of the call;
  /// registered in `batches_` only while tasks remain to hand out or run.
  struct Batch {
    int count = 0;
    int next_index = 0;  ///< First index of the next chunk to hand out.
    int unfinished = 0;  ///< Indices handed out or pending, not yet retired.
    const std::function<void(int, int)>* fn = nullptr;
    std::exception_ptr first_error;
  };

  void WorkerLoop();
  /// Hands out and runs one chunk of `batch`. Returns false when the batch
  /// has no index left to grab. `lock` is held on entry and exit, released
  /// while the chunk runs.
  bool RunOneChunkOf(Batch* batch, std::unique_lock<std::mutex>& lock);
  /// The next batch with tasks to hand out, rotating fairly across the
  /// live batches; null when none has work. Called under the mutex.
  Batch* NextBatchWithWork();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Tasks published / shutdown.
  std::condition_variable done_cv_;  ///< Some batch fully drained.

  // All guarded by mu_.
  std::vector<Batch*> batches_;  ///< Live batches, registration order.
  size_t rr_next_ = 0;           ///< Round-robin cursor into batches_.
  int pending_tasks_ = 0;        ///< Indices not yet handed out, all batches.
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_SCHEDULER_H_
