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

/// Executor pool that runs per-partition tasks concurrently — the physical
/// counterpart of the simulated executors. One pool per SparkContext with
/// one *slot* per executor thread, shared by drivers (the threads that
/// submit batches) and the pool's helper threads.
///
/// Who holds a slot: a driver thread inside ParallelFor, or for longer
/// through a Slot (SparkContext::DriverScope holds one for a whole served
/// request), and every awake helper. Helpers run tasks only on slots no
/// driver holds, so the pool never adds threads beyond the executor count,
/// as Spark runs at most as many tasks as it has executor cores. Drivers
/// never wait for a slot: more drivers than slots (eight server workers on
/// four) each run their own batches, and no helper joins. The pool has one
/// helper thread fewer than it has slots, because a batch always comes
/// with its driver.
///
/// Scheduling model (Cilk's work-first rule): any number of batches may be
/// in flight — one per driver thread, which is how the serving layer runs
/// many queries concurrently on one cluster. A driver claims its own
/// batch's chunks until none is left, without waiting for a slot, so no
/// batch waits for a helper to start work; helpers only speed it up. A
/// parked helper is woken, at most one per submit, claim or slot release,
/// only when a slot is free and an index is unclaimed, and it parks again
/// when it finds no work or when drivers need its slot. A claim made while
/// no helper is awake takes the batch's whole remainder — one claim and
/// one charge fold, the cost of running inline; otherwise it takes
/// max(1, remaining / (2 x slots)) consecutive indices, so a batch of N
/// tasks costs O(slots x log N) lock round-trips and the shrinking tail
/// still splits across the helpers. Helpers round-robin their claims
/// across the live batches so no in-flight query starves behind a long
/// one. The callback runs outside the lock, and a batch's completion wakes
/// only its own driver. The calling thread participates in its own batch
/// only, which keeps a small query's latency bounded by its own work even
/// when other batches keep the helpers busy.
class TaskScheduler {
 public:
  /// A pool of `slots` slots (at least 1) and `slots - 1` helper threads.
  explicit TaskScheduler(int slots);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Holds one of `pool`'s slots for the calling thread while alive, so
  /// that thread's ParallelFor calls take none of their own. Holds nothing
  /// when `pool` is null or the thread already holds one of its slots.
  class Slot {
   public:
    explicit Slot(TaskScheduler* pool);
    ~Slot();
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    TaskScheduler* pool_ = nullptr;   ///< Null when nothing is held.
    TaskScheduler* outer_ = nullptr;  ///< The thread's previous holding.
  };

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
    std::condition_variable done;  ///< Wakes the driver once drained.
  };

  void WorkerLoop();
  /// Hands out and runs one chunk of `batch`. Returns false when the batch
  /// has no index left to grab. `lock` is held on entry and exit, released
  /// while the chunk runs.
  bool RunOneChunkOf(Batch* batch, std::unique_lock<std::mutex>& lock);
  /// The next batch with tasks to hand out, rotating fairly across the
  /// live batches; null when none has work. Called under the mutex.
  Batch* NextBatchWithWork();
  /// Wakes one parked helper when a slot is free and an index is
  /// unclaimed. Called under the mutex.
  void WakeHelperIfUseful();

  const int slots_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Wake tokens issued / shutdown.

  // All guarded by mu_.
  std::vector<Batch*> batches_;  ///< Live batches, registration order.
  size_t rr_next_ = 0;           ///< Round-robin cursor into batches_.
  int pending_tasks_ = 0;        ///< Indices not yet handed out, all batches.
  int drivers_ = 0;              ///< Slots held by driver threads.
  int awake_ = 0;                ///< Helpers awake or with a token issued.
  int wake_tokens_ = 0;          ///< Wake-ups issued, not yet taken.
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_SCHEDULER_H_
