#include "spark/scheduler.h"

#include <algorithm>

namespace rdfspark::spark {

namespace {
thread_local bool t_in_worker = false;
/// The pool whose slot this thread holds through a Slot, if any.
thread_local TaskScheduler* t_slot_pool = nullptr;
}  // namespace

bool TaskScheduler::InWorkerThread() { return t_in_worker; }

TaskScheduler::TaskScheduler(int slots) : slots_(std::max(1, slots)) {
  threads_.reserve(static_cast<size_t>(slots_ - 1));
  for (int i = 1; i < slots_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

TaskScheduler::Slot::Slot(TaskScheduler* pool) {
  if (pool == nullptr || t_slot_pool == pool) return;
  pool_ = pool;
  outer_ = t_slot_pool;
  t_slot_pool = pool;
  std::lock_guard<std::mutex> lock(pool->mu_);
  ++pool->drivers_;
}

TaskScheduler::Slot::~Slot() {
  if (pool_ == nullptr) return;
  t_slot_pool = outer_;
  std::lock_guard<std::mutex> lock(pool_->mu_);
  --pool_->drivers_;
  pool_->WakeHelperIfUseful();
}

void TaskScheduler::WakeHelperIfUseful() {
  if (pending_tasks_ == 0 || drivers_ + awake_ >= slots_ ||
      awake_ == static_cast<int>(threads_.size())) {
    return;
  }
  // The token makes the wake exact: whichever parked helper takes it is
  // the one counted awake, and a spurious wake-up takes none.
  ++awake_;
  ++wake_tokens_;
  work_cv_.notify_one();
}

TaskScheduler::Batch* TaskScheduler::NextBatchWithWork() {
  if (batches_.empty()) return nullptr;
  // Start the scan at the round-robin cursor so consecutive claims rotate
  // across batches: with B live batches, each gets every B-th claim — a
  // small query's partitions interleave with a big one's instead of
  // queueing behind them.
  for (size_t i = 0; i < batches_.size(); ++i) {
    size_t idx = (rr_next_ + i) % batches_.size();
    if (batches_[idx]->next_index < batches_[idx]->count) {
      rr_next_ = (idx + 1) % batches_.size();
      return batches_[idx];
    }
  }
  return nullptr;
}

bool TaskScheduler::RunOneChunkOf(Batch* batch,
                                  std::unique_lock<std::mutex>& lock) {
  int remaining = batch->count - batch->next_index;
  if (remaining <= 0) return false;
  // With no helper awake none can be woken (the wake comes first), so the
  // claim takes everything left: one claim, as inline. Otherwise it takes
  // a fixed share of what is left, so big batches take few claims and the
  // tail still splits across the slots.
  int size = awake_ == 0 ? remaining : std::max(1, remaining / (2 * slots_));
  int begin = batch->next_index;
  int end = begin + size;
  batch->next_index = end;
  pending_tasks_ -= size;
  // A woken helper wakes the next one only once it has claimed, so helpers
  // come one at a time and only while work is left for them.
  WakeHelperIfUseful();
  const std::function<void(int, int)>* fn = batch->fn;
  lock.unlock();
  std::exception_ptr error;
  try {
    (*fn)(begin, end);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !batch->first_error) batch->first_error = error;
  batch->unfinished -= size;
  // Notified under the lock: the driver cannot see the batch drained, and
  // destroy it, before this call returns.
  if (batch->unfinished == 0) batch->done.notify_one();
  return true;
}

void TaskScheduler::WorkerLoop() {
  t_in_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || wake_tokens_ > 0; });
    if (stop_) return;
    --wake_tokens_;
    // Claim while there is work and the slot is still this helper's: a
    // driver that took a slot since pushes the count over, and then the
    // helper yields it after its current chunk.
    while (drivers_ + awake_ <= slots_) {
      Batch* batch = NextBatchWithWork();
      if (batch == nullptr) break;
      RunOneChunkOf(batch, lock);
    }
    --awake_;
  }
}

void TaskScheduler::ParallelFor(int count,
                                const std::function<void(int, int)>& fn) {
  if (count <= 0) return;
  Batch batch;
  batch.count = count;
  batch.unfinished = count;
  batch.fn = &fn;
  const bool takes_slot = t_slot_pool != this;
  std::unique_lock<std::mutex> lock(mu_);
  if (takes_slot) ++drivers_;
  batches_.push_back(&batch);
  pending_tasks_ += count;
  WakeHelperIfUseful();
  // The caller works its own batch. While it does, it counts as a worker:
  // a task it runs may itself hit a nested RunParallel (e.g. a lazily
  // materialized shuffle), and that nested call must run inline — waiting
  // for this batch to retire would deadlock on the caller's own task. The
  // caller stays on its own batch (it never steals another driver's
  // tasks), so a request's latency is not inflated by co-tenant work.
  bool was_worker = t_in_worker;
  t_in_worker = true;
  while (RunOneChunkOf(&batch, lock)) {
  }
  t_in_worker = was_worker;
  batch.done.wait(lock, [&] { return batch.unfinished == 0; });
  batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
  if (rr_next_ >= batches_.size()) rr_next_ = 0;
  if (takes_slot) {
    --drivers_;
    WakeHelperIfUseful();
  }
  std::exception_ptr err = batch.first_error;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace rdfspark::spark
