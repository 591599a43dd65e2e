#include "spark/scheduler.h"

#include <algorithm>

namespace rdfspark::spark {

namespace {
thread_local bool t_in_worker = false;
}  // namespace

bool TaskScheduler::InWorkerThread() { return t_in_worker; }

TaskScheduler::TaskScheduler(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
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
  // Each claim is a fixed share of what is left, so big batches take few
  // claims and the tail still splits across participants.
  int participants = static_cast<int>(threads_.size()) + 1;
  int size = std::max(1, remaining / (2 * participants));
  int begin = batch->next_index;
  int end = begin + size;
  batch->next_index = end;
  pending_tasks_ -= size;
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
  if (batch->unfinished == 0) done_cv_.notify_all();
  return true;
}

void TaskScheduler::WorkerLoop() {
  t_in_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || pending_tasks_ > 0; });
    if (stop_) return;
    while (Batch* batch = NextBatchWithWork()) {
      RunOneChunkOf(batch, lock);
    }
  }
}

void TaskScheduler::ParallelFor(int count,
                                const std::function<void(int, int)>& fn) {
  if (count <= 0) return;
  Batch batch;
  batch.count = count;
  batch.unfinished = count;
  batch.fn = &fn;
  std::unique_lock<std::mutex> lock(mu_);
  batches_.push_back(&batch);
  pending_tasks_ += count;
  work_cv_.notify_all();
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
  done_cv_.wait(lock, [&] { return batch.unfinished == 0; });
  batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
  if (rr_next_ >= batches_.size()) rr_next_ = 0;
  std::exception_ptr err = batch.first_error;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace rdfspark::spark
