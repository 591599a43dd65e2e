#include "spark/context.h"

#include <algorithm>
#include <exception>

#include "spark/scheduler.h"

namespace rdfspark::spark {

namespace {

/// One open phase on this thread. Frames for every live context share the
/// thread's stack; CurrentPhase scans for the innermost frame of its own
/// context. `owned` marks frames created by BeginPhase (popped and folded
/// by EndPhase) as opposed to frames propagated into pool workers by
/// RunParallel (popped when the task returns).
struct PhaseFrame {
  const SparkContext* ctx;
  SparkContext::Phase* phase;
  bool owned;
};

thread_local std::vector<PhaseFrame> t_phase_frames;

/// Plain-integer sums of the charges one thread makes against one
/// (context, phase, operator scope): what the charge points add to
/// Metrics, to the phase's per-executor busy time and to the OpStats. A
/// chunk of partition tasks fills one privately and folds it once, instead
/// of ~20 shared-cache-line atomic updates per task; every other charge is
/// a tally of one, folded at once. Integer sums commute, so folding per
/// chunk leaves every total bit-identical to folding per charge.
struct ChargeTally {
  SparkContext* ctx = nullptr;  ///< Bound context; null while unbound.
  SparkContext::Phase* phase = nullptr;
  OpStats* op = nullptr;

  uint64_t tasks = 0;
  uint64_t records_processed = 0;
  uint64_t join_comparisons = 0;
  uint64_t shuffle_records = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t remote_shuffle_bytes = 0;
  uint64_t local_read_records = 0;
  uint64_t remote_read_records = 0;
  uint64_t messages = 0;
  HistogramTally task_duration_ns;
  HistogramTally task_records;
  std::vector<uint64_t> busy_ns;  ///< Per executor of `ctx`.

  void Bind(SparkContext* c, SparkContext::Phase* p, OpStats* o) {
    ctx = c;
    phase = p;
    op = o;
    size_t executors = static_cast<size_t>(c->config().num_executors);
    if (busy_ns.size() < executors) busy_ns.resize(executors, 0);
  }

  /// Adds every non-zero sum to the bound context, phase and operator,
  /// then leaves the tally zeroed and unbound. Returns `executor`'s phase
  /// busy time before the fold — a traced task's start offset (-1: none).
  uint64_t Fold(int executor = -1) {
    Metrics& m = ctx->metrics();
    auto add = [](uint64_t& sum, Counter& total, Counter* op_total) {
      if (sum == 0) return;
      total += sum;
      if (op_total != nullptr) *op_total += sum;
      sum = 0;
    };
    add(tasks, m.tasks, op ? &op->tasks : nullptr);
    add(records_processed, m.records_processed,
        op ? &op->records_in : nullptr);
    add(join_comparisons, m.join_comparisons,
        op ? &op->join_comparisons : nullptr);
    add(shuffle_records, m.shuffle_records,
        op ? &op->shuffle_records : nullptr);
    add(shuffle_bytes, m.shuffle_bytes, op ? &op->shuffle_bytes : nullptr);
    add(remote_shuffle_bytes, m.remote_shuffle_bytes,
        op ? &op->remote_shuffle_bytes : nullptr);
    add(local_read_records, m.local_read_records,
        op ? &op->local_read_records : nullptr);
    add(remote_read_records, m.remote_read_records,
        op ? &op->remote_read_records : nullptr);
    add(messages, m.messages, nullptr);
    m.task_duration_ns.Fold(task_duration_ns);
    m.task_records.Fold(task_records);
    uint64_t busy_total = 0;
    uint64_t busy_before = 0;
    int executors = ctx->config().num_executors;
    for (int e = 0; e < executors; ++e) {
      uint64_t& ns = busy_ns[static_cast<size_t>(e)];
      if (ns == 0 && e != executor) continue;
      uint64_t before = phase->Add(e, ns);
      if (e == executor) busy_before = before;
      busy_total += ns;
      ns = 0;
    }
    if (op != nullptr && busy_total != 0) op->busy_ns += busy_total;
    ctx = nullptr;
    return busy_before;
  }
};

/// Bound while this thread runs a chunk of RunParallel tasks.
thread_local ChargeTally t_chunk_tally;
/// A tally of one: bound and folded within a single charge.
thread_local ChargeTally t_single_tally;

/// The tally a charge against `ctx` in `phase` accumulates into: the open
/// chunk's when it was bound to the same context, phase and innermost
/// operator scope and the charge is untraced (the tracer plots each task
/// span at its executor's busy offset, so those go straight to the
/// phase); otherwise the tally of one, which Settle folds.
ChargeTally& TallyFor(SparkContext* ctx, SparkContext::Phase* phase,
                      bool traced) {
  OpStats* op = CurrentOpStats().get();
  ChargeTally& chunk = t_chunk_tally;
  if (!traced && chunk.ctx == ctx && chunk.phase == phase && chunk.op == op) {
    return chunk;
  }
  t_single_tally.Bind(ctx, phase, op);
  return t_single_tally;
}

/// Folds `tally` now when it is a tally of one (see ChargeTally::Fold for
/// the return value); a chunk's tally waits for its chunk to retire.
uint64_t Settle(ChargeTally& tally, int executor = -1) {
  return &tally == &t_single_tally ? tally.Fold(executor) : 0;
}

/// Binds this thread's chunk tally for one chunk of tasks and folds it
/// before the chunk retires, also when a task throws. A chunk opened while
/// another is bound on the thread (a nested inline RunParallel) binds
/// nothing: its charges join the outer tally when they match it.
class ChunkScope {
 public:
  ChunkScope(SparkContext* ctx, SparkContext::Phase* phase, OpStats* op) {
    if (t_chunk_tally.ctx != nullptr) return;
    t_chunk_tally.Bind(ctx, phase, op);
    bound_ = true;
  }
  ~ChunkScope() {
    if (bound_) t_chunk_tally.Fold();
  }
  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  bool bound_ = false;
};

}  // namespace

SparkContext::Phase::Phase(int num_executors)
    : busy_ns(static_cast<size_t>(num_executors)) {
  Reset();
}

uint64_t SparkContext::Phase::MaxNanos() const {
  uint64_t max_ns = 0;
  for (const auto& ns : busy_ns) {
    max_ns = std::max(max_ns, ns.load(std::memory_order_relaxed));
  }
  return max_ns;
}

void SparkContext::Phase::Reset() {
  for (auto& ns : busy_ns) ns.store(0, std::memory_order_relaxed);
}

SparkContext::SparkContext(ClusterConfig config) : config_(config) {
  if (config_.num_executors < 1) config_.num_executors = 1;
  if (config_.default_parallelism < 1) {
    config_.default_parallelism = config_.num_executors;
  }
  root_phase_ = std::make_unique<Phase>(config_.num_executors);
}

SparkContext::~SparkContext() {
  // Drop any frames this context left on the calling thread's stack
  // (mismatched BeginPhase without EndPhase); erase so a later context
  // allocated at the same address cannot alias them.
  auto& frames = t_phase_frames;
  for (size_t i = frames.size(); i > 0; --i) {
    if (frames[i - 1].ctx == this) {
      if (frames[i - 1].owned) delete frames[i - 1].phase;
      frames.erase(frames.begin() + static_cast<ptrdiff_t>(i - 1));
    }
  }
}

SparkContext::Phase* SparkContext::CurrentPhase() const {
  for (auto it = t_phase_frames.rbegin(); it != t_phase_frames.rend(); ++it) {
    if (it->ctx == this) return it->phase;
  }
  return root_phase_.get();
}

void SparkContext::BeginPhase() {
  Phase* phase = new Phase(config_.num_executors);
  phase->start_ns = metrics_.simulated_ms.nanos();
  t_phase_frames.push_back({this, phase, true});
}

void SparkContext::EndPhase() {
  auto& frames = t_phase_frames;
  uint64_t start_ns = 0;
  uint64_t max_ns = 0;
  if (!frames.empty() && frames.back().ctx == this && frames.back().owned) {
    Phase* phase = frames.back().phase;
    frames.pop_back();
    start_ns = phase->start_ns;
    max_ns = phase->MaxNanos();
    metrics_.simulated_ms.AddNanos(max_ns);
    delete phase;
  } else {
    // Unmatched EndPhase: fold whatever accumulated outside phases and
    // reset it (the seed's behaviour for an empty phase stack).
    start_ns = root_phase_->start_ns;
    max_ns = root_phase_->MaxNanos();
    metrics_.simulated_ms.AddNanos(max_ns);
    root_phase_->Reset();
    root_phase_->start_ns = metrics_.simulated_ms.nanos();
  }
  uint64_t stage = ++metrics_.stages;
  if (tracer_.enabled()) {
    tracer_.Record(SpanKind::kStage, "stage#" + std::to_string(stage),
                   start_ns, max_ns, /*lane=*/-1);
  }
}

void SparkContext::ChargeCompute(int partition, uint64_t records) {
  uint64_t ns = static_cast<uint64_t>(
      config_.cost.cpu_ns_per_record * static_cast<double>(records) + 0.5);
  ChargeTally& t = TallyFor(this, CurrentPhase(), tracer_.enabled());
  t.records_processed += records;
  t.busy_ns[static_cast<size_t>(ExecutorOf(partition))] += ns;
  Settle(t);
}

void SparkContext::ChargeTask(int partition, uint64_t records,
                              uint64_t remote_bytes) {
  // Determinism sub-pass evidence: every metric fold is a commutative
  // integer merge, so concurrent tasks can never make totals depend on
  // completion order (DT002 would flag a non-commutative one).
  hb::RecordMerge(hb::MetricsObject(HbId()), "ChargeTask",
                  /*commutative=*/true);
  double cost = config_.cost.task_overhead_us * 1e3;
  cost += config_.cost.cpu_ns_per_record * static_cast<double>(records);
  cost += config_.cost.net_ns_per_byte * static_cast<double>(remote_bytes);
  uint64_t ns = static_cast<uint64_t>(cost + 0.5);
  Phase* phase = CurrentPhase();
  int executor = ExecutorOf(partition);
  bool traced = tracer_.enabled();
  ChargeTally& t = TallyFor(this, phase, traced);
  ++t.tasks;
  t.records_processed += records;
  t.busy_ns[static_cast<size_t>(executor)] += ns;
  t.task_duration_ns.Record(ns);
  t.task_records.Record(records);
  uint64_t busy_before = Settle(t, executor);
  if (traced) {
    tracer_.Record(SpanKind::kTask,
                   "task p" + std::to_string(partition),
                   phase->start_ns + busy_before, ns, executor, records,
                   remote_bytes);
  }
}

void SparkContext::RecordJob() {
  uint64_t job = ++metrics_.jobs;
  if (tracer_.enabled()) {
    tracer_.Record(SpanKind::kJob, "job#" + std::to_string(job),
                   metrics_.simulated_ms.nanos(), 0, /*lane=*/-1);
  }
}

void SparkContext::ChargeJoinComparisons(uint64_t comparisons) {
  ChargeTally& t = TallyFor(this, CurrentPhase(), tracer_.enabled());
  t.join_comparisons += comparisons;
  Settle(t);
}

void SparkContext::ChargeShuffleWrite(int partition, uint64_t records,
                                      uint64_t bytes, uint64_t remote_bytes,
                                      uint64_t local_reads,
                                      uint64_t remote_reads) {
  hb::RecordMerge(hb::MetricsObject(HbId()), "ChargeShuffleWrite",
                  /*commutative=*/true);
  Phase* phase = CurrentPhase();
  bool traced = tracer_.enabled();
  ChargeTally& t = TallyFor(this, phase, traced);
  t.shuffle_records += records;
  t.shuffle_bytes += bytes;
  t.remote_shuffle_bytes += remote_bytes;
  t.local_read_records += local_reads;
  t.remote_read_records += remote_reads;
  Settle(t);
  if (traced) {
    int executor = ExecutorOf(partition);
    tracer_.Record(SpanKind::kShuffleWrite,
                   "shuffle p" + std::to_string(partition),
                   phase->start_ns + phase->Busy(executor), 0, executor,
                   records, bytes);
  }
}

void SparkContext::ChargeLocalReads(uint64_t records) {
  ChargeTally& t = TallyFor(this, CurrentPhase(), tracer_.enabled());
  t.local_read_records += records;
  Settle(t);
}

void SparkContext::ChargeRemoteReads(uint64_t records) {
  ChargeTally& t = TallyFor(this, CurrentPhase(), tracer_.enabled());
  t.remote_read_records += records;
  Settle(t);
}

void SparkContext::RecordSuperstep(const char* label) {
  uint64_t step = ++metrics_.supersteps;
  if (tracer_.enabled()) {
    tracer_.Record(SpanKind::kSuperstep,
                   std::string(label) + "#" + std::to_string(step),
                   metrics_.simulated_ms.nanos(), 0, /*lane=*/-1);
  }
}

void SparkContext::RecordMessages(uint64_t count) {
  ChargeTally& t = TallyFor(this, CurrentPhase(), tracer_.enabled());
  t.messages += count;
  Settle(t);
}

void SparkContext::ChargeBroadcastBytes(uint64_t bytes) {
  uint64_t replicated =
      bytes * static_cast<uint64_t>(
                  config_.num_executors > 1 ? config_.num_executors - 1 : 0);
  metrics_.broadcast_bytes += replicated;
  if (auto op = CurrentOpStats()) op->broadcast_bytes += replicated;
  if (config_.num_executors > 1) {
    uint64_t ns = static_cast<uint64_t>(
        config_.cost.net_ns_per_byte * static_cast<double>(bytes) + 0.5);
    if (tracer_.enabled()) {
      tracer_.Record(SpanKind::kBroadcast, "broadcast",
                     metrics_.simulated_ms.nanos(), ns, /*lane=*/-1, 0,
                     bytes);
    }
    metrics_.simulated_ms.AddNanos(ns);
  }
}

TaskScheduler* SparkContext::Pool() {
  int slots = config_.executor_threads > 0 ? config_.executor_threads
                                           : config_.num_executors;
  if (slots <= 1) return nullptr;
  std::call_once(scheduler_once_, [this, slots] {
    // Publication: the pool becomes usable for every later caller through
    // the call_once barrier (concurrent serving drivers race to this).
    hb::RecordAccess(hb::PoolInitObject(HbId()), hb::Access::kWrite,
                     "TaskScheduler::init");
    scheduler_ = std::make_unique<TaskScheduler>(slots);
    hb::Publish(hb::PoolInitObject(HbId()));
  });
  hb::Consume(hb::PoolInitObject(HbId()));
  hb::RecordAccess(hb::PoolInitObject(HbId()), hb::Access::kRead,
                   "scheduler.use");
  return scheduler_.get();
}

void SparkContext::RunParallel(int count,
                               const std::function<void(int)>& fn) {
  if (count <= 0) return;
  TaskScheduler* pool =
      count == 1 || TaskScheduler::InWorkerThread() ? nullptr : Pool();
  if (pool == nullptr) {
    // The serial path declares the SAME fork/join structure as the pooled
    // path: every index is a logical task segment concurrent with its
    // siblings. This is what makes Tier C verdicts independent of
    // executor_threads — a race fires at --threads=1 exactly when it
    // would at --threads=8. The whole loop is one chunk of charges.
    hb::BatchScope batch(count);
    ChunkScope chunk(this, CurrentPhase(), CurrentOpStats().get());
    for (int i = 0; i < count; ++i) {
      hb::TaskScope task(batch, i);
      fn(i);
    }
    return;
  }
  Phase* phase = CurrentPhase();
  std::shared_ptr<OpStats> op = CurrentOpStats();
  hb::BatchScope batch(count);
  pool->ParallelFor(count, [this, phase, &op, &fn, &batch](int begin,
                                                           int end) {
    // Propagate the submitting thread's phase and operator scope, once per
    // chunk, so task charges land in the action's phase and on the
    // operator that issued the action; popped even if a task throws, after
    // the chunk's charges fold.
    t_phase_frames.push_back({this, phase, false});
    struct FramePopper {
      ~FramePopper() { t_phase_frames.pop_back(); }
    } popper;
    OpScopeGuard op_scope(op);
    ChunkScope chunk(this, phase, op.get());
    // A failing task does not cancel its chunk-mates: every index runs, as
    // with one claim per task, and the chunk rethrows its first error.
    std::exception_ptr first_error;
    for (int i = begin; i < end; ++i) {
      hb::TaskScope task(batch, i);
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  });
}

}  // namespace rdfspark::spark
