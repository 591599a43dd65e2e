#ifndef RDFSPARK_SPARK_CONTEXT_H_
#define RDFSPARK_SPARK_CONTEXT_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spark/hb.h"
#include "spark/metrics.h"
#include "spark/scheduler.h"
#include "spark/size_estimator.h"
#include "spark/tracing.h"

namespace rdfspark::spark {

/// Shape of the simulated cluster.
struct ClusterConfig {
  int num_executors = 4;
  /// Partition count used when callers do not specify one.
  int default_parallelism = 8;
  /// Executor slots, shared by driver threads and pool helpers (see
  /// TaskScheduler). 0 = one per simulated executor (the default),
  /// 1 = serial in-driver execution (the reference path the scheduler
  /// tests compare against).
  int executor_threads = 0;
  /// DataFrame joins broadcast the smaller side when its estimated size is
  /// below this threshold (Spark's spark.sql.autoBroadcastJoinThreshold).
  uint64_t broadcast_threshold_bytes = 10ull << 20;
  /// When true (the default) every RDD retains its computed partitions, as
  /// the simulator always has (iterative engines depend on it). When false
  /// the cluster reproduces Spark's real default: only RDDs marked with
  /// Cache() retain partitions, and lineage shared by several consumers is
  /// recomputed per consumer — the behaviour the lineage analyzer's LN001
  /// rule flags and the recompute-validation tests measure.
  bool retain_uncached_rdds = true;
  CostModel cost;
};

/// Identity of a partitioning scheme. Two RDDs co-partitioned by equal
/// PartitionerInfo can be joined without a shuffle, which is how the
/// simulator expresses the pre-partitioning optimizations several surveyed
/// systems rely on (SparkRDF's dynamic pre-partitioning, the hybrid engine's
/// partitioning awareness).
struct PartitionerInfo {
  std::string kind;  ///< e.g. "hash", "hash-subject", "range".
  int num_partitions = 0;
  uint64_t seed = 0;

  bool operator==(const PartitionerInfo&) const = default;
};

/// A value replicated to every executor. Reading it is always a local read;
/// creating it charges network volume proportional to cluster size.
template <typename T>
class Broadcast {
 public:
  explicit Broadcast(std::shared_ptr<const T> value, int64_t hb_id = 0)
      : value_(std::move(value)), hb_id_(hb_id) {}
  const T& value() const {
    // Publication edge: reading the replicated value orders this task
    // after MakeBroadcast's publish (per-thread deduped, so the hot join
    // loop records one logical event, not one per probe).
    hb::Consume(hb::BroadcastObject(hb_id_));
    hb::RecordAccess(hb::BroadcastObject(hb_id_), hb::Access::kRead,
                     "Broadcast::value");
    return *value_;
  }

 private:
  std::shared_ptr<const T> value_;
  int64_t hb_id_ = 0;
};

/// Entry point to the simulated cluster: owns the configuration, the
/// metrics and the executor thread pool, assigns partitions to executors,
/// and provides the phase/cost accounting hooks the RDD/DataFrame layers
/// call into.
///
/// Cost accounting model: work is grouped into *phases* (one per shuffle
/// materialization plus one per action). Within a phase, each charge lands on
/// the executor that owns the charged partition; when the phase ends, the
/// busiest executor's time is added to `simulated_ms`. This reproduces the
/// barrier semantics of Spark stages: narrow chains pipeline inside one
/// phase, shuffles serialize phases.
///
/// Thread-safety contract: phases are tracked per thread. BeginPhase/
/// EndPhase nest on the thread that calls them; RunParallel propagates the
/// caller's current phase to the pool workers, so concurrent task charges
/// land in the phase of the action that spawned them while a nested phase
/// opened inside a task (a lazily materialized shuffle) stays private to
/// that task's thread. Per-executor busy time accumulates in integer
/// nanoseconds, which makes `simulated_ms` bit-identical for any thread
/// interleaving — and identical to the serial (executor_threads = 1) path.
///
/// Charge folding: the charge points below add into a thread-local tally.
/// Inside a chunk of RunParallel tasks the tally is the chunk's, folded
/// into Metrics, the phase and the OpStats once before the chunk retires;
/// a charge outside a chunk, under a phase or operator scope opened inside
/// the task, or with the tracer on is a tally of one, folded at once.
/// Integer sums commute, so the totals are the same either way.
class SparkContext {
 public:
  explicit SparkContext(ClusterConfig config = ClusterConfig());
  ~SparkContext();

  SparkContext(const SparkContext&) = delete;
  SparkContext& operator=(const SparkContext&) = delete;

  const ClusterConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Span recorder for this cluster (disabled by default; enabling it is
  /// the only switch — all instrumentation sites check `enabled()`).
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Executor owning partition `partition` (round-robin placement).
  /// Partition ids are non-negative by construction (hash-derived bucket
  /// indices are reduced modulo a positive count before they get here);
  /// a negative id would silently land on a negative "executor".
  int ExecutorOf(int partition) const {
    assert(partition >= 0 && "partition ids must be non-negative");
    return partition % config_.num_executors;
  }

  /// Unique id for a new RDD node.
  int NextNodeId() {
    return next_node_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Begins/ends a cost phase; see class comment. Nestable, per thread.
  void BeginPhase();
  void EndPhase();

  /// Charges CPU work done while computing `records` records of partition
  /// `partition` (no task counted: narrow work pipelines into its stage task).
  void ChargeCompute(int partition, uint64_t records);

  /// Charges a schedulable task on `partition` that consumed `records`
  /// records and pulled `remote_bytes` over the network.
  void ChargeTask(int partition, uint64_t records, uint64_t remote_bytes);

  /// Records an action execution (one job).
  void RecordJob();

  // Centralized metric charge points. The RDD/DataFrame/GraphX layers call
  // these instead of poking `metrics()` fields directly so that every
  // charge reaches all three sinks consistently: the global Metrics, the
  // innermost operator scope (EXPLAIN ANALYZE actuals), and — where a span
  // is meaningful — the tracer. Keep new instrumentation going through
  // here; direct field writes bypass per-operator attribution.

  /// Charges `comparisons` candidate pairs examined by a join.
  void ChargeJoinComparisons(uint64_t comparisons);

  /// Records the map-side write of one source partition into a shuffle:
  /// `records`/`bytes` written in total, `remote_bytes` of which cross
  /// executor boundaries, plus the reader-side locality split
  /// (`local_reads`/`remote_reads` records).
  void ChargeShuffleWrite(int partition, uint64_t records, uint64_t bytes,
                          uint64_t remote_bytes, uint64_t local_reads,
                          uint64_t remote_reads);

  /// Charges partition reads served locally / from other executors.
  void ChargeLocalReads(uint64_t records);
  void ChargeRemoteReads(uint64_t records);

  /// Records one Pregel/fixpoint iteration (emits a superstep span).
  void RecordSuperstep(const char* label = "superstep");

  /// Records `count` graph messages sent by aggregateMessages.
  void RecordMessages(uint64_t count);

  /// Holds one executor slot of this cluster for the calling thread while
  /// alive (see TaskScheduler): the serving layer opens one around each
  /// request, so the request's batches run on the slot it already holds
  /// and pool helpers take only the slots no request holds. Holds nothing
  /// when tasks run inline (executor_threads = 1).
  class DriverScope {
   public:
    explicit DriverScope(SparkContext* sc) : slot_(sc->Pool()) {}

   private:
    TaskScheduler::Slot slot_;
  };

  /// Runs fn(0..count-1) on the executor pool, blocking until all tasks
  /// finish. Falls back to an inline serial loop when the pool is disabled
  /// (executor_threads = 1), the batch is trivial, or the caller is itself
  /// a pool worker (nested parallelism runs inline; see TaskScheduler).
  /// Workers inherit the caller's current cost phase and operator scope,
  /// installed once per claimed chunk of indices; each index is still its
  /// own logical task for the HB recorder. On the pool every index runs
  /// even if another throws, and the first error is rethrown here.
  void RunParallel(int count, const std::function<void(int)>& fn);

  /// Accounts the volume and time of replicating `bytes` to every executor
  /// (tree distribution: every executor receives the payload once, in
  /// parallel, so the time cost is one network transfer).
  void ChargeBroadcastBytes(uint64_t bytes);

  /// Wraps `value` into a Broadcast, charging replication traffic.
  template <typename T>
  Broadcast<T> MakeBroadcast(T value) {
    ChargeBroadcastBytes(EstimateSize(value));
    int64_t hb_id = hb::AssignWindowId();
    hb::RecordAccess(hb::BroadcastObject(hb_id), hb::Access::kWrite,
                     "MakeBroadcast");
    hb::Publish(hb::BroadcastObject(hb_id));
    return Broadcast<T>(std::make_shared<const T>(std::move(value)), hb_id);
  }

  /// Stable HB identity of this context (metrics counters, executor pool).
  int64_t HbId() const { return hb::StableId(&hb_id_); }

  /// Per-phase accumulator: busy nanoseconds per executor. Chunks of one
  /// phase fold their sums in concurrently (relaxed atomics — integer
  /// addition commutes, so totals are interleaving-independent).
  struct Phase {
    explicit Phase(int num_executors);
    /// Adds `ns` to the executor's busy time; returns the executor's busy
    /// time *before* the add — for a traced task (always folded alone),
    /// its start offset within the phase, where the tracer plots its span.
    uint64_t Add(int executor, uint64_t ns) {
      return busy_ns[static_cast<size_t>(executor)].fetch_add(
          ns, std::memory_order_relaxed);
    }
    uint64_t Busy(int executor) const {
      return busy_ns[static_cast<size_t>(executor)].load(
          std::memory_order_relaxed);
    }
    uint64_t MaxNanos() const;
    void Reset();

    std::vector<std::atomic<uint64_t>> busy_ns;
    /// Simulated-time origin of the phase (simulated_ms when it began);
    /// task spans plot at start_ns + per-executor busy offset.
    uint64_t start_ns = 0;
  };

 private:
  /// The innermost phase this thread has open for this context; falls back
  /// to the root accumulator (charges outside any phase, never folded).
  Phase* CurrentPhase() const;

  /// The executor pool, created on first use; null when tasks run inline.
  TaskScheduler* Pool();

  ClusterConfig config_;
  Metrics metrics_;
  Tracer tracer_;
  std::atomic<int> next_node_id_{0};
  mutable std::atomic<int64_t> hb_id_{0};  ///< Lazily assigned stable id.

  std::unique_ptr<Phase> root_phase_;
  std::once_flag scheduler_once_;  ///< Guards the lazy pool creation:
                                   ///< concurrent driver threads (the
                                   ///< serving layer) may race to the
                                   ///< first use.
  std::unique_ptr<TaskScheduler> scheduler_;  ///< Lazily created pool.
};

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_CONTEXT_H_
