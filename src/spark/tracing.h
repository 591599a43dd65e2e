#ifndef RDFSPARK_SPARK_TRACING_H_
#define RDFSPARK_SPARK_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spark/metrics.h"

namespace rdfspark::spark {

/// Per-operator runtime counters. The plan executor attaches one OpStats to
/// every plan node it runs; the Spark substrate routes each charge to the
/// innermost open operator scope (see OpScopeGuard). All counters are
/// relaxed atomics with commutative updates (a chunk of partition tasks
/// folds its sums in once, see SparkContext), so totals are bit-identical
/// for any executor-pool interleaving — the property EXPLAIN ANALYZE's
/// thread-count-invariance tests pin down.
struct OpStats {
  Counter tasks;             ///< Schedulable tasks charged in this scope.
  Counter records_in;        ///< Records processed (compute + task charges).
  Counter join_comparisons;  ///< Candidate pairs examined by joins.
  Counter shuffle_records;   ///< Records written through shuffles.
  Counter shuffle_bytes;     ///< Estimated shuffle write volume.
  Counter remote_shuffle_bytes;  ///< Subset crossing executor boundaries.
  Counter local_read_records;    ///< Partition reads served locally.
  Counter remote_read_records;   ///< Partition reads from other executors.
  Counter broadcast_bytes;       ///< Bytes replicated to every executor.
  Counter busy_ns;  ///< Total busy nanoseconds charged (sum over executors,
                    ///< not critical path — phases fold maxima globally).

  // Output cardinality, filled in by the plan layer after execution by
  // inspecting the operator's payload (not charged through scopes).
  uint64_t rows_out = 0;
  bool rows_known = false;
};

/// Innermost operator scope open on this thread, or null. Charges made by
/// SparkContext route here in addition to the global Metrics. The
/// reference stays valid until the thread opens or closes a scope; copy it
/// to keep the scope (RddNode captures it this way).
const std::shared_ptr<OpStats>& CurrentOpStats();

/// RAII operator scope. Pushing a null stats pointer is a no-op (charges
/// keep attributing to the enclosing scope), so lineage nodes created
/// outside any operator can hold a null scope safely.
///
/// Lazily computed RDD partitions attribute correctly because every
/// RddNode captures CurrentOpStats() at construction and re-installs it
/// around its compute function: work deferred from an operator's exec to a
/// later action still lands on the operator that built the lineage.
class OpScopeGuard {
 public:
  explicit OpScopeGuard(std::shared_ptr<OpStats> stats);
  ~OpScopeGuard();

  OpScopeGuard(const OpScopeGuard&) = delete;
  OpScopeGuard& operator=(const OpScopeGuard&) = delete;

 private:
  bool pushed_ = false;
};

/// What a trace event describes. Job/stage/task mirror Spark's execution
/// hierarchy; the remaining kinds mark data-movement and graph-iteration
/// milestones the assessment cares about.
enum class SpanKind {
  kJob,           ///< One action (instant marker on the driver lane).
  kStage,         ///< One cost phase (shuffle boundary or result stage).
  kTask,          ///< One per-partition task on an executor lane.
  kShuffleWrite,  ///< Map-side shuffle write of one source partition.
  kBroadcast,     ///< Replication of a broadcast value.
  kSuperstep,     ///< One Pregel/fixpoint iteration.
  kServe,         ///< One served request (serving-layer job span).
};

const char* SpanKindName(SpanKind k);

/// One recorded span. Timestamps are simulated nanoseconds (the cost
/// model's clock, not wall time): `ts_ns` is where the span starts on the
/// simulated timeline, `dur_ns` its simulated duration (0 for instants).
/// `lane` is the executor that did the work, -1 for the driver.
struct TraceEvent {
  SpanKind kind = SpanKind::kJob;
  std::string name;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  int lane = -1;
  uint64_t records = 0;  ///< Records processed / shuffled (kind-specific).
  uint64_t bytes = 0;    ///< Bytes moved (shuffle, broadcast, remote pull).
};

/// Collects TraceEvents into per-thread buffers (no cross-thread contention
/// on the record path beyond first-touch registration). Disabled tracers
/// drop events at a single relaxed load. Exports merge the buffers into a
/// deterministic order: under the serial executor path
/// (executor_threads = 1) two identical runs produce byte-identical
/// exports; under the pool only task-level start offsets may differ (the
/// event multiset is interleaving-independent).
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one complete span. No-op while disabled.
  void Record(SpanKind kind, std::string name, uint64_t ts_ns,
              uint64_t dur_ns, int lane, uint64_t records = 0,
              uint64_t bytes = 0);

  /// All events, merged across thread buffers and sorted by
  /// (ts, lane, kind, name, dur, records, bytes) — a total order over the
  /// event fields, so the output depends only on the event multiset.
  std::vector<TraceEvent> Merged() const;

  size_t event_count() const;

  /// Drops all recorded events (buffers stay registered).
  void Clear();

  /// Chrome trace-event JSON (load via chrome://tracing or Perfetto).
  /// Lanes map to Chrome "threads": tid 0 is the driver, tid N+1 executor N.
  std::string ToChromeTraceJson() const;

  /// Compact fixed-width text timeline of the merged events.
  std::string ToTimelineText() const;

 private:
  struct ThreadBuf {
    std::vector<TraceEvent> events;
  };

  ThreadBuf* BufForThisThread();

  std::atomic<bool> enabled_{false};
  uint64_t tracer_id_;  ///< Globally unique; keys the thread-local cache.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_TRACING_H_
