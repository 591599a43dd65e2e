#ifndef RDFSPARK_SPARK_METRICS_H_
#define RDFSPARK_SPARK_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>

namespace rdfspark::spark {

/// A counter with value semantics and relaxed-atomic updates. Partition
/// tasks run concurrently on the executor pool, so every counter the
/// compute lambdas touch must tolerate unsynchronized increments; copies
/// (metric snapshots, deltas) read a plain value. Relaxed ordering is
/// sufficient: counters are independent tallies, and the scheduler's
/// join barrier orders them against readers.
class Counter {
 public:
  constexpr Counter() noexcept = default;
  Counter(uint64_t v) noexcept : v_(v) {}
  Counter(const Counter& o) noexcept : v_(o.value()) {}
  Counter& operator=(const Counter& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  Counter& operator=(uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const noexcept { return value(); }
  uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  Counter& operator+=(uint64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator-=(uint64_t d) noexcept {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator++() noexcept {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  uint64_t operator++(int) noexcept {
    return v_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Raises the stored value to at least `v` (relaxed CAS loop). Used by
  /// Histogram for running maxima; commutative, so still deterministic
  /// across interleavings.
  void UpdateMax(uint64_t v) noexcept {
    uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> v_{0};
};

struct HistogramTally;

/// Power-of-two-bucketed distribution of uint64 samples with exact count,
/// sum and max. Bucket i holds samples whose bit width is i (bucket 0 is
/// the value 0), so bucketing needs no configuration. Samples arrive as
/// folded HistogramTally sums of relaxed increments — safe from concurrent
/// partition tasks and interleaving-independent like every other metric.
///
/// Deltas: count, sum and buckets subtract exactly; the running max cannot
/// be windowed, so operator- keeps the lhs max (documented: max is
/// since-construction). Benches snapshot fresh contexts, where the two
/// notions coincide.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  /// Records one sample (a tally of one, folded at once).
  void Record(uint64_t v) noexcept;

  uint64_t count() const noexcept { return count_; }
  uint64_t sum() const noexcept { return sum_; }
  uint64_t max_value() const noexcept { return max_; }
  uint64_t bucket(int i) const noexcept { return buckets_[i]; }

  double Mean() const noexcept {
    uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Ratio max / mean (1.0 = perfectly balanced); 0 when empty. With task
  /// record counts as samples this is the partition-skew ratio.
  double SkewVsMean() const noexcept {
    double mean = Mean();
    return mean == 0.0 ? 0.0 : static_cast<double>(max_value()) / mean;
  }

  /// Upper bound of the bucket containing the q-quantile sample (q in
  /// [0,1]); an over-approximation within 2x, exact at the top (the last
  /// occupied bucket's bound is clamped to the true max). 0 when empty.
  uint64_t QuantileUpperBound(double q) const noexcept;

  Histogram& operator+=(const Histogram& rhs) noexcept;
  /// Adds `tally`'s samples (only its non-zero buckets) and empties it.
  void Fold(HistogramTally& tally) noexcept;
  /// Bucketwise difference; max is kept from *this (see class comment).
  Histogram operator-(const Histogram& rhs) const noexcept;

  /// One-line summary: count / mean / p50 / p95 / max / skew.
  std::string ToString() const;

  static int BucketOf(uint64_t v) noexcept {
    int b = std::bit_width(v);
    return b < kBuckets ? b : kBuckets - 1;
  }

 private:
  Counter buckets_[kBuckets];
  Counter count_;
  Counter sum_;
  Counter max_;
};

/// Samples one thread gathers privately as plain integers and folds into
/// a shared Histogram at once (Histogram::Fold) — how SparkContext records
/// a chunk of partition tasks without a shared-cache-line update per task.
struct HistogramTally {
  uint64_t buckets[Histogram::kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  int lo = Histogram::kBuckets;  ///< Touched buckets are [lo, hi]: a fold
  int hi = -1;                   ///< of few samples visits only those.

  void Record(uint64_t v) noexcept {
    int b = Histogram::BucketOf(v);
    ++buckets[b];
    if (b < lo) lo = b;
    if (b > hi) hi = b;
    ++count;
    sum += v;
    if (v > max) max = v;
  }
};

/// Simulated time held as integer nanoseconds so that accumulation is
/// associative and commutative: the total is bit-identical no matter in
/// which order concurrent phases fold their maxima in. Reads convert to
/// milliseconds (the unit every report uses).
class SimTime {
 public:
  constexpr SimTime() noexcept = default;
  SimTime(double ms) noexcept : ns_(NanosFromMs(ms)) {}
  SimTime(const SimTime& o) noexcept : ns_(o.nanos()) {}
  SimTime& operator=(const SimTime& o) noexcept {
    ns_.store(o.nanos(), std::memory_order_relaxed);
    return *this;
  }
  SimTime& operator=(double ms) noexcept {
    ns_.store(NanosFromMs(ms), std::memory_order_relaxed);
    return *this;
  }

  operator double() const noexcept { return ms(); }
  double ms() const noexcept { return static_cast<double>(nanos()) / 1e6; }
  uint64_t nanos() const noexcept {
    return ns_.load(std::memory_order_relaxed);
  }

  void AddNanos(uint64_t d) noexcept {
    ns_.fetch_add(d, std::memory_order_relaxed);
  }
  SimTime& operator+=(const SimTime& o) noexcept {
    AddNanos(o.nanos());
    return *this;
  }
  SimTime& operator+=(double delta_ms) noexcept {
    AddNanos(NanosFromMs(delta_ms));
    return *this;
  }
  friend SimTime operator-(const SimTime& a, const SimTime& b) noexcept {
    SimTime d;
    uint64_t an = a.nanos(), bn = b.nanos();
    d.ns_.store(an > bn ? an - bn : 0, std::memory_order_relaxed);
    return d;
  }

  static uint64_t NanosFromMs(double ms) noexcept {
    return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e6 + 0.5);
  }

 private:
  std::atomic<uint64_t> ns_{0};
};

/// Field lists for Metrics, X-macro style. operator-/operator+=/ToString/
/// ForEachNumericField and the field-coverage test in tests/metrics_test.cc
/// all expand these, so a counter added here is automatically covered by
/// snapshots, deltas, dumps and machine-readable exports — and a counter
/// added to the struct but not to a list trips the sizeof static_assert in
/// metrics.cc. Append new fields to the matching list.
#define RDFSPARK_METRICS_COUNTER_FIELDS(X) \
  X(jobs)                                  \
  X(stages)                                \
  X(tasks)                                 \
  X(shuffle_records)                       \
  X(shuffle_bytes)                         \
  X(remote_shuffle_bytes)                  \
  X(local_read_records)                    \
  X(remote_read_records)                   \
  X(broadcast_bytes)                       \
  X(join_comparisons)                      \
  X(records_processed)                     \
  X(messages)                              \
  X(supersteps)

#define RDFSPARK_METRICS_SIMTIME_FIELDS(X) X(simulated_ms)

#define RDFSPARK_METRICS_HISTOGRAM_FIELDS(X) \
  X(task_duration_ns)                        \
  X(task_records)

/// Execution counters accumulated by the cluster simulator. Everything the
/// assessment benchmarks report (shuffle volume, locality, comparisons,
/// supersteps, simulated wall time) comes out of this struct; engines obtain
/// deltas by snapshotting before/after a query. Fields are relaxed atomics
/// (see Counter) because partition tasks update them concurrently.
struct Metrics {
  Counter jobs;    ///< Actions executed.
  Counter stages;  ///< Stages (shuffle boundaries + result stages).
  Counter tasks;   ///< Per-partition tasks launched.

  Counter shuffle_records;  ///< Records written through shuffles.
  Counter shuffle_bytes;    ///< Estimated bytes written through shuffles.
  Counter remote_shuffle_bytes;  ///< Subset crossing executor boundaries.

  Counter local_read_records;   ///< Partition reads served locally.
  Counter remote_read_records;  ///< Partition reads from other executors.

  Counter broadcast_bytes;  ///< Bytes replicated to every executor.

  Counter join_comparisons;   ///< Candidate pairs examined by joins.
  Counter records_processed;  ///< Records flowing through operators.

  Counter messages;    ///< Graph messages sent (aggregateMessages).
  Counter supersteps;  ///< Pregel/fixpoint iterations.

  SimTime simulated_ms;  ///< Critical-path time under the cost model.

  Histogram task_duration_ns;  ///< Distribution of per-task busy ns.
  Histogram task_records;      ///< Records per task (skew = max/mean).

  Metrics operator-(const Metrics& rhs) const;
  Metrics& operator+=(const Metrics& rhs);

  /// Multi-line human-readable dump.
  std::string ToString() const;

  /// Invokes fn(name, value) for every scalar the machine-readable surfaces
  /// export: each counter, simulated_ms (in ms), and summary statistics of
  /// each histogram.
  void ForEachNumericField(
      const std::function<void(const std::string&, double)>& fn) const;

  /// Invokes fn(name, histogram) for every histogram field — full bucket
  /// access for exposition formats that ForEachNumericField's summary
  /// statistics cannot serve (e.g. Prometheus `_bucket{le=...}` series).
  void ForEachHistogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;
};

/// Cost model translating simulator events into simulated milliseconds.
/// A stage's duration is max over its tasks of
///   cpu_ns_per_record * records + net_ns_per_byte * remote_bytes,
/// mirroring a synchronous stage barrier on a homogeneous cluster.
struct CostModel {
  double cpu_ns_per_record = 50.0;
  double net_ns_per_byte = 10.0;
  double task_overhead_us = 100.0;  ///< Scheduling overhead per task.
};

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_METRICS_H_
