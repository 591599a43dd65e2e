#ifndef RDFSPARK_SPARK_SQL_DATAFRAME_H_
#define RDFSPARK_SPARK_SQL_DATAFRAME_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spark/context.h"
#include "spark/sql/column.h"
#include "spark/sql/expr.h"
#include "spark/sql/value.h"

namespace rdfspark::spark::sql {

enum class JoinType { kInner, kLeftOuter };

/// Physical join strategy. kAuto applies Spark's rule: broadcast the smaller
/// side when its estimated size is under the configured threshold, else
/// shuffle both sides (the cost-based choice [21] §IV.A.3 discusses).
enum class JoinStrategy { kAuto, kBroadcast, kShuffleHash, kCartesian };

/// Aggregate functions for GroupByAgg.
enum class AggOp { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggOp op = AggOp::kCount;
  std::string column;  // ignored for kCount
  std::string alias;
};

/// An immutable, partitioned, columnar table — the simulator's counterpart
/// of Spark's DataFrame. Operations execute eagerly against the in-memory
/// batches but charge the same cost/metrics model as the RDD layer, so
/// RDD-vs-DataFrame comparisons are apples-to-apples.
class DataFrame {
 public:
  DataFrame() = default;

  /// Builds a DataFrame from rows, hashed round-robin into partitions.
  static DataFrame FromRows(SparkContext* sc, Schema schema,
                            const std::vector<Row>& rows,
                            int num_partitions = -1);

  bool valid() const { return state_ != nullptr; }
  SparkContext* context() const { return state_->sc; }
  const Schema& schema() const { return state_->schema; }
  int num_partitions() const {
    return static_cast<int>(state_->batches.size());
  }
  /// Partition `p`'s batch (read-only; batches may be shared between
  /// frames, e.g. by Rename, AssumePartitionedBy and Union).
  const RecordBatch& partition(int p) const;
  const std::optional<PartitionerInfo>& partitioner() const {
    return state_->partitioner;
  }

  /// Rows across all partitions (cheap — data is resident).
  uint64_t NumRows() const;

  /// Estimated resident bytes; drives broadcast-join selection.
  uint64_t EstimatedBytes() const;

  // ------------------------------------------------------------------
  // Transformations (eager).
  // ------------------------------------------------------------------

  /// Keeps the named columns, in order.
  DataFrame Select(const std::vector<std::string>& columns) const;

  /// Computes projections with output names.
  DataFrame SelectExprs(
      const std::vector<std::pair<Expr, std::string>>& projections) const;

  /// Renames all columns (size must match schema).
  DataFrame Rename(const std::vector<std::string>& names) const;

  DataFrame Filter(const Expr& predicate) const;

  /// Equi-join on (left column, right column) pairs.
  DataFrame Join(const DataFrame& right,
                 const std::vector<std::pair<std::string, std::string>>& keys,
                 JoinType type = JoinType::kInner,
                 JoinStrategy strategy = JoinStrategy::kAuto) const;

  /// Cartesian product (what a naive SQL translation of multi-pattern BGPs
  /// degenerates to, per [21]).
  DataFrame CrossJoin(const DataFrame& right) const;

  DataFrame Union(const DataFrame& other) const;
  DataFrame Distinct() const;

  /// Global sort by (column, ascending) keys.
  DataFrame Sort(const std::vector<std::pair<std::string, bool>>& keys) const;

  DataFrame Limit(int64_t n) const;

  /// Hash-partitions by the given key columns; a subsequent equi-join on the
  /// same keys is shuffle-free.
  DataFrame PartitionBy(const std::vector<std::string>& columns,
                        int num_partitions = -1) const;

  /// Declares (without moving data) that rows are already placed as if
  /// PartitionBy(columns) had run — for operators that provably preserve
  /// placement (e.g. a projection renaming the partition key). The caller
  /// owns the proof.
  DataFrame AssumePartitionedBy(const std::vector<std::string>& columns) const;

  /// Group-by aggregation (shuffle by keys, then local aggregation).
  DataFrame GroupByAgg(const std::vector<std::string>& keys,
                       const std::vector<AggSpec>& aggs) const;

  // ------------------------------------------------------------------
  // Actions.
  // ------------------------------------------------------------------

  std::vector<Row> Collect() const;
  uint64_t Count() const;

  /// Actual columnar footprint (dictionary-encoded).
  uint64_t MemoryFootprint() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Batches are immutable once built, so frames that keep a parent's
  /// rows as they are share its batches instead of copying them. A null
  /// pointer is a column-less zero-row batch: a frame of many partitions,
  /// most of them empty (a wide cross product), allocates nothing for
  /// those.
  using BatchPtr = std::shared_ptr<const RecordBatch>;

  struct State {
    SparkContext* sc = nullptr;
    Schema schema;
    std::vector<BatchPtr> batches;
    std::optional<PartitionerInfo> partitioner;
  };

  static DataFrame Make(SparkContext* sc, Schema schema,
                        std::vector<BatchPtr> batches,
                        std::optional<PartitionerInfo> partitioner);
  /// For batches built on the driver (FromRows, PartitionBy's buckets);
  /// operator tasks share their own output slots.
  static DataFrame Make(SparkContext* sc, Schema schema,
                        std::vector<RecordBatch> batches,
                        std::optional<PartitionerInfo> partitioner);

  /// Shuffles rows into `num_partitions` buckets by the hash of their
  /// `key_cols` cells, charging shuffle metrics; returns per-target batches.
  std::vector<RecordBatch> ShuffleRows(const std::vector<int>& key_cols,
                                       int num_partitions) const;

  DataFrame ShuffleHashJoin(
      const DataFrame& right,
      const std::vector<std::pair<std::string, std::string>>& keys,
      JoinType type) const;
  DataFrame BroadcastJoin(
      const DataFrame& right,
      const std::vector<std::pair<std::string, std::string>>& keys,
      JoinType type) const;

  std::shared_ptr<const State> state_;
};

}  // namespace rdfspark::spark::sql

#endif  // RDFSPARK_SPARK_SQL_DATAFRAME_H_
