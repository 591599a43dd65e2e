#ifndef RDFSPARK_SYSTEMS_BATCH_H_
#define RDFSPARK_SYSTEMS_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spark/rdd.h"
#include "spark/value_hash.h"
#include "sparql/id_table.h"
#include "systems/common.h"

namespace rdfspark::systems {

/// Batch-at-a-time data plane: every RDD partition carries ONE IdTable
/// (possibly empty) instead of one std::vector per row. Shuffles move
/// fixed-width sub-batches, joins build/probe contiguous id memory, and
/// row order is preserved exactly as the per-element path produced it:
/// sub-batches merge in source-partition order, probes walk the left batch
/// in row order, and matches emit in build order.

/// A batch whose rows carry a routing key (e.g. HAQWA/SparkRDF subject
/// keys, which are not always a row column — constant subjects). keys and
/// rows are parallel: keys[i] routes rows.row(i). The row operations
/// mirror IdTable's, so the shuffle helpers below serve both.
struct KeyedBatch {
  std::vector<rdf::TermId> keys;
  sparql::IdTable rows;

  size_t size() const { return rows.size(); }
  void Reserve(size_t n) {
    keys.reserve(n);
    rows.Reserve(n);
  }
  void AppendRowFrom(const KeyedBatch& other, size_t r) {
    keys.push_back(other.keys[r]);
    rows.AppendRowFrom(other.rows, r);
  }
  void AppendRowsFrom(const KeyedBatch& other) {
    keys.insert(keys.end(), other.keys.begin(), other.keys.end());
    rows.AppendRowsFrom(other.rows);
  }

  uint64_t EstimatedByteSize() const {
    return 24 + keys.size() * sizeof(rdf::TermId) + rows.EstimatedByteSize();
  }
  bool operator==(const KeyedBatch& other) const = default;
};

/// A dictionary-encoded triple routed by one of its terms (subject for
/// HAQWA fragments, join term for replicas). Stays element-wise: triples
/// are the base data, not intermediate rows.
using KeyedTriple = std::pair<rdf::TermId, rdf::EncodedTriple>;

/// A sub-batch bound for shuffle target `first`. Batch shuffles move
/// sub-batches by reference: the shuffle's staging and buckets copy the
/// pointer, never the rows, and EstimateSize charges the batch it points
/// to, so every shuffle byte and retained byte reads as if the batch
/// itself had moved.
template <typename Batch>
using SubBatch = std::pair<int, std::shared_ptr<const Batch>>;

/// An empty batch of `width` columns.
template <typename Batch>
Batch EmptyBatch(size_t width);
template <>
inline sparql::IdTable EmptyBatch<sparql::IdTable>(size_t width) {
  return sparql::IdTable(width);
}
template <>
inline KeyedBatch EmptyBatch<KeyedBatch>(size_t width) {
  return KeyedBatch{{}, sparql::IdTable(width)};
}

/// The split side of a batch shuffle: routes every row of `in` to
/// `target(batch, row)`, in [0, n), and returns one sub-batch per target
/// written, in first-write order, rows in input order, each sized to its
/// exact row count.
template <typename Batch, typename TargetFn>
std::vector<SubBatch<Batch>> SplitByTarget(const std::vector<Batch>& in,
                                           int n, size_t width,
                                           TargetFn target) {
  size_t rows = 0;
  for (const Batch& batch : in) rows += batch.size();
  spark::TargetSlots slots(n);
  std::vector<uint32_t> slot_of;  // Rows of every batch, in order.
  slot_of.reserve(rows);
  std::vector<size_t> counts;  // By slot.
  for (const Batch& batch : in) {
    for (size_t r = 0; r < batch.size(); ++r) {
      uint32_t s = slots.SlotOf(target(batch, r));
      if (s == counts.size()) counts.push_back(0);
      ++counts[s];
      slot_of.push_back(s);
    }
  }
  std::vector<std::shared_ptr<Batch>> subs;
  subs.reserve(counts.size());
  for (size_t count : counts) {
    subs.push_back(std::make_shared<Batch>(EmptyBatch<Batch>(width)));
    subs.back()->Reserve(count);
  }
  size_t k = 0;
  for (const Batch& batch : in) {
    for (size_t r = 0; r < batch.size(); ++r) {
      subs[slot_of[k++]]->AppendRowFrom(batch, r);
    }
  }
  std::vector<SubBatch<Batch>> out;
  out.reserve(subs.size());
  for (size_t s = 0; s < subs.size(); ++s) {
    out.emplace_back(slots.targets()[s], std::move(subs[s]));
  }
  return out;
}

/// The merge side of a batch shuffle: one batch of the bucket's sub-batches
/// in bucket order, sized to its exact row count.
template <typename Batch>
Batch MergeSubBatches(const std::vector<SubBatch<Batch>>& in, size_t width) {
  size_t rows = 0;
  for (const auto& kv : in) rows += kv.second->size();
  Batch merged = EmptyBatch<Batch>(width);
  merged.Reserve(rows);
  for (const auto& kv : in) merged.AppendRowsFrom(*kv.second);
  return merged;
}

/// Routes sub-batches to the partition they name.
template <typename Batch>
uint64_t SubBatchTarget(const SubBatch<Batch>& kv) {
  return static_cast<uint64_t>(kv.first);
}

/// Distributes a driver-side table over `n` partitions (one batch each),
/// with the same contiguous slice boundaries spark::Parallelize uses for
/// `rows.size()` records.
spark::Rdd<sparql::IdTable> ParallelizeBatch(spark::SparkContext* sc,
                                             sparql::IdTable rows, int n);

/// Hash-repartitions rows by column `key_col`: row i goes to partition
/// HashValue(row[key_col]) % n — identical placement to keying the row and
/// calling PartitionByKey. The resulting batches carry `info` as their
/// partitioner claim; no-op when the input already claims `info`.
spark::Rdd<sparql::IdTable> RepartitionBatches(
    const spark::Rdd<sparql::IdTable>& rdd, int key_col, int n, size_t width,
    const std::string& name, spark::PartitionerInfo info);

/// Keyed repartition with a caller-chosen routing function over the
/// side-car key (HAQWA's semantic partitioner routes by rdf:type class,
/// not by hash). `target(key) % n` picks the partition.
template <typename TargetFn>
spark::Rdd<KeyedBatch> RepartitionKeyedBy(const spark::Rdd<KeyedBatch>& rdd,
                                          TargetFn target, int n, size_t width,
                                          const std::string& name,
                                          spark::PartitionerInfo info) {
  if (rdd.node()->partitioner() && *rdd.node()->partitioner() == info) {
    return rdd;
  }
  auto split = rdd.MapPartitionsWithIndex(
      [target, n, width](int, const std::vector<KeyedBatch>& in) {
        return SplitByTarget(
            in, n, width, [&target, n](const KeyedBatch& batch, size_t r) {
              return static_cast<int>(target(batch.keys[r]) %
                                      static_cast<uint64_t>(n));
            });
      });
  auto shuffled =
      split.ShuffleBy(SubBatchTarget<KeyedBatch>, n, name, info);
  return shuffled.MapPartitionsWithIndex(
      [width](int, const std::vector<SubBatch<KeyedBatch>>& in) {
        return std::vector<KeyedBatch>{MergeSubBatches(in, width)};
      },
      info);
}

/// Hash-keyed repartition (the PartitionByKey analogue).
spark::Rdd<KeyedBatch> RepartitionKeyed(const spark::Rdd<KeyedBatch>& rdd,
                                        int n, size_t width,
                                        const std::string& name,
                                        spark::PartitionerInfo info);

/// Recomputes every key from row column `key_col` (narrow; drops any
/// partitioner claim — callers re-assert with AssumePartitioner when the
/// placement proof holds).
spark::Rdd<KeyedBatch> RekeyBatches(const spark::Rdd<KeyedBatch>& rdd,
                                    int key_col, size_t width);

/// Hash join of two batch RDDs on row column `key_col` (same schema on
/// both sides), merging matched rows with MergeRowsInto. Mirrors
/// Rdd::Join: co-partitioned inputs zip directly; otherwise both sides
/// repartition to max(partitions); output claims {"hash", n, 0}.
spark::Rdd<sparql::IdTable> JoinBatchesOn(
    spark::SparkContext* sc, const spark::Rdd<sparql::IdTable>& left,
    const spark::Rdd<sparql::IdTable>& right, int key_col, size_t width);

/// Keyed-batch join on the side-car keys. Joined rows keep the probe key.
spark::Rdd<KeyedBatch> JoinKeyedBatches(spark::SparkContext* sc,
                                        const spark::Rdd<KeyedBatch>& left,
                                        const spark::Rdd<KeyedBatch>& right,
                                        size_t width);

/// Joins a keyed-batch RDD against keyed triples (HAQWA replica fast
/// path): each matched triple extends the row under `ep`'s variable
/// bindings after its constant check; conflicting extensions drop.
spark::Rdd<KeyedBatch> JoinKeyedWithTriples(
    spark::SparkContext* sc, const spark::Rdd<KeyedBatch>& left,
    const spark::Rdd<KeyedTriple>& right, const EncodedPattern& ep,
    size_t width);

/// Cartesian merge of two batch RDDs (ln*rn output partitions, one batch
/// each), left-major within a partition pair.
spark::Rdd<sparql::IdTable> CartesianMergeBatches(
    spark::SparkContext* sc, const spark::Rdd<sparql::IdTable>& left,
    const spark::Rdd<sparql::IdTable>& right, size_t width);

/// Keyed cartesian merge; the surviving key is the left row's when
/// `keep_left_key`, else the right row's.
spark::Rdd<KeyedBatch> CartesianMergeKeyed(spark::SparkContext* sc,
                                           const spark::Rdd<KeyedBatch>& left,
                                           const spark::Rdd<KeyedBatch>& right,
                                           bool keep_left_key, size_t width);

/// Collects all batches into one driver-side table (partition order).
sparql::IdTable CollectRows(const spark::Rdd<sparql::IdTable>& rdd,
                            size_t width);

/// Collects a keyed-batch RDD, dropping the keys.
sparql::IdTable CollectKeyedRows(const spark::Rdd<KeyedBatch>& rdd,
                                 size_t width);

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_BATCH_H_
