#include "systems/batch.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "spark/hb.h"
#include "spark/value_hash.h"

namespace rdfspark::systems {

namespace {

using rdf::TermId;
using sparql::IdTable;

/// Per-key row buckets over one batch, insertion-ordered within a bucket so
/// probes emit matches in build order (the order Rdd::Join produced them).
std::unordered_map<TermId, std::vector<size_t>> BuildBuckets(
    const IdTable& rows, int key_col) {
  std::unordered_map<TermId, std::vector<size_t>> build;
  build.reserve(rows.size() * 2 + 1);
  for (size_t r = 0; r < rows.size(); ++r) {
    build[rows.cell(r, static_cast<size_t>(key_col))].push_back(r);
  }
  return build;
}

std::unordered_map<TermId, std::vector<size_t>> BuildKeyBuckets(
    const std::vector<TermId>& keys) {
  std::unordered_map<TermId, std::vector<size_t>> build;
  build.reserve(keys.size() * 2 + 1);
  for (size_t r = 0; r < keys.size(); ++r) build[keys[r]].push_back(r);
  return build;
}

}  // namespace

spark::Rdd<IdTable> ParallelizeBatch(spark::SparkContext* sc, IdTable rows,
                                     int n) {
  return spark::Parallelize(sc, rows.SplitRows(n), n);
}

spark::Rdd<IdTable> RepartitionBatches(const spark::Rdd<IdTable>& rdd,
                                       int key_col, int n, size_t width,
                                       const std::string& name,
                                       spark::PartitionerInfo info) {
  if (rdd.node()->partitioner() && *rdd.node()->partitioner() == info) {
    return rdd;
  }
  // Tier C identity of this repartition's cross-partition hand-off: split
  // tasks write sub-batches into the target buffers, merge tasks read them.
  // The ShuffleState publication barrier between the two stages is what
  // orders the pairs — the checker validates that chain end to end.
  const int64_t hb_id = spark::hb::AssignWindowId();
  auto split = rdd.MapPartitionsWithIndex(
      [key_col, n, width, hb_id](int, const std::vector<IdTable>& in) {
        auto out = SplitByTarget(
            in, n, width, [key_col, n](const IdTable& batch, size_t r) {
              uint64_t h = spark::HashValue(
                  batch.cell(r, static_cast<size_t>(key_col)));
              return static_cast<int>(h % static_cast<uint64_t>(n));
            });
        // Sibling split tasks append sub-batches for the same target
        // partition; the append itself is serialized by the shuffle
        // layer's bucket mutex (an atomic enqueue), so only the hand-off
        // to the plain merge-side read below needs the publication
        // barrier — that write→barrier→read chain is what Tier C checks.
        for (const auto& kv : out) {
          spark::hb::RecordAccess(spark::hb::BatchBufferObject(hb_id, kv.first),
                                  spark::hb::Access::kAtomicWrite,
                                  "RepartitionBatches.split");
        }
        return out;
      });
  auto shuffled = split.ShuffleBy(SubBatchTarget<IdTable>, n, name, info);
  return shuffled.MapPartitionsWithIndex(
      [width, hb_id](int p, const std::vector<SubBatch<IdTable>>& in) {
        spark::hb::RecordAccess(spark::hb::BatchBufferObject(hb_id, p),
                                spark::hb::Access::kRead,
                                "RepartitionBatches.merge");
        return std::vector<IdTable>{MergeSubBatches(in, width)};
      },
      info);
}

spark::Rdd<KeyedBatch> RepartitionKeyed(const spark::Rdd<KeyedBatch>& rdd,
                                        int n, size_t width,
                                        const std::string& name,
                                        spark::PartitionerInfo info) {
  return RepartitionKeyedBy(
      rdd, [](TermId key) { return spark::HashValue(key); }, n, width, name,
      info);
}

spark::Rdd<KeyedBatch> RekeyBatches(const spark::Rdd<KeyedBatch>& rdd,
                                    int key_col, size_t width) {
  return rdd.Map([key_col, width](const KeyedBatch& batch) {
    KeyedBatch out{{}, IdTable(width)};
    out.keys.reserve(batch.rows.size());
    for (size_t r = 0; r < batch.rows.size(); ++r) {
      out.keys.push_back(batch.rows.cell(r, static_cast<size_t>(key_col)));
    }
    out.rows = batch.rows;
    return out;
  });
}

spark::Rdd<IdTable> JoinBatchesOn(spark::SparkContext* sc,
                                  const spark::Rdd<IdTable>& left,
                                  const spark::Rdd<IdTable>& right,
                                  int key_col, size_t width) {
  int n = std::max(left.node()->num_partitions(),
                   right.node()->num_partitions());
  bool copartitioned =
      left.node()->partitioner() && right.node()->partitioner() &&
      *left.node()->partitioner() == *right.node()->partitioner();
  spark::PartitionerInfo info{"hash", n, 0};
  auto l = copartitioned
               ? left
               : RepartitionBatches(left, key_col, n, width, "PartitionByKey",
                                    info);
  auto r = copartitioned
               ? right
               : RepartitionBatches(right, key_col, n, width, "PartitionByKey",
                                    info);
  // Engines historically merged join pairs through a claim-dropping FlatMap
  // and re-asserted placement with AssumePartitioner; emit claimless output
  // so downstream shuffle decisions match the per-element path exactly.
  return l.ZipPartitions(
      r,
      [sc, key_col, width](int, const std::vector<IdTable>& lin,
                           const std::vector<IdTable>& rin) {
        IdTable out(width);
        uint64_t comparisons = 0;
        for (const IdTable& lb : lin) {
          for (const IdTable& rb : rin) {
            auto build = BuildBuckets(rb, key_col);
            for (size_t i = 0; i < lb.size(); ++i) {
              auto it = build.find(lb.cell(i, static_cast<size_t>(key_col)));
              ++comparisons;
              if (it == build.end()) continue;
              comparisons += it->second.size() - 1;
              for (size_t j : it->second) {
                MergeRowsInto(lb.row(i), rb.row(j), &out);
              }
            }
          }
        }
        sc->ChargeJoinComparisons(comparisons);
        return std::vector<IdTable>{std::move(out)};
      });
}

spark::Rdd<KeyedBatch> JoinKeyedBatches(spark::SparkContext* sc,
                                        const spark::Rdd<KeyedBatch>& left,
                                        const spark::Rdd<KeyedBatch>& right,
                                        size_t width) {
  int n = std::max(left.node()->num_partitions(),
                   right.node()->num_partitions());
  bool copartitioned =
      left.node()->partitioner() && right.node()->partitioner() &&
      *left.node()->partitioner() == *right.node()->partitioner();
  spark::PartitionerInfo info{"hash", n, 0};
  auto l = copartitioned
               ? left
               : RepartitionKeyed(left, n, width, "PartitionByKey", info);
  auto r = copartitioned
               ? right
               : RepartitionKeyed(right, n, width, "PartitionByKey", info);
  return l.ZipPartitions(
      r,
      [sc, width](int, const std::vector<KeyedBatch>& lin,
                  const std::vector<KeyedBatch>& rin) {
        KeyedBatch out{{}, IdTable(width)};
        uint64_t comparisons = 0;
        for (const KeyedBatch& lb : lin) {
          for (const KeyedBatch& rb : rin) {
            auto build = BuildKeyBuckets(rb.keys);
            for (size_t i = 0; i < lb.rows.size(); ++i) {
              auto it = build.find(lb.keys[i]);
              ++comparisons;
              if (it == build.end()) continue;
              comparisons += it->second.size() - 1;
              for (size_t j : it->second) {
                if (MergeRowsInto(lb.rows.row(i), rb.rows.row(j),
                                  &out.rows)) {
                  out.keys.push_back(lb.keys[i]);
                }
              }
            }
          }
        }
        sc->ChargeJoinComparisons(comparisons);
        return std::vector<KeyedBatch>{std::move(out)};
      });
}

spark::Rdd<KeyedBatch> JoinKeyedWithTriples(
    spark::SparkContext* sc, const spark::Rdd<KeyedBatch>& left,
    const spark::Rdd<KeyedTriple>& right, const EncodedPattern& ep,
    size_t width) {
  int n = std::max(left.node()->num_partitions(),
                   right.node()->num_partitions());
  bool copartitioned =
      left.node()->partitioner() && right.node()->partitioner() &&
      *left.node()->partitioner() == *right.node()->partitioner();
  spark::PartitionerInfo info{"hash", n, 0};
  auto l = copartitioned
               ? left
               : RepartitionKeyed(left, n, width, "PartitionByKey", info);
  auto r = copartitioned ? right : right.PartitionByKey(n);
  return l.ZipPartitions(
      r,
      [sc, ep, width](int, const std::vector<KeyedBatch>& lin,
                      const std::vector<KeyedTriple>& rin) {
        std::unordered_map<TermId, std::vector<size_t>> build;
        build.reserve(rin.size() * 2 + 1);
        for (size_t j = 0; j < rin.size(); ++j) {
          build[rin[j].first].push_back(j);
        }
        KeyedBatch out{{}, IdTable(width)};
        uint64_t comparisons = 0;
        for (const KeyedBatch& lb : lin) {
          for (size_t i = 0; i < lb.rows.size(); ++i) {
            auto it = build.find(lb.keys[i]);
            ++comparisons;
            if (it == build.end()) continue;
            comparisons += it->second.size() - 1;
            for (size_t j : it->second) {
              if (AppendMatch(ep, rin[j].second, lb.rows.row(i),
                              &out.rows)) {
                out.keys.push_back(lb.keys[i]);
              }
            }
          }
        }
        sc->ChargeJoinComparisons(comparisons);
        return std::vector<KeyedBatch>{std::move(out)};
      });
}

spark::Rdd<IdTable> CartesianMergeBatches(spark::SparkContext* sc,
                                          const spark::Rdd<IdTable>& left,
                                          const spark::Rdd<IdTable>& right,
                                          size_t width) {
  return left.Cartesian(right).MapPartitionsWithIndex(
      [sc, width](int, const std::vector<std::pair<IdTable, IdTable>>& in) {
        // Every pair merges unless a shared variable conflicts, so the
        // product is the output's exact size in the cartesian case.
        size_t product = 0;
        for (const auto& ab : in) product += ab.first.size() * ab.second.size();
        IdTable out(width);
        out.Reserve(product);
        for (const auto& ab : in) {
          sc->ChargeJoinComparisons(ab.first.size() * ab.second.size());
          for (size_t i = 0; i < ab.first.size(); ++i) {
            for (size_t j = 0; j < ab.second.size(); ++j) {
              MergeRowsInto(ab.first.row(i), ab.second.row(j), &out);
            }
          }
        }
        return std::vector<IdTable>{std::move(out)};
      });
}

spark::Rdd<KeyedBatch> CartesianMergeKeyed(spark::SparkContext* sc,
                                           const spark::Rdd<KeyedBatch>& left,
                                           const spark::Rdd<KeyedBatch>& right,
                                           bool keep_left_key, size_t width) {
  return left.Cartesian(right).MapPartitionsWithIndex(
      [sc, keep_left_key, width](
          int, const std::vector<std::pair<KeyedBatch, KeyedBatch>>& in) {
        size_t product = 0;
        for (const auto& ab : in) product += ab.first.size() * ab.second.size();
        KeyedBatch out{{}, IdTable(width)};
        out.Reserve(product);
        for (const auto& ab : in) {
          sc->ChargeJoinComparisons(ab.first.rows.size() *
                                    ab.second.rows.size());
          for (size_t i = 0; i < ab.first.rows.size(); ++i) {
            for (size_t j = 0; j < ab.second.rows.size(); ++j) {
              if (MergeRowsInto(ab.first.rows.row(i), ab.second.rows.row(j),
                                &out.rows)) {
                out.keys.push_back(keep_left_key ? ab.first.keys[i]
                                                 : ab.second.keys[j]);
              }
            }
          }
        }
        return std::vector<KeyedBatch>{std::move(out)};
      });
}

sparql::IdTable CollectRows(const spark::Rdd<IdTable>& rdd, size_t width) {
  IdTable out(width);
  for (const IdTable& batch : rdd.Collect()) {
    if (batch.empty()) continue;
    out.AppendRowsFrom(batch);
  }
  return out;
}

sparql::IdTable CollectKeyedRows(const spark::Rdd<KeyedBatch>& rdd,
                                 size_t width) {
  IdTable out(width);
  for (const KeyedBatch& batch : rdd.Collect()) {
    if (batch.rows.empty()) continue;
    out.AppendRowsFrom(batch.rows);
  }
  return out;
}

}  // namespace rdfspark::systems
