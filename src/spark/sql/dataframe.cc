#include "spark/sql/dataframe.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"

namespace rdfspark::spark::sql {

namespace {

/// Deterministic hash/equality for rows used as keys (join keys, group
/// keys, DISTINCT). NULLs compare equal here, matching SQL GROUP BY
/// semantics; join code filters NULL keys out beforehand.
struct RowHasher {
  size_t operator()(const Row& row) const {
    uint64_t h = 0x2545f4914f6cdd1dULL;
    for (const Value& v : row) h = CombineHash64(h, HashValue(v));
    return static_cast<size_t>(h);
  }
};

/// Join-key equality with numeric coercion (2 == 2.0), matching the
/// coercion HashValue applies. NULL keys are filtered out before build, so
/// ValuesEqual's NULL-never-equal is safe here.
struct RowKeyEqual {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!ValuesEqual(a[i], b[i])) return false;
    }
    return true;
  }
};

std::string DfPartitionKind(const std::vector<std::string>& columns) {
  std::string kind = "df-hash";
  for (const auto& c : columns) {
    kind += ":";
    kind += c;
  }
  return kind;
}

uint64_t HashRowKey(const Row& key) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const Value& v : key) h = CombineHash64(h, HashValue(v));
  return h;
}

bool RowHasNullKey(const Row& key) {
  for (const Value& v : key) {
    if (IsNull(v)) return true;
  }
  return false;
}

}  // namespace

DataFrame DataFrame::Make(SparkContext* sc, Schema schema,
                          std::vector<RecordBatch> batches,
                          std::optional<PartitionerInfo> partitioner) {
  auto state = std::make_shared<State>();
  state->sc = sc;
  state->schema = std::move(schema);
  state->batches = std::move(batches);
  state->partitioner = std::move(partitioner);
  DataFrame df;
  df.state_ = std::move(state);
  return df;
}

DataFrame DataFrame::FromRows(SparkContext* sc, Schema schema,
                              const std::vector<Row>& rows,
                              int num_partitions) {
  int n = num_partitions > 0 ? num_partitions
                             : sc->config().default_parallelism;
  std::vector<RecordBatch> batches;
  batches.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) batches.push_back(MakeBatch(schema));
  size_t total = rows.size();
  for (int p = 0; p < n; ++p) {
    size_t begin = total * static_cast<size_t>(p) / static_cast<size_t>(n);
    size_t end =
        total * (static_cast<size_t>(p) + 1) / static_cast<size_t>(n);
    for (size_t i = begin; i < end; ++i) {
      batches[static_cast<size_t>(p)].AppendRow(rows[i]);
    }
  }
  return Make(sc, std::move(schema), std::move(batches), std::nullopt);
}

uint64_t DataFrame::NumRows() const {
  uint64_t n = 0;
  for (const auto& b : state_->batches) n += b.num_rows;
  return n;
}

uint64_t DataFrame::EstimatedBytes() const {
  uint64_t n = 0;
  for (const auto& b : state_->batches) n += b.MemoryBytes();
  return n;
}

uint64_t DataFrame::MemoryFootprint() const { return EstimatedBytes(); }

DataFrame DataFrame::Select(const std::vector<std::string>& columns) const {
  std::vector<std::pair<Expr, std::string>> projections;
  projections.reserve(columns.size());
  for (const auto& c : columns) projections.emplace_back(Col(c), c);
  return SelectExprs(projections);
}

DataFrame DataFrame::SelectExprs(
    const std::vector<std::pair<Expr, std::string>>& projections) const {
  SparkContext* sc = state_->sc;
  // Output schema: infer types (column refs keep their type; literals and
  // arithmetic probed on first row).
  std::vector<Field> fields;
  for (const auto& [expr, name] : projections) {
    DataType type = DataType::kString;
    if (expr.kind() == ExprKind::kColumn) {
      int idx = state_->schema.Index(expr.column());
      if (idx >= 0) type = state_->schema.field(static_cast<size_t>(idx)).type;
    } else if (expr.kind() == ExprKind::kLiteral) {
      type = TypeOf(expr.literal());
    } else {
      // Probe with the first available row.
      for (const auto& b : state_->batches) {
        if (b.num_rows > 0) {
          type = TypeOf(expr.Eval(b.GetRow(0), state_->schema));
          break;
        }
      }
    }
    fields.push_back(Field{name, type});
  }
  Schema out_schema{fields};

  sc->BeginPhase();
  // Partition tasks run concurrently; each writes its own pre-sized slot.
  // Slots start column-less and zero-row, and a task without output rows
  // leaves its slot so: an empty partition costs no column headers.
  std::vector<RecordBatch> batches(state_->batches.size());
  sc->RunParallel(static_cast<int>(state_->batches.size()), [&](int p) {
    const RecordBatch& in = state_->batches[static_cast<size_t>(p)];
    RecordBatch out;
    if (in.num_rows > 0) out = MakeBatch(out_schema);
    for (size_t i = 0; i < in.num_rows; ++i) {
      Row row = in.GetRow(i);
      Row projected;
      projected.reserve(projections.size());
      for (const auto& [expr, name] : projections) {
        projected.push_back(expr.Eval(row, state_->schema));
      }
      out.AppendRow(projected);
    }
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = std::move(out);
  });
  sc->EndPhase();
  // Projection preserves partition placement but may drop partition keys;
  // conservatively keep the partitioner only for pure renames of all its
  // columns — simplest correct choice is to drop it.
  return Make(sc, std::move(out_schema), std::move(batches), std::nullopt);
}

DataFrame DataFrame::Rename(const std::vector<std::string>& names) const {
  std::vector<Field> fields = state_->schema.fields();
  for (size_t i = 0; i < fields.size() && i < names.size(); ++i) {
    fields[i].name = names[i];
  }
  auto state = std::make_shared<State>(*state_);
  state->schema = Schema{fields};
  DataFrame df;
  df.state_ = std::move(state);
  return df;
}

DataFrame DataFrame::Filter(const Expr& predicate) const {
  SparkContext* sc = state_->sc;
  sc->BeginPhase();
  std::vector<RecordBatch> batches(state_->batches.size());
  sc->RunParallel(static_cast<int>(state_->batches.size()), [&](int p) {
    const RecordBatch& in = state_->batches[static_cast<size_t>(p)];
    RecordBatch out;
    if (in.num_rows > 0) out = MakeBatch(state_->schema);
    for (size_t i = 0; i < in.num_rows; ++i) {
      Row row = in.GetRow(i);
      if (predicate.EvalPredicate(row, state_->schema)) out.AppendRow(row);
    }
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = std::move(out);
  });
  sc->EndPhase();
  return Make(sc, state_->schema, std::move(batches), state_->partitioner);
}

template <typename KeyFn>
std::vector<RecordBatch> DataFrame::ShuffleRows(const Schema& out_schema,
                                                int num_partitions,
                                                KeyFn key_of) const {
  SparkContext* sc = state_->sc;
  sc->BeginPhase();
  size_t np = state_->batches.size();
  // Map side runs concurrently: each source partition stages its rows per
  // target in its own slot; the merge below walks sources in partition
  // order, so bucket row order matches the serial path exactly.
  std::vector<std::vector<std::vector<Row>>> staged(np);
  std::vector<std::vector<uint64_t>> staged_remote(np);
  sc->RunParallel(static_cast<int>(np), [&](int p) {
    const RecordBatch& in = state_->batches[static_cast<size_t>(p)];
    sc->ChargeTask(p, in.num_rows, 0);
    int src_exec = sc->ExecutorOf(p);
    auto& rows = staged[static_cast<size_t>(p)];
    rows.resize(static_cast<size_t>(num_partitions));
    auto& remote = staged_remote[static_cast<size_t>(p)];
    remote.assign(static_cast<size_t>(num_partitions), 0);
    uint64_t shuffle_records = 0, shuffle_bytes = 0;
    uint64_t remote_shuffle_bytes = 0, remote_reads = 0, local_reads = 0;
    for (size_t i = 0; i < in.num_rows; ++i) {
      Row row = in.GetRow(i);
      int target = static_cast<int>(key_of(row) %
                                    static_cast<uint64_t>(num_partitions));
      uint64_t bytes = EstimateSize(row);
      ++shuffle_records;
      shuffle_bytes += bytes;
      if (sc->ExecutorOf(target) != src_exec) {
        remote_shuffle_bytes += bytes;
        ++remote_reads;
        remote[static_cast<size_t>(target)] += bytes;
      } else {
        ++local_reads;
      }
      rows[static_cast<size_t>(target)].push_back(std::move(row));
    }
    sc->ChargeShuffleWrite(p, shuffle_records, shuffle_bytes,
                           remote_shuffle_bytes, local_reads, remote_reads);
  });
  std::vector<RecordBatch> buckets;
  buckets.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    buckets.push_back(MakeBatch(out_schema));
  }
  std::vector<uint64_t> remote_bytes(static_cast<size_t>(num_partitions), 0);
  for (size_t p = 0; p < np; ++p) {
    for (int t = 0; t < num_partitions; ++t) {
      for (const Row& row : staged[p][static_cast<size_t>(t)]) {
        buckets[static_cast<size_t>(t)].AppendRow(row);
      }
      remote_bytes[static_cast<size_t>(t)] +=
          staged_remote[p][static_cast<size_t>(t)];
    }
  }
  for (int t = 0; t < num_partitions; ++t) {
    sc->ChargeTask(t, buckets[static_cast<size_t>(t)].num_rows,
                   remote_bytes[static_cast<size_t>(t)]);
  }
  sc->EndPhase();
  return buckets;
}

DataFrame DataFrame::AssumePartitionedBy(
    const std::vector<std::string>& columns) const {
  auto state = std::make_shared<State>(*state_);
  state->partitioner = PartitionerInfo{
      DfPartitionKind(columns), static_cast<int>(state->batches.size()), 0};
  DataFrame df;
  df.state_ = std::move(state);
  return df;
}

DataFrame DataFrame::PartitionBy(const std::vector<std::string>& columns,
                                 int num_partitions) const {
  SparkContext* sc = state_->sc;
  int n = num_partitions > 0 ? num_partitions
                             : static_cast<int>(state_->batches.size());
  PartitionerInfo info{DfPartitionKind(columns), n, 0};
  if (state_->partitioner && *state_->partitioner == info) return *this;
  std::vector<int> key_cols;
  for (const auto& c : columns) key_cols.push_back(state_->schema.Index(c));
  auto batches = ShuffleRows(state_->schema, n, [&](const Row& row) {
    Row key;
    for (int c : key_cols) key.push_back(row[static_cast<size_t>(c)]);
    return HashRowKey(key);
  });
  return Make(sc, state_->schema, std::move(batches), info);
}

DataFrame DataFrame::Join(
    const DataFrame& right,
    const std::vector<std::pair<std::string, std::string>>& keys,
    JoinType type, JoinStrategy strategy) const {
  SparkContext* sc = state_->sc;
  if (strategy == JoinStrategy::kCartesian) {
    // Cartesian + filter (the naive translation).
    DataFrame cross = CrossJoin(right);
    Expr predicate;
    for (const auto& [l, r] : keys) {
      Expr eq = Col(l) == Col(r);
      predicate = predicate.valid() ? (predicate && eq) : eq;
    }
    return predicate.valid() ? cross.Filter(predicate) : cross;
  }
  if (strategy == JoinStrategy::kBroadcast) {
    return BroadcastJoin(right, keys, type);
  }
  if (strategy == JoinStrategy::kAuto) {
    // Spark's rule: broadcast the small side when under the threshold.
    // Left-outer joins can only broadcast the right side.
    uint64_t threshold = sc->config().broadcast_threshold_bytes;
    if (right.EstimatedBytes() <= threshold) {
      return BroadcastJoin(right, keys, type);
    }
    if (type == JoinType::kInner && EstimatedBytes() <= threshold) {
      // Swap sides: broadcast left, preserve output column order after.
      std::vector<std::pair<std::string, std::string>> swapped;
      for (const auto& [l, r] : keys) swapped.emplace_back(r, l);
      DataFrame joined = right.BroadcastJoin(*this, swapped, type);
      // Reorder columns to left-then-right convention.
      std::vector<std::string> order;
      for (const auto& f : state_->schema.fields()) order.push_back(f.name);
      for (const auto& f : joined.schema().fields()) {
        if (std::find(order.begin(), order.end(), f.name) == order.end()) {
          order.push_back(f.name);
        }
      }
      return joined.Select(order);
    }
  }
  return ShuffleHashJoin(right, keys, type);
}

DataFrame DataFrame::BroadcastJoin(
    const DataFrame& right,
    const std::vector<std::pair<std::string, std::string>>& keys,
    JoinType type) const {
  SparkContext* sc = state_->sc;
  // Replicate the right side to every executor.
  sc->ChargeBroadcastBytes(right.EstimatedBytes());

  std::vector<int> lcols, rcols;
  for (const auto& [l, r] : keys) {
    lcols.push_back(state_->schema.Index(l));
    rcols.push_back(right.schema().Index(r));
  }
  // Output schema: all left columns then all right columns (callers keep
  // names unique by qualification, as SQL aliases do).
  std::vector<Field> fields = state_->schema.fields();
  std::vector<int> right_keep;
  for (size_t i = 0; i < right.schema().num_fields(); ++i) {
    right_keep.push_back(static_cast<int>(i));
    fields.push_back(right.schema().field(i));
  }
  Schema out_schema{fields};

  // Build once (driver side).
  std::unordered_map<Row, std::vector<Row>, RowHasher, RowKeyEqual> build;
  for (const auto& b : right.state_->batches) {
    for (size_t i = 0; i < b.num_rows; ++i) {
      Row row = b.GetRow(i);
      Row key;
      for (int c : rcols) key.push_back(row[static_cast<size_t>(c)]);
      if (RowHasNullKey(key)) continue;
      build[std::move(key)].push_back(std::move(row));
    }
  }

  sc->BeginPhase();
  // The build table is read-only from here on; probe tasks share it and
  // each writes its own output slot.
  std::vector<RecordBatch> batches(state_->batches.size());
  sc->RunParallel(static_cast<int>(state_->batches.size()), [&](int p) {
    const RecordBatch& in = state_->batches[static_cast<size_t>(p)];
    RecordBatch out;
    if (in.num_rows > 0) out = MakeBatch(out_schema);
    uint64_t comparisons = 0;
    for (size_t i = 0; i < in.num_rows; ++i) {
      Row row = in.GetRow(i);
      Row key;
      for (int c : lcols) key.push_back(row[static_cast<size_t>(c)]);
      ++comparisons;
      auto it = RowHasNullKey(key) ? build.end() : build.find(key);
      if (it != build.end()) {
        comparisons += it->second.size() - 1;
        for (const Row& rrow : it->second) {
          Row combined = row;
          for (int c : right_keep) {
            combined.push_back(rrow[static_cast<size_t>(c)]);
          }
          out.AppendRow(combined);
        }
      } else if (type == JoinType::kLeftOuter) {
        Row combined = row;
        combined.resize(out_schema.num_fields());
        out.AppendRow(combined);
      }
    }
    sc->ChargeJoinComparisons(comparisons);
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = std::move(out);
  });
  sc->EndPhase();
  return Make(sc, std::move(out_schema), std::move(batches),
              state_->partitioner);
}

DataFrame DataFrame::ShuffleHashJoin(
    const DataFrame& right,
    const std::vector<std::pair<std::string, std::string>>& keys,
    JoinType type) const {
  SparkContext* sc = state_->sc;
  std::vector<std::string> lnames, rnames;
  for (const auto& [l, r] : keys) {
    lnames.push_back(l);
    rnames.push_back(r);
  }
  int n = std::max(num_partitions(), right.num_partitions());

  // Co-partitioned fast path.
  PartitionerInfo linfo{DfPartitionKind(lnames), num_partitions(), 0};
  PartitionerInfo rinfo{DfPartitionKind(rnames), right.num_partitions(), 0};
  bool copartitioned = state_->partitioner && right.partitioner() &&
                       *state_->partitioner == linfo &&
                       *right.partitioner() == rinfo &&
                       num_partitions() == right.num_partitions();
  DataFrame left_part = copartitioned ? *this : PartitionBy(lnames, n);
  DataFrame right_part =
      copartitioned ? right : right.PartitionBy(rnames, n);

  std::vector<int> lcols, rcols;
  for (const auto& [l, r] : keys) {
    lcols.push_back(left_part.schema().Index(l));
    rcols.push_back(right_part.schema().Index(r));
  }
  std::vector<Field> fields = left_part.schema().fields();
  std::vector<int> right_keep;
  for (size_t i = 0; i < right_part.schema().num_fields(); ++i) {
    right_keep.push_back(static_cast<int>(i));
    fields.push_back(right_part.schema().field(i));
  }
  Schema out_schema{fields};

  sc->BeginPhase();
  // Each task builds and probes its own partition pair — no shared state
  // beyond the (atomic) metric counters.
  std::vector<RecordBatch> batches(
      static_cast<size_t>(left_part.num_partitions()));
  sc->RunParallel(left_part.num_partitions(), [&](int p) {
    const RecordBatch& lb =
        left_part.state_->batches[static_cast<size_t>(p)];
    const RecordBatch& rb =
        right_part.state_->batches[static_cast<size_t>(p)];
    std::unordered_map<Row, std::vector<Row>, RowHasher, RowKeyEqual> build;
    for (size_t i = 0; i < rb.num_rows; ++i) {
      Row row = rb.GetRow(i);
      Row key;
      for (int c : rcols) key.push_back(row[static_cast<size_t>(c)]);
      if (RowHasNullKey(key)) continue;
      build[std::move(key)].push_back(std::move(row));
    }
    RecordBatch out;
    if (lb.num_rows > 0) out = MakeBatch(out_schema);
    uint64_t comparisons = 0;
    for (size_t i = 0; i < lb.num_rows; ++i) {
      Row row = lb.GetRow(i);
      Row key;
      for (int c : lcols) key.push_back(row[static_cast<size_t>(c)]);
      ++comparisons;
      auto it = RowHasNullKey(key) ? build.end() : build.find(key);
      if (it != build.end()) {
        comparisons += it->second.size() - 1;
        for (const Row& rrow : it->second) {
          Row combined = row;
          for (int c : right_keep) {
            combined.push_back(rrow[static_cast<size_t>(c)]);
          }
          out.AppendRow(combined);
        }
      } else if (type == JoinType::kLeftOuter) {
        Row combined = row;
        combined.resize(out_schema.num_fields());
        out.AppendRow(combined);
      }
    }
    sc->ChargeJoinComparisons(comparisons);
    sc->ChargeTask(p, lb.num_rows + rb.num_rows, 0);
    batches[static_cast<size_t>(p)] = std::move(out);
  });
  sc->EndPhase();
  return Make(sc, std::move(out_schema), std::move(batches),
              PartitionerInfo{DfPartitionKind(lnames),
                              left_part.num_partitions(), 0});
}

DataFrame DataFrame::CrossJoin(const DataFrame& right) const {
  SparkContext* sc = state_->sc;
  std::vector<Field> fields = state_->schema.fields();
  for (const auto& f : right.schema().fields()) fields.push_back(f);
  Schema out_schema{fields};

  sc->BeginPhase();
  // Output partition o pairs left partition o / rn with right partition
  // o % rn — the same enumeration order as the serial nested loops.
  int rn = static_cast<int>(right.state_->batches.size());
  int total = static_cast<int>(state_->batches.size()) * rn;
  std::vector<RecordBatch> batches(static_cast<size_t>(total));
  sc->RunParallel(total, [&](int out_p) {
    int lp = out_p / rn;
    int rp = out_p % rn;
    const RecordBatch& lb = state_->batches[static_cast<size_t>(lp)];
    const RecordBatch& rb = right.state_->batches[static_cast<size_t>(rp)];
    RecordBatch out;
    if (lb.num_rows > 0 && rb.num_rows > 0) out = MakeBatch(out_schema);
    sc->ChargeJoinComparisons(lb.num_rows * rb.num_rows);
    uint64_t remote = 0;
    if (sc->ExecutorOf(out_p) != sc->ExecutorOf(rp)) {
      remote = rb.MemoryBytes();
      sc->ChargeRemoteReads(rb.num_rows);
    }
    for (size_t i = 0; i < lb.num_rows; ++i) {
      Row lrow = lb.GetRow(i);
      for (size_t j = 0; j < rb.num_rows; ++j) {
        Row combined = lrow;
        Row rrow = rb.GetRow(j);
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        out.AppendRow(combined);
      }
    }
    sc->ChargeTask(out_p, lb.num_rows * rb.num_rows, remote);
    batches[static_cast<size_t>(out_p)] = std::move(out);
  });
  sc->EndPhase();
  return Make(sc, std::move(out_schema), std::move(batches), std::nullopt);
}

DataFrame DataFrame::Union(const DataFrame& other) const {
  std::vector<RecordBatch> batches = state_->batches;
  for (const auto& b : other.state_->batches) batches.push_back(b);
  return Make(state_->sc, state_->schema, std::move(batches), std::nullopt);
}

DataFrame DataFrame::Distinct() const {
  SparkContext* sc = state_->sc;
  int n = num_partitions();
  auto buckets =
      ShuffleRows(state_->schema, n, [](const Row& row) {
        return HashRowKey(row);
      });
  sc->BeginPhase();
  std::vector<RecordBatch> batches(static_cast<size_t>(n));
  sc->RunParallel(n, [&](int p) {
    const RecordBatch& in = buckets[static_cast<size_t>(p)];
    RecordBatch out;
    if (in.num_rows > 0) out = MakeBatch(state_->schema);
    std::unordered_set<Row, RowHasher> seen;
    for (size_t i = 0; i < in.num_rows; ++i) {
      Row row = in.GetRow(i);
      if (seen.insert(row).second) out.AppendRow(row);
    }
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = std::move(out);
  });
  sc->EndPhase();
  return Make(sc, state_->schema, std::move(batches), std::nullopt);
}

DataFrame DataFrame::Sort(
    const std::vector<std::pair<std::string, bool>>& keys) const {
  SparkContext* sc = state_->sc;
  // Global sort: gather (charged as an all-to-one shuffle), sort, split.
  std::vector<Row> rows;
  sc->BeginPhase();
  for (size_t p = 0; p < state_->batches.size(); ++p) {
    const RecordBatch& in = state_->batches[p];
    uint64_t bytes = in.MemoryBytes();
    sc->ChargeShuffleWrite(static_cast<int>(p), in.num_rows, bytes, bytes,
                           0, 0);
    sc->ChargeTask(static_cast<int>(p), in.num_rows, bytes);
    for (size_t i = 0; i < in.num_rows; ++i) rows.push_back(in.GetRow(i));
  }
  sc->EndPhase();

  std::vector<std::pair<int, bool>> cols;
  for (const auto& [name, asc] : keys) {
    cols.emplace_back(state_->schema.Index(name), asc);
  }
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const auto& [c, asc] : cols) {
      if (c < 0) continue;
      const Value& va = a[static_cast<size_t>(c)];
      const Value& vb = b[static_cast<size_t>(c)];
      if (IsNull(va) && IsNull(vb)) continue;
      if (IsNull(va)) return asc;  // NULLs first ascending
      if (IsNull(vb)) return !asc;
      auto cmp = CompareValues(va, vb);
      if (!cmp.ok() || *cmp == 0) continue;
      return asc ? *cmp < 0 : *cmp > 0;
    }
    return false;
  });
  DataFrame out =
      FromRows(sc, state_->schema, rows, num_partitions());
  return out;
}

DataFrame DataFrame::Limit(int64_t n) const {
  std::vector<Row> rows;
  for (const auto& b : state_->batches) {
    for (size_t i = 0; i < b.num_rows; ++i) {
      if (static_cast<int64_t>(rows.size()) >= n) break;
      rows.push_back(b.GetRow(i));
    }
  }
  return FromRows(state_->sc, state_->schema, rows, 1);
}

DataFrame DataFrame::GroupByAgg(const std::vector<std::string>& keys,
                                const std::vector<AggSpec>& aggs) const {
  SparkContext* sc = state_->sc;
  std::vector<int> key_cols;
  for (const auto& k : keys) key_cols.push_back(state_->schema.Index(k));
  int n = num_partitions();
  auto buckets = ShuffleRows(state_->schema, n, [&](const Row& row) {
    Row key;
    for (int c : key_cols) key.push_back(row[static_cast<size_t>(c)]);
    return HashRowKey(key);
  });

  // Output schema: keys then aggregates.
  std::vector<Field> fields;
  for (const auto& k : keys) {
    int idx = state_->schema.Index(k);
    fields.push_back(state_->schema.field(static_cast<size_t>(idx)));
  }
  for (const auto& a : aggs) {
    DataType t = DataType::kInt64;
    if (a.op == AggOp::kAvg) {
      t = DataType::kDouble;
    } else if (a.op != AggOp::kCount) {
      int idx = state_->schema.Index(a.column);
      if (idx >= 0) t = state_->schema.field(static_cast<size_t>(idx)).type;
    }
    fields.push_back(Field{a.alias, t});
  }
  Schema out_schema{fields};

  struct Acc {
    uint64_t count = 0;
    double sum = 0;
    Value min, max;
  };

  sc->BeginPhase();
  std::vector<RecordBatch> batches(static_cast<size_t>(n));
  sc->RunParallel(n, [&](int p) {
    const RecordBatch& in = buckets[static_cast<size_t>(p)];
    std::unordered_map<Row, std::vector<Acc>, RowHasher> groups;
    for (size_t i = 0; i < in.num_rows; ++i) {
      Row row = in.GetRow(i);
      Row key;
      for (int c : key_cols) key.push_back(row[static_cast<size_t>(c)]);
      auto& accs = groups[key];
      if (accs.empty()) accs.resize(aggs.size());
      for (size_t a = 0; a < aggs.size(); ++a) {
        Acc& acc = accs[a];
        ++acc.count;
        if (aggs[a].op == AggOp::kCount) continue;
        int c = state_->schema.Index(aggs[a].column);
        if (c < 0) continue;
        const Value& v = row[static_cast<size_t>(c)];
        if (IsNull(v)) continue;
        if (TypeOf(v) == DataType::kInt64) {
          acc.sum += static_cast<double>(std::get<int64_t>(v));
        } else if (TypeOf(v) == DataType::kDouble) {
          acc.sum += std::get<double>(v);
        }
        if (IsNull(acc.min) || (CompareValues(v, acc.min).ok() &&
                                *CompareValues(v, acc.min) < 0)) {
          acc.min = v;
        }
        if (IsNull(acc.max) || (CompareValues(v, acc.max).ok() &&
                                *CompareValues(v, acc.max) > 0)) {
          acc.max = v;
        }
      }
    }
    RecordBatch out;
    if (!groups.empty()) out = MakeBatch(out_schema);
    for (const auto& [key, accs] : groups) {
      Row row = key;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Acc& acc = accs[a];
        switch (aggs[a].op) {
          case AggOp::kCount:
            row.push_back(static_cast<int64_t>(acc.count));
            break;
          case AggOp::kSum: {
            int c = state_->schema.Index(aggs[a].column);
            bool is_int =
                c >= 0 && state_->schema.field(static_cast<size_t>(c)).type ==
                              DataType::kInt64;
            if (is_int) {
              row.push_back(static_cast<int64_t>(acc.sum));
            } else {
              row.push_back(acc.sum);
            }
            break;
          }
          case AggOp::kMin:
            row.push_back(acc.min);
            break;
          case AggOp::kMax:
            row.push_back(acc.max);
            break;
          case AggOp::kAvg:
            row.push_back(acc.count ? acc.sum / double(acc.count) : 0.0);
            break;
        }
      }
      out.AppendRow(row);
    }
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = std::move(out);
  });
  sc->EndPhase();
  return Make(sc, std::move(out_schema), std::move(batches), std::nullopt);
}

std::vector<Row> DataFrame::Collect() const {
  SparkContext* sc = state_->sc;
  sc->RecordJob();
  sc->BeginPhase();
  size_t np = state_->batches.size();
  // Scan tasks run concurrently; the merge walks slots in partition order.
  std::vector<std::vector<Row>> parts(np);
  sc->RunParallel(static_cast<int>(np), [&](int p) {
    const RecordBatch& b = state_->batches[static_cast<size_t>(p)];
    sc->ChargeTask(p, b.num_rows, b.MemoryBytes());
    auto& slot = parts[static_cast<size_t>(p)];
    slot.reserve(b.num_rows);
    for (size_t i = 0; i < b.num_rows; ++i) slot.push_back(b.GetRow(i));
  });
  sc->EndPhase();
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<Row> rows;
  rows.reserve(total);
  for (auto& part : parts) {
    for (auto& row : part) rows.push_back(std::move(row));
  }
  return rows;
}

uint64_t DataFrame::Count() const {
  SparkContext* sc = state_->sc;
  sc->RecordJob();
  sc->BeginPhase();
  size_t np = state_->batches.size();
  std::vector<uint64_t> sizes(np, 0);
  sc->RunParallel(static_cast<int>(np), [&](int p) {
    const RecordBatch& b = state_->batches[static_cast<size_t>(p)];
    sc->ChargeTask(p, b.num_rows, 0);
    sizes[static_cast<size_t>(p)] = b.num_rows;
  });
  sc->EndPhase();
  uint64_t n = 0;
  for (uint64_t s : sizes) n += s;
  return n;
}

std::string DataFrame::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << state_->schema.ToString() << "\n";
  size_t shown = 0;
  for (const auto& b : state_->batches) {
    for (size_t i = 0; i < b.num_rows; ++i) {
      if (shown++ >= max_rows) {
        os << "... (" << NumRows() << " rows total)\n";
        return os.str();
      }
      Row row = b.GetRow(i);
      for (size_t c = 0; c < row.size(); ++c) {
        os << (c ? "\t" : "") << ValueToString(row[c]);
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace rdfspark::spark::sql
