#include "spark/sql/dataframe.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "spark/shuffle_staging.h"

namespace rdfspark::spark::sql {

namespace {

/// Seed of a key's hash. HashRowKey hashes a key's Values and KeyHashes
/// its cells in place; the two agree cell for cell.
constexpr uint64_t kKeySeed = 0x2545f4914f6cdd1dULL;

uint64_t HashRowKey(const Row& key) {
  uint64_t h = kKeySeed;
  for (const Value& v : key) h = CombineHash64(h, HashValue(v));
  return h;
}

/// Deterministic hash for rows used as group keys. NULLs hash alike,
/// matching SQL GROUP BY semantics.
struct RowHasher {
  size_t operator()(const Row& row) const {
    return static_cast<size_t>(HashRowKey(row));
  }
};

/// HashRowKey of every row's `cols` cells, read in place a column at a
/// time.
std::vector<uint64_t> KeyHashes(const RecordBatch& b,
                                const std::vector<int>& cols) {
  if (b.num_rows == 0) return {};  // The batch may carry no columns.
  std::vector<uint64_t> hashes(b.num_rows, kKeySeed);
  for (int c : cols) {
    b.columns[static_cast<size_t>(c)].CombineHashes(hashes.data());
  }
  return hashes;
}

bool KeyHasNull(const RecordBatch& b, size_t i, const std::vector<int>& cols) {
  for (int c : cols) {
    if (b.columns[static_cast<size_t>(c)].IsNullAt(i)) return true;
  }
  return false;
}

std::string DfPartitionKind(const std::vector<std::string>& columns) {
  std::string kind = "df-hash";
  for (const auto& c : columns) {
    kind += ":";
    kind += c;
  }
  return kind;
}

/// Schema indices of `names`, resolved once per operator.
std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<std::string>& names) {
  std::vector<int> cols;
  cols.reserve(names.size());
  for (const auto& name : names) cols.push_back(schema.Index(name));
  return cols;
}

/// Reads the cells `expr` uses of row `i` into `row`, a buffer as wide as
/// the bound schema that the caller reuses across rows.
void LoadOperands(const RecordBatch& b, size_t i, const BoundExpr& expr,
                  Row* row) {
  for (int c : expr.columns()) {
    auto col = static_cast<size_t>(c);
    b.columns[col].GetInto(i, &(*row)[col]);
  }
}

/// EstimateSize(b.GetRow(i)), without building the Row.
uint64_t RowBytes(const RecordBatch& b, size_t i) {
  uint64_t total = 16;
  for (const Column& c : b.columns) total += c.CellBytes(i);
  return total;
}

/// Appends `src`'s rows `rows`, in order, to `out` (same schema).
void AppendRows(const RecordBatch& src, std::span<const uint32_t> rows,
                RecordBatch* out) {
  if (rows.empty()) return;
  for (size_t c = 0; c < out->columns.size(); ++c) {
    Column& dst = out->columns[c];
    const Column& from = src.columns[c];
    for (uint32_t r : rows) dst.AppendFrom(from, r);
  }
  out->num_rows += rows.size();
}

/// A build-side row of a hash join: (batch, row) within the build batches.
struct RowRef {
  uint32_t batch;
  uint32_t row;
};

/// A hash join's build side, indexed in place by the hash of each row's
/// key cells. Rows whose keys hash alike hang on one chain in build order
/// (a table slot holds a hash's first row and `next_` the rest, as in
/// Rdd::JoinImpl); a probe walks its hash's chain and keeps the rows whose
/// key cells equal its own, so a hash collision is never a match. Rows
/// with a NULL key cell are left out: they never join. The slots are open
/// addressed over a power-of-two table, found by masking the hash.
class JoinIndex {
 public:
  JoinIndex(std::vector<const RecordBatch*> batches, std::vector<int> key_cols)
      : batches_(std::move(batches)), key_cols_(std::move(key_cols)) {
    std::vector<uint64_t> hashes;
    for (size_t b = 0; b < batches_.size(); ++b) {
      const RecordBatch& batch = *batches_[b];
      std::vector<uint64_t> batch_hashes = KeyHashes(batch, key_cols_);
      for (size_t i = 0; i < batch.num_rows; ++i) {
        if (KeyHasNull(batch, i, key_cols_)) continue;
        rows_.push_back(
            RowRef{static_cast<uint32_t>(b), static_cast<uint32_t>(i)});
        hashes.push_back(batch_hashes[i]);
      }
    }
    assert(rows_.size() < kEndOfChain && "build side exceeds row index");
    next_.assign(rows_.size(), kEndOfChain);
    size_t capacity = 1;
    while (capacity < 2 * rows_.size()) capacity *= 2;
    slots_.assign(capacity, Slot{0, kEndOfChain});
    mask_ = capacity - 1;
    // Linked back to front, so a chain walks its rows in build order.
    for (size_t k = rows_.size(); k-- > 0;) {
      Slot& slot = slots_[SlotOf(hashes[k])];
      slot.hash = hashes[k];
      next_[k] = slot.first;
      slot.first = static_cast<uint32_t>(k);
    }
  }

  const RecordBatch& batch(uint32_t b) const { return *batches_[b]; }

  /// Appends the build rows whose key equals row `i` of `probe` over
  /// `probe_cols` to `matches`, in build order; `hash` is the row's key
  /// hash.
  void AppendMatches(const RecordBatch& probe, size_t i,
                     const std::vector<int>& probe_cols, uint64_t hash,
                     std::vector<RowRef>* matches) const {
    if (KeyHasNull(probe, i, probe_cols)) return;
    const Slot& slot = slots_[SlotOf(hash)];
    for (uint32_t k = slot.first; k != kEndOfChain; k = next_[k]) {
      const RecordBatch& build = *batches_[rows_[k].batch];
      bool equal = true;
      for (size_t c = 0; c < probe_cols.size() && equal; ++c) {
        equal = probe.columns[static_cast<size_t>(probe_cols[c])].ValueEquals(
            i, build.columns[static_cast<size_t>(key_cols_[c])], rows_[k].row);
      }
      if (equal) matches->push_back(rows_[k]);
    }
  }

 private:
  static constexpr uint32_t kEndOfChain = UINT32_MAX;
  /// One hash's chain; `first == kEndOfChain` marks a free slot.
  struct Slot {
    uint64_t hash;
    uint32_t first;
  };

  /// The slot holding `hash`, or the free slot where it would go. The
  /// table is at most half full, so the walk ends.
  size_t SlotOf(uint64_t hash) const {
    size_t s = static_cast<size_t>(hash) & mask_;
    while (slots_[s].first != kEndOfChain && slots_[s].hash != hash) {
      s = (s + 1) & mask_;
    }
    return s;
  }

  std::vector<const RecordBatch*> batches_;
  std::vector<int> key_cols_;
  std::vector<RowRef> rows_;  ///< Indexed build rows, in build order.
  std::vector<uint32_t> next_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

/// Probes `in` against `index` and appends the joined rows to `out` (left
/// columns, then build columns): each left row once per match, in build
/// order, or once NULL-padded when a left-outer join finds none. Returns
/// the comparisons charged: max(1, matches) per probe.
uint64_t ProbeRows(const RecordBatch& in, const std::vector<int>& key_cols,
                   const JoinIndex& index, JoinType type, RecordBatch* out) {
  constexpr uint32_t kNoMatch = UINT32_MAX;
  // Matched pairs: left row `left[k].first` appears `left[k].second` times
  // in a row, paired with the next entries of `right` in order.
  std::vector<std::pair<uint32_t, uint32_t>> left;
  std::vector<RowRef> right;
  uint64_t comparisons = 0;
  std::vector<uint64_t> hashes = KeyHashes(in, key_cols);
  for (size_t i = 0; i < in.num_rows; ++i) {
    size_t before = right.size();
    index.AppendMatches(in, i, key_cols, hashes[i], &right);
    auto matches = static_cast<uint32_t>(right.size() - before);
    comparisons += std::max<uint32_t>(1, matches);
    if (matches > 0) {
      left.emplace_back(static_cast<uint32_t>(i), matches);
    } else if (type == JoinType::kLeftOuter) {
      left.emplace_back(static_cast<uint32_t>(i), 1);
      right.push_back(RowRef{kNoMatch, 0});
    }
  }
  if (right.empty()) return comparisons;
  for (Column& col : out->columns) col.Reserve(right.size());
  size_t nl = in.columns.size();
  for (size_t c = 0; c < nl; ++c) {
    for (const auto& [row, times] : left) {
      out->columns[c].AppendFrom(in.columns[c], row, times);
    }
  }
  for (size_t c = nl; c < out->columns.size(); ++c) {
    Column& dst = out->columns[c];
    for (const RowRef& ref : right) {
      if (ref.batch == kNoMatch) {
        dst.Append(Value{});  // Left-outer NULL padding.
      } else {
        dst.AppendFrom(index.batch(ref.batch).columns[c - nl], ref.row);
      }
    }
  }
  out->num_rows += right.size();
  return comparisons;
}

/// A task's output batch as a frame slot. A column-less zero-row batch is
/// the null slot, so the many empty tasks of a wide operator allocate
/// nothing; tasks share their own output, off the driver.
std::shared_ptr<const RecordBatch> ShareBatch(RecordBatch&& batch) {
  if (batch.num_rows == 0 && batch.columns.empty()) return nullptr;
  return std::make_shared<const RecordBatch>(std::move(batch));
}

}  // namespace

DataFrame DataFrame::Make(SparkContext* sc, Schema schema,
                          std::vector<BatchPtr> batches,
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

DataFrame DataFrame::Make(SparkContext* sc, Schema schema,
                          std::vector<RecordBatch> batches,
                          std::optional<PartitionerInfo> partitioner) {
  std::vector<BatchPtr> shared;
  shared.reserve(batches.size());
  for (RecordBatch& b : batches) shared.push_back(ShareBatch(std::move(b)));
  return Make(sc, std::move(schema), std::move(shared),
              std::move(partitioner));
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

const RecordBatch& DataFrame::partition(int p) const {
  static const RecordBatch kNoRows;
  const BatchPtr& b = state_->batches[static_cast<size_t>(p)];
  return b ? *b : kNoRows;
}

uint64_t DataFrame::NumRows() const {
  uint64_t n = 0;
  for (int p = 0; p < num_partitions(); ++p) n += partition(p).num_rows;
  return n;
}

uint64_t DataFrame::EstimatedBytes() const {
  uint64_t n = 0;
  for (int p = 0; p < num_partitions(); ++p) n += partition(p).MemoryBytes();
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
  const Schema& schema = state_->schema;
  std::vector<BoundExpr> bound;
  bound.reserve(projections.size());
  for (const auto& [expr, name] : projections) bound.emplace_back(expr, schema);
  // A resolved column reference copies its column; anything else is
  // evaluated per row.
  std::vector<int> source(projections.size(), -1);
  // Output schema: infer types (column refs keep their type; literals and
  // arithmetic probed on first row).
  std::vector<Field> fields;
  Row buf(schema.num_fields());
  for (size_t k = 0; k < projections.size(); ++k) {
    const Expr& expr = projections[k].first;
    DataType type = DataType::kString;
    if (expr.kind() == ExprKind::kColumn) {
      int idx = schema.Index(expr.column());
      if (idx >= 0) type = schema.field(static_cast<size_t>(idx)).type;
      source[k] = idx;
    } else if (expr.kind() == ExprKind::kLiteral) {
      type = TypeOf(expr.literal());
    } else {
      // Probe with the first available row.
      for (int p = 0; p < num_partitions(); ++p) {
        if (partition(p).num_rows > 0) {
          LoadOperands(partition(p), 0, bound[k], &buf);
          type = TypeOf(bound[k].Eval(buf));
          break;
        }
      }
    }
    fields.push_back(Field{projections[k].second, type});
  }
  Schema out_schema{fields};

  sc->BeginPhase();
  // Partition tasks run concurrently; each writes its own pre-sized slot.
  // Slots start column-less and zero-row, and a task without output rows
  // leaves its slot so: an empty partition costs no column headers.
  std::vector<BatchPtr> batches(state_->batches.size());
  sc->RunParallel(static_cast<int>(state_->batches.size()), [&](int p) {
    const RecordBatch& in = partition(p);
    RecordBatch out;
    if (in.num_rows > 0) {
      out = MakeBatch(out_schema);
      Row row(schema.num_fields());
      for (size_t k = 0; k < bound.size(); ++k) {
        Column& dst = out.columns[k];
        if (source[k] >= 0) {
          dst.AppendRange(in.columns[static_cast<size_t>(source[k])], 0,
                          in.num_rows);
          continue;
        }
        for (size_t i = 0; i < in.num_rows; ++i) {
          LoadOperands(in, i, bound[k], &row);
          dst.Append(bound[k].Eval(row));
        }
      }
      out.num_rows = in.num_rows;
    }
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = ShareBatch(std::move(out));
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
  return Make(state_->sc, Schema{fields}, state_->batches,
              state_->partitioner);
}

DataFrame DataFrame::Filter(const Expr& predicate) const {
  SparkContext* sc = state_->sc;
  BoundExpr bound(predicate, state_->schema);
  sc->BeginPhase();
  std::vector<BatchPtr> batches(state_->batches.size());
  sc->RunParallel(static_cast<int>(state_->batches.size()), [&](int p) {
    const RecordBatch& in = partition(p);
    RecordBatch out;
    if (in.num_rows > 0) {
      out = MakeBatch(state_->schema);
      Row row(state_->schema.num_fields());
      std::vector<uint32_t> kept;
      for (size_t i = 0; i < in.num_rows; ++i) {
        LoadOperands(in, i, bound, &row);
        if (bound.EvalPredicate(row)) kept.push_back(static_cast<uint32_t>(i));
      }
      AppendRows(in, kept, &out);
    }
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = ShareBatch(std::move(out));
  });
  sc->EndPhase();
  return Make(sc, state_->schema, std::move(batches), state_->partitioner);
}

std::vector<RecordBatch> DataFrame::ShuffleRows(
    const std::vector<int>& key_cols, int num_partitions) const {
  SparkContext* sc = state_->sc;
  sc->BeginPhase();
  size_t np = state_->batches.size();
  // Map side runs concurrently: each source partition stages the indices
  // of its rows grouped by target (StageByTarget); the merge below walks
  // sources in partition order, so bucket row order matches the serial
  // path exactly.
  std::vector<StagedRuns> staged(np);
  sc->RunParallel(static_cast<int>(np), [&](int p) {
    const RecordBatch& in = partition(p);
    sc->ChargeTask(p, in.num_rows, 0);
    int src_exec = sc->ExecutorOf(p);
    uint64_t shuffle_bytes = 0, remote_shuffle_bytes = 0;
    uint64_t remote_reads = 0, local_reads = 0;
    std::vector<uint64_t> hashes = KeyHashes(in, key_cols);
    staged[static_cast<size_t>(p)] =
        StageByTarget(in.num_rows, num_partitions, [&](size_t i) {
          int target = static_cast<int>(
              hashes[i] % static_cast<uint64_t>(num_partitions));
          uint64_t bytes = RowBytes(in, i);
          shuffle_bytes += bytes;
          if (sc->ExecutorOf(target) == src_exec) {
            ++local_reads;
            return std::pair<int, uint64_t>(target, 0);
          }
          remote_shuffle_bytes += bytes;
          ++remote_reads;
          return std::pair<int, uint64_t>(target, bytes);
        });
    sc->ChargeShuffleWrite(p, in.num_rows, shuffle_bytes,
                           remote_shuffle_bytes, local_reads, remote_reads);
  });
  std::vector<size_t> totals(static_cast<size_t>(num_partitions), 0);
  std::vector<uint64_t> remote_bytes(static_cast<size_t>(num_partitions), 0);
  for (const StagedRuns& source : staged) {
    source.ForEachRun([&](const StagedRuns::Run& run, size_t begin) {
      auto t = static_cast<size_t>(run.target);
      totals[t] += run.end - begin;
      remote_bytes[t] += run.remote_bytes;
    });
  }
  std::vector<RecordBatch> buckets;
  buckets.reserve(static_cast<size_t>(num_partitions));
  for (size_t t = 0; t < totals.size(); ++t) {
    buckets.push_back(MakeBatch(state_->schema));
    for (Column& col : buckets.back().columns) col.Reserve(totals[t]);
  }
  for (size_t p = 0; p < np; ++p) {
    const StagedRuns& source = staged[p];
    source.ForEachRun([&](const StagedRuns::Run& run, size_t begin) {
      AppendRows(partition(static_cast<int>(p)),
                 std::span<const uint32_t>(source.order)
                     .subspan(begin, run.end - begin),
                 &buckets[static_cast<size_t>(run.target)]);
    });
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
  return Make(state_->sc, state_->schema, state_->batches,
              PartitionerInfo{DfPartitionKind(columns),
                              static_cast<int>(state_->batches.size()), 0});
}

DataFrame DataFrame::PartitionBy(const std::vector<std::string>& columns,
                                 int num_partitions) const {
  SparkContext* sc = state_->sc;
  int n = num_partitions > 0 ? num_partitions
                             : static_cast<int>(state_->batches.size());
  PartitionerInfo info{DfPartitionKind(columns), n, 0};
  if (state_->partitioner && *state_->partitioner == info) return *this;
  auto batches = ShuffleRows(ColumnIndices(state_->schema, columns), n);
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
  for (const Field& f : right.schema().fields()) fields.push_back(f);
  Schema out_schema{fields};

  // Build once (driver side), indexing the right side's rows in place.
  std::vector<const RecordBatch*> build;
  build.reserve(static_cast<size_t>(right.num_partitions()));
  for (int p = 0; p < right.num_partitions(); ++p) {
    build.push_back(&right.partition(p));
  }
  JoinIndex index(std::move(build), std::move(rcols));

  sc->BeginPhase();
  // The build index is read-only from here on; probe tasks share it and
  // each writes its own output slot.
  std::vector<BatchPtr> batches(state_->batches.size());
  sc->RunParallel(static_cast<int>(state_->batches.size()), [&](int p) {
    const RecordBatch& in = partition(p);
    RecordBatch out;
    if (in.num_rows > 0) out = MakeBatch(out_schema);
    uint64_t comparisons = ProbeRows(in, lcols, index, type, &out);
    sc->ChargeJoinComparisons(comparisons);
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = ShareBatch(std::move(out));
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

  std::vector<int> lcols = ColumnIndices(left_part.schema(), lnames);
  std::vector<int> rcols = ColumnIndices(right_part.schema(), rnames);
  std::vector<Field> fields = left_part.schema().fields();
  for (const Field& f : right_part.schema().fields()) fields.push_back(f);
  Schema out_schema{fields};

  sc->BeginPhase();
  // Each task builds and probes its own partition pair — no shared state
  // beyond the (atomic) metric counters.
  std::vector<BatchPtr> batches(
      static_cast<size_t>(left_part.num_partitions()));
  sc->RunParallel(left_part.num_partitions(), [&](int p) {
    const RecordBatch& lb = left_part.partition(p);
    const RecordBatch& rb = right_part.partition(p);
    JoinIndex index({&rb}, rcols);
    RecordBatch out;
    if (lb.num_rows > 0) out = MakeBatch(out_schema);
    uint64_t comparisons = ProbeRows(lb, lcols, index, type, &out);
    sc->ChargeJoinComparisons(comparisons);
    sc->ChargeTask(p, lb.num_rows + rb.num_rows, 0);
    batches[static_cast<size_t>(p)] = ShareBatch(std::move(out));
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
  size_t nl = state_->schema.num_fields();

  sc->BeginPhase();
  // Output partition o pairs left partition o / rn with right partition
  // o % rn — the same enumeration order as the serial nested loops.
  int rn = static_cast<int>(right.state_->batches.size());
  int total = static_cast<int>(state_->batches.size()) * rn;
  std::vector<BatchPtr> batches(static_cast<size_t>(total));
  sc->RunParallel(total, [&](int out_p) {
    int lp = out_p / rn;
    int rp = out_p % rn;
    const RecordBatch& lb = partition(lp);
    const RecordBatch& rb = right.partition(rp);
    RecordBatch out;
    sc->ChargeJoinComparisons(lb.num_rows * rb.num_rows);
    uint64_t remote = 0;
    if (sc->ExecutorOf(out_p) != sc->ExecutorOf(rp)) {
      remote = rb.MemoryBytes();
      sc->ChargeRemoteReads(rb.num_rows);
    }
    if (lb.num_rows > 0 && rb.num_rows > 0) {
      // Row (i, j) of the product is left row i then right row j, i-major:
      // each left cell repeats once per right row, each right column
      // repeats whole once per left row.
      out = MakeBatch(out_schema);
      for (Column& col : out.columns) col.Reserve(lb.num_rows * rb.num_rows);
      for (size_t c = 0; c < nl; ++c) {
        for (size_t i = 0; i < lb.num_rows; ++i) {
          out.columns[c].AppendFrom(lb.columns[c], i, rb.num_rows);
        }
      }
      for (size_t c = nl; c < out.columns.size(); ++c) {
        for (size_t i = 0; i < lb.num_rows; ++i) {
          out.columns[c].AppendRange(rb.columns[c - nl], 0, rb.num_rows);
        }
      }
      out.num_rows = lb.num_rows * rb.num_rows;
    }
    sc->ChargeTask(out_p, lb.num_rows * rb.num_rows, remote);
    batches[static_cast<size_t>(out_p)] = ShareBatch(std::move(out));
  });
  sc->EndPhase();
  return Make(sc, std::move(out_schema), std::move(batches), std::nullopt);
}

DataFrame DataFrame::Union(const DataFrame& other) const {
  std::vector<BatchPtr> batches = state_->batches;
  batches.insert(batches.end(), other.state_->batches.begin(),
                 other.state_->batches.end());
  return Make(state_->sc, state_->schema, std::move(batches), std::nullopt);
}

DataFrame DataFrame::Distinct() const {
  SparkContext* sc = state_->sc;
  int n = num_partitions();
  std::vector<int> all_cols(state_->schema.num_fields());
  for (size_t c = 0; c < all_cols.size(); ++c) {
    all_cols[c] = static_cast<int>(c);
  }
  auto buckets = ShuffleRows(all_cols, n);
  sc->BeginPhase();
  std::vector<BatchPtr> batches(static_cast<size_t>(n));
  sc->RunParallel(n, [&](int p) {
    const RecordBatch& in = buckets[static_cast<size_t>(p)];
    RecordBatch out;
    if (in.num_rows > 0) out = MakeBatch(state_->schema);
    // Rows by index, hashed as whole rows and compared cell by cell: the
    // first occurrence of each distinct row is kept, in bucket order.
    std::vector<uint64_t> hashes = KeyHashes(in, all_cols);
    auto hash = [&](uint32_t i) { return static_cast<size_t>(hashes[i]); };
    auto equal = [&](uint32_t a, uint32_t b) {
      for (const Column& c : in.columns) {
        if (!c.CellsEqual(a, b)) return false;
      }
      return true;
    };
    std::unordered_set<uint32_t, decltype(hash), decltype(equal)> seen(
        0, hash, equal);
    std::vector<uint32_t> kept;
    for (size_t i = 0; i < in.num_rows; ++i) {
      if (seen.insert(static_cast<uint32_t>(i)).second) {
        kept.push_back(static_cast<uint32_t>(i));
      }
    }
    AppendRows(in, kept, &out);
    sc->ChargeTask(p, in.num_rows, 0);
    batches[static_cast<size_t>(p)] = ShareBatch(std::move(out));
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
    const RecordBatch& in = partition(static_cast<int>(p));
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
  for (int p = 0; p < num_partitions(); ++p) {
    const RecordBatch& b = partition(p);
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
  std::vector<int> key_cols = ColumnIndices(state_->schema, keys);
  std::vector<int> agg_cols(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    agg_cols[a] = state_->schema.Index(aggs[a].column);
  }
  int n = num_partitions();
  auto buckets = ShuffleRows(key_cols, n);

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
  std::vector<BatchPtr> batches(static_cast<size_t>(n));
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
        int c = agg_cols[a];
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
            int c = agg_cols[a];
            bool is_int =
                c >= 0 && state_->schema.field(static_cast<size_t>(c)).type ==
                              DataType::kInt64;
            // Built in place: GCC 12 misreads a moved temporary Value's
            // string member as uninitialized here (-Wmaybe-uninitialized).
            if (is_int) {
              row.emplace_back(static_cast<int64_t>(acc.sum));
            } else {
              row.emplace_back(acc.sum);
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
    batches[static_cast<size_t>(p)] = ShareBatch(std::move(out));
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
    const RecordBatch& b = partition(p);
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
    const RecordBatch& b = partition(p);
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
  for (int p = 0; p < num_partitions(); ++p) {
    const RecordBatch& b = partition(p);
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
