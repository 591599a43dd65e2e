#ifndef RDFSPARK_SPARK_RDD_H_
#define RDFSPARK_SPARK_RDD_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "spark/context.h"
#include "spark/hb.h"
#include "spark/shuffle_staging.h"
#include "spark/size_estimator.h"
#include "spark/value_hash.h"

namespace rdfspark::spark {

/// Type-erased lineage node. Holds everything the DAG visualizer, the
/// lineage analyzer (spark/lineage.h) and the failure-injection tests need
/// without knowing the element type: parent edges, the narrow/wide
/// dependency kind (is_shuffle), the partitioner identity and the cached
/// flag.
class RddNodeBase {
 public:
  RddNodeBase(int id, std::string name, int num_partitions, bool is_shuffle)
      : id_(id),
        name_(std::move(name)),
        num_partitions_(num_partitions),
        is_shuffle_(is_shuffle) {}
  virtual ~RddNodeBase() = default;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  int num_partitions() const { return num_partitions_; }
  bool is_shuffle() const { return is_shuffle_; }
  const std::vector<std::shared_ptr<RddNodeBase>>& parents() const {
    return parents_;
  }
  void AddParent(std::shared_ptr<RddNodeBase> p) {
    parents_.push_back(std::move(p));
  }

  const std::optional<PartitionerInfo>& partitioner() const {
    return partitioner_;
  }
  void set_partitioner(PartitionerInfo info) { partitioner_ = std::move(info); }

  /// Whether computed partitions are retained (Spark's persist bit). True
  /// by default — the simulator historically persists everything — unless
  /// the owning context was configured with retain_uncached_rdds = false,
  /// in which case only nodes explicitly marked via Rdd::Cache() retain.
  /// Atomic so Uncache() may race pooled partition tasks (TSan-covered;
  /// the HB checker additionally proves the ordering logically — the
  /// RDFSPARK_MUTATE_CACHED_PLAIN build downgrades this flag to a plain
  /// bool, together with its access events, to validate that RC003 fires).
  bool cached() const {
    hb::RecordAccess(hb::CacheFlagObject(id_), kFlagRead, "cached");
#ifdef RDFSPARK_MUTATE_CACHED_PLAIN
    return cached_;
#else
    return cached_.load(std::memory_order_acquire);
#endif
  }
  void SetCached(bool cached) {
    hb::RecordAccess(hb::CacheFlagObject(id_), kFlagWrite, "SetCached");
    StoreCached(cached);
  }

  /// Clears the cached flag and drops every retained partition. Safe to
  /// call concurrently with actions: partitions compute under per-slot
  /// locks, and a task that re-reads an evicted slot recomputes it from
  /// lineage (the same contract as EvictPartition failure injection).
  void Uncache() {
    hb::RecordAccess(hb::CacheFlagObject(id_), kFlagWrite, "Uncache",
                     hb::kSiteEviction);
    StoreCached(false);
    DropRetained();
  }

  /// Drops the cached data of one partition (failure injection); the next
  /// read recomputes it from lineage.
  virtual void EvictPartition(int partition) = 0;
  virtual bool IsPartitionCached(int partition) const = 0;

  /// Computes (and caches) one partition without exposing the element type.
  /// Actions use this to materialize shuffle dependencies from the driver
  /// before fanning partition tasks out to the executor pool.
  virtual void ComputePartition(int partition) = 0;

  /// Bytes currently held by retained (cached) partitions, in the shared
  /// EstimateSize() model. Never computes anything: uncomputed or evicted
  /// partitions contribute zero. Feeds the Tier D cache-retention rule
  /// (RS004) through LineageGraph::Capture.
  virtual uint64_t RetainedBytes() const { return 0; }

 protected:
  /// Drops every retained partition (Uncache's type-erased half).
  virtual void DropRetained() = 0;

 private:
#ifdef RDFSPARK_MUTATE_CACHED_PLAIN
  /// MUTATION build: the flag is a plain bool and its accesses record as
  /// plain reads/writes, so the checker sees the bug the build introduces.
  static constexpr hb::Access kFlagRead = hb::Access::kRead;
  static constexpr hb::Access kFlagWrite = hb::Access::kWrite;
#else
  static constexpr hb::Access kFlagRead = hb::Access::kAtomicRead;
  static constexpr hb::Access kFlagWrite = hb::Access::kAtomicWrite;
#endif

  void StoreCached(bool cached) {
#ifdef RDFSPARK_MUTATE_CACHED_PLAIN
    cached_ = cached;
#else
    cached_.store(cached, std::memory_order_release);
#endif
  }

  int id_;
  std::string name_;
  int num_partitions_;
  bool is_shuffle_;
#ifdef RDFSPARK_MUTATE_CACHED_PLAIN
  bool cached_ = true;
#else
  std::atomic<bool> cached_{true};
#endif
  std::vector<std::shared_ptr<RddNodeBase>> parents_;
  std::optional<PartitionerInfo> partitioner_;
};

/// One computed partition. Immutable once computed, so lineage nodes pass
/// it by reference: a node that hands its parent's elements on unchanged
/// (Union, AssumePartitioner) returns the parent's partition itself, and a
/// shuffle read returns its bucket.
template <typename T>
using Partition = std::shared_ptr<const std::vector<T>>;

template <typename T>
Partition<T> MakePartition(std::vector<T> data) {
  return std::make_shared<const std::vector<T>>(std::move(data));
}

/// Concrete lineage node for element type T. Partitions are computed on
/// demand by `compute` and retained while the cached flag holds (every RDD
/// by default, so iterative engines behave; only Cache()d ones when the
/// context runs with retain_uncached_rdds = false). `EvictPartition`
/// restores the recompute path for fault-tolerance tests.
template <typename T>
class RddNode : public RddNodeBase {
 public:
  using ComputeFn = std::function<Partition<T>(int)>;

  RddNode(int id, std::string name, int num_partitions, bool is_shuffle,
          ComputeFn compute)
      : RddNodeBase(id, std::move(name), num_partitions, is_shuffle),
        compute_(std::move(compute)),
        op_scope_(CurrentOpStats()),
        cache_(static_cast<size_t>(num_partitions)),
        locks_(std::make_unique<std::mutex[]>(
            static_cast<size_t>(std::max(num_partitions, 1)))) {}

  /// Thread-safe compute-or-get: concurrent tasks may need the same parent
  /// partition (shared lineage, Union of the same RDD), so each partition
  /// slot is guarded by its own mutex. The lock is held while `compute_`
  /// runs; lock acquisition only ever follows lineage edges child->parent
  /// (a DAG), so no cycle — and no deadlock — is possible. The computed
  /// vector is retained in the slot only while `cached()` holds — a
  /// transient node (retain_uncached_rdds = false, no Cache()) recomputes
  /// for every consumer, which is what LN001 statically predicts.
  Partition<T> GetPartition(int p) {
    RDFSPARK_SLOT_LOCK(locks_[p]);
    if (cache_[p]) {
      hb::RecordAccess(hb::CacheSlotObject(id(), p), hb::Access::kRead,
                       "GetPartition");
      return cache_[p];
    }
    hb::RecordAccess(hb::CacheSlotObject(id(), p), hb::Access::kWrite,
                     "GetPartition.compute");
    // Reinstall the operator scope captured when this node was built:
    // RDDs are lazy, so by the time compute_ runs the plan executor may
    // be inside a different operator — charges still belong to the one
    // that created the lineage (Spark's withScope).
    OpScopeGuard scope(op_scope_);
    Partition<T> data = compute_(p);
    if (cached()) cache_[p] = data;
    return data;
  }

  void EvictPartition(int partition) override {
    RDFSPARK_SLOT_LOCK(locks_[partition]);
    hb::RecordAccess(hb::CacheSlotObject(id(), partition), hb::Access::kWrite,
                     "EvictPartition", hb::kSiteEviction);
    cache_[partition].reset();
  }
  bool IsPartitionCached(int partition) const override {
    RDFSPARK_SLOT_LOCK(locks_[partition]);
    hb::RecordAccess(hb::CacheSlotObject(id(), partition), hb::Access::kRead,
                     "IsPartitionCached");
    return cache_[partition] != nullptr;
  }
  void ComputePartition(int partition) override { GetPartition(partition); }

  /// Bytes held by currently cached partitions: per-partition vector header
  /// plus EstimateSize of every retained element. Reads only what is already
  /// materialized — the Tier D retention probe must never trigger compute.
  uint64_t RetainedBytes() const override {
    uint64_t total = 0;
    for (int p = 0; p < num_partitions(); ++p) {
      RDFSPARK_SLOT_LOCK(locks_[p]);
      hb::RecordAccess(hb::CacheSlotObject(id(), p), hb::Access::kRead,
                       "RetainedBytes");
      const auto& slot = cache_[static_cast<size_t>(p)];
      if (!slot) continue;
      total += 24;  // Vector header, matching EstimateSize's container model.
      for (const T& elem : *slot) total += EstimateSize(elem);
    }
    return total;
  }

 protected:
  void DropRetained() override {
    for (int p = 0; p < num_partitions(); ++p) {
      RDFSPARK_SLOT_LOCK(locks_[p]);
      hb::RecordAccess(hb::CacheSlotObject(id(), p), hb::Access::kWrite,
                       "Uncache.drop", hb::kSiteEviction);
      cache_[static_cast<size_t>(p)].reset();
    }
  }

 private:
  ComputeFn compute_;
  /// Operator scope active when the node was created (null outside plans).
  std::shared_ptr<OpStats> op_scope_;
  std::vector<Partition<T>> cache_;
  mutable std::unique_ptr<std::mutex[]> locks_;  ///< One per partition.
};

/// Materializes every shuffle in `node`'s lineage, deepest first, by
/// computing one partition of each shuffle node from the calling (driver)
/// thread. A shuffle computes all of its buckets on first touch, so after
/// this walk the per-partition tasks an action fans out never trigger a
/// nested materialization from a pool worker — the shuffle map side itself
/// runs on the pool instead of serially inside whichever task got there
/// first.
inline void MaterializeShuffleDeps(RddNodeBase* node) {
  std::unordered_set<int> visited;
  std::function<void(RddNodeBase*)> visit = [&](RddNodeBase* n) {
    if (!visited.insert(n->id()).second) return;
    for (const auto& parent : n->parents()) visit(parent.get());
    if (n->is_shuffle() && n->num_partitions() > 0) n->ComputePartition(0);
  };
  visit(node);
}

template <typename T>
class Rdd;

/// Creates an RDD from driver-local data, splitting it into `num_partitions`
/// roughly equal slices (Spark's sc.parallelize).
template <typename T>
Rdd<T> Parallelize(SparkContext* sc, std::vector<T> data,
                   int num_partitions = -1);

/// An immutable, partitioned, lazily-computed collection with lineage —
/// the simulator's counterpart of Spark's RDD. Transformations build new
/// lineage nodes; actions trigger computation and charge the cost model.
template <typename T>
class Rdd {
 public:
  using Element = T;

  Rdd() = default;
  Rdd(SparkContext* sc, std::shared_ptr<RddNode<T>> node)
      : sc_(sc), node_(std::move(node)) {}

  bool valid() const { return node_ != nullptr; }
  SparkContext* context() const { return sc_; }
  const std::shared_ptr<RddNode<T>>& node() const { return node_; }
  int num_partitions() const { return node_->num_partitions(); }
  const std::optional<PartitionerInfo>& partitioner() const {
    return node_->partitioner();
  }

  // ---------------------------------------------------------------------
  // Narrow transformations.
  // ---------------------------------------------------------------------

  /// Applies `f` to every element.
  template <typename F>
  auto Map(F f) const -> Rdd<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    auto* sc = sc_;
    auto parent = node_;
    auto compute = [sc, parent, f](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::vector<U> out;
      out.reserve(in->size());
      for (const T& x : *in) out.push_back(f(x));
      return MakePartition(std::move(out));
    };
    return MakeChild<U>("Map", node_->num_partitions(), false, compute,
                        std::nullopt);
  }

  /// Applies `f`, concatenating the produced vectors.
  template <typename F>
  auto FlatMap(F f) const
      -> Rdd<typename std::invoke_result_t<F, const T&>::value_type> {
    using U = typename std::invoke_result_t<F, const T&>::value_type;
    auto* sc = sc_;
    auto parent = node_;
    auto compute = [sc, parent, f](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::vector<U> out;
      for (const T& x : *in) {
        auto produced = f(x);
        for (auto& u : produced) out.push_back(std::move(u));
      }
      return MakePartition(std::move(out));
    };
    return MakeChild<U>("FlatMap", node_->num_partitions(), false, compute,
                        std::nullopt);
  }

  /// Keeps elements satisfying `pred`. Preserves the partitioner.
  template <typename F>
  Rdd<T> Filter(F pred) const {
    auto* sc = sc_;
    auto parent = node_;
    auto compute = [sc, parent, pred](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::vector<T> out;
      for (const T& x : *in) {
        if (pred(x)) out.push_back(x);
      }
      return MakePartition(std::move(out));
    };
    return MakeChild<T>("Filter", node_->num_partitions(), false, compute,
                        node_->partitioner());
  }

  /// Applies `f` to each whole partition: f(partition_index, const
  /// std::vector<T>&) -> std::vector<U>. Batch kernels that keep rows on
  /// their key's partition pass the parent's `info` through; default is a
  /// partitioner-destroying transform, as in Spark.
  template <typename F>
  auto MapPartitionsWithIndex(F f,
                              std::optional<PartitionerInfo> info =
                                  std::nullopt) const
      -> Rdd<typename std::invoke_result_t<F, int,
                                           const std::vector<T>&>::value_type> {
    using U =
        typename std::invoke_result_t<F, int,
                                      const std::vector<T>&>::value_type;
    auto* sc = sc_;
    auto parent = node_;
    auto compute = [sc, parent, f](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      return MakePartition(f(p, *in));
    };
    return MakeChild<U>("MapPartitions", node_->num_partitions(), false,
                        compute, std::move(info));
  }

  /// Zips co-partitioned RDDs partition-by-partition:
  /// f(partition_index, const std::vector<T>&, const std::vector<U>&) ->
  /// std::vector<V>. Narrow on both sides — the batch-join kernels use this
  /// to probe a co-partitioned build side without a shuffle.
  template <typename U, typename F>
  auto ZipPartitions(const Rdd<U>& other, F f,
                     std::optional<PartitionerInfo> info = std::nullopt) const
      -> Rdd<typename std::invoke_result_t<
          F, int, const std::vector<T>&,
          const std::vector<U>&>::value_type> {
    using V = typename std::invoke_result_t<F, int, const std::vector<T>&,
                                            const std::vector<U>&>::value_type;
    auto* sc = sc_;
    auto left = node_;
    auto right = other.node();
    auto compute = [sc, left, right, f](int p) {
      auto l = left->GetPartition(p);
      auto r = right->GetPartition(p);
      sc->ChargeCompute(p, l->size() + r->size());
      return MakePartition(f(p, *l, *r));
    };
    auto child = MakeChild<V>("ZipPartitions", node_->num_partitions(), false,
                              compute, std::move(info));
    child.node()->AddParent(right);
    return child;
  }

  /// Pairs every element with key `f(x)`.
  template <typename F>
  auto KeyBy(F f) const -> Rdd<std::pair<std::invoke_result_t<F, const T&>, T>> {
    using K = std::invoke_result_t<F, const T&>;
    return Map([f](const T& x) { return std::pair<K, T>(f(x), x); });
  }

  /// Concatenates two RDDs; partitions are appended (reads stay local, as in
  /// Spark's UnionRDD), each handed out as its parent's partition.
  Rdd<T> Union(const Rdd<T>& other) const {
    auto* sc = sc_;
    auto a = node_;
    auto b = other.node_;
    int an = a->num_partitions();
    int total = an + b->num_partitions();
    auto compute = [sc, a, b, an](int p) {
      auto in = p < an ? a->GetPartition(p) : b->GetPartition(p - an);
      sc->ChargeCompute(p, in->size());
      return in;
    };
    auto child = MakeChild<T>("Union", total, false, compute, std::nullopt);
    child.node_->AddParent(b);
    return child;
  }

  /// Pairwise cartesian product. Deliberately expensive (remote partition
  /// pulls + quadratic comparisons) — this is the fallback the naive
  /// SQL translation in [21] degenerates to.
  template <typename U>
  Rdd<std::pair<T, U>> Cartesian(const Rdd<U>& other) const {
    auto* sc = sc_;
    auto a = node_;
    auto b = other.node();
    int bn = b->num_partitions();
    int total = a->num_partitions() * bn;
    auto compute = [sc, a, b, bn](int p) {
      int i = p / bn;
      int j = p % bn;
      auto left = a->GetPartition(i);
      auto right = b->GetPartition(j);
      sc->ChargeCompute(p, left->size() + right->size());
      uint64_t right_bytes = 0;
      for (const U& u : *right) right_bytes += EstimateSize(u);
      bool remote = sc->ExecutorOf(p) != sc->ExecutorOf(j);
      sc->ChargeJoinComparisons(left->size() * right->size());
      if (remote) {
        sc->ChargeRemoteReads(right->size());
        sc->ChargeTask(p, 0, right_bytes);
      } else {
        sc->ChargeLocalReads(right->size());
        sc->ChargeTask(p, 0, 0);
      }
      std::vector<std::pair<T, U>> out;
      // left*right overflows size_t for adversarial partition sizes and, even
      // short of overflow, a single up-front reservation of the full product
      // can exhaust memory before one row is produced. Clamp the hint; the
      // vector grows geometrically past it when the product really is large.
      constexpr size_t kMaxReserve = size_t{1} << 16;
      size_t ls = left->size();
      size_t rs = right->size();
      size_t est = (ls == 0 || rs == 0) ? 0
                   : (ls > kMaxReserve / rs ? kMaxReserve : ls * rs);
      out.reserve(est);
      for (const T& x : *left) {
        for (const U& y : *right) out.emplace_back(x, y);
      }
      return MakePartition(std::move(out));
    };
    auto child = MakeChild<std::pair<T, U>>("Cartesian", total, false, compute,
                                            std::nullopt);
    child.node()->AddParent(b);
    return child;
  }

  // ---------------------------------------------------------------------
  // Wide transformations (shuffles).
  // ---------------------------------------------------------------------

  /// Removes duplicates (shuffle + local dedup). Requires operator== on T.
  Rdd<T> Distinct(int num_partitions = -1) const {
    int n = ResolvePartitions(num_partitions);
    Rdd<T> shuffled =
        ShuffleBy([](const T& x) { return HashValue(x); }, n, "Distinct",
                  PartitionerInfo{"hash-any", n, 0});
    auto* sc = sc_;
    auto parent = shuffled.node_;
    auto compute = [sc, parent](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::unordered_set<T, ValueHasher> seen;
      std::vector<T> out;
      for (const T& x : *in) {
        if (seen.insert(x).second) out.push_back(x);
      }
      return MakePartition(std::move(out));
    };
    return Rdd<T>(sc_, MakeNode<T>(sc_, parent, "DistinctLocal",
                                   parent->num_partitions(), false, compute,
                                   parent->partitioner()));
  }

  // ---------------------------------------------------------------------
  // Pair-RDD transformations. Only instantiable when T is std::pair<K, V>.
  // ---------------------------------------------------------------------

  /// Hash-partitions by key. If the RDD already carries an equal
  /// PartitionerInfo this is a no-op (no shuffle) — the mechanism behind all
  /// "pre-partitioning avoids shuffles" assessments.
  template <typename TT = T, typename K = typename TT::first_type>
  Rdd<T> PartitionByKey(int num_partitions = -1,
                        const std::string& kind = "hash") const {
    int n = ResolvePartitions(num_partitions);
    PartitionerInfo info{kind, n, 0};
    if (node_->partitioner() && *node_->partitioner() == info) return *this;
    return ShuffleBy([](const T& kv) { return HashValue(kv.first); }, n,
                     "PartitionByKey", info);
  }

  /// Map-side-combining aggregation by key (Spark's reduceByKey).
  template <typename F, typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  Rdd<std::pair<K, V>> ReduceByKey(F combine, int num_partitions = -1) const {
    int n = ResolvePartitions(num_partitions);
    auto* sc = sc_;
    auto parent = node_;
    // Map-side combine first (narrow), then shuffle, then final combine.
    auto precombined =
        MapPartitionsWithIndex([combine](int, const std::vector<T>& in) {
          return CombinePartition(in, combine);
        });
    PartitionerInfo info{"hash", n, 0};
    auto shuffled = precombined.ShuffleBy(
        [](const std::pair<K, V>& kv) { return HashValue(kv.first); }, n,
        "ReduceByKey", info);
    auto node = shuffled.node();
    auto compute = [sc, node, combine](int p) {
      auto in = node->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      return MakePartition(CombinePartition(*in, combine));
    };
    return Rdd<std::pair<K, V>>(
        sc_, MakeNode<std::pair<K, V>>(sc_, node, "ReduceByKeyLocal", n, false,
                                       compute, info));
  }

  /// Groups values per key without map-side combine (Spark's groupByKey —
  /// the full-shuffle behaviour is intentional).
  template <typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  Rdd<std::pair<K, std::vector<V>>> GroupByKey(int num_partitions = -1) const {
    int n = ResolvePartitions(num_partitions);
    PartitionerInfo info{"hash", n, 0};
    auto shuffled =
        ShuffleBy([](const T& kv) { return HashValue(kv.first); }, n,
                  "GroupByKey", info);
    auto* sc = sc_;
    auto node = shuffled.node();
    auto compute = [sc, node](int p) {
      auto in = node->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::unordered_map<K, std::vector<V>, ValueHasher> acc;
      for (const auto& kv : *in) acc[kv.first].push_back(kv.second);
      std::vector<std::pair<K, std::vector<V>>> out;
      out.reserve(acc.size());
      for (auto& [k, vs] : acc) out.emplace_back(k, std::move(vs));
      return MakePartition(std::move(out));
    };
    return Rdd<std::pair<K, std::vector<V>>>(
        sc_, MakeNode<std::pair<K, std::vector<V>>>(
                 sc_, node, "GroupByKeyLocal", n, false, compute, info));
  }

  /// Transforms values, preserving keys and the partitioner.
  template <typename F, typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  auto MapValues(F f) const
      -> Rdd<std::pair<K, std::invoke_result_t<F, const V&>>> {
    using W = std::invoke_result_t<F, const V&>;
    auto* sc = sc_;
    auto parent = node_;
    auto compute = [sc, parent, f](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::vector<std::pair<K, W>> out;
      out.reserve(in->size());
      for (const auto& kv : *in) out.emplace_back(kv.first, f(kv.second));
      return MakePartition(std::move(out));
    };
    return Rdd<std::pair<K, W>>(
        sc_, MakeNode<std::pair<K, W>>(sc_, parent, "MapValues",
                                       parent->num_partitions(), false,
                                       compute, parent->partitioner()));
  }

  /// Inner hash join. Uses co-partitioned (shuffle-free) execution when both
  /// sides share a partitioner, otherwise shuffles both sides.
  template <typename W, typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  Rdd<std::pair<K, std::pair<V, W>>> Join(const Rdd<std::pair<K, W>>& other,
                                          int num_partitions = -1) const {
    return JoinImpl<W, K, V, JoinKind::kInner>(other, num_partitions);
  }

  /// Left outer join: right side optional.
  template <typename W, typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  Rdd<std::pair<K, std::pair<V, std::optional<W>>>> LeftOuterJoin(
      const Rdd<std::pair<K, W>>& other, int num_partitions = -1) const {
    return JoinImpl<W, K, V, JoinKind::kLeftOuter>(other, num_partitions);
  }

  /// Map-side (broadcast) hash join against a small relation replicated to
  /// all executors. No shuffle of the large side.
  template <typename W, typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  Rdd<std::pair<K, std::pair<V, W>>> BroadcastHashJoin(
      const std::unordered_map<K, std::vector<W>, ValueHasher>& small) const {
    auto bc = sc_->MakeBroadcast(small);
    auto* sc = sc_;
    auto parent = node_;
    using Out = std::pair<K, std::pair<V, W>>;
    auto compute = [sc, parent, bc](int p) {
      auto in = parent->GetPartition(p);
      sc->ChargeCompute(p, in->size());
      std::vector<Out> out;
      uint64_t comparisons = 0;
      for (const auto& kv : *in) {
        auto it = bc.value().find(kv.first);
        ++comparisons;
        if (it != bc.value().end()) {
          comparisons += it->second.size() - 1;
          for (const W& w : it->second) {
            out.emplace_back(kv.first, std::pair<V, W>(kv.second, w));
          }
        }
      }
      sc->ChargeJoinComparisons(comparisons);
      return MakePartition(std::move(out));
    };
    return Rdd<Out>(sc_, MakeNode<Out>(sc_, parent, "BroadcastHashJoin",
                                       parent->num_partitions(), false,
                                       compute, parent->partitioner()));
  }

  // ---------------------------------------------------------------------
  // Actions.
  // ---------------------------------------------------------------------

  /// Materializes every partition on the driver. Partition tasks run
  /// concurrently on the executor pool; each writes its own output slot and
  /// the merge walks slots in partition-index order, so the result — and
  /// every metric — is identical to the serial path.
  std::vector<T> Collect() const {
    MaterializeShuffleDeps(node_.get());
    sc_->RecordJob();
    sc_->BeginPhase();
    int np = node_->num_partitions();
    std::vector<std::shared_ptr<const std::vector<T>>> parts(
        static_cast<size_t>(np));
    auto* node = node_.get();
    auto* sc = sc_;
    sc_->RunParallel(np, [node, sc, &parts](int p) {
      auto part = node->GetPartition(p);
      uint64_t bytes = 0;
      for (const T& x : *part) bytes += EstimateSize(x);
      sc->ChargeTask(p, part->size(), bytes);  // results travel to driver
      parts[static_cast<size_t>(p)] = std::move(part);
    });
    sc_->EndPhase();
    size_t total = 0;
    for (const auto& part : parts) total += part->size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& part : parts) {
      out.insert(out.end(), part->begin(), part->end());
    }
    return out;
  }

  /// Number of elements.
  uint64_t Count() const {
    MaterializeShuffleDeps(node_.get());
    sc_->RecordJob();
    sc_->BeginPhase();
    int np = node_->num_partitions();
    std::vector<uint64_t> sizes(static_cast<size_t>(np), 0);
    auto* node = node_.get();
    auto* sc = sc_;
    sc_->RunParallel(np, [node, sc, &sizes](int p) {
      auto part = node->GetPartition(p);
      sc->ChargeTask(p, part->size(), 0);
      sizes[static_cast<size_t>(p)] = part->size();
    });
    sc_->EndPhase();
    uint64_t n = 0;
    for (uint64_t s : sizes) n += s;
    return n;
  }

  /// Estimated resident bytes across all partitions (materializes them).
  uint64_t MemoryFootprint() const {
    uint64_t total = 0;
    for (int p = 0; p < node_->num_partitions(); ++p) {
      auto part = node_->GetPartition(p);
      for (const T& x : *part) total += EstimateSize(x);
    }
    return total;
  }

  /// Marks the RDD persisted (Spark's cache/persist). Under the default
  /// configuration every RDD retains its partitions anyway, so this is
  /// documentation of intent; with retain_uncached_rdds = false it is the
  /// only way a node keeps computed partitions for later consumers.
  Rdd<T> Cache() const {
    node_->SetCached(true);
    return *this;
  }

  /// Clears the persisted mark and drops retained partitions (Spark's
  /// unpersist). Later reads recompute from lineage.
  Rdd<T> Uncache() const {
    node_->Uncache();
    return *this;
  }

  /// Declares that this RDD is partitioned per `info` without shuffling.
  /// For use by operators that provably preserve key placement (e.g. a
  /// per-partition star join over subject-hashed triples keeps rows on the
  /// subject's partition). The caller owns the proof. Partitions are the
  /// parent's own.
  Rdd<T> AssumePartitioner(PartitionerInfo info) const {
    auto parent = node_;
    auto compute = [parent](int p) { return parent->GetPartition(p); };
    return Rdd<T>(sc_, MakeNode<T>(sc_, parent, "AssumePartitioner",
                                   parent->num_partitions(), false, compute,
                                   std::move(info)));
  }

  /// Lineage description, one node per line (Spark's toDebugString).
  std::string DebugString() const {
    std::string out;
    AppendDebug(node_.get(), 0, &out);
    return out;
  }

  // ---------------------------------------------------------------------
  // Shuffle plumbing (public so sibling templates can reuse it).
  // ---------------------------------------------------------------------

  struct ShuffleState {
    explicit ShuffleState(int n)
        : buckets(static_cast<size_t>(n)),
          remote_bytes_per_target(static_cast<size_t>(n), 0) {}

    /// Serializes materialization: the first task to need a bucket runs the
    /// whole map side under this lock; later tasks block, then read. All
    /// fields are immutable once `materialized` is set (readers observe the
    /// writes through the same mutex).
    std::mutex mu;
    bool materialized = false;
    /// The only copy of each bucket: a read hands it out by reference, and
    /// it outlives evictions of the shuffle node's cached partitions.
    std::vector<Partition<T>> buckets;
    std::vector<uint64_t> remote_bytes_per_target;
    /// HB identity of this shuffle's materialization buffers (0 outside a
    /// recording window). Publication point: MaterializeShuffle.
    int64_t hb_id = hb::AssignWindowId();

    /// Reads bucket `p`, charging its reduce task.
    Partition<T> TakeBucket(SparkContext* sc, int p) {
      hb::Consume(hb::ShuffleObject(hb_id));
      hb::RecordAccess(hb::ShuffleObject(hb_id), hb::Access::kRead,
                       "ShuffleState::TakeBucket");
      const Partition<T>& bucket = buckets[static_cast<size_t>(p)];
      sc->ChargeTask(p, bucket->size(),
                     remote_bytes_per_target[static_cast<size_t>(p)]);
      return bucket;
    }
  };

  /// Builds a shuffled child of this RDD: records are routed to
  /// `hash(record) % n` (via `hash_fn`). Exposed for reuse by the pair-RDD
  /// ops and the engines' batch kernels.
  template <typename H>
  Rdd<T> ShuffleBy(H hash_fn, int num_partitions, const std::string& name,
                   PartitionerInfo info) const {
    int n = num_partitions;
    auto* sc = sc_;
    auto parent = node_;
    auto state = std::make_shared<ShuffleState>(n);
    auto compute = [sc, parent, state, hash_fn, n](int p) {
      {
        hb::TrackedLock lock(state->mu);
        if (!state->materialized) {
          auto target = [&](const T& x) {
            // uint64 hash modulo a positive count: provably in [0, n).
            return static_cast<int>(hash_fn(x) % static_cast<uint64_t>(n));
          };
          MaterializeShuffle(sc, parent.get(), state.get(), target);
        }
      }
      return state->TakeBucket(sc, p);
    };
    return Rdd<T>(sc_, MakeNode<T>(sc_, parent, name, n, true, compute,
                                   std::move(info)));
  }

  /// Runs the map side of a shuffle inside its own cost phase: computes
  /// parent partitions on the executor pool, buckets records with `target`,
  /// and charges shuffle metrics. Each map task stages its records once,
  /// grouped by target (StageByTarget). The driver then sums each bucket's
  /// size, reserves it, and merges source by source, so bucket contents are
  /// byte-identical to the serial path no matter how tasks interleave, and
  /// the shuffle costs O(rows + touched targets), not a buffer per (source,
  /// target). Caller must hold `state->mu` and have checked
  /// `state->materialized`.
  template <typename TargetFn>
  static void MaterializeShuffle(SparkContext* sc, RddNode<T>* parent,
                                 ShuffleState* state, TargetFn target) {
    sc->BeginPhase();
    int n = static_cast<int>(state->buckets.size());
    int np = parent->num_partitions();
    struct Staged {
      std::vector<T> records;  ///< In StagedRuns order.
      StagedRuns runs;
    };
    std::vector<Staged> staged(static_cast<size_t>(np));
    sc->RunParallel(np, [&](int q) {
      auto in = parent->GetPartition(q);
      sc->ChargeTask(q, in->size(), 0);
      int src_exec = sc->ExecutorOf(q);
      uint64_t bytes_total = 0, remote_bytes = 0;
      uint64_t local_reads = 0, remote_reads = 0;
      Staged& out = staged[static_cast<size_t>(q)];
      out.runs = StageByTarget(in->size(), n, [&](size_t i) {
        const T& x = (*in)[i];
        int t = target(x);
        uint64_t bytes = EstimateSize(x);
        bytes_total += bytes;
        if (sc->ExecutorOf(t) == src_exec) {
          ++local_reads;
          return std::pair<int, uint64_t>(t, 0);
        }
        remote_bytes += bytes;
        ++remote_reads;
        return std::pair<int, uint64_t>(t, bytes);
      });
      out.records.reserve(in->size());
      for (uint32_t i : out.runs.order) out.records.push_back((*in)[i]);
      sc->ChargeShuffleWrite(q, in->size(), bytes_total, remote_bytes,
                             local_reads, remote_reads);
    });
    std::vector<size_t> totals(static_cast<size_t>(n), 0);
    for (const Staged& source : staged) {
      source.runs.ForEachRun([&](const StagedRuns::Run& run, size_t begin) {
        auto t = static_cast<size_t>(run.target);
        totals[t] += run.end - begin;
        state->remote_bytes_per_target[t] += run.remote_bytes;
      });
    }
    std::vector<std::vector<T>> merged(static_cast<size_t>(n));
    for (size_t t = 0; t < merged.size(); ++t) merged[t].reserve(totals[t]);
    for (Staged& source : staged) {
      auto records = std::make_move_iterator(source.records.begin());
      source.runs.ForEachRun([&](const StagedRuns::Run& run, size_t begin) {
        auto& bucket = merged[static_cast<size_t>(run.target)];
        bucket.insert(bucket.end(),
                      records + static_cast<std::ptrdiff_t>(begin),
                      records + static_cast<std::ptrdiff_t>(run.end));
      });
      source = Staged{};  // Merged: release it now.
    }
    for (size_t t = 0; t < merged.size(); ++t) {
      state->buckets[t] = MakePartition(std::move(merged[t]));
    }
    state->materialized = true;
    // Publication barrier: the merged buckets become visible to readers
    // only through TakeBucket's Consume edge. A read path that skipped the
    // barrier would surface as RC002 on this object.
    hb::RecordAccess(hb::ShuffleObject(state->hb_id), hb::Access::kWrite,
                     "MaterializeShuffle");
    hb::Publish(hb::ShuffleObject(state->hb_id));
    sc->EndPhase();
  }

 private:
  /// Folds `in`'s values per key with `combine(std::move(acc), value)`, so
  /// an accumulator that grows in place (a table being concatenated) is
  /// never copied; the first value per key is copied once, from the
  /// immutable input. Output follows the hash map's iteration order.
  template <typename F, typename K, typename V>
  static std::vector<std::pair<K, V>> CombinePartition(
      const std::vector<std::pair<K, V>>& in, const F& combine) {
    std::unordered_map<K, V, ValueHasher> acc;
    for (const auto& kv : in) {
      auto it = acc.find(kv.first);
      if (it == acc.end()) {
        acc.emplace(kv.first, kv.second);
      } else {
        it->second = combine(std::move(it->second), kv.second);
      }
    }
    std::vector<std::pair<K, V>> out;
    out.reserve(acc.size());
    for (auto& [k, v] : acc) out.emplace_back(k, std::move(v));
    return out;
  }

  enum class JoinKind { kInner, kLeftOuter };
  /// Ends a JoinImpl chain of build rows.
  static constexpr uint32_t kEndOfChain = UINT32_MAX;

  template <typename W, typename K, typename V, JoinKind kKind>
  auto JoinImpl(const Rdd<std::pair<K, W>>& other, int num_partitions) const {
    int n = num_partitions > 0
                ? num_partitions
                : std::max(node_->num_partitions(),
                           other.node()->num_partitions());
    // Co-partitioned fast path: equal partitioners mean key-collocated data.
    bool copartitioned = node_->partitioner() && other.node()->partitioner() &&
                         *node_->partitioner() == *other.node()->partitioner();
    auto left = copartitioned ? *this : PartitionByKey(n);
    auto right = copartitioned ? other : other.PartitionByKey(n);
    int out_n = copartitioned ? node_->num_partitions() : n;

    auto* sc = sc_;
    auto ln = left.node();
    auto rn = right.node();
    using OutVal =
        std::conditional_t<kKind == JoinKind::kInner, std::pair<V, W>,
                           std::pair<V, std::optional<W>>>;
    using Out = std::pair<K, OutVal>;
    auto compute = [sc, ln, rn](int p) {
      auto l = ln->GetPartition(p);
      auto r = rn->GetPartition(p);
      sc->ChargeCompute(p, l->size() + r->size());
      // The build side is indexed in place, by row number into `r`:
      // `first_row` maps each key to its first build row and `next_row`
      // chains the key's later rows. Built back to front, so a chain walks
      // its key's rows in build order. Each build value is copied once,
      // into the output.
      const std::vector<std::pair<K, W>>& build = *r;
      assert(build.size() < kEndOfChain && "build side exceeds row index");
      std::unordered_map<K, uint32_t, ValueHasher> first_row;
      first_row.reserve(build.size());
      std::vector<uint32_t> next_row(build.size(), kEndOfChain);
      for (size_t i = build.size(); i-- > 0;) {
        auto row = static_cast<uint32_t>(i);
        auto [it, inserted] = first_row.try_emplace(build[i].first, row);
        if (!inserted) {
          next_row[i] = it->second;
          it->second = row;
        }
      }
      std::vector<Out> out;
      uint64_t comparisons = 0;
      // A probe costs max(1, matches) comparisons.
      for (const auto& kv : *l) {
        auto it = first_row.find(kv.first);
        if (it == first_row.end()) {
          ++comparisons;
          if constexpr (kKind == JoinKind::kLeftOuter) {
            out.emplace_back(kv.first, std::pair<V, std::optional<W>>(
                                           kv.second, std::nullopt));
          }
          continue;
        }
        for (uint32_t i = it->second; i != kEndOfChain; i = next_row[i]) {
          ++comparisons;
          const W& w = build[i].second;
          if constexpr (kKind == JoinKind::kInner) {
            out.emplace_back(kv.first, std::pair<V, W>(kv.second, w));
          } else {
            out.emplace_back(kv.first,
                             std::pair<V, std::optional<W>>(kv.second, w));
          }
        }
      }
      sc->ChargeJoinComparisons(comparisons);
      return MakePartition(std::move(out));
    };
    auto node = MakeNode<Out>(sc_, ln,
                              kKind == JoinKind::kInner ? "Join"
                                                        : "LeftOuterJoin",
                              out_n, false, compute,
                              PartitionerInfo{"hash", out_n, 0});
    node->AddParent(rn);
    return Rdd<Out>(sc_, node);
  }

  template <typename U, typename ComputeFn>
  Rdd<U> MakeChild(const std::string& name, int num_partitions,
                   bool is_shuffle, ComputeFn compute,
                   std::optional<PartitionerInfo> info) const {
    auto node = MakeNode<U>(sc_, node_, name, num_partitions, is_shuffle,
                            std::move(compute), std::move(info));
    return Rdd<U>(sc_, node);
  }

  template <typename U, typename ParentPtr, typename ComputeFn>
  static std::shared_ptr<RddNode<U>> MakeNode(
      SparkContext* sc, ParentPtr parent, const std::string& name,
      int num_partitions, bool is_shuffle, ComputeFn compute,
      std::optional<PartitionerInfo> info) {
    auto node = std::make_shared<RddNode<U>>(sc->NextNodeId(), name,
                                             num_partitions, is_shuffle,
                                             std::move(compute));
    node->SetCached(sc->config().retain_uncached_rdds);
    node->AddParent(parent);
    if (info) node->set_partitioner(std::move(*info));
    return node;
  }

  static void AppendDebug(const RddNodeBase* node, int depth,
                          std::string* out) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    out->append(node->name());
    out->append(" [" + std::to_string(node->num_partitions()) + " parts" +
                (node->is_shuffle() ? ", shuffle" : "") + "]\n");
    for (const auto& p : node->parents()) {
      AppendDebug(p.get(), depth + 1, out);
    }
  }

  int ResolvePartitions(int requested) const {
    if (requested > 0) return requested;
    return node_ ? node_->num_partitions() : sc_->config().default_parallelism;
  }

  SparkContext* sc_ = nullptr;
  std::shared_ptr<RddNode<T>> node_;

  template <typename U>
  friend class Rdd;
};

template <typename T>
Rdd<T> Parallelize(SparkContext* sc, std::vector<T> data, int num_partitions) {
  int n = num_partitions > 0 ? num_partitions
                             : sc->config().default_parallelism;
  auto shared = std::make_shared<std::vector<T>>(std::move(data));
  size_t total = shared->size();
  auto compute = [shared, total, n](int p) {
    size_t begin = total * static_cast<size_t>(p) / static_cast<size_t>(n);
    size_t end = total * (static_cast<size_t>(p) + 1) / static_cast<size_t>(n);
    return MakePartition(
        std::vector<T>(shared->begin() + begin, shared->begin() + end));
  };
  auto node = std::make_shared<RddNode<T>>(sc->NextNodeId(), "Parallelize", n,
                                           false, compute);
  node->SetCached(sc->config().retain_uncached_rdds);
  return Rdd<T>(sc, node);
}

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_RDD_H_
