#include "spark/rdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

namespace rdfspark::spark {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

std::vector<int> Ints(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(RddTest, ParallelizeSplitsEvenly) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(100), 8);
  EXPECT_EQ(rdd.num_partitions(), 8);
  EXPECT_EQ(rdd.Count(), 100u);
}

TEST(RddTest, CollectPreservesOrderWithinPartitions) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(10), 2);
  auto got = rdd.Collect();
  EXPECT_EQ(got, Ints(10));
}

TEST(RddTest, MapAndFilter) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(10), 4);
  auto even_squares = rdd.Filter([](const int& x) { return x % 2 == 0; })
                          .Map([](const int& x) { return x * x; })
                          .Collect();
  EXPECT_EQ(even_squares, (std::vector<int>{0, 4, 16, 36, 64}));
}

TEST(RddTest, FlatMapExpands) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, std::vector<int>{1, 2, 3}, 2);
  auto out = rdd.FlatMap([](const int& x) {
                   return std::vector<int>(static_cast<size_t>(x), x);
                 })
                 .Collect();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 2, 3, 3, 3}));
}

TEST(RddTest, UnionConcatenates) {
  SparkContext sc(SmallCluster());
  auto a = Parallelize(&sc, std::vector<int>{1, 2}, 2);
  auto b = Parallelize(&sc, std::vector<int>{3, 4}, 2);
  auto u = a.Union(b);
  EXPECT_EQ(u.num_partitions(), 4);
  EXPECT_EQ(u.Count(), 4u);
}

TEST(RddTest, DistinctRemovesDuplicates) {
  SparkContext sc(SmallCluster());
  auto rdd =
      Parallelize(&sc, std::vector<int>{1, 1, 2, 2, 3, 3, 3, 4}, 4).Distinct();
  auto got = rdd.Collect();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST(RddTest, DistinctOnStringsUsesValueHash) {
  SparkContext sc(SmallCluster());
  std::vector<std::string> data{"a", "b", "a", "c", "b"};
  auto got = Parallelize(&sc, data, 3).Distinct().Collect();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(RddTest, CartesianProducesAllPairs) {
  SparkContext sc(SmallCluster());
  auto a = Parallelize(&sc, std::vector<int>{1, 2}, 2);
  auto b = Parallelize(&sc, std::vector<int>{10, 20, 30}, 3);
  auto pairs = a.Cartesian(b).Collect();
  EXPECT_EQ(pairs.size(), 6u);
  uint64_t before = sc.metrics().join_comparisons;
  EXPECT_GT(before, 0u);
}

// ---------------------------------------------------------------------------
// Pair-RDD operations.
// ---------------------------------------------------------------------------

TEST(PairRddTest, KeyByPairsEveryElementWithItsKey) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(10), 4).KeyBy([](const int& x) {
    return x % 3;
  });
  std::map<int, uint64_t> counts;
  for (const auto& [key, x] : rdd.Collect()) {
    EXPECT_EQ(key, x % 3);
    ++counts[key];
  }
  EXPECT_EQ(counts[0], 4u);  // 0,3,6,9
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 3u);
}

TEST(PairRddTest, ReduceByKeySums) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<std::string, int>> data{
      {"a", 1}, {"b", 2}, {"a", 3}, {"b", 4}, {"c", 5}};
  auto out = Parallelize(&sc, data, 3)
                 .ReduceByKey([](int a, int b) { return a + b; })
                 .Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::pair<std::string, int>>{
                     {"a", 4}, {"b", 6}, {"c", 5}}));
}

TEST(PairRddTest, MapSideCombineReducesShuffleRecords) {
  SparkContext sc(SmallCluster());
  // 1000 records, only 4 distinct keys: combine should shrink the shuffle.
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 1000; ++i) data.emplace_back(i % 4, 1);
  auto before = sc.metrics();
  Parallelize(&sc, data, 8)
      .ReduceByKey([](int a, int b) { return a + b; })
      .Collect();
  auto delta = sc.metrics() - before;
  // At most 4 keys per map partition * 8 partitions records shuffled.
  EXPECT_LE(delta.shuffle_records, 32u);

  SparkContext sc2(SmallCluster());
  auto before2 = sc2.metrics();
  Parallelize(&sc2, data, 8).GroupByKey().Collect();
  auto delta2 = sc2.metrics() - before2;
  EXPECT_EQ(delta2.shuffle_records, 1000u);  // groupByKey: no combine
}

TEST(PairRddTest, GroupByKeyGathersValues) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> data{{1, 10}, {2, 20}, {1, 11}, {2, 21}};
  auto out = Parallelize(&sc, data, 2).GroupByKey().Collect();
  ASSERT_EQ(out.size(), 2u);
  for (auto& [k, vs] : out) {
    auto sorted = vs;
    std::sort(sorted.begin(), sorted.end());
    if (k == 1) {
      EXPECT_EQ(sorted, (std::vector<int>{10, 11}));
    }
    if (k == 2) {
      EXPECT_EQ(sorted, (std::vector<int>{20, 21}));
    }
  }
}

TEST(PairRddTest, MapValuesPreservesPartitioner) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> data{{1, 1}, {2, 2}, {3, 3}};
  auto part = Parallelize(&sc, data, 2).PartitionByKey(4);
  ASSERT_TRUE(part.partitioner().has_value());
  auto mapped = part.MapValues([](const int& v) { return v * 10; });
  ASSERT_TRUE(mapped.partitioner().has_value());
  EXPECT_EQ(*mapped.partitioner(), *part.partitioner());
}

TEST(PairRddTest, JoinMatchesKeys) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, std::string>> left{{1, "a"}, {2, "b"}, {3, "c"}};
  std::vector<std::pair<int, int>> right{{2, 20}, {3, 30}, {4, 40}};
  auto joined = Parallelize(&sc, left, 2)
                    .Join(Parallelize(&sc, right, 3))
                    .Collect();
  std::sort(joined.begin(), joined.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[0].first, 2);
  EXPECT_EQ(joined[0].second.first, "b");
  EXPECT_EQ(joined[0].second.second, 20);
  EXPECT_EQ(joined[1].first, 3);
}

TEST(PairRddTest, JoinHandlesDuplicateKeys) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> left{{1, 1}, {1, 2}};
  std::vector<std::pair<int, int>> right{{1, 10}, {1, 20}};
  auto joined = Parallelize(&sc, left, 2).Join(Parallelize(&sc, right, 2));
  EXPECT_EQ(joined.Count(), 4u);
}

TEST(PairRddTest, LeftOuterJoinKeepsUnmatched) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> left{{1, 1}, {2, 2}};
  std::vector<std::pair<int, int>> right{{2, 20}};
  auto joined =
      Parallelize(&sc, left, 2).LeftOuterJoin(Parallelize(&sc, right, 2));
  auto rows = joined.Collect();
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].second.second.has_value());
  ASSERT_TRUE(rows[1].second.second.has_value());
  EXPECT_EQ(*rows[1].second.second, 20);
}

TEST(PairRddTest, CoPartitionedJoinAvoidsShuffle) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 200; ++i) data.emplace_back(i, i);
  auto a = Parallelize(&sc, data, 4).PartitionByKey(8);
  auto b = Parallelize(&sc, data, 4).PartitionByKey(8);
  a.Count();  // force materialization (and its shuffle)
  b.Count();
  auto before = sc.metrics();
  a.Join(b).Count();
  auto delta = sc.metrics() - before;
  EXPECT_EQ(delta.shuffle_records, 0u) << "co-partitioned join must not shuffle";

  // Contrast: same join without pre-partitioning shuffles both sides.
  SparkContext sc2(SmallCluster());
  auto a2 = Parallelize(&sc2, data, 4);
  auto b2 = Parallelize(&sc2, data, 4);
  auto before2 = sc2.metrics();
  a2.Join(b2).Count();
  auto delta2 = sc2.metrics() - before2;
  EXPECT_EQ(delta2.shuffle_records, 400u);
}

TEST(PairRddTest, BroadcastHashJoinShufflesNothing) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> big;
  for (int i = 0; i < 500; ++i) big.emplace_back(i % 50, i);
  const std::unordered_map<int, std::vector<std::string>, ValueHasher> small{
      {7, {"seven"}}, {13, {"x"}}};
  auto big_rdd = Parallelize(&sc, big, 8);
  auto before = sc.metrics();
  auto joined = big_rdd.BroadcastHashJoin(small);
  uint64_t n = joined.Count();
  auto delta = sc.metrics() - before;
  EXPECT_EQ(n, 20u);  // two hot keys * 10 occurrences each
  EXPECT_EQ(delta.shuffle_records, 0u);
  EXPECT_GT(sc.metrics().broadcast_bytes, 0u);
}

/// The join kernel's output order and charge: each output partition is the
/// nested loop over its left then right bucket (matches in build order, an
/// unmatched left row once for the outer join), and each probe charges
/// max(1, matches) comparisons — at one executor thread and at four.
TEST(PairRddTest, JoinMatchesNestedLoopReferencePerPartition) {
  std::vector<std::pair<int, int>> left;
  for (int i = 0; i < 60; ++i) left.emplace_back(i % 11, i);  // dups, 7..10
  std::vector<std::pair<int, int>> right;                      // unmatched
  for (int i = 0; i < 40; ++i) right.emplace_back(i % 7, -i);
  constexpr int kParts = 4;
  for (int threads : {1, 4}) {
    for (bool outer : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (outer ? " left-outer" : " inner"));
      ClusterConfig cfg = SmallCluster();
      cfg.executor_threads = threads;
      SparkContext sc(cfg);
      auto l = Parallelize(&sc, left, 5);
      auto r = Parallelize(&sc, right, 3);
      // The same buckets the join's own shuffles produce.
      auto l_parts = l.PartitionByKey(kParts);
      auto r_parts = r.PartitionByKey(kParts);
      l_parts.Count();
      r_parts.Count();

      using Out = std::pair<int, std::pair<int, std::optional<int>>>;
      std::vector<std::vector<Out>> got(kParts);
      uint64_t before = sc.metrics().join_comparisons;
      if (outer) {
        auto joined = l.LeftOuterJoin(r, kParts);
        joined.Collect();
        for (int p = 0; p < kParts; ++p) {
          got[p] = *joined.node()->GetPartition(p);
        }
      } else {
        auto joined = l.Join(r, kParts);
        joined.Collect();
        for (int p = 0; p < kParts; ++p) {
          for (const auto& [k, vw] : *joined.node()->GetPartition(p)) {
            got[p].emplace_back(k, std::make_pair(vw.first, vw.second));
          }
        }
      }
      uint64_t comparisons = sc.metrics().join_comparisons - before;

      uint64_t expected_comparisons = 0;
      for (int p = 0; p < kParts; ++p) {
        std::vector<Out> expected;
        const auto& probe = *l_parts.node()->GetPartition(p);
        const auto& build = *r_parts.node()->GetPartition(p);
        for (const auto& [lk, lv] : probe) {
          uint64_t matches = 0;
          for (const auto& [rk, rv] : build) {
            if (rk != lk) continue;
            ++matches;
            expected.emplace_back(lk, std::make_pair(lv, rv));
          }
          if (matches == 0 && outer) {
            expected.emplace_back(lk, std::make_pair(lv, std::nullopt));
          }
          expected_comparisons += std::max<uint64_t>(1, matches);
        }
        EXPECT_EQ(got[p], expected) << "partition " << p;
      }
      EXPECT_EQ(comparisons, expected_comparisons);
    }
  }
}

/// A value that counts its copies (moves are free).
struct CopyCounted {
  static inline std::atomic<int> copies{0};
  std::vector<int> items;

  CopyCounted() = default;
  explicit CopyCounted(int x) : items{x} {}
  CopyCounted(const CopyCounted& o) : items(o.items) { ++copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted& o) {
    items = o.items;
    ++copies;
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) noexcept = default;

  uint64_t EstimatedByteSize() const { return 24 + items.size() * sizeof(int); }
};

/// ReduceByKey hands the accumulator to `combine` as an rvalue on both the
/// map and the reduce side, so folding more values per key copies nothing
/// more: the copy count does not depend on how many values merge.
TEST(PairRddTest, ReduceByKeyMergesWithoutCopyingTheAccumulator) {
  auto copies_to_reduce = [](int values_per_key) {
    SparkContext sc(SmallCluster());
    std::vector<std::pair<int, CopyCounted>> data;
    for (int i = 0; i < 3 * values_per_key; ++i) {
      data.emplace_back(i % 3, CopyCounted(i));
    }
    auto input = Parallelize(&sc, std::move(data), 2);
    input.Count();  // Materialize the input first; count only the reduce.
    auto concat = [](CopyCounted acc, const CopyCounted& more) {
      acc.items.insert(acc.items.end(), more.items.begin(), more.items.end());
      return acc;
    };
    int before = CopyCounted::copies.load();
    auto reduced = input.ReduceByKey(concat, 2).Collect();
    int copies = CopyCounted::copies.load() - before;
    size_t merged = 0;
    for (const auto& [k, v] : reduced) merged += v.items.size();
    EXPECT_EQ(merged, static_cast<size_t>(3 * values_per_key));
    return copies;
  };
  int few = copies_to_reduce(2);
  int many = copies_to_reduce(50);
  EXPECT_GT(few, 0);
  EXPECT_EQ(many, few);
}

TEST(PairRddTest, PartitionByKeyIsIdempotent) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> data{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  auto part = Parallelize(&sc, data, 2).PartitionByKey(4);
  part.Count();
  auto before = sc.metrics();
  auto again = part.PartitionByKey(4);
  again.Count();
  auto delta = sc.metrics() - before;
  EXPECT_EQ(delta.shuffle_records, 0u);
}

// ---------------------------------------------------------------------------
// Metrics / simulator behaviour.
// ---------------------------------------------------------------------------

TEST(MetricsTest, ActionsCountJobsAndTasks) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(100), 8);
  rdd.Count();
  EXPECT_EQ(sc.metrics().jobs, 1u);
  EXPECT_EQ(sc.metrics().tasks, 8u);
  EXPECT_EQ(sc.metrics().stages, 1u);
  rdd.Collect();
  EXPECT_EQ(sc.metrics().jobs, 2u);
}

TEST(MetricsTest, ShuffleCountsRecordsAndBytes) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 64; ++i) data.emplace_back(i, i);
  auto before = sc.metrics();
  Parallelize(&sc, data, 4).PartitionByKey(8).Count();
  auto delta = sc.metrics() - before;
  EXPECT_EQ(delta.shuffle_records, 64u);
  EXPECT_GT(delta.shuffle_bytes, 0u);
  EXPECT_GT(delta.remote_shuffle_bytes, 0u);
  EXPECT_LE(delta.remote_shuffle_bytes, delta.shuffle_bytes);
}

TEST(MetricsTest, MoreExecutorsReduceSimulatedTime) {
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 20000; ++i) data.emplace_back(i, i);

  auto run = [&](int executors) {
    ClusterConfig cfg;
    cfg.num_executors = executors;
    cfg.default_parallelism = 16;
    SparkContext sc(cfg);
    Parallelize(&sc, data, 16)
        .Map([](const std::pair<int, int>& kv) {
          return std::pair<int, int>(kv.first % 7, kv.second);
        })
        .ReduceByKey([](int a, int b) { return a + b; })
        .Collect();
    return sc.metrics().simulated_ms;
  };
  double t1 = run(1);
  double t8 = run(8);
  EXPECT_LT(t8, t1);
}

TEST(MetricsTest, MemoryFootprintTracksStringSizes) {
  SparkContext sc(SmallCluster());
  std::vector<std::string> strings(100, std::string(100, 'x'));
  auto rdd = Parallelize(&sc, strings, 4);
  uint64_t fp = rdd.MemoryFootprint();
  EXPECT_GE(fp, 100u * 100u);
  EXPECT_LE(fp, 100u * 140u);
}

TEST(MetricsTest, ToStringMentionsKeyCounters) {
  Metrics m;
  m.jobs = 3;
  m.shuffle_records = 17;
  auto s = m.ToString();
  EXPECT_NE(s.find("jobs=3"), std::string::npos);
  EXPECT_NE(s.find("records=17"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lineage & fault tolerance.
// ---------------------------------------------------------------------------

TEST(LineageTest, DebugStringShowsChain) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(10), 2)
                 .Map([](const int& x) { return x + 1; })
                 .Filter([](const int& x) { return x > 3; });
  auto dbg = rdd.DebugString();
  EXPECT_NE(dbg.find("Filter"), std::string::npos);
  EXPECT_NE(dbg.find("Map"), std::string::npos);
  EXPECT_NE(dbg.find("Parallelize"), std::string::npos);
}

TEST(LineageTest, EvictedPartitionRecomputesSameData) {
  SparkContext sc(SmallCluster());
  auto rdd = Parallelize(&sc, Ints(100), 8).Map([](const int& x) {
    return x * 3;
  });
  auto first = rdd.Collect();
  // Simulate losing three partitions.
  rdd.node()->EvictPartition(1);
  rdd.node()->EvictPartition(4);
  rdd.node()->EvictPartition(7);
  EXPECT_FALSE(rdd.node()->IsPartitionCached(1));
  auto second = rdd.Collect();
  EXPECT_EQ(first, second);
}

TEST(LineageTest, UncacheRacingPooledActionIsSafe) {
  // Uncache() flips the persist flag and drops retained partitions while
  // pooled tasks may be mid-GetPartition; results must stay correct and
  // the accesses race-free (this test runs under TSan in tier 1).
  ClusterConfig cfg = SmallCluster();
  cfg.executor_threads = 4;
  SparkContext sc(cfg);
  auto rdd = Parallelize(&sc, Ints(400), 8).Map([](const int& x) {
    return x * 2;
  });
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      rdd.Uncache();
      rdd.Cache();
    }
  });
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(rdd.Count(), 400u);
  }
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  rdd.Cache();
  auto got = rdd.Collect();
  ASSERT_EQ(got.size(), 400u);
  EXPECT_EQ(got[7], 14);
}

TEST(LineageTest, EvictionAfterShuffleRecomputesFromBuckets) {
  SparkContext sc(SmallCluster());
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 50; ++i) data.emplace_back(i % 5, 1);
  auto rdd = Parallelize(&sc, data, 4).ReduceByKey([](int a, int b) {
    return a + b;
  });
  auto first = rdd.Collect();
  rdd.node()->EvictPartition(0);
  auto second = rdd.Collect();
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Partition hand-off: nodes that pass elements on unchanged share them.
// ---------------------------------------------------------------------------

std::vector<std::pair<int, int>> Pairs(int n) {
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < n; ++i) data.emplace_back(i % 7, i);
  return data;
}

/// MaterializeShuffle on a sparse, wide shuffle: 24 map partitions, some
/// empty, into 64 buckets, with each source writing at most three targets
/// in interleaved order, so most (source, target) cells are empty and some
/// buckets gather several sources. Against a reference that walks the
/// sources in order: every bucket holds its records in source order, then
/// input order, each reduce task's remote bytes sum the records that
/// crossed executors, and the map side charges every record once — at one
/// executor thread and at four.
TEST(ShuffleStagingTest, SparseWideShuffleMatchesSourceOrderReference) {
  using Rec = std::pair<int, std::string>;
  constexpr int kSources = 24;
  constexpr int kTargets = 64;
  auto source = [](int q) {
    std::vector<Rec> recs;
    if (q % 5 == 3) return recs;
    for (int i = 0; i < (q * 7) % 10 + 1; ++i) {
      recs.emplace_back(q * 100 + i, std::string(size_t(i + q % 4), 'x'));
    }
    return recs;
  };
  auto target = [](const Rec& r) {
    int q = r.first / 100;
    int i = r.first % 100;
    return (q * 11 + (i % 3) * 17) % kTargets;
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ClusterConfig cfg = SmallCluster();
    cfg.executor_threads = threads;
    SparkContext sc(cfg);

    std::vector<std::vector<Rec>> want(kTargets);
    std::vector<uint64_t> want_remote(kTargets, 0);
    uint64_t records = 0, bytes = 0, remote_bytes = 0;
    std::set<std::pair<int, int>> cells;
    for (int q = 0; q < kSources; ++q) {
      for (const Rec& r : source(q)) {
        int t = target(r);
        want[t].push_back(r);
        cells.emplace(q, t);
        ++records;
        bytes += EstimateSize(r);
        if (sc.ExecutorOf(t) != sc.ExecutorOf(q)) {
          want_remote[t] += EstimateSize(r);
          remote_bytes += EstimateSize(r);
        }
      }
    }
    // The data is as sparse and as mixed as the test needs.
    ASSERT_LT(cells.size(), size_t{kSources * kTargets / 10});
    std::set<int> gathered;
    for (const auto& [q, t] : cells) {
      if (want[t].front().first / 100 != q) gathered.insert(t);
    }
    ASSERT_FALSE(gathered.empty());

    auto parent = Parallelize(&sc, Ints(kSources), kSources).FlatMap(source);
    Rdd<Rec>::ShuffleState state(kTargets);
    auto before = sc.metrics();
    {
      std::lock_guard<std::mutex> lock(state.mu);
      Rdd<Rec>::MaterializeShuffle(&sc, parent.node().get(), &state, target);
    }
    auto delta = sc.metrics() - before;
    for (int t = 0; t < kTargets; ++t) {
      EXPECT_EQ(*state.buckets[t], want[t]) << "bucket " << t;
    }
    EXPECT_EQ(state.remote_bytes_per_target, want_remote);
    EXPECT_EQ(delta.shuffle_records, records);
    EXPECT_EQ(delta.shuffle_bytes, bytes);
    EXPECT_EQ(delta.remote_shuffle_bytes, remote_bytes);
  }
}

TEST(PartitionSharingTest, ShuffleReadHandsOutItsBucket) {
  SparkContext sc(SmallCluster());
  std::atomic<int> map_calls{0};
  auto shuffled = Parallelize(&sc, Pairs(60), 4)
                      .Map([&map_calls](const std::pair<int, int>& kv) {
                        ++map_calls;
                        return kv;
                      })
                      .PartitionByKey(5);
  shuffled.Count();
  int calls = map_calls.load();
  uint64_t shuffle_records = sc.metrics().shuffle_records;
  for (int p = 0; p < shuffled.num_partitions(); ++p) {
    auto first = shuffled.node()->GetPartition(p);
    shuffled.node()->EvictPartition(p);
    EXPECT_FALSE(shuffled.node()->IsPartitionCached(p));
    // The re-read hands out the same bucket, and the map side does not run
    // again.
    auto again = shuffled.node()->GetPartition(p);
    EXPECT_EQ(again.get(), first.get()) << "partition " << p;
  }
  EXPECT_EQ(map_calls.load(), calls);
  EXPECT_EQ(sc.metrics().shuffle_records, shuffle_records);
}

TEST(PartitionSharingTest, UnionAndAssumePartitionerHandOutParentPartitions) {
  SparkContext sc(SmallCluster());
  auto a = Parallelize(&sc, Pairs(30), 3);
  auto b = Parallelize(&sc, Pairs(20), 2);
  auto u = a.Union(b);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(u.node()->GetPartition(p).get(),
              a.node()->GetPartition(p).get());
  }
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(u.node()->GetPartition(3 + p).get(),
              b.node()->GetPartition(p).get());
  }
  auto assumed = a.AssumePartitioner(PartitionerInfo{"hash-subject", 3, 0});
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(assumed.node()->GetPartition(p).get(),
              a.node()->GetPartition(p).get());
  }
}

TEST(PartitionSharingTest, RetentionAndMetricsMatchAcrossThreadCounts) {
  struct Outcome {
    std::vector<uint64_t> retained;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<int, std::pair<int, int>>> joined;
  };
  auto run = [](int threads) {
    ClusterConfig cfg = SmallCluster();
    cfg.executor_threads = threads;
    SparkContext sc(cfg);
    auto a = Parallelize(&sc, Pairs(200), 6);
    auto b = Parallelize(&sc, Pairs(90), 3)
                 .Map([](const std::pair<int, int>& kv) {
                   return std::pair<int, int>(kv.first, -kv.second);
                 });
    auto u = a.Union(b);
    auto by_key = u.PartitionByKey(4);
    auto assumed = by_key.AssumePartitioner(PartitionerInfo{"hash", 4, 0});
    auto joined = assumed.Join(b.PartitionByKey(4));
    Outcome out;
    out.joined = joined.Collect();
    std::vector<const RddNodeBase*> nodes = {
        a.node().get(),      b.node().get(),       u.node().get(),
        by_key.node().get(), assumed.node().get(), joined.node().get()};
    for (const RddNodeBase* n : nodes) {
      out.retained.push_back(n->RetainedBytes());
    }
    sc.metrics().ForEachNumericField([&](const std::string& name, double v) {
      out.metrics.emplace_back(name, v);
    });
    return out;
  };
  Outcome serial = run(1);
  Outcome pooled = run(4);
  EXPECT_EQ(serial.joined, pooled.joined);
  EXPECT_EQ(serial.retained, pooled.retained);
  EXPECT_EQ(serial.metrics, pooled.metrics);
  // Shared partitions still count once per node that retains them.
  EXPECT_EQ(serial.retained[4], serial.retained[3]);
}

}  // namespace
}  // namespace rdfspark::spark
