// Property-based sweeps over the RDD layer: for a grid of cluster shapes
// and random datasets, every distributed operator must agree with a plain
// std:: reference implementation, and the simulator's conservation laws
// must hold (shuffles move exactly the input records; eviction never
// changes results).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "spark/rdd.h"

namespace rdfspark::spark {
namespace {

struct GridParam {
  int executors;
  int partitions;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<GridParam>& info) {
  return "e" + std::to_string(info.param.executors) + "_p" +
         std::to_string(info.param.partitions) + "_s" +
         std::to_string(info.param.seed);
}

class RddPropertyTest : public ::testing::TestWithParam<GridParam> {
 protected:
  RddPropertyTest()
      : sc_(MakeConfig()), rng_(GetParam().seed) {}

  static ClusterConfig MakeConfig() {
    ClusterConfig cfg;
    cfg.num_executors = GetParam().executors;
    cfg.default_parallelism = GetParam().partitions;
    return cfg;
  }

  std::vector<std::pair<int64_t, int64_t>> RandomPairs(int n, int key_mod) {
    std::vector<std::pair<int64_t, int64_t>> out;
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.emplace_back(static_cast<int64_t>(rng_.Below(
                           static_cast<uint64_t>(key_mod))),
                       static_cast<int64_t>(rng_.Below(1000)));
    }
    return out;
  }

  SparkContext sc_;
  Rng rng_;
};

TEST_P(RddPropertyTest, CountEqualsCollectSize) {
  auto data = RandomPairs(333, 50);
  auto rdd = Parallelize(&sc_, data, GetParam().partitions);
  EXPECT_EQ(rdd.Count(), rdd.Collect().size());
  EXPECT_EQ(rdd.Count(), data.size());
}

TEST_P(RddPropertyTest, DistinctMatchesStdSet) {
  auto data = RandomPairs(400, 20);
  auto got = Parallelize(&sc_, data, GetParam().partitions)
                 .Distinct()
                 .Collect();
  std::set<std::pair<int64_t, int64_t>> expected(data.begin(), data.end());
  std::set<std::pair<int64_t, int64_t>> got_set(got.begin(), got.end());
  EXPECT_EQ(got.size(), expected.size()) << "distinct produced duplicates";
  EXPECT_EQ(got_set, expected);
}

TEST_P(RddPropertyTest, ReduceByKeyMatchesStdMap) {
  auto data = RandomPairs(500, 17);
  auto got = Parallelize(&sc_, data, GetParam().partitions)
                 .ReduceByKey([](int64_t a, int64_t b) { return a + b; })
                 .Collect();
  std::map<int64_t, int64_t> expected;
  for (auto& [k, v] : data) expected[k] += v;
  std::map<int64_t, int64_t> got_map(got.begin(), got.end());
  EXPECT_EQ(got_map, expected);
}

TEST_P(RddPropertyTest, JoinMatchesNestedLoopReference) {
  auto left = RandomPairs(120, 25);
  auto right = RandomPairs(80, 25);
  auto got = Parallelize(&sc_, left, GetParam().partitions)
                 .Join(Parallelize(&sc_, right, GetParam().partitions))
                 .Collect();
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> expected;
  for (auto& [lk, lv] : left) {
    for (auto& [rk, rv] : right) {
      if (lk == rk) expected.insert({lk, lv, rv});
    }
  }
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> got_set;
  for (auto& [k, vw] : got) got_set.insert({k, vw.first, vw.second});
  EXPECT_EQ(got_set, expected);
}

TEST_P(RddPropertyTest, ShuffleConservesRecords) {
  auto data = RandomPairs(256, 64);
  auto before = sc_.metrics();
  auto shuffled = Parallelize(&sc_, data, GetParam().partitions)
                      .PartitionByKey(GetParam().partitions);
  EXPECT_EQ(shuffled.Count(), data.size());
  auto delta = sc_.metrics() - before;
  EXPECT_EQ(delta.shuffle_records, data.size())
      << "shuffle must move each record exactly once";
  EXPECT_LE(delta.remote_shuffle_bytes, delta.shuffle_bytes);
  // With one executor nothing is remote.
  if (GetParam().executors == 1) {
    EXPECT_EQ(delta.remote_shuffle_bytes, 0u);
  }
}

TEST_P(RddPropertyTest, EvictionIsInvisible) {
  auto data = RandomPairs(200, 10);
  auto rdd = Parallelize(&sc_, data, GetParam().partitions)
                 .ReduceByKey([](int64_t a, int64_t b) { return a + b; })
                 .MapValues([](const int64_t& v) { return v * 2; });
  auto first = rdd.Collect();
  for (int p = 0; p < rdd.num_partitions(); p += 2) {
    rdd.node()->EvictPartition(p);
  }
  auto second = rdd.Collect();
  std::multiset<std::pair<int64_t, int64_t>> a(first.begin(), first.end());
  std::multiset<std::pair<int64_t, int64_t>> b(second.begin(), second.end());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    ClusterGrid, RddPropertyTest,
    ::testing::Values(GridParam{1, 1, 1}, GridParam{1, 8, 2},
                      GridParam{4, 4, 3}, GridParam{4, 16, 4},
                      GridParam{8, 8, 5}, GridParam{3, 7, 6},
                      GridParam{16, 32, 7}),
    ParamName);

}  // namespace
}  // namespace rdfspark::spark
