#include "spark/sql/dataframe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "spark/sql/session.h"

namespace rdfspark::spark::sql {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 4;
  return cfg;
}

Schema PeopleSchema() {
  return Schema{{Field{"name", DataType::kString},
                 Field{"age", DataType::kInt64},
                 Field{"city", DataType::kString}}};
}

std::vector<Row> PeopleRows() {
  return {
      {std::string("alice"), int64_t{30}, std::string("athens")},
      {std::string("bob"), int64_t{25}, std::string("berlin")},
      {std::string("carol"), int64_t{35}, std::string("athens")},
      {std::string("dave"), int64_t{28}, std::string("tampere")},
  };
}

TEST(DataFrameTest, FromRowsRoundTrips) {
  SparkContext sc(SmallCluster());
  auto df = DataFrame::FromRows(&sc, PeopleSchema(), PeopleRows(), 2);
  EXPECT_EQ(df.NumRows(), 4u);
  EXPECT_EQ(df.num_partitions(), 2);
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(std::get<std::string>(rows[0][0]), "alice");
  EXPECT_EQ(std::get<int64_t>(rows[1][1]), 25);
}

TEST(DataFrameTest, SelectReordersColumns) {
  SparkContext sc(SmallCluster());
  auto df = DataFrame::FromRows(&sc, PeopleSchema(), PeopleRows(), 2);
  auto sel = df.Select({"age", "name"});
  EXPECT_EQ(sel.schema().field(0).name, "age");
  EXPECT_EQ(sel.schema().field(0).type, DataType::kInt64);
  auto rows = sel.Collect();
  EXPECT_EQ(std::get<int64_t>(rows[0][0]), 30);
}

TEST(DataFrameTest, FilterWithExprDsl) {
  SparkContext sc(SmallCluster());
  auto df = DataFrame::FromRows(&sc, PeopleSchema(), PeopleRows(), 2);
  auto young = df.Filter(Col("age") < Lit(30) && Col("city") != Lit("berlin"));
  EXPECT_EQ(young.NumRows(), 1u);  // dave
  EXPECT_EQ(std::get<std::string>(young.Collect()[0][0]), "dave");
}

TEST(DataFrameTest, SelectExprsComputesArithmetic) {
  SparkContext sc(SmallCluster());
  auto df = DataFrame::FromRows(&sc, PeopleSchema(), PeopleRows(), 2);
  auto doubled =
      df.SelectExprs({{Col("age") * Lit(2), "age2"}, {Col("name"), "name"}});
  auto rows = doubled.Collect();
  EXPECT_EQ(std::get<int64_t>(rows[0][0]), 60);
}

TEST(DataFrameTest, DictionaryEncodingShrinksRepeatedStrings) {
  SparkContext sc(SmallCluster());
  // 10k rows of a highly repetitive string column.
  std::vector<Row> rows;
  for (int i = 0; i < 10000; ++i) {
    rows.push_back({std::string("repeated-city-name-") +
                        std::to_string(i % 5),
                    int64_t{i}});
  }
  Schema schema{{Field{"city", DataType::kString},
                 Field{"id", DataType::kInt64}}};
  auto df = DataFrame::FromRows(&sc, schema, rows, 4);
  uint64_t columnar = df.MemoryFootprint();
  uint64_t row_based = 0;
  for (const Row& r : rows) row_based += EstimateSize(r);
  // The columnar layout must be several times smaller (paper: "up to 10
  // times larger datasets than RDD can be managed").
  EXPECT_LT(columnar * 2, row_based);
}

TEST(DataFrameTest, UnionDistinctSortLimit) {
  SparkContext sc(SmallCluster());
  auto df = DataFrame::FromRows(&sc, PeopleSchema(), PeopleRows(), 2);
  auto unioned = df.Union(df);
  EXPECT_EQ(unioned.NumRows(), 8u);
  auto distinct = unioned.Distinct();
  EXPECT_EQ(distinct.NumRows(), 4u);
  auto sorted = distinct.Sort({{"age", true}});
  auto rows = sorted.Collect();
  EXPECT_EQ(std::get<std::string>(rows[0][0]), "bob");
  EXPECT_EQ(std::get<std::string>(rows[3][0]), "carol");
  EXPECT_EQ(sorted.Limit(2).NumRows(), 2u);
}

TEST(DataFrameTest, GroupByAggregates) {
  SparkContext sc(SmallCluster());
  auto df = DataFrame::FromRows(&sc, PeopleSchema(), PeopleRows(), 2);
  auto agg = df.GroupByAgg(
      {"city"}, {AggSpec{AggOp::kCount, "", "n"},
                 AggSpec{AggOp::kAvg, "age", "avg_age"},
                 AggSpec{AggOp::kMax, "age", "max_age"}});
  auto rows = agg.Collect();
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) {
    if (std::get<std::string>(r[0]) == "athens") {
      EXPECT_EQ(std::get<int64_t>(r[1]), 2);
      EXPECT_DOUBLE_EQ(std::get<double>(r[2]), 32.5);
      EXPECT_EQ(std::get<int64_t>(r[3]), 35);
    }
  }
}

Schema KvSchema(const std::string& k, const std::string& v) {
  return Schema{{Field{k, DataType::kInt64}, Field{v, DataType::kString}}};
}

TEST(DataFrameJoinTest, InnerJoinMatches) {
  SparkContext sc(SmallCluster());
  auto left = DataFrame::FromRows(
      &sc, KvSchema("id", "l"),
      {{int64_t{1}, std::string("a")}, {int64_t{2}, std::string("b")}}, 2);
  auto right = DataFrame::FromRows(
      &sc, KvSchema("rid", "r"),
      {{int64_t{2}, std::string("x")}, {int64_t{3}, std::string("y")}}, 2);
  auto joined = left.Join(right, {{"id", "rid"}});
  auto rows = joined.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rows[0][0]), 2);
  EXPECT_EQ(std::get<std::string>(rows[0][3]), "x");
}

TEST(DataFrameJoinTest, LeftOuterJoinPadsNulls) {
  SparkContext sc(SmallCluster());
  auto left = DataFrame::FromRows(
      &sc, KvSchema("id", "l"),
      {{int64_t{1}, std::string("a")}, {int64_t{2}, std::string("b")}}, 2);
  auto right = DataFrame::FromRows(&sc, KvSchema("rid", "r"),
                                   {{int64_t{2}, std::string("x")}}, 2);
  auto joined = left.Join(right, {{"id", "rid"}}, JoinType::kLeftOuter);
  auto rows = joined.Collect();
  ASSERT_EQ(rows.size(), 2u);
  int nulls = 0;
  for (const Row& r : rows) {
    if (IsNull(r[3])) ++nulls;
  }
  EXPECT_EQ(nulls, 1);
}

TEST(DataFrameJoinTest, SmallSideIsBroadcastAutomatically) {
  ClusterConfig cfg = SmallCluster();
  cfg.broadcast_threshold_bytes = 1 << 20;
  SparkContext sc(cfg);
  std::vector<Row> big;
  for (int i = 0; i < 2000; ++i) {
    big.push_back({int64_t{i % 100}, std::string("v") + std::to_string(i)});
  }
  auto left = DataFrame::FromRows(&sc, KvSchema("id", "l"), big, 4);
  auto right = DataFrame::FromRows(&sc, KvSchema("rid", "r"),
                                   {{int64_t{7}, std::string("x")}}, 1);
  auto before = sc.metrics();
  auto joined = left.Join(right, {{"id", "rid"}});
  auto delta = sc.metrics() - before;
  EXPECT_EQ(joined.NumRows(), 20u);
  EXPECT_EQ(delta.shuffle_records, 0u) << "broadcast join must not shuffle";
  EXPECT_GT(delta.broadcast_bytes, 0u);
}

TEST(DataFrameJoinTest, LargeSidesShuffleHashJoin) {
  ClusterConfig cfg = SmallCluster();
  cfg.broadcast_threshold_bytes = 64;  // force shuffle
  SparkContext sc(cfg);
  std::vector<Row> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back({int64_t{i}, std::string("a")});
    b.push_back({int64_t{i}, std::string("b")});
  }
  auto left = DataFrame::FromRows(&sc, KvSchema("id", "l"), a, 4);
  auto right = DataFrame::FromRows(&sc, KvSchema("rid", "r"), b, 4);
  auto before = sc.metrics();
  auto joined = left.Join(right, {{"id", "rid"}});
  auto delta = sc.metrics() - before;
  EXPECT_EQ(joined.NumRows(), 500u);
  EXPECT_EQ(delta.shuffle_records, 1000u);  // both sides shuffled
  EXPECT_EQ(delta.broadcast_bytes, 0u);
}

TEST(DataFrameJoinTest, PrePartitionedJoinSkipsShuffle) {
  ClusterConfig cfg = SmallCluster();
  cfg.broadcast_threshold_bytes = 64;
  SparkContext sc(cfg);
  std::vector<Row> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back({int64_t{i}, std::string("a")});
    b.push_back({int64_t{i}, std::string("b")});
  }
  auto left =
      DataFrame::FromRows(&sc, KvSchema("id", "l"), a, 4).PartitionBy({"id"});
  auto right = DataFrame::FromRows(&sc, KvSchema("rid", "r"), b, 4)
                   .PartitionBy({"rid"});
  auto before = sc.metrics();
  auto joined = left.Join(right, {{"id", "rid"}});
  auto delta = sc.metrics() - before;
  EXPECT_EQ(joined.NumRows(), 300u);
  EXPECT_EQ(delta.shuffle_records, 0u);
}

TEST(DataFrameJoinTest, CartesianStrategyExplodesComparisons) {
  SparkContext sc(SmallCluster());
  std::vector<Row> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back({int64_t{i}, std::string("a")});
    b.push_back({int64_t{i}, std::string("b")});
  }
  auto left = DataFrame::FromRows(&sc, KvSchema("id", "l"), a, 2);
  auto right = DataFrame::FromRows(&sc, KvSchema("rid", "r"), b, 2);

  auto before = sc.metrics();
  auto naive =
      left.Join(right, {{"id", "rid"}}, JoinType::kInner,
                JoinStrategy::kCartesian);
  auto naive_delta = sc.metrics() - before;
  EXPECT_EQ(naive.NumRows(), 50u);
  EXPECT_GE(naive_delta.join_comparisons, 2500u);

  before = sc.metrics();
  auto smart = left.Join(right, {{"id", "rid"}});
  auto smart_delta = sc.metrics() - before;
  EXPECT_EQ(smart.NumRows(), 50u);
  EXPECT_LT(smart_delta.join_comparisons, 200u);
}

TEST(DataFrameEdgeTest, NullKeysNeverJoin) {
  SparkContext sc(SmallCluster());
  Schema kv{{Field{"k", DataType::kInt64}, Field{"v", DataType::kString}}};
  auto left = DataFrame::FromRows(
      &sc, kv, {{Value{}, std::string("null-key")},
                {int64_t{1}, std::string("one")}},
      2);
  auto right = DataFrame::FromRows(
      &sc, Schema{{Field{"rk", DataType::kInt64},
                   Field{"rv", DataType::kString}}},
      {{Value{}, std::string("null-too")}, {int64_t{1}, std::string("uno")}},
      2);
  for (auto strategy :
       {JoinStrategy::kBroadcast, JoinStrategy::kShuffleHash}) {
    auto joined =
        left.Join(right, {{"k", "rk"}}, JoinType::kInner, strategy);
    EXPECT_EQ(joined.NumRows(), 1u) << "SQL NULLs must not match";
  }
  // Left-outer keeps the null-key row, padded.
  auto outer = left.Join(right, {{"k", "rk"}}, JoinType::kLeftOuter);
  EXPECT_EQ(outer.NumRows(), 2u);
}

TEST(DataFrameEdgeTest, NullsInFiltersAndAggregates) {
  SparkContext sc(SmallCluster());
  Schema schema{{Field{"g", DataType::kString},
                 Field{"x", DataType::kInt64}}};
  auto df = DataFrame::FromRows(
      &sc, schema,
      {{std::string("a"), int64_t{1}},
       {std::string("a"), Value{}},
       {std::string("b"), int64_t{5}}},
      2);
  // NULL fails every comparison.
  EXPECT_EQ(df.Filter(Col("x") > Lit(0)).NumRows(), 2u);
  EXPECT_EQ(df.Filter(!(Col("x") > Lit(0))).NumRows(), 0u);
  EXPECT_EQ(df.Filter(Expr::Unary(ExprKind::kIsNull, Col("x"))).NumRows(),
            1u);
  // SUM/AVG skip NULLs; COUNT(*) does not.
  auto agg = df.GroupByAgg({"g"}, {AggSpec{AggOp::kCount, "", "n"},
                                   AggSpec{AggOp::kSum, "x", "s"}});
  for (const Row& r : agg.Collect()) {
    if (std::get<std::string>(r[0]) == "a") {
      EXPECT_EQ(std::get<int64_t>(r[1]), 2);  // counts both rows
      EXPECT_EQ(std::get<int64_t>(r[2]), 1);  // sums only the non-null
    }
  }
}

TEST(DataFrameEdgeTest, EmptyFramesFlowThroughEverything) {
  SparkContext sc(SmallCluster());
  Schema kv{{Field{"k", DataType::kInt64}, Field{"v", DataType::kString}}};
  auto empty = DataFrame::FromRows(&sc, kv, {}, 2);
  EXPECT_EQ(empty.Filter(Col("k") > Lit(0)).NumRows(), 0u);
  EXPECT_EQ(empty.Distinct().NumRows(), 0u);
  EXPECT_EQ(empty.Sort({{"k", true}}).NumRows(), 0u);
  auto nonempty =
      DataFrame::FromRows(&sc, kv, {{int64_t{1}, std::string("x")}}, 1);
  EXPECT_EQ(nonempty
                .Join(empty.Rename({"rk", "rv"}), {{"k", "rk"}},
                      JoinType::kLeftOuter)
                .NumRows(),
            1u);
  auto agg = empty.GroupByAgg({}, {AggSpec{AggOp::kCount, "", "n"}});
  // No rows -> no groups (SQL GROUP BY over empty input with keys).
  EXPECT_EQ(agg.NumRows(), 0u);
}

TEST(DataFrameEdgeTest, IntDoubleCoercionInJoinsAndComparisons) {
  SparkContext sc(SmallCluster());
  auto ints = DataFrame::FromRows(
      &sc, Schema{{Field{"k", DataType::kInt64}}}, {{int64_t{2}}}, 1);
  auto doubles = DataFrame::FromRows(
      &sc, Schema{{Field{"d", DataType::kDouble}}}, {{2.0}, {2.5}}, 1);
  // Cross-type equi-join matches 2 == 2.0 (numeric coercion).
  EXPECT_EQ(ints.Join(doubles, {{"k", "d"}}).NumRows(), 1u);
  EXPECT_EQ(doubles.Filter(Col("d") > Lit(2)).NumRows(), 1u);
}

// ---------------------------------------------------------------------------
// SQL end-to-end.
// ---------------------------------------------------------------------------

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : sc_(SmallCluster()), session_(&sc_) {
    session_.RegisterTable(
        "people", DataFrame::FromRows(&sc_, PeopleSchema(), PeopleRows(), 2));
    session_.RegisterTable(
        "jobs",
        DataFrame::FromRows(
            &sc_,
            Schema{{Field{"who", DataType::kString},
                    Field{"title", DataType::kString}}},
            {{std::string("alice"), std::string("engineer")},
             {std::string("carol"), std::string("scientist")}},
            2));
  }

  std::vector<Row> Run(const std::string& q) {
    auto df = session_.Sql(q);
    EXPECT_TRUE(df.ok()) << df.status().ToString();
    return df->Collect();
  }

  SparkContext sc_;
  SqlSession session_;
};

TEST_F(SqlTest, SelectStar) {
  EXPECT_EQ(Run("SELECT * FROM people").size(), 4u);
}

TEST_F(SqlTest, SelectColumnsWhere) {
  auto rows = Run("SELECT name, age FROM people WHERE age >= 30");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SqlTest, StringLiteralsAndOr) {
  auto rows =
      Run("SELECT name FROM people WHERE city = 'athens' OR name = 'dave'");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, JoinWithAliases) {
  auto rows = Run(
      "SELECT p.name, j.title FROM people p JOIN jobs j ON p.name = j.who");
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(SqlTest, LeftJoinKeepsAll) {
  auto rows = Run(
      "SELECT p.name, j.title FROM people p LEFT JOIN jobs j ON p.name = "
      "j.who");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(SqlTest, GroupByWithAggregates) {
  auto rows = Run(
      "SELECT city, COUNT(*) AS n, AVG(age) AS a FROM people GROUP BY city");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, OrderByLimit) {
  auto rows = Run("SELECT name FROM people ORDER BY age DESC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(rows[0][0]), "carol");
  EXPECT_EQ(std::get<std::string>(rows[1][0]), "alice");
}

TEST_F(SqlTest, DistinctCities) {
  EXPECT_EQ(Run("SELECT DISTINCT city FROM people").size(), 3u);
}

TEST_F(SqlTest, ExplainShowsPushdown) {
  auto plan = session_.Explain(
      "SELECT p.name FROM people p JOIN jobs j ON p.name = j.who WHERE "
      "p.age > 26");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The age filter must sit below the join (pushdown).
  size_t join_pos = plan->find("Join");
  size_t filter_pos = plan->find("Filter");
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(filter_pos, std::string::npos);
  EXPECT_GT(filter_pos, join_pos);
}

TEST_F(SqlTest, ErrorsAreStatuses) {
  EXPECT_FALSE(session_.Sql("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(session_.Sql("SELEC bogus").ok());
  EXPECT_FALSE(session_.Sql("SELECT name FROM people LIMIT x").ok());
}

TEST_F(SqlTest, JoinWithoutEquiKeysFallsBackToCartesian) {
  auto before = sc_.metrics();
  auto rows = Run(
      "SELECT p.name FROM people p JOIN jobs j ON p.age > 26 WHERE j.title "
      "= 'engineer'");
  auto delta = sc_.metrics() - before;
  // The optimizer pushes both single-sided predicates below the join; what
  // remains is a keyless (Cartesian) join of 3 people x 1 job.
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_GE(delta.join_comparisons, 3u);
}

TEST_F(SqlTest, JoinReorderPutsSmallTableFirst) {
  // Three-way join; "tiny" has 1 row and should anchor the plan.
  session_.RegisterTable(
      "tiny", DataFrame::FromRows(
                  &sc_,
                  Schema{{Field{"t", DataType::kString}}},
                  {{std::string("engineer")}}, 1));
  auto plan = session_.Explain(
      "SELECT p.name FROM people p JOIN jobs j ON p.name = j.who JOIN tiny "
      "t ON j.title = t.t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // tiny must appear before people in the (left-deep) chain: its scan line
  // is more indented or appears first. We simply check it is not last.
  size_t tiny_pos = plan->find("Scan tiny");
  size_t people_pos = plan->find("Scan people");
  ASSERT_NE(tiny_pos, std::string::npos);
  ASSERT_NE(people_pos, std::string::npos);
  EXPECT_LT(tiny_pos, people_pos);
  // Result still correct.
  auto rows = Run(
      "SELECT p.name FROM people p JOIN jobs j ON p.name = j.who JOIN tiny "
      "t ON j.title = t.t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rows[0][0]), "alice");
}

// ---------------------------------------------------------------------------
// Differential check of the columnar operators: each runs on a random frame
// in one context, and a row-at-a-time reference (GetRow/AppendRow, the
// same charges) runs on an identical frame in a second context. Batches
// must match partition by partition: rows, MemoryBytes, and the column
// storage itself, whose dictionary codes show the interning order that
// MemoryBytes cannot. Every Metrics scalar must match too.
// ---------------------------------------------------------------------------

/// A frame's batches, schema and partitioner, outside any DataFrame.
struct RefFrame {
  Schema schema;
  std::vector<RecordBatch> batches;
  std::optional<PartitionerInfo> partitioner;
};

RefFrame Snapshot(const DataFrame& df) {
  RefFrame f{df.schema(), {}, df.partitioner()};
  for (int p = 0; p < df.num_partitions(); ++p) {
    f.batches.push_back(df.partition(p));
  }
  return f;
}

Schema MixedSchema(const std::string& prefix) {
  return Schema{{Field{prefix + "i", DataType::kInt64},
                 Field{prefix + "d", DataType::kDouble},
                 Field{prefix + "b", DataType::kBool},
                 Field{prefix + "s", DataType::kString}}};
}

Value RandomCell(DataType type, std::mt19937* rng) {
  if ((*rng)() % 6 == 0) return Value{};
  static const char* kWords[] = {"ee", "a", "ccc", "bb", "d", "a longer word"};
  switch (type) {
    case DataType::kInt64:
      return int64_t((*rng)() % 5);
    case DataType::kDouble:
      return double((*rng)() % 5) / ((*rng)() % 2 ? 1.0 : 2.0);
    case DataType::kBool:
      return (*rng)() % 2 == 0;
    case DataType::kString:
      return std::string(kWords[(*rng)() % 6]);
    case DataType::kNull:
      return Value{};
  }
  return Value{};
}

/// A frame of 0-24 random rows over 1-5 partitions (some empty); half the
/// time passed through Filter(true), which leaves empty partitions
/// column-less.
DataFrame RandomFrame(SparkContext* sc, const std::string& prefix,
                      uint32_t seed) {
  std::mt19937 rng(seed);
  Schema schema = MixedSchema(prefix);
  size_t n = rng() % 3 == 0 ? rng() % 4 : rng() % 25;
  int parts = 1 + static_cast<int>(rng() % 5);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (const Field& f : schema.fields()) {
      row.push_back(RandomCell(f.type, &rng));
    }
    rows.push_back(std::move(row));
  }
  DataFrame df = DataFrame::FromRows(sc, schema, rows, parts);
  if (rng() % 2 == 0) df = df.Filter(Lit(Value(true)));
  return df;
}

uint64_t RefHash(const Row& key) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const Value& v : key) h = CombineHash64(h, HashValue(v));
  return h;
}

struct RefRowHasher {
  size_t operator()(const Row& row) const {
    return static_cast<size_t>(RefHash(row));
  }
};

struct RefKeyEqual {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!ValuesEqual(a[i], b[i])) return false;
    }
    return true;
  }
};

bool HasNull(const Row& key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value& v) { return IsNull(v); });
}

std::string RefKind(const std::vector<std::string>& columns) {
  std::string kind = "df-hash";
  for (const auto& c : columns) kind += ":" + c;
  return kind;
}

Row KeyOf(const Row& row, const std::vector<int>& cols) {
  Row key;
  for (int c : cols) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

std::vector<int> Indices(const Schema& schema,
                         const std::vector<std::string>& names) {
  std::vector<int> cols;
  for (const auto& n : names) cols.push_back(schema.Index(n));
  return cols;
}

RefFrame RefShuffle(SparkContext* sc, const RefFrame& in,
                    const std::vector<int>& key_cols, int n) {
  sc->BeginPhase();
  size_t np = in.batches.size();
  std::vector<std::vector<std::vector<Row>>> staged(np);
  std::vector<std::vector<uint64_t>> staged_remote(np);
  sc->RunParallel(static_cast<int>(np), [&](int p) {
    const RecordBatch& b = in.batches[static_cast<size_t>(p)];
    sc->ChargeTask(p, b.num_rows, 0);
    staged[static_cast<size_t>(p)].resize(static_cast<size_t>(n));
    staged_remote[static_cast<size_t>(p)].assign(static_cast<size_t>(n), 0);
    uint64_t records = 0, bytes_total = 0, remote_bytes = 0;
    uint64_t remote_reads = 0, local_reads = 0;
    for (size_t i = 0; i < b.num_rows; ++i) {
      Row row = b.GetRow(i);
      int t = static_cast<int>(RefHash(KeyOf(row, key_cols)) %
                               static_cast<uint64_t>(n));
      uint64_t bytes = EstimateSize(row);
      ++records;
      bytes_total += bytes;
      if (sc->ExecutorOf(t) != sc->ExecutorOf(p)) {
        remote_bytes += bytes;
        ++remote_reads;
        staged_remote[static_cast<size_t>(p)][static_cast<size_t>(t)] += bytes;
      } else {
        ++local_reads;
      }
      staged[static_cast<size_t>(p)][static_cast<size_t>(t)].push_back(row);
    }
    sc->ChargeShuffleWrite(p, records, bytes_total, remote_bytes, local_reads,
                           remote_reads);
  });
  RefFrame out{in.schema, {}, std::nullopt};
  std::vector<uint64_t> remote(static_cast<size_t>(n), 0);
  for (int t = 0; t < n; ++t) out.batches.push_back(MakeBatch(in.schema));
  for (size_t p = 0; p < np; ++p) {
    for (size_t t = 0; t < static_cast<size_t>(n); ++t) {
      for (const Row& row : staged[p][t]) out.batches[t].AppendRow(row);
      remote[t] += staged_remote[p][t];
    }
  }
  for (int t = 0; t < n; ++t) {
    sc->ChargeTask(t, out.batches[static_cast<size_t>(t)].num_rows,
                   remote[static_cast<size_t>(t)]);
  }
  sc->EndPhase();
  return out;
}

RefFrame RefPartitionBy(SparkContext* sc, const RefFrame& in,
                        const std::vector<std::string>& columns, int n) {
  PartitionerInfo info{RefKind(columns), n, 0};
  if (in.partitioner && *in.partitioner == info) return in;
  RefFrame out = RefShuffle(sc, in, Indices(in.schema, columns), n);
  out.partitioner = info;
  return out;
}

/// Runs `task(p, in, out)` once per partition slot in its own phase; a slot
/// whose `has_rows(p)` is false stays column-less.
template <typename HasRows, typename Task>
std::vector<RecordBatch> RefPerPartition(SparkContext* sc, int n,
                                         const Schema& out_schema,
                                         HasRows has_rows, Task task) {
  sc->BeginPhase();
  std::vector<RecordBatch> out(static_cast<size_t>(n));
  sc->RunParallel(n, [&](int p) {
    RecordBatch batch;
    if (has_rows(p)) batch = MakeBatch(out_schema);
    task(p, &batch);
    out[static_cast<size_t>(p)] = std::move(batch);
  });
  sc->EndPhase();
  return out;
}

RefFrame RefFilter(SparkContext* sc, const RefFrame& in, const Expr& pred) {
  BoundExpr bound(pred, in.schema);
  int n = static_cast<int>(in.batches.size());
  auto batches = RefPerPartition(
      sc, n, in.schema,
      [&](int p) { return in.batches[static_cast<size_t>(p)].num_rows > 0; },
      [&](int p, RecordBatch* out) {
        const RecordBatch& b = in.batches[static_cast<size_t>(p)];
        for (size_t i = 0; i < b.num_rows; ++i) {
          Row row = b.GetRow(i);
          if (bound.EvalPredicate(row)) out->AppendRow(row);
        }
        sc->ChargeTask(p, b.num_rows, 0);
      });
  return RefFrame{in.schema, std::move(batches), in.partitioner};
}

RefFrame RefSelectExprs(
    SparkContext* sc, const RefFrame& in,
    const std::vector<std::pair<Expr, std::string>>& projections) {
  std::vector<BoundExpr> bound;
  std::vector<Field> fields;
  for (const auto& [expr, name] : projections) {
    bound.emplace_back(expr, in.schema);
    DataType type = DataType::kString;
    if (expr.kind() == ExprKind::kColumn) {
      int idx = in.schema.Index(expr.column());
      if (idx >= 0) type = in.schema.field(static_cast<size_t>(idx)).type;
    } else if (expr.kind() == ExprKind::kLiteral) {
      type = TypeOf(expr.literal());
    } else {
      for (const auto& b : in.batches) {
        if (b.num_rows > 0) {
          type = TypeOf(bound.back().Eval(b.GetRow(0)));
          break;
        }
      }
    }
    fields.push_back(Field{name, type});
  }
  Schema out_schema{fields};
  int n = static_cast<int>(in.batches.size());
  auto batches = RefPerPartition(
      sc, n, out_schema,
      [&](int p) { return in.batches[static_cast<size_t>(p)].num_rows > 0; },
      [&](int p, RecordBatch* out) {
        const RecordBatch& b = in.batches[static_cast<size_t>(p)];
        for (size_t i = 0; i < b.num_rows; ++i) {
          Row row = b.GetRow(i);
          Row projected;
          for (const BoundExpr& e : bound) projected.push_back(e.Eval(row));
          out->AppendRow(projected);
        }
        sc->ChargeTask(p, b.num_rows, 0);
      });
  return RefFrame{out_schema, std::move(batches), std::nullopt};
}

Schema Concat(const Schema& a, const Schema& b) {
  std::vector<Field> fields = a.fields();
  for (const Field& f : b.fields()) fields.push_back(f);
  return Schema{fields};
}

RefFrame RefCrossJoin(SparkContext* sc, const RefFrame& l, const RefFrame& r) {
  Schema out_schema = Concat(l.schema, r.schema);
  int rn = static_cast<int>(r.batches.size());
  int total = static_cast<int>(l.batches.size()) * rn;
  auto batches = RefPerPartition(
      sc, total, out_schema,
      [&](int o) {
        return l.batches[static_cast<size_t>(o / rn)].num_rows > 0 &&
               r.batches[static_cast<size_t>(o % rn)].num_rows > 0;
      },
      [&](int o, RecordBatch* out) {
        const RecordBatch& lb = l.batches[static_cast<size_t>(o / rn)];
        const RecordBatch& rb = r.batches[static_cast<size_t>(o % rn)];
        sc->ChargeJoinComparisons(lb.num_rows * rb.num_rows);
        uint64_t remote = 0;
        if (sc->ExecutorOf(o) != sc->ExecutorOf(o % rn)) {
          remote = rb.MemoryBytes();
          sc->ChargeRemoteReads(rb.num_rows);
        }
        for (size_t i = 0; i < lb.num_rows; ++i) {
          for (size_t j = 0; j < rb.num_rows; ++j) {
            Row combined = lb.GetRow(i);
            Row rrow = rb.GetRow(j);
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            out->AppendRow(combined);
          }
        }
        sc->ChargeTask(o, lb.num_rows * rb.num_rows, remote);
      });
  return RefFrame{out_schema, std::move(batches), std::nullopt};
}

using RefBuild =
    std::unordered_map<Row, std::vector<Row>, RefRowHasher, RefKeyEqual>;

void RefBuildFrom(const RecordBatch& b, const std::vector<int>& cols,
                  RefBuild* build) {
  for (size_t i = 0; i < b.num_rows; ++i) {
    Row row = b.GetRow(i);
    Row key = KeyOf(row, cols);
    if (HasNull(key)) continue;
    (*build)[key].push_back(row);
  }
}

uint64_t RefProbe(const RecordBatch& b, const std::vector<int>& cols,
                  const RefBuild& build, size_t width, JoinType type,
                  RecordBatch* out) {
  uint64_t comparisons = 0;
  for (size_t i = 0; i < b.num_rows; ++i) {
    Row row = b.GetRow(i);
    Row key = KeyOf(row, cols);
    ++comparisons;
    auto it = HasNull(key) ? build.end() : build.find(key);
    if (it != build.end()) {
      comparisons += it->second.size() - 1;
      for (const Row& rrow : it->second) {
        Row combined = row;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        out->AppendRow(combined);
      }
    } else if (type == JoinType::kLeftOuter) {
      Row combined = row;
      combined.resize(width);
      out->AppendRow(combined);
    }
  }
  return comparisons;
}

using Keys = std::vector<std::pair<std::string, std::string>>;

RefFrame RefBroadcastJoin(SparkContext* sc, const RefFrame& l,
                          const RefFrame& r, const Keys& keys,
                          JoinType type) {
  uint64_t right_bytes = 0;
  for (const auto& b : r.batches) right_bytes += b.MemoryBytes();
  sc->ChargeBroadcastBytes(right_bytes);
  std::vector<int> lcols, rcols;
  for (const auto& [a, b] : keys) {
    lcols.push_back(l.schema.Index(a));
    rcols.push_back(r.schema.Index(b));
  }
  Schema out_schema = Concat(l.schema, r.schema);
  RefBuild build;
  for (const auto& b : r.batches) RefBuildFrom(b, rcols, &build);
  auto batches = RefPerPartition(
      sc, static_cast<int>(l.batches.size()), out_schema,
      [&](int p) { return l.batches[static_cast<size_t>(p)].num_rows > 0; },
      [&](int p, RecordBatch* out) {
        const RecordBatch& b = l.batches[static_cast<size_t>(p)];
        sc->ChargeJoinComparisons(
            RefProbe(b, lcols, build, out_schema.num_fields(), type, out));
        sc->ChargeTask(p, b.num_rows, 0);
      });
  return RefFrame{out_schema, std::move(batches), l.partitioner};
}

RefFrame RefShuffleHashJoin(SparkContext* sc, const RefFrame& l,
                            const RefFrame& r, const Keys& keys,
                            JoinType type) {
  std::vector<std::string> lnames, rnames;
  for (const auto& [a, b] : keys) {
    lnames.push_back(a);
    rnames.push_back(b);
  }
  int ln = static_cast<int>(l.batches.size());
  int rn = static_cast<int>(r.batches.size());
  int n = std::max(ln, rn);
  PartitionerInfo linfo{RefKind(lnames), ln, 0};
  PartitionerInfo rinfo{RefKind(rnames), rn, 0};
  bool copartitioned = l.partitioner && r.partitioner &&
                       *l.partitioner == linfo && *r.partitioner == rinfo &&
                       ln == rn;
  RefFrame lp = copartitioned ? l : RefPartitionBy(sc, l, lnames, n);
  RefFrame rp = copartitioned ? r : RefPartitionBy(sc, r, rnames, n);
  std::vector<int> lcols = Indices(lp.schema, lnames);
  std::vector<int> rcols = Indices(rp.schema, rnames);
  Schema out_schema = Concat(lp.schema, rp.schema);
  int parts = static_cast<int>(lp.batches.size());
  auto batches = RefPerPartition(
      sc, parts, out_schema,
      [&](int p) { return lp.batches[static_cast<size_t>(p)].num_rows > 0; },
      [&](int p, RecordBatch* out) {
        const RecordBatch& lb = lp.batches[static_cast<size_t>(p)];
        const RecordBatch& rb = rp.batches[static_cast<size_t>(p)];
        RefBuild build;
        RefBuildFrom(rb, rcols, &build);
        sc->ChargeJoinComparisons(
            RefProbe(lb, lcols, build, out_schema.num_fields(), type, out));
        sc->ChargeTask(p, lb.num_rows + rb.num_rows, 0);
      });
  return RefFrame{out_schema, std::move(batches),
                  PartitionerInfo{RefKind(lnames), parts, 0}};
}

RefFrame RefDistinct(SparkContext* sc, const RefFrame& in) {
  std::vector<int> all;
  for (size_t c = 0; c < in.schema.num_fields(); ++c) {
    all.push_back(static_cast<int>(c));
  }
  int n = static_cast<int>(in.batches.size());
  RefFrame buckets = RefShuffle(sc, in, all, n);
  auto batches = RefPerPartition(
      sc, n, in.schema,
      [&](int p) {
        return buckets.batches[static_cast<size_t>(p)].num_rows > 0;
      },
      [&](int p, RecordBatch* out) {
        const RecordBatch& b = buckets.batches[static_cast<size_t>(p)];
        std::unordered_set<Row, RefRowHasher> seen;
        for (size_t i = 0; i < b.num_rows; ++i) {
          Row row = b.GetRow(i);
          if (seen.insert(row).second) out->AppendRow(row);
        }
        sc->ChargeTask(p, b.num_rows, 0);
      });
  return RefFrame{in.schema, std::move(batches), std::nullopt};
}

std::vector<std::pair<std::string, double>> Scalars(const Metrics& m) {
  std::vector<std::pair<std::string, double>> out;
  m.ForEachNumericField(
      [&](const std::string& name, double v) { out.emplace_back(name, v); });
  return out;
}

void ExpectSameFrame(const DataFrame& got, const RefFrame& want) {
  ASSERT_EQ(got.schema(), want.schema);
  EXPECT_EQ(got.partitioner(), want.partitioner);
  ASSERT_EQ(got.num_partitions(), static_cast<int>(want.batches.size()));
  for (int p = 0; p < got.num_partitions(); ++p) {
    const RecordBatch& g = got.partition(p);
    const RecordBatch& w = want.batches[static_cast<size_t>(p)];
    ASSERT_EQ(g.num_rows, w.num_rows) << "partition " << p;
    ASSERT_EQ(g.columns.size(), w.columns.size()) << "partition " << p;
    for (size_t i = 0; i < g.num_rows; ++i) {
      EXPECT_EQ(g.GetRow(i), w.GetRow(i)) << "partition " << p << " row " << i;
    }
    for (size_t c = 0; c < g.columns.size(); ++c) {
      EXPECT_EQ(g.columns[c].MemoryBytes(), w.columns[c].MemoryBytes())
          << "partition " << p << " column " << c;
      EXPECT_TRUE(g.columns[c] == w.columns[c])
          << "partition " << p << " column " << c
          << ": storage or dictionary order differs";
    }
  }
}

/// Builds the inputs twice from `seed` (identical frames, identical charges
/// so far), applies `op` in one context and `ref` to snapshots in the other,
/// and compares output and metrics.
template <typename Inputs, typename Op, typename Ref>
void Differential(uint32_t seed, Inputs inputs, Op op, Ref ref) {
  SparkContext a(SmallCluster());
  SparkContext b(SmallCluster());
  auto [al, ar] = inputs(&a, seed);
  auto [bl, br] = inputs(&b, seed);
  DataFrame got = op(al, ar);
  RefFrame want = ref(&b, Snapshot(bl), Snapshot(br));
  SCOPED_TRACE("seed " + std::to_string(seed));
  ExpectSameFrame(got, want);
  EXPECT_EQ(Scalars(a.metrics()), Scalars(b.metrics()));
}

std::pair<DataFrame, DataFrame> TwoFrames(SparkContext* sc, uint32_t seed) {
  return {RandomFrame(sc, "l", seed), RandomFrame(sc, "r", seed * 7919 + 1)};
}

std::pair<DataFrame, DataFrame> SameSchemaFrames(SparkContext* sc,
                                                 uint32_t seed) {
  return {RandomFrame(sc, "l", seed), RandomFrame(sc, "l", seed * 7919 + 1)};
}

constexpr uint32_t kSeeds = 40;

TEST(DataFrameKernelTest, CrossJoinMatchesRowReference) {
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    Differential(
        seed, TwoFrames,
        [](const DataFrame& l, const DataFrame& r) { return l.CrossJoin(r); },
        [](SparkContext* sc, const RefFrame& l, const RefFrame& r) {
          return RefCrossJoin(sc, l, r);
        });
  }
}

TEST(DataFrameKernelTest, FilterMatchesRowReference) {
  const std::vector<Expr> predicates = {
      Col("li") > Lit(1) && Col("ls") != Lit("bb"),
      Col("ld") == Col("li"),
      Expr::Unary(ExprKind::kIsNull, Col("ls")) ||
          Col("lb") == Lit(Value(true)),
      !(Col("li") * Lit(2) >= Col("ld") + Lit(1)),
      Col("missing") == Lit(1),
  };
  for (const Expr& pred : predicates) {
    for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
      Differential(
          seed, TwoFrames,
          [&](const DataFrame& l, const DataFrame&) { return l.Filter(pred); },
          [&](SparkContext* sc, const RefFrame& l, const RefFrame&) {
            return RefFilter(sc, l, pred);
          });
    }
  }
}

TEST(DataFrameKernelTest, SelectExprsMatchesRowReference) {
  const std::vector<std::pair<Expr, std::string>> projections = {
      {Col("ls"), "s"},
      {Lit(7), "seven"},
      {Col("li") * Lit(2) + Col("ld"), "x"},
      {Col("li"), "i"},
      {Col("missing"), "m"},
      {Col("lb") == Lit(Value(false)), "nb"},
      {Lit(Value{}), "nothing"},
      {Col("ls"), "s_again"},
  };
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    Differential(
        seed, TwoFrames,
        [&](const DataFrame& l, const DataFrame&) {
          return l.SelectExprs(projections);
        },
        [&](SparkContext* sc, const RefFrame& l, const RefFrame&) {
          return RefSelectExprs(sc, l, projections);
        });
  }
}

/// A column hashes and compares its cells in place exactly as HashValue
/// and ValuesEqual treat the Values read from it, for every pair of column
/// types, NULL cells included.
TEST(DataFrameKernelTest, CellHashAndEqualityMatchValues) {
  SparkContext sc(SmallCluster());
  const std::vector<std::pair<std::string, std::string>> columns = {
      {"li", "ri"}, {"ld", "rd"}, {"lb", "rb"}, {"ls", "rs"}};
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DataFrame l = DataFrame::FromRows(
        &sc, MixedSchema("l"), RandomFrame(&sc, "l", seed).Collect(), 1);
    DataFrame r = DataFrame::FromRows(
        &sc, MixedSchema("r"), RandomFrame(&sc, "r", seed + 100).Collect(), 1);
    const RecordBatch& lb = l.partition(0);
    const RecordBatch& rb = r.partition(0);
    for (size_t a = 0; a < lb.columns.size(); ++a) {
      const Column& col = lb.columns[a];
      std::vector<uint64_t> hashes(lb.num_rows, seed);
      col.CombineHashes(hashes.data());
      for (size_t i = 0; i < lb.num_rows; ++i) {
        EXPECT_EQ(hashes[i], CombineHash64(seed, HashValue(col.Get(i))))
            << "column " << a << " row " << i;
        for (size_t b = 0; b < rb.columns.size(); ++b) {
          const Column& other = rb.columns[b];
          for (size_t j = 0; j < rb.num_rows; ++j) {
            EXPECT_EQ(col.ValueEquals(i, other, j),
                      ValuesEqual(col.Get(i), other.Get(j)))
                << "columns " << a << "/" << b << " rows " << i << "/" << j;
          }
        }
      }
    }
  }
}

TEST(DataFrameKernelTest, HashJoinsMatchRowReference) {
  // int64, string, bool, double (a non-integral value hashes by its bits),
  // int64 against double (2 == 2.0), and a two-column key; the random NULL
  // cells never join.
  const std::vector<Keys> key_sets = {
      {{"li", "ri"}},
      {{"ls", "rs"}},
      {{"lb", "rb"}},
      {{"ld", "rd"}},
      {{"li", "rd"}},
      {{"li", "ri"}, {"ls", "rs"}},
  };
  for (const Keys& keys : key_sets) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
      for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
        Differential(
            seed, TwoFrames,
            [&](const DataFrame& l, const DataFrame& r) {
              return l.Join(r, keys, type, JoinStrategy::kBroadcast);
            },
            [&](SparkContext* sc, const RefFrame& l, const RefFrame& r) {
              return RefBroadcastJoin(sc, l, r, keys, type);
            });
        Differential(
            seed, TwoFrames,
            [&](const DataFrame& l, const DataFrame& r) {
              return l.Join(r, keys, type, JoinStrategy::kShuffleHash);
            },
            [&](SparkContext* sc, const RefFrame& l, const RefFrame& r) {
              return RefShuffleHashJoin(sc, l, r, keys, type);
            });
      }
    }
  }
}

TEST(DataFrameKernelTest, CoPartitionedShuffleHashJoinMatchesRowReference) {
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
      Differential(
          seed, TwoFrames,
          [&](const DataFrame& l, const DataFrame& r) {
            return l.PartitionBy({"li"}, 3).Join(r.PartitionBy({"ri"}, 3),
                                                 {{"li", "ri"}}, type,
                                                 JoinStrategy::kShuffleHash);
          },
          [&](SparkContext* sc, const RefFrame& l, const RefFrame& r) {
            return RefShuffleHashJoin(sc, RefPartitionBy(sc, l, {"li"}, 3),
                                      RefPartitionBy(sc, r, {"ri"}, 3),
                                      {{"li", "ri"}}, type);
          });
    }
  }
}

TEST(DataFrameKernelTest, PartitionByMatchesRowReference) {
  const std::vector<std::vector<std::string>> column_sets = {
      {"li"}, {"ls"}, {"ls", "lb"}, {"ld", "li", "ls", "lb"}};
  for (const auto& columns : column_sets) {
    for (int n : {1, 3, 4}) {
      for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
        Differential(
            seed, TwoFrames,
            [&](const DataFrame& l, const DataFrame&) {
              // The second PartitionBy is a no-op on equal placement.
              return l.PartitionBy(columns, n).PartitionBy(columns, n);
            },
            [&](SparkContext* sc, const RefFrame& l, const RefFrame&) {
              return RefPartitionBy(sc, RefPartitionBy(sc, l, columns, n),
                                    columns, n);
            });
      }
    }
  }
}

TEST(DataFrameKernelTest, DistinctMatchesRowReference) {
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    // A frame unioned with itself holds every row twice.
    Differential(
        seed, SameSchemaFrames,
        [](const DataFrame& l, const DataFrame& r) {
          return l.Union(r).Union(l).Distinct();
        },
        [](SparkContext* sc, const RefFrame& l, const RefFrame& r) {
          RefFrame u{l.schema, l.batches, std::nullopt};
          u.batches.insert(u.batches.end(), r.batches.begin(), r.batches.end());
          u.batches.insert(u.batches.end(), l.batches.begin(), l.batches.end());
          return RefDistinct(sc, u);
        });
  }
}

TEST(DataFrameKernelTest, UnionAndRenameShareBatches) {
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    Differential(
        seed, SameSchemaFrames,
        [](const DataFrame& l, const DataFrame& r) { return l.Union(r); },
        [](SparkContext*, const RefFrame& l, const RefFrame& r) {
          RefFrame u{l.schema, l.batches, std::nullopt};
          u.batches.insert(u.batches.end(), r.batches.begin(), r.batches.end());
          return u;
        });
    Differential(
        seed, TwoFrames,
        [](const DataFrame& l, const DataFrame&) {
          return l.Rename({"a", "b", "c", "d"});
        },
        [](SparkContext*, const RefFrame& l, const RefFrame&) {
          RefFrame renamed = l;
          renamed.schema = Schema{{Field{"a", DataType::kInt64},
                                   Field{"b", DataType::kDouble},
                                   Field{"c", DataType::kBool},
                                   Field{"d", DataType::kString}}};
          return renamed;
        });
  }
  // Shared, not copied: the renamed and unioned frames read the same
  // batch objects as their input.
  SparkContext sc(SmallCluster());
  DataFrame df = RandomFrame(&sc, "l", 3);
  DataFrame renamed = df.Rename({"a", "b", "c", "d"});
  DataFrame assumed = df.AssumePartitionedBy({"li"});
  DataFrame unioned = df.Union(df);
  for (int p = 0; p < df.num_partitions(); ++p) {
    EXPECT_EQ(&renamed.partition(p), &df.partition(p));
    EXPECT_EQ(&assumed.partition(p), &df.partition(p));
    EXPECT_EQ(&unioned.partition(p), &df.partition(p));
    EXPECT_EQ(&unioned.partition(p + df.num_partitions()), &df.partition(p));
  }
}

}  // namespace
}  // namespace rdfspark::spark::sql
