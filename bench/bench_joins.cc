// A3 — the distributed-join study of [21] (§IV.A.3): partitioned (shuffle)
// joins vs broadcast joins vs the Cartesian fallback of a naive SQL
// translation, across size ratios of the two sides. The crossover — where
// broadcasting the small side stops paying — moves with the broadcast
// threshold, and a hybrid greedy plan tracks the better of the two.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "spark/sql/dataframe.h"
#include "systems/common.h"
#include "systems/hybrid.h"

namespace rdfspark::bench {
namespace {

namespace sql = spark::sql;

sql::DataFrame MakeTable(spark::SparkContext* sc, int rows, int key_mod,
                         const std::string& key, const std::string& val,
                         int partitions = 8) {
  std::vector<sql::Row> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    data.push_back(sql::Row{int64_t{i % key_mod},
                            std::string("value-") + std::to_string(i)});
  }
  sql::Schema schema{{sql::Field{key, sql::DataType::kInt64},
                      sql::Field{val, sql::DataType::kString}}};
  return sql::DataFrame::FromRows(sc, schema, data, partitions);
}

void SizeRatioSweep() {
  std::printf(
      "A3: broadcast vs partitioned join across |small|/|large| ratios\n"
      "(|large| = 20000 rows, broadcast threshold = 64 KiB)\n\n");
  std::vector<int> widths = {12, 12, 20, 20, 18, 16, 20, 20};
  PrintRow({"small_rows", "result", "broadcast: net_KiB", "shuffle: net_KiB",
            "shuf_KiB (b/s)", "cmp (b/s)", "wall_ms (b/s)",
            "winner (sim_ms b/s)"},
           widths);
  PrintRule(widths);

  const int kLargeRows = 20000;
  BenchJson json("joins");
  for (int small_rows : {10, 100, 1000, 5000, 20000}) {
    double sim_ms[2];
    double wall_ms[2];
    uint64_t net_bytes[2];
    uint64_t shuf_bytes[2];
    uint64_t comparisons[2];
    uint64_t result_rows = 0;
    for (int strat = 0; strat < 2; ++strat) {
      spark::ClusterConfig cfg = DefaultCluster();
      cfg.broadcast_threshold_bytes = 64 << 10;
      spark::SparkContext sc(cfg);
      auto large = MakeTable(&sc, kLargeRows, 4096, "k", "lv");
      auto small = MakeTable(&sc, small_rows, 4096, "k2", "rv");
      auto before = sc.metrics();
      wall_ms[strat] = WallMs([&] {
        auto joined = large.Join(
            small, {{"k", "k2"}}, sql::JoinType::kInner,
            strat == 0 ? sql::JoinStrategy::kBroadcast
                       : sql::JoinStrategy::kShuffleHash);
        result_rows = joined.NumRows();
      });
      auto delta = sc.metrics() - before;
      sim_ms[strat] = delta.simulated_ms;
      net_bytes[strat] =
          delta.remote_shuffle_bytes + delta.broadcast_bytes;
      shuf_bytes[strat] = delta.shuffle_bytes;
      comparisons[strat] = delta.join_comparisons;
      std::string label = std::to_string(small_rows) + "/" +
                          (strat == 0 ? "broadcast" : "shuffle");
      json.Add(label, "result_rows", static_cast<double>(result_rows));
      json.Add(label, "wall_ms", wall_ms[strat]);
      json.AddMetrics(label, delta);
    }
    std::string winner = sim_ms[0] < sim_ms[1] ? "broadcast" : "shuffle";
    PrintRow({Fmt(uint64_t(small_rows)), Fmt(result_rows),
              Fmt(double(net_bytes[0]) / 1024.0),
              Fmt(double(net_bytes[1]) / 1024.0),
              Fmt(double(shuf_bytes[0]) / 1024.0) + "/" +
                  Fmt(double(shuf_bytes[1]) / 1024.0),
              Fmt(comparisons[0]) + "/" + Fmt(comparisons[1]),
              Fmt(wall_ms[0]) + "/" + Fmt(wall_ms[1]),
              winner + " (" + Fmt(sim_ms[0]) + "/" + Fmt(sim_ms[1]) + ")"},
             widths);
  }
  std::printf(
      "\nCheck: broadcast wins while the small side is small; as it grows\n"
      "the replicated volume overtakes the two-sided shuffle (crossover).\n\n");
  json.Write();
}

void StrategyComparisonOnBgp() {
  std::printf(
      "A3b: the four strategies of [21] on a 3-pattern BGP (LUBM)\n\n");
  rdf::TripleStore store = MakeLubmStore(2);
  auto query = sparql::ParseQuery(
      rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3));
  if (!query.ok()) std::abort();

  std::vector<int> widths = {24, 8, 11, 11, 14, 13, 16, 14};
  PrintRow({"Strategy", "rows", "wall_ms", "sim_ms", "shuffle_rec",
            "shuffle_KiB", "broadcast_KiB", "comparisons"},
           widths);
  PrintRule(widths);
  for (auto mode :
       {systems::HybridMode::kSparkSqlNaive,
        systems::HybridMode::kRddPartitioned,
        systems::HybridMode::kDataFrameAuto, systems::HybridMode::kHybrid}) {
    spark::ClusterConfig cfg = DefaultCluster();
    cfg.broadcast_threshold_bytes = 32 << 10;
    spark::SparkContext sc(cfg);
    systems::HybridEngine::Options opts;
    opts.mode = mode;
    systems::HybridEngine engine(&sc, opts);
    if (!engine.Load(store).ok()) continue;
    // Plan-shape guard: the EXPLAIN tree must show the join strategy the
    // mode is named after.
    std::string plan = MustExplain(&engine, *query,
                                   std::string("A3b ") +
                                       systems::HybridModeName(mode));
    bool shape_ok = false;
    switch (mode) {
      case systems::HybridMode::kSparkSqlNaive:
        shape_ok = plan.find("CartesianProduct") != std::string::npos &&
                   plan.find("PartitionedHashJoin") == std::string::npos;
        break;
      case systems::HybridMode::kRddPartitioned:
        shape_ok = plan.find("PartitionedHashJoin") != std::string::npos;
        break;
      case systems::HybridMode::kDataFrameAuto:
      case systems::HybridMode::kHybrid:
        shape_ok = plan.find("BroadcastJoin") != std::string::npos ||
                   plan.find("PartitionedHashJoin") != std::string::npos;
        break;
    }
    if (!shape_ok) {
      std::fprintf(stderr, "A3b: unexpected plan shape for %s:\n%s",
                   systems::HybridModeName(mode), plan.c_str());
      std::abort();
    }
    QueryRun run = RunQuery(&engine, *query);
    PrintRow({systems::HybridModeName(mode), Fmt(run.rows), Fmt(run.wall_ms),
              Fmt(run.delta.simulated_ms), Fmt(run.delta.shuffle_records),
              Fmt(double(run.delta.shuffle_bytes) / 1024.0),
              Fmt(double(run.delta.broadcast_bytes) / 1024.0),
              Fmt(run.delta.join_comparisons)},
             widths);
  }
  std::printf(
      "\nCheck: the naive SQL translation pays Cartesian-product\n"
      "comparisons; the RDD mode shuffles every join; the hybrid plan\n"
      "shuffles least by exploiting the subject partitioning.\n\n");
}

// Joins key rows through VarSchema::IndexOf on every row extension, so the
// lookup must stay O(1); a linear probe over a wide (64-var) schema costs
// hundreds of ns per call and regresses every engine at once.
void VarSchemaIndexOfMicroAssert() {
  systems::VarSchema schema;
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back("?v" + std::to_string(i));
    schema.Add(names.back());
  }
  constexpr int kIters = 200000;
  int64_t acc = 0;
  for (int i = 0; i < 1000; ++i) {  // warm-up
    acc += schema.IndexOf(names[static_cast<size_t>(i & 63)]);
  }
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    acc += schema.IndexOf(names[static_cast<size_t>(i & 63)]);
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(acc);
  double ns_per_op =
      std::chrono::duration<double, std::nano>(elapsed).count() / kIters;
  std::printf("VarSchema::IndexOf on a 64-var schema: %.1f ns/op\n\n",
              ns_per_op);
  if (ns_per_op > 200.0) {
    std::fprintf(stderr,
                 "VarSchema::IndexOf regressed to %.1f ns/op (> 200 ns): "
                 "lookup is no longer O(1)\n",
                 ns_per_op);
    std::abort();
  }
}

void BM_JoinStrategy(benchmark::State& state) {
  bool broadcast = state.range(0) != 0;
  int small_rows = static_cast<int>(state.range(1));
  spark::ClusterConfig cfg = DefaultCluster();
  cfg.broadcast_threshold_bytes = 64 << 10;
  spark::SparkContext sc(cfg);
  auto large = MakeTable(&sc, 20000, 4096, "k", "lv");
  auto small = MakeTable(&sc, small_rows, 4096, "k2", "rv");
  for (auto _ : state) {
    auto joined = large.Join(small, {{"k", "k2"}}, sql::JoinType::kInner,
                             broadcast ? sql::JoinStrategy::kBroadcast
                                       : sql::JoinStrategy::kShuffleHash);
    benchmark::DoNotOptimize(joined.NumRows());
  }
}
BENCHMARK(BM_JoinStrategy)
    ->Args({1, 100})
    ->Args({0, 100})
    ->Args({1, 10000})
    ->Args({0, 10000})
    ->Name("join/broadcast_smallrows");

}  // namespace
}  // namespace rdfspark::bench

int main(int argc, char** argv) {
  rdfspark::bench::VarSchemaIndexOfMicroAssert();
  rdfspark::bench::SizeRatioSweep();
  rdfspark::bench::StrategyComparisonOnBgp();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
