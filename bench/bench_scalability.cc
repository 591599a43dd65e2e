// A6 — scalability assessment: Spark's promise of "parallel computations
// on commodity machines with ... load balancing" (§III). Simulated cluster
// time for a representative engine as (a) executors grow at fixed data and
// (b) data grows at fixed executors; then the wall-clock side: the physical
// executor pool against the serial driver on (c) a compute-heavy job and
// (d) the naive SQL translation's storm of mostly empty tasks.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "spark/rdd.h"
#include "systems/hybrid.h"
#include "systems/sparqlgx.h"

namespace rdfspark::bench {
namespace {

void ExecutorSweep() {
  std::printf(
      "A6: executor sweep — SPARQLGX, snowflake query, LUBM x4\n\n");
  rdf::TripleStore store = MakeLubmStore(4);
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake);

  std::vector<int> widths = {11, 10, 10, 10, 12, 10};
  PrintRow({"executors", "rows", "wall_ms", "sim_ms", "speedup", "tasks"},
           widths);
  PrintRule(widths);
  double base = 0;
  for (int executors : {1, 2, 4, 8, 16}) {
    spark::SparkContext sc(DefaultCluster(executors, 16));
    systems::SparqlgxEngine engine(&sc);
    if (!engine.Load(store).ok()) continue;
    QueryRun run = RunQuery(&engine, query);
    if (base == 0) base = run.delta.simulated_ms;
    PrintRow({Fmt(uint64_t(executors)), Fmt(run.rows), Fmt(run.wall_ms),
              Fmt(run.delta.simulated_ms),
              Fmt(base / run.delta.simulated_ms, 2) + "x",
              Fmt(run.delta.tasks)},
             widths);
  }
  std::printf(
      "\nCheck: simulated time falls with executors (sub-linearly: the\n"
      "shuffle's network cost and task overheads bound the speedup).\n\n");
}

void DataSweep() {
  std::printf("A6b: data sweep — SPARQLGX, snowflake query, 8 executors\n\n");
  std::vector<int> widths = {8, 10, 10, 10, 14};
  PrintRow({"univs", "triples", "rows", "sim_ms", "shuffle_rec"}, widths);
  PrintRule(widths);
  for (int universities : {1, 2, 4, 8}) {
    rdf::TripleStore store = MakeLubmStore(universities);
    spark::SparkContext sc(DefaultCluster(8, 16));
    systems::SparqlgxEngine engine(&sc);
    if (!engine.Load(store).ok()) continue;
    QueryRun run =
        RunQuery(&engine, rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
    PrintRow({Fmt(uint64_t(universities)), Fmt(store.size()), Fmt(run.rows),
              Fmt(run.delta.simulated_ms), Fmt(run.delta.shuffle_records)},
             widths);
  }
  std::printf("\nCheck: cost grows roughly linearly with dataset size.\n\n");
}

/// A6c: the executor pool is real — the same job run with the pool enabled
/// (executor_threads = 0, one thread per simulated executor) against the
/// serial in-driver reference (executor_threads = 1). Wall-clock should
/// drop on a multi-core host while every simulated metric stays
/// bit-identical; on a single-core host only the identity check is
/// meaningful.
void PoolSpeedup() {
  std::printf(
      "A6c: physical pool speedup — compute-heavy map + Collect,\n"
      "4 executors x 16 partitions, pool vs serial driver\n\n");
  auto mix = [](int64_t x) {
    uint64_t h = static_cast<uint64_t>(x);
    for (int r = 0; r < 256; ++r) {
      h += 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
      h ^= h >> 31;
    }
    return static_cast<int64_t>(h);
  };
  struct Result {
    double wall_ms = 0;
    uint64_t checksum = 0;
    spark::Metrics delta;
  };
  auto run = [&](int executor_threads) {
    spark::SparkContext sc(DefaultCluster(4, 16, executor_threads));
    std::vector<int64_t> data(200000);
    for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int64_t>(i);
    auto rdd = spark::Parallelize(&sc, data, 16).Map(mix);
    Result res;
    auto before = sc.metrics();
    res.wall_ms = WallMs([&] {
      for (int64_t v : rdd.Collect()) {
        res.checksum ^= static_cast<uint64_t>(v);
      }
    });
    res.delta = sc.metrics() - before;
    return res;
  };

  Result serial = run(1);
  Result pooled = run(0);

  std::vector<int> widths = {10, 10, 10, 8, 12};
  PrintRow({"mode", "wall_ms", "sim_ms", "tasks", "records"}, widths);
  PrintRule(widths);
  PrintRow({"serial", Fmt(serial.wall_ms), Fmt(serial.delta.simulated_ms),
            Fmt(serial.delta.tasks), Fmt(serial.delta.records_processed)},
           widths);
  PrintRow({"pool", Fmt(pooled.wall_ms), Fmt(pooled.delta.simulated_ms),
            Fmt(pooled.delta.tasks), Fmt(pooled.delta.records_processed)},
           widths);
  bool identical =
      serial.checksum == pooled.checksum &&
      serial.delta.simulated_ms.nanos() == pooled.delta.simulated_ms.nanos() &&
      uint64_t(serial.delta.tasks) == uint64_t(pooled.delta.tasks) &&
      uint64_t(serial.delta.records_processed) ==
          uint64_t(pooled.delta.records_processed);
  std::printf("\nwall-clock speedup: %.2fx — results and simulated metrics %s\n",
              serial.wall_ms / (pooled.wall_ms > 0 ? pooled.wall_ms : 1e-9),
              identical ? "identical (as required)" : "DIVERGED (bug!)");
  std::printf(
      "Check: >2x on a >=4-core host; ~1x on fewer cores. Identity must\n"
      "hold everywhere.\n\n");
}

/// A6d: the pool where dispatch used to dominate — Hybrid_SparkSQL_naive's
/// cartesian translation of the snowflake query runs over a million
/// partition tasks, nearly all empty. Pool vs serial driver on the same
/// query; every simulated metric must stay identical.
void NaiveSnowflakePool() {
  std::printf(
      "A6d: physical pool on the naive SparkSQL snowflake — LUBM x1,\n"
      "4 executors x 8 partitions, pool vs serial driver\n\n");
  rdf::TripleStore store = MakeLubmStore(1);
  auto query =
      sparql::ParseQuery(rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  if (!query.ok()) return;
  auto run = [&](int executor_threads) {
    spark::SparkContext sc(DefaultCluster(4, 8, executor_threads));
    systems::HybridEngine::Options options;
    options.mode = systems::HybridMode::kSparkSqlNaive;
    systems::HybridEngine engine(&sc, options);
    if (!engine.Load(store).ok()) return QueryRun{};
    return RunQuery(&engine, *query);
  };

  QueryRun serial = run(1);
  QueryRun pooled = run(0);

  std::vector<int> widths = {10, 10, 12, 10, 8};
  PrintRow({"mode", "wall_ms", "sim_ms", "tasks", "rows"}, widths);
  PrintRule(widths);
  PrintRow({"serial", Fmt(serial.wall_ms), Fmt(serial.delta.simulated_ms),
            Fmt(serial.delta.tasks), Fmt(serial.rows)},
           widths);
  PrintRow({"pool", Fmt(pooled.wall_ms), Fmt(pooled.delta.simulated_ms),
            Fmt(pooled.delta.tasks), Fmt(pooled.rows)},
           widths);
  bool identical =
      serial.ok && pooled.ok && serial.rows == pooled.rows &&
      serial.delta.simulated_ms.nanos() == pooled.delta.simulated_ms.nanos() &&
      uint64_t(serial.delta.tasks) == uint64_t(pooled.delta.tasks) &&
      uint64_t(serial.delta.records_processed) ==
          uint64_t(pooled.delta.records_processed) &&
      uint64_t(serial.delta.join_comparisons) ==
          uint64_t(pooled.delta.join_comparisons);
  std::printf("\nwall-clock speedup: %.2fx — results and simulated metrics %s\n",
              serial.wall_ms / (pooled.wall_ms > 0 ? pooled.wall_ms : 1e-9),
              identical ? "identical (as required)" : "DIVERGED (bug!)");
  std::printf(
      "Check: the pool at least matches the serial driver on a >=4-core\n"
      "host (per-task cost follows rows, not task count). Identity must\n"
      "hold everywhere.\n\n");
}

void BM_QueryAtScale(benchmark::State& state) {
  int universities = static_cast<int>(state.range(0));
  rdf::TripleStore store = MakeLubmStore(universities);
  spark::SparkContext sc(DefaultCluster(8, 16));
  systems::SparqlgxEngine engine(&sc);
  if (!engine.Load(store).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake);
  for (auto _ : state) {
    QueryRun run = RunQuery(&engine, query);
    benchmark::DoNotOptimize(run.rows);
  }
  state.counters["triples"] = static_cast<double>(store.size());
}
BENCHMARK(BM_QueryAtScale)->Arg(1)->Arg(2)->Arg(4)->Name("sparqlgx/universities");

}  // namespace
}  // namespace rdfspark::bench

int main(int argc, char** argv) {
  rdfspark::bench::ExecutorSweep();
  rdfspark::bench::DataSweep();
  rdfspark::bench::PoolSpeedup();
  rdfspark::bench::NaiveSnowflakePool();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
