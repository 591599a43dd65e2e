// A5 — the partitioning assessment of §IV/§V: "data partitioning is a key
// element of efficient query processing". For each system's partitioning
// scheme we report preprocessing cost, storage blow-up, and the locality
// achieved on a mixed query log (remote fraction of shuffled bytes and
// total shuffled records).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "systems/haqwa.h"

namespace rdfspark::bench {
namespace {

void PartitioningTable() {
  rdf::TripleStore store = MakeLubmStore(2);
  std::vector<std::string> query_log = {
      rdf::LubmShapeQuery(rdf::QueryShape::kStar, 4),
      rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3),
      rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3),
      rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake),
  };

  std::printf(
      "A5: partitioning schemes — preprocessing vs query-time locality\n"
      "(query log: 2x star, 1x linear, 1x snowflake over LUBM %llu "
      "triples)\n\n",
      static_cast<unsigned long long>(store.size()));
  std::vector<int> widths = {26, 20, 12, 14, 14, 14, 12};
  PrintRow({"System", "Partitioning", "load_ms", "stored_rec", "shuffle_rec",
            "remote_KiB", "sim_ms"},
           widths);
  PrintRule(widths);

  spark::SparkContext sc(DefaultCluster());
  auto engines = systems::MakeAllEngines(&sc);
  // Plus the workload-aware HAQWA variant (the paper's §V direction:
  // "exploiting knowledge about the queries previously submitted").
  {
    systems::HaqwaEngine::Options opts;
    opts.frequent_queries = query_log;
    engines.push_back(std::make_unique<systems::HaqwaEngine>(&sc, opts));
  }
  // And the §V semantic-partitioning prototype [27].
  {
    systems::HaqwaEngine::Options opts;
    opts.semantic_partitioning = true;
    engines.push_back(std::make_unique<systems::HaqwaEngine>(&sc, opts));
  }

  for (size_t e = 0; e < engines.size(); ++e) {
    auto& engine = engines[e];
    Result<systems::LoadStats> load = Status::Internal("not loaded");
    double load_ms = WallMs([&] { load = engine->Load(store); });
    if (!load.ok()) continue;
    spark::Metrics total;
    double sim = 0;
    bool ok = true;
    for (const auto& text : query_log) {
      QueryRun run = RunQuery(engine.get(), text);
      ok &= run.ok;
      total += run.delta;
      sim += run.delta.simulated_ms;
    }
    std::string name = engine->traits().name;
    if (e == engines.size() - 2) name += " (workload-aware)";
    if (e == engines.size() - 1) name += " (semantic [27])";
    PrintRow({name, engine->traits().partitioning, Fmt(load_ms),
              Fmt(load->stored_records), Fmt(total.shuffle_records),
              Fmt(double(total.remote_shuffle_bytes) / 1024.0), Fmt(sim)},
             widths);
  }
  std::printf(
      "\nCheck: sophisticated partitioning (ExtVP, MESG, workload-aware\n"
      "replication) trades preprocessing time and storage for less\n"
      "query-time shuffling — the §V argument for partitioning research.\n\n");
}

void BM_LoadScheme(benchmark::State& state) {
  bool workload_aware = state.range(0) != 0;
  rdf::TripleStore store = MakeLubmStore(1);
  for (auto _ : state) {
    spark::SparkContext sc(DefaultCluster());
    systems::HaqwaEngine::Options opts;
    if (workload_aware) {
      opts.frequent_queries = {
          rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)};
    }
    systems::HaqwaEngine engine(&sc, opts);
    auto load = engine.Load(store);
    benchmark::DoNotOptimize(load.ok());
  }
}
BENCHMARK(BM_LoadScheme)->Arg(0)->Arg(1)->Name("haqwa_load/workload_aware");

}  // namespace
}  // namespace rdfspark::bench

int main(int argc, char** argv) {
  rdfspark::bench::PartitioningTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
