// A1 — the survey's per-system behaviour across the query shapes of §II.B
// (star / linear / snowflake / complex). For every implemented system we
// report result size, wall time, simulated cluster time, shuffle volume and
// graph supersteps on the same LUBM-style dataset.
//
// Expected shape (paper's qualitative claims):
//  * subject-hash systems (HAQWA, [21], SparkRDF) answer star queries with
//    zero shuffle;
//  * linear queries force per-join shuffles on triple-model systems;
//  * graph engines pay per-iteration messaging that grows with the BGP.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "systems/s2rdf.h"
#include "systems/s2x.h"
#include "systems/sparqlgx.h"

namespace rdfspark::bench {
namespace {

std::string ComplexBgpQuery() {
  // The kComplex shape without FILTER/DISTINCT so that BGP-only engines
  // run the same pattern; the shape (object-object join) is preserved.
  return "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
         ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
         "SELECT ?x ?n WHERE {\n"
         "  ?x rdf:type ub:UndergraduateStudent .\n"
         "  ?x ub:name ?n .\n"
         "  ?x ub:takesCourse ?c .\n"
         "  ?t ub:teacherOf ?c .\n"
         "  ?t ub:worksFor ?d .\n"
         "}\n";
}

void PrintShapeTable() {
  rdf::TripleStore store = MakeLubmStore(2);
  std::printf(
      "A1: query-shape assessment over LUBM(%llu triples), 4 executors\n\n",
      static_cast<unsigned long long>(store.size()));

  std::vector<std::pair<std::string, std::string>> queries = {
      {"star", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 4)},
      {"linear", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)},
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)},
      {"complex", ComplexBgpQuery()},
  };

  std::vector<int> widths = {26, 11, 8, 10, 11, 12, 13, 8, 7};
  PrintRow({"System", "shape", "rows", "wall_ms", "sim_ms", "shuffle_rec",
            "remote_KiB", "tasks", "steps"},
           widths);
  PrintRule(widths);

  spark::SparkContext sc(DefaultCluster());
  auto engines = systems::MakeAllEngines(&sc);
  for (auto& engine : engines) {
    auto load = engine->Load(store);
    if (!load.ok()) continue;
    for (const auto& [shape, text] : queries) {
      QueryRun run = RunQuery(engine.get(), text);
      if (!run.ok) {
        PrintRow({engine->traits().name, shape, "ERR", run.error}, widths);
        continue;
      }
      PrintRow({engine->traits().name, shape, Fmt(run.rows),
                Fmt(run.wall_ms), Fmt(run.delta.simulated_ms),
                Fmt(run.delta.shuffle_records),
                Fmt(double(run.delta.remote_shuffle_bytes) / 1024.0),
                Fmt(run.delta.tasks), Fmt(run.delta.supersteps)},
               widths);
    }
    PrintRule(widths);
  }
  std::printf(
      "Check: HAQWA / SPARQL-GPP / SparkRDF show shuffle_rec=0 for 'star'\n"
      "(subject-hash locality); graph engines show steps>0.\n\n");
}

// Wall-clock microbenchmarks per shape for one representative of each
// category (triple-model RDD, SQL, graph).
void BM_Shape(benchmark::State& state, const std::string& engine_kind,
              rdf::QueryShape shape) {
  rdf::TripleStore store = MakeLubmStore(1);
  spark::SparkContext sc(DefaultCluster());
  std::unique_ptr<systems::BgpEngineBase> engine;
  if (engine_kind == "sparqlgx") {
    engine = std::make_unique<systems::SparqlgxEngine>(&sc);
  } else if (engine_kind == "s2rdf") {
    engine = std::make_unique<systems::S2rdfEngine>(&sc);
  } else {
    engine = std::make_unique<systems::S2xEngine>(&sc);
  }
  if (!engine->Load(store).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::string text = rdf::LubmShapeQuery(shape, 3);
  uint64_t rows = 0;
  for (auto _ : state) {
    QueryRun run = RunQuery(engine.get(), text);
    rows = run.rows;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

}  // namespace
}  // namespace rdfspark::bench

int main(int argc, char** argv) {
  rdfspark::bench::PrintShapeTable();
  using rdfspark::bench::BM_Shape;
  for (auto [kind_name, kind] :
       {std::pair<const char*, const char*>{"sparqlgx", "sparqlgx"},
        {"s2rdf", "s2rdf"},
        {"s2x", "s2x"}}) {
    for (auto [shape_name, shape] :
         {std::pair<const char*, rdfspark::rdf::QueryShape>{
              "star", rdfspark::rdf::QueryShape::kStar},
          {"linear", rdfspark::rdf::QueryShape::kLinear},
          {"snowflake", rdfspark::rdf::QueryShape::kSnowflake}}) {
      benchmark::RegisterBenchmark(
          (std::string(kind_name) + "/" + shape_name).c_str(),
          [kind = std::string(kind), shape = shape](benchmark::State& s) {
            BM_Shape(s, kind, shape);
          });
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
