// A7 — optimizer ablations: SPARQLGX's statistics-based join reordering
// (§IV.A.1) and S2RDF's sub-query ordering + ExtVP (§IV.A.2), plus the
// GraphFrames engine's predicate-frequency ordering and pruning (§IV.B.2).
// Each system runs the same query with its optimization on and off.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "systems/graphframes_engine.h"
#include "systems/s2rdf.h"
#include "systems/sparqlgx.h"

namespace rdfspark::bench {
namespace {

// A snowflake-ish query written worst-first: the most frequent predicate
// (name) leads, so an order-as-written evaluator starts from the biggest
// relation.
std::string WorstFirstQuery() {
  return "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
         ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
         "SELECT ?x ?n ?d WHERE {\n"
         "  ?x ub:name ?n .\n"
         "  ?x ub:worksFor ?d .\n"
         "  ?x ub:headOf ?d .\n"
         "  ?d ub:subOrganizationOf ?u .\n"
         "}\n";
}

// First PatternScan line of an EXPLAIN tree. Plans print pre-order, so for
// the left-deep trees these engines build, the first scan printed is the
// pattern the optimizer chose to evaluate first.
std::string FirstScanLine(const std::string& plan) {
  std::istringstream in(plan);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("PatternScan") != std::string::npos) return line;
  }
  return "";
}

void AblationTable() {
  rdf::TripleStore store = MakeLubmStore(2);
  auto query = sparql::ParseQuery(WorstFirstQuery());
  if (!query.ok()) std::abort();
  std::printf(
      "A7: optimizer ablations on a worst-first 4-pattern query (LUBM x2)\n\n");
  std::vector<int> widths = {34, 8, 11, 14, 14, 14};
  PrintRow({"System / optimization", "rows", "wall_ms", "shuffle_rec",
            "comparisons", "records_proc"},
           widths);
  PrintRule(widths);

  auto report = [&](const std::string& label,
                    systems::BgpEngineBase* engine) {
    QueryRun run = RunQuery(engine, *query);
    PrintRow({label, Fmt(run.rows), Fmt(run.wall_ms),
              Fmt(run.delta.shuffle_records), Fmt(run.delta.join_comparisons),
              Fmt(run.delta.records_processed)},
             widths);
  };

  {
    spark::SparkContext sc(DefaultCluster());
    systems::SparqlgxEngine::Options off;
    off.enable_statistics_reordering = false;
    systems::SparqlgxEngine engine(&sc, off);
    if (engine.Load(store).ok()) report("SPARQLGX / no statistics", &engine);
  }
  {
    spark::SparkContext sc(DefaultCluster());
    systems::SparqlgxEngine engine(&sc);
    if (engine.Load(store).ok()) {
      // Plan-shape guard: with statistics on, the reordering must demote the
      // worst-first `name` pattern — the first scan in the plan has to be a
      // more selective one.
      std::string plan =
          MustExplain(&engine, *query, "A7 SPARQLGX / stats reordering");
      std::string first = FirstScanLine(plan);
      if (first.empty() || first.find("name") != std::string::npos) {
        std::fprintf(stderr,
                     "A7: SPARQLGX stats reordering did not demote the "
                     "worst-first pattern; plan:\n%s",
                     plan.c_str());
        std::abort();
      }
      report("SPARQLGX / stats reordering", &engine);
    }
  }
  {
    spark::SparkContext sc(DefaultCluster());
    systems::S2rdfEngine::Options off;
    off.enable_extvp = false;
    systems::S2rdfEngine engine(&sc, off);
    if (engine.Load(store).ok()) report("S2RDF / VP only", &engine);
  }
  {
    spark::SparkContext sc(DefaultCluster());
    systems::S2rdfEngine::Options on;
    on.selectivity_threshold = 0.5;
    systems::S2rdfEngine engine(&sc, on);
    if (engine.Load(store).ok()) {
      // Plan-shape guard: with ExtVP enabled the plan must actually read
      // extvp_* tables, not plain VP ones.
      std::string plan = MustExplain(&engine, *query, "A7 S2RDF / ExtVP");
      if (plan.find("extvp_") == std::string::npos) {
        std::fprintf(stderr,
                     "A7: S2RDF ExtVP plan reads no extvp_ table; plan:\n%s",
                     plan.c_str());
        std::abort();
      }
      report("S2RDF / ExtVP (SF<=0.5)", &engine);
    }
  }
  {
    spark::SparkContext sc(DefaultCluster());
    systems::GraphFramesEngine::Options off;
    off.enable_frequency_ordering = false;
    off.enable_pruning = false;
    systems::GraphFramesEngine engine(&sc, off);
    if (engine.Load(store).ok()) report("GF-SPARQL / unoptimized", &engine);
  }
  {
    spark::SparkContext sc(DefaultCluster());
    systems::GraphFramesEngine engine(&sc);
    if (engine.Load(store).ok()) {
      report("GF-SPARQL / freq order + pruning", &engine);
    }
  }
  std::printf(
      "\nCheck: every optimization cuts intermediate work (comparisons /\n"
      "shuffled records) relative to its own baseline, as §IV describes.\n\n");
}

void BM_Sparqlgx(benchmark::State& state) {
  bool optimized = state.range(0) != 0;
  rdf::TripleStore store = MakeLubmStore(1);
  spark::SparkContext sc(DefaultCluster());
  systems::SparqlgxEngine::Options opts;
  opts.enable_statistics_reordering = optimized;
  systems::SparqlgxEngine engine(&sc, opts);
  if (!engine.Load(store).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query = WorstFirstQuery();
  for (auto _ : state) {
    QueryRun run = RunQuery(&engine, query);
    benchmark::DoNotOptimize(run.rows);
  }
}
BENCHMARK(BM_Sparqlgx)->Arg(0)->Arg(1)->Name("sparqlgx/stats_reorder");

}  // namespace
}  // namespace rdfspark::bench

int main(int argc, char** argv) {
  rdfspark::bench::AblationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
