// An interactive SPARQL shell over any of the nine reproduced engines.
//
//   $ ./sparql_shell data.nt [engine]
//   sparql> SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }
//   sparql>                                   (blank line executes)
//
// Engines: haqwa sparqlgx s2rdf hybrid s2x graphxsm sparkql graphframes
// sparkrdf (default: s2rdf).
// Dot-commands: .engines .metrics .stats .explain .lint .lineage
// .analyze .profile .trace .quit
// `.metrics prom` prints the same Metrics snapshot in Prometheus text
// exposition format (what a scrape of the serving layer would see).
// `.explain` prints the engine's physical plan (EXPLAIN) for the query
// currently buffered at the prompt, without executing it.
// `.lint [tiers]` runs the dataflow lint tiers over the buffered query,
// with the letters dataflow_lint's --tier uses: tier A (QA rules, pure
// AST) and tier D (plan verifier SC/CP/BC/ST/VP rules plus resource
// envelope RS rules and the per-stage byte envelope, see
// systems/plan/resource.h) run without executing; tiers B and C share one
// analyzed execution inside a happens-before recorder window and append
// its lineage findings (LN rules, spark/lineage.h) and race & determinism
// findings (RC/DT rules, spark/hb.h). With no argument all four tiers
// run; `.lint A,B,D` (or `.lint bd`) selects a subset.
// `.lineage` *executes* the buffered query's plan, snapshots the RDD
// lineage DAG it built, and prints the lineage analyzer's findings
// (LN rules: uncached reuse, redundant shuffle, deep shuffle chains)
// followed by a Graphviz DOT export of the DAG.
// `.analyze` *executes* the buffered query with per-operator actuals
// collection and prints EXPLAIN ANALYZE (estimated vs actual rows,
// estimate error, per-node runtime counters).
// `.profile` prints the tracer's compact text timeline of everything run
// so far (enable with `.trace on` first).
// `.trace on|off|<file.json>` toggles runtime tracing or exports the
// collected spans as Chrome chrome://tracing JSON to <file.json>.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "obs/prometheus.h"
#include "rdf/ntriples.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "spark/hb.h"
#include "spark/lineage.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/graphframes_engine.h"
#include "systems/graphx_sm.h"
#include "systems/haqwa.h"
#include "systems/hybrid.h"
#include "systems/plan/analyze.h"
#include "systems/plan/verifier.h"
#include "systems/s2rdf.h"
#include "systems/s2x.h"
#include "systems/sparkql.h"
#include "systems/sparkrdf.h"
#include "systems/sparqlgx.h"

namespace {

using namespace rdfspark;

std::unique_ptr<systems::BgpEngineBase> MakeEngine(
    const std::string& name, spark::SparkContext* sc) {
  if (name == "haqwa") return std::make_unique<systems::HaqwaEngine>(sc);
  if (name == "sparqlgx") return std::make_unique<systems::SparqlgxEngine>(sc);
  if (name == "s2rdf") return std::make_unique<systems::S2rdfEngine>(sc);
  if (name == "hybrid") return std::make_unique<systems::HybridEngine>(sc);
  if (name == "s2x") return std::make_unique<systems::S2xEngine>(sc);
  if (name == "graphxsm") return std::make_unique<systems::GraphxSmEngine>(sc);
  if (name == "sparkql") return std::make_unique<systems::SparkqlEngine>(sc);
  if (name == "graphframes") {
    return std::make_unique<systems::GraphFramesEngine>(sc);
  }
  if (name == "sparkrdf") return std::make_unique<systems::SparkRdfEngine>(sc);
  return nullptr;
}

void RunQuery(systems::BgpEngineBase* engine, const rdf::TripleStore& store,
              const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  auto before = engine->context()->metrics();
  // CONSTRUCT/DESCRIBE output triples; SELECT/ASK output bindings.
  if (parsed->form == sparql::QueryForm::kConstruct ||
      parsed->form == sparql::QueryForm::kDescribe) {
    auto triples =
        parsed->form == sparql::QueryForm::kConstruct
            ? systems::ExecuteConstruct(engine, store, *parsed)
            : systems::ExecuteDescribe(engine, store, *parsed);
    auto delta = engine->context()->metrics() - before;
    if (!triples.ok()) {
      std::printf("error: %s\n", triples.status().ToString().c_str());
      return;
    }
    size_t shown = 0;
    for (const auto& t : *triples) {
      if (shown++ >= 40) {
        std::printf("... (%zu triples total)\n", triples->size());
        break;
      }
      std::printf("%s\n", t.ToNTriples().c_str());
    }
    std::printf("-- %zu triples; %llu shuffled records, %.3f sim ms\n",
                triples->size(),
                static_cast<unsigned long long>(delta.shuffle_records),
                delta.simulated_ms.ms());
    return;
  }
  auto result = engine->Execute(*parsed);
  auto delta = engine->context()->metrics() - before;
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", result->ToString(store.dictionary(), 40).c_str());
  std::printf("-- %llu rows; %llu shuffled records, %llu tasks, %.3f sim ms\n",
              static_cast<unsigned long long>(result->num_rows()),
              static_cast<unsigned long long>(delta.shuffle_records),
              static_cast<unsigned long long>(delta.tasks),
              delta.simulated_ms.ms());
}

/// `.lint [tiers]` over an already-parsed query; `tiers` holds A-D.
void Lint(systems::BgpEngineBase* engine, const sparql::Query& query,
          const bool tiers[4]) {
  namespace plan = systems::plan;
  if (tiers[0] || tiers[3]) {
    std::vector<plan::Diagnostic> diags;
    std::string envelope;
    if (tiers[0]) diags = engine->AnalyzeParsedQuery(query);
    if (tiers[3]) {
      auto root = engine->PlanQuery(query);
      if (!root.ok()) {
        std::printf("tier D error: %s\n", root.status().ToString().c_str());
        return;
      }
      for (auto& d : plan::VerifyPlan(**root, engine->VerifyProfile())) {
        diags.push_back(std::move(d));
      }
      plan::ResourceAnalysis analysis =
          engine->AnalyzePlanResources(query, **root);
      for (auto& d : analysis.findings) diags.push_back(std::move(d));
      envelope = plan::RenderEnvelope(analysis);
    }
    std::printf("%s%s", plan::RenderDiagnostics(std::move(diags)).c_str(),
                envelope.c_str());
  }
  if (tiers[1] || tiers[2]) {
    spark::hb::ScopedRaceCheck window(/*active=*/tiers[2]);
    spark::LineageGraph graph;
    auto analyzed = engine->ExecuteAnalyzed(query, &graph);
    std::vector<plan::Diagnostic> races;
    if (tiers[2]) races = window.Finish();
    if (!analyzed.ok()) {
      std::printf("tier B/C error: %s\n",
                  analyzed.status().ToString().c_str());
      return;
    }
    if (tiers[1]) {
      std::printf("tier B (lineage):\n%s",
                  plan::RenderDiagnostics(graph.Analyze()).c_str());
    }
    if (tiers[2]) {
      std::printf("tier C (happens-before):\n%s",
                  plan::RenderDiagnostics(std::move(races)).c_str());
    }
  }
}

/// The dot-commands that inspect the buffered query: .explain, .lint,
/// .lineage, .analyze. Parses the query once for whichever runs.
void Inspect(systems::BgpEngineBase* engine, const std::string& command,
             const std::string& text) {
  std::string name = command.substr(0, command.find(' '));
  if (TrimWhitespace(text).empty()) {
    std::printf("usage: type a query first (don't run it), then %s\n",
                name.c_str());
    return;
  }
  // `.lint` runs every tier; `.lint A,B,D` (or `.lint bd`) a subset.
  bool tiers[4] = {true, true, true, true};
  if (name == ".lint" && command.size() > name.size()) {
    std::string arg(TrimWhitespace(command.substr(name.size())));
    for (bool& t : tiers) t = arg.empty();
    for (char c : arg) {
      char u = (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
      if (u == ',' || u == ' ') continue;
      if (u < 'A' || u > 'D') {
        std::printf("usage: .lint [tiers], e.g. `.lint A,B,D`; tiers are "
                    "A (query), B (lineage), C (races), D (plan + "
                    "resources)\n");
        return;
      }
      tiers[u - 'A'] = true;
    }
  }
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  const sparql::Query& query = *parsed;
  if (name == ".lint") {
    Lint(engine, query, tiers);
    return;
  }
  if (name == ".explain") {
    // EXPLAIN covers the query's one plan, FILTER/OPTIONAL/UNION included;
    // aggregation and modifiers run driver-side after it.
    auto root = engine->PlanQuery(query);
    if (!root.ok()) {
      std::printf("error: %s\n", root.status().ToString().c_str());
      return;
    }
    std::printf("%s", systems::plan::Explain(**root).c_str());
    return;
  }
  spark::LineageGraph graph;
  auto root = engine->ExecuteAnalyzed(query, &graph);
  if (!root.ok()) {
    std::printf("error: %s\n", root.status().ToString().c_str());
  } else if (name == ".analyze") {
    std::printf("%s", systems::plan::ExplainAnalyze(**root).c_str());
  } else if (graph.nodes().empty()) {
    std::printf("no RDD-backed lineage (engine executes through another "
                "abstraction)\n");
  } else {
    std::printf("%s%s",
                systems::plan::RenderDiagnostics(graph.Analyze()).c_str(),
                graph.ToDot().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <data.nt> [engine]\n"
                 "engines: haqwa sparqlgx s2rdf hybrid s2x graphxsm sparkql "
                 "graphframes sparkrdf\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto triples = rdf::ParseNTriplesDocument(buffer.str());
  if (!triples.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 triples.status().ToString().c_str());
    return 1;
  }
  rdf::TripleStore store;
  store.AddAll(*triples);
  store.Dedupe();

  spark::ClusterConfig cluster;
  cluster.num_executors = 4;
  cluster.default_parallelism = 8;
  spark::SparkContext sc(cluster);
  std::string engine_name = argc > 2 ? argv[2] : "s2rdf";
  auto engine = MakeEngine(engine_name, &sc);
  if (!engine) {
    std::fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
    return 2;
  }
  auto load_start = std::chrono::steady_clock::now();
  auto load = engine->Load(store);
  double load_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - load_start)
                       .count();
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 load.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu triples loaded into %s (%.1f ms, %llu stored records)\n",
              store.size(), engine->traits().name.c_str(), load_ms,
              static_cast<unsigned long long>(load->stored_records));
  std::printf(
      "enter a SPARQL query, blank line to run; .explain/.lint/.lineage/"
      ".analyze to inspect the buffered query; .trace on + .profile for "
      "timelines; .quit to exit\n");

  std::string pending;
  std::string line;
  std::printf("sparql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(TrimWhitespace(line));
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed == ".engines") {
      std::printf(
          "haqwa sparqlgx s2rdf hybrid s2x graphxsm sparkql graphframes "
          "sparkrdf\n");
    } else if (trimmed == ".explain" || trimmed == ".lineage" ||
               trimmed == ".analyze" || trimmed == ".lint" ||
               trimmed.rfind(".lint ", 0) == 0) {
      Inspect(engine.get(), trimmed, pending);
    } else if (trimmed == ".profile") {
      if (sc.tracer().event_count() == 0) {
        std::printf("no spans recorded; `.trace on` then run a query\n");
      } else {
        std::printf("%s", sc.tracer().ToTimelineText().c_str());
      }
    } else if (trimmed == ".trace on") {
      sc.tracer().set_enabled(true);
      std::printf("tracing enabled\n");
    } else if (trimmed == ".trace off") {
      sc.tracer().set_enabled(false);
      std::printf("tracing disabled (%zu spans buffered)\n",
                  sc.tracer().event_count());
    } else if (trimmed.rfind(".trace ", 0) == 0) {
      std::string path(TrimWhitespace(trimmed.substr(7)));
      std::ofstream out(path);
      if (!out) {
        std::printf("cannot write %s\n", path.c_str());
      } else {
        out << sc.tracer().ToChromeTraceJson();
        std::printf("wrote %zu spans to %s (open in chrome://tracing)\n",
                    sc.tracer().event_count(), path.c_str());
      }
    } else if (trimmed == ".metrics") {
      std::printf("%s\n", sc.metrics().ToString().c_str());
    } else if (trimmed == ".metrics prom") {
      // Prometheus text exposition of the same snapshot (the serving
      // layer's scrape format; see obs/prometheus.h).
      std::printf("%s", obs::ExpositionForMetrics(sc.metrics(), "rdfspark_")
                            .c_str());
    } else if (trimmed == ".stats") {
      auto stats = store.ComputeStatistics();
      std::printf(
          "triples=%llu subjects=%llu predicates=%llu objects=%llu\n",
          static_cast<unsigned long long>(stats.num_triples),
          static_cast<unsigned long long>(stats.distinct_subjects),
          static_cast<unsigned long long>(stats.distinct_predicates),
          static_cast<unsigned long long>(stats.distinct_objects));
    } else if (trimmed.empty()) {
      if (!TrimWhitespace(pending).empty()) {
        RunQuery(engine.get(), store, pending);
      }
      pending.clear();
    } else {
      pending += line;
      pending += '\n';
    }
    std::printf("sparql> ");
    std::fflush(stdout);
  }
  // Run any trailing query on EOF.
  if (!TrimWhitespace(pending).empty()) {
    std::printf("\n");
    RunQuery(engine.get(), store, pending);
  }
  return 0;
}
