// dataflow_lint — whole-pipeline static analysis matrix across the twelve
// engine variants (nine engines, the Hybrid one in its four modes).
//
// For every engine variant and every query of the LUBM corpus (star, chain,
// snowflake, complex) this runs the four tiers of the dataflow lint:
//
//   Tier A  query analysis (QA rules, sparql/analysis.h): pure rules over
//           the parsed AST, parameterized by the engine's storage layout.
//   Tier B  lineage analysis (LN rules, spark/lineage.h): the query's BGP
//           is executed once with actuals collection, the RDD lineage DAG
//           the run built is snapshotted, and the lineage rules inspect it
//           for recompute hazards, redundant shuffles and deep stage
//           chains. That one analyzed execution also serves Tiers C and D.
//   Tier C  happens-before race & determinism analysis (RC/DT rules,
//           spark/hb.h): every cell executes inside a recorder window;
//           conflicting shared-object accesses that no declared
//           synchronization orders are reported regardless of which
//           interleaving actually ran. Two extra Tier C rows run after the
//           matrix: a runtime probe exercising the canonical shared
//           objects (cache slots, shuffle buffers, broadcast, uncache),
//           and a concurrent serving workload over all twelve variants.
//   Tier D  plan and resource analysis: the static plan verifier (SC/CP/
//           BC/ST/VP rules, systems/plan/verifier.h) and the per-operator
//           byte envelope (RS rules, systems/plan/resource.h) are derived
//           statically from the plan the analyzed execution ran, the
//           cache-retention rule inspects its lineage snapshot, and its
//           actuals provide the observed bytes the envelope is
//           drift-checked against. The footprint matrix prints "static
//           output envelope / observed bytes" per cell, and --footprint-dir
//           writes the corpus totals as bench_gate-compatible artifacts.
//           Two ratios are gated in CI: soundness (observed bytes never
//           exceed the static peak envelope, metric "sound_bytes") and
//           scan calibration (leaf scan envelopes within a small factor of
//           leaf actuals, metric "bytes"). Interior join/product bounds
//           compound multiplicatively by design — that is what keeps them
//           sound — so whole-plan sums are reported but not ratio-gated;
//           the leaves are where the statistics live.
//
// Output is deterministic — byte-identical across runs and across
// --threads settings (lineage node ids are assigned on the driver; Tier C
// verdicts depend on declared structure, not the schedule; Tier D is a pure
// function of the plan and the actuals row counts, which are themselves
// schedule-independent; no timing-dependent value is printed) — so CI
// diffs two runs to prove it.
//
//   $ ./dataflow_lint                    # matrix + per-finding detail
//   $ ./dataflow_lint --json            # machine-readable (RFC 8259)
//   $ ./dataflow_lint --threads=1       # executor pool width (0 = default)
//   $ ./dataflow_lint --serving-workers=1  # serving-row driver threads
//   $ ./dataflow_lint --tier=A,D        # run a subset of the tiers
//   $ ./dataflow_lint --footprint-dir=artifacts  # Tier D byte artifacts
//
// Exit status is 1 when any ERROR-level finding (or engine failure)
// surfaces, so the tool doubles as a CI admission gate over the corpus.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "rdf/generator.h"
#include "rdf/store.h"
#include "serving/query_server.h"
#include "spark/context.h"
#include "spark/hb.h"
#include "spark/lineage.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/plan/diagnostics.h"
#include "systems/plan/resource.h"
#include "systems/plan/verifier.h"

namespace {

using namespace rdfspark;
using systems::plan::Diagnostic;
using systems::plan::Severity;

/// Same dataset as the golden EXPLAIN tests.
rdf::TripleStore MakeDataset() {
  rdf::TripleStore store;
  rdf::LubmConfig cfg;
  cfg.num_universities = 1;
  cfg.departments_per_university = 3;
  cfg.professors_per_department = 4;
  cfg.students_per_department = 20;
  cfg.courses_per_department = 5;
  store.AddAll(rdf::GenerateLubm(cfg));
  store.Dedupe();
  return store;
}

/// One analyzed (engine, query) cell.
struct Cell {
  std::vector<Diagnostic> query_findings;     // Tier A
  std::vector<Diagnostic> lineage_findings;   // Tier B
  std::vector<Diagnostic> race_findings;      // Tier C
  std::vector<Diagnostic> plan_findings;      // Tier D (verifier rules)
  std::vector<Diagnostic> resource_findings;  // Tier D (RS rules)
  int lineage_nodes = 0;
  int lineage_shuffles = 0;
  // Tier D byte envelope vs profiled actuals (flat IdTable byte model).
  bool envelope_bounded = false;
  uint64_t envelope_peak_bytes = 0;    ///< Peak concurrent stage envelope.
  uint64_t envelope_output_bytes = 0;  ///< Sum of operator output envelopes.
  uint64_t observed_bytes = 0;         ///< EXPLAIN ANALYZE actual bytes.
  // Scan calibration: leaf envelopes vs leaf actuals (the gated ratio).
  uint64_t scan_envelope_bytes = 0;
  uint64_t scan_observed_bytes = 0;
  int scan_leaves = 0;
  bool failed = false;
  std::string failure;
};

/// Tier D over the analyzed plan `root` of `query`. The verifier and the
/// byte envelope read only the plan's structure and estimates, which the
/// profiled execution leaves untouched; its actuals give the observed bytes
/// (RS006) and the scan calibration, and its lineage snapshot feeds RS004.
void AnalyzeTierD(const systems::BgpEngineBase& engine,
                  const sparql::Query& query,
                  const systems::plan::PlanNode& root,
                  const spark::LineageGraph& graph, Cell* cell) {
  cell->plan_findings = systems::plan::VerifyPlan(root, engine.VerifyProfile());
  auto analysis = engine.AnalyzePlanResources(query, root);
  cell->envelope_bounded = analysis.bounded;
  cell->envelope_peak_bytes = analysis.peak_bytes;
  cell->envelope_output_bytes = analysis.output_bytes;
  // Scan calibration pairs leaf envelopes with leaf actuals (exact
  // pre-order alignment over the one tree).
  auto calib = systems::plan::CalibrateScans(root, analysis);
  cell->scan_envelope_bytes = calib.envelope_bytes;
  cell->scan_observed_bytes = calib.observed_bytes;
  cell->scan_leaves = calib.leaves;
  cell->resource_findings = std::move(analysis.findings);
  for (auto& d : graph.AnalyzeRetention()) {
    cell->resource_findings.push_back(std::move(d));
  }
  auto observed = systems::plan::ObserveFootprint(root);
  cell->observed_bytes = observed.output_bytes;
  if (cell->envelope_bounded) {
    for (auto& d : systems::plan::DriftFindings(cell->envelope_output_bytes,
                                                observed)) {
      cell->resource_findings.push_back(std::move(d));
    }
  }
}

/// Compact cell text: "RULE:SEVxCOUNT" terms joined by spaces, "ok" clean.
std::string Summarize(const Cell& cell) {
  if (cell.failed) return "error";
  std::map<std::string, std::map<char, int>> counts;
  for (const auto* tier :
       {&cell.query_findings, &cell.lineage_findings, &cell.race_findings,
        &cell.plan_findings, &cell.resource_findings}) {
    for (const auto& d : *tier) {
      char sev = systems::plan::SeverityName(d.severity)[0];  // E/W/I
      ++counts[d.rule][sev];
    }
  }
  if (counts.empty()) return "ok";
  std::string out;
  for (const auto& [rule, by_sev] : counts) {
    for (const auto& [sev, n] : by_sev) {
      if (!out.empty()) out += " ";
      out += rule + ":" + std::string(1, sev);
      if (n > 1) out += "x" + std::to_string(n);
    }
  }
  return out;
}

/// Footprint cell text: "envelopeB/observedB" (static over actual).
std::string SummarizeFootprint(const Cell& cell) {
  if (cell.failed) return "error";
  std::string env = cell.envelope_bounded
                        ? std::to_string(cell.envelope_output_bytes) + "B"
                        : std::string("unbounded");
  return env + "/" + std::to_string(cell.observed_bytes) + "B";
}

void AppendJsonFindings(const char* tier, const std::vector<Diagnostic>& ds,
                        bool* first, std::string* out) {
  for (const auto& d : ds) {
    if (!*first) *out += ",";
    *first = false;
    *out += "\n        {\"tier\": \"";
    *out += tier;
    *out += "\", \"severity\": \"";
    *out += systems::plan::SeverityName(d.severity);
    *out += "\", \"rule\": \"" + JsonEscape(d.rule) + "\", \"path\": \"" +
            JsonEscape(d.node_path) + "\", \"message\": \"" +
            JsonEscape(d.message) + "\", \"hint\": \"" + JsonEscape(d.hint) +
            "\"}";
  }
}

/// Tier C probe row: RunRuntimeProbe inside its own recorder window.
std::vector<Diagnostic> RunProbeRow(int threads) {
  spark::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = threads;
  spark::SparkContext sc(cfg);
  spark::hb::ScopedRaceCheck window(/*active=*/true);
  spark::hb::RunRuntimeProbe(&sc);
  return window.Finish();
}

/// Tier C serving row: every variant serves the corpus concurrently from
/// two tenants while the server owns one recorder window. Requests run as
/// independent logical roots, so any cross-request sharing that isn't
/// protected by declared synchronization (the plan-cache lock, the frozen
/// dictionary's publication barrier, ...) surfaces here.
std::vector<Diagnostic> RunServingRow(const rdf::TripleStore& store,
                                      int threads, int serving_workers,
                                      std::string* failure) {
  spark::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = threads;
  spark::SparkContext sc(cfg);
  serving::QueryServer::Options opts;
  opts.worker_threads = serving_workers;
  opts.check_races = true;
  serving::QueryServer server(&sc, opts);
  Status attached = server.AttachDataset(store);
  if (!attached.ok()) {
    *failure = attached.ToString();
    return {};
  }
  int session_a = server.OpenSession("lint-a");
  int session_b = server.OpenSession("lint-b");
  auto corpus = rdf::LubmQueryMix();
  std::vector<std::shared_ptr<serving::QueryServer::Ticket>> tickets;
  size_t i = 0;
  for (const auto& name : server.variant_names()) {
    for (const auto& [shape, text] : corpus) {
      int session = (i++ % 2 == 0) ? session_a : session_b;
      tickets.push_back(server.Submit(session, name, text));
    }
  }
  for (const auto& ticket : tickets) ticket->Wait();
  std::vector<Diagnostic> findings = server.race_findings();
  server.Shutdown();
  return findings;
}

/// Writes one bench_gate-compatible artifact: a single "footprint" row.
/// Metric "bytes" carries the corpus scan-calibration total (gate:
/// envelope within a small factor of observed), metric "sound_bytes" the
/// soundness pair (envelope side: peak envelope sum; observed side: total
/// observed bytes — gate: observed never exceeds peak).
bool WriteFootprintArtifact(const std::string& dir, const char* filename,
                            const char* benchmark, uint64_t bytes,
                            uint64_t sound_bytes, int cells,
                            int unbounded_cells, int leaves) {
  std::string json = "{\n  \"benchmark\": \"";
  json += benchmark;
  json += "\",\n  \"rows\": [\n    {\"label\": \"footprint\", \"metrics\": "
          "{\"bytes\": " +
          std::to_string(bytes) +
          ", \"sound_bytes\": " + std::to_string(sound_bytes) +
          ", \"cells\": " + std::to_string(cells) +
          ", \"unbounded_cells\": " + std::to_string(unbounded_cells) +
          ", \"leaves\": " + std::to_string(leaves) +
          "}}\n  ]\n}\n";
  std::string error;
  if (!ValidateJson(json, &error)) {
    std::fprintf(stderr, "internal error: invalid footprint JSON: %s\n",
                 error.c_str());
    return false;
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create footprint dir %s\n", dir.c_str());
    return false;
  }
  std::string path = dir + "/" + filename;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << json;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int threads = 0;
  int serving_workers = 3;
  bool tier_a = true, tier_b = true, tier_c = true, tier_d = true;
  std::string footprint_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--serving-workers=", 18) == 0) {
      serving_workers = std::atoi(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--tier=", 7) == 0) {
      tier_a = tier_b = tier_c = tier_d = false;
      bool bad = false;
      for (const char* p = argv[i] + 7; *p != '\0'; ++p) {
        char u = (*p >= 'a' && *p <= 'z') ? static_cast<char>(*p - 'a' + 'A')
                                          : *p;
        if (u == ',' || u == ' ') continue;
        if (u == 'A') tier_a = true;
        else if (u == 'B') tier_b = true;
        else if (u == 'C') tier_c = true;
        else if (u == 'D') tier_d = true;
        else bad = true;
      }
      if (bad || !(tier_a || tier_b || tier_c || tier_d)) {
        std::fprintf(stderr, "invalid --tier value '%s' (tiers are A-D)\n",
                     argv[i] + 7);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--footprint-dir=", 16) == 0) {
      footprint_dir = argv[i] + 16;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--threads=N] [--serving-workers=N] "
                   "[--tier=A,B,C,D] [--footprint-dir=DIR]\n",
                   argv[0]);
      return 2;
    }
  }

  rdf::TripleStore store = MakeDataset();
  auto corpus = rdf::LubmQueryMix();
  auto factories = systems::AllEngineVariantFactories();

  // engine -> query label -> cell, all analyzed up front so the text and
  // JSON renderings share one result set.
  std::vector<std::vector<Cell>> cells(factories.size());
  bool any_error = false;

  for (size_t e = 0; e < factories.size(); ++e) {
    spark::ClusterConfig cfg;
    cfg.num_executors = 4;
    cfg.default_parallelism = 8;
    cfg.executor_threads = threads;
    spark::SparkContext sc(cfg);
    auto engine = factories[e].make(&sc);
    auto loaded = engine->Load(store);
    for (const auto& [shape, text] : corpus) {
      Cell cell;
      auto query = sparql::ParseQuery(text);
      if (!loaded.ok()) {
        cell.failed = true;
        cell.failure = "load failed: " + loaded.status().ToString();
      } else if (!query.ok()) {
        cell.failed = true;
        cell.failure = query.status().ToString();
      } else {
        if (tier_a) cell.query_findings = engine->AnalyzeParsedQuery(*query);
        if (tier_b || tier_c || tier_d) {
          // One analyzed execution serves Tiers B-D. Tier C's window is
          // reset on the driver with no tasks in flight (the recorder's
          // quiescence contract) and closed before Tier D runs.
          spark::hb::ScopedRaceCheck window(/*active=*/tier_c);
          spark::LineageGraph graph;
          auto analyzed = engine->ExecuteAnalyzed(*query, &graph);
          if (tier_c) cell.race_findings = window.Finish();
          if (!analyzed.ok()) {
            cell.failed = true;
            cell.failure = analyzed.status().ToString();
          } else {
            if (tier_b) {
              cell.lineage_findings = graph.Analyze();
              cell.lineage_nodes = static_cast<int>(graph.nodes().size());
              cell.lineage_shuffles = graph.ShuffleCount();
            }
            if (tier_d) AnalyzeTierD(*engine, *query, **analyzed, graph, &cell);
          }
        }
      }
      any_error |= cell.failed;
      any_error |= systems::plan::HasError(cell.query_findings);
      any_error |= systems::plan::HasError(cell.lineage_findings);
      any_error |= systems::plan::HasError(cell.race_findings);
      any_error |= systems::plan::HasError(cell.plan_findings);
      any_error |= systems::plan::HasError(cell.resource_findings);
      cells[e].push_back(std::move(cell));
    }
  }

  // Tier C extra rows: the runtime probe and the serving workload.
  std::vector<Diagnostic> probe_findings;
  std::vector<Diagnostic> serving_findings;
  std::string serving_failure;
  if (tier_c) {
    probe_findings = RunProbeRow(threads);
    serving_findings =
        RunServingRow(store, threads, serving_workers, &serving_failure);
  }
  any_error |= systems::plan::HasError(probe_findings);
  any_error |= systems::plan::HasError(serving_findings);
  any_error |= !serving_failure.empty();

  // Tier C totals across cells + probe + serving (deterministic: every
  // contributing list is deduplicated and sorted by the analyzer).
  int race_errors = 0;
  int race_warnings = 0;
  auto tally = [&race_errors, &race_warnings](const std::vector<Diagnostic>& ds) {
    for (const auto& d : ds) {
      if (d.severity == Severity::kError) ++race_errors;
      if (d.severity == Severity::kWarn) ++race_warnings;
    }
  };
  for (const auto& row : cells) {
    for (const auto& cell : row) tally(cell.race_findings);
  }
  tally(probe_findings);
  tally(serving_findings);

  // Tier D corpus totals. Unbounded envelopes are excluded from the sums
  // (they would poison both ratios) and counted instead — no silent
  // truncation. The scan-calibration pair is what CI ratio-gates; the
  // whole-plan pair feeds the soundness gate (observed <= peak) and is
  // otherwise informational, since interior bounds compound by design.
  uint64_t footprint_envelope = 0;
  uint64_t footprint_observed = 0;
  uint64_t footprint_peak = 0;
  uint64_t footprint_scan_envelope = 0;
  uint64_t footprint_scan_observed = 0;
  int footprint_cells = 0;
  int footprint_unbounded = 0;
  int footprint_leaves = 0;
  if (tier_d) {
    for (const auto& row : cells) {
      for (const auto& cell : row) {
        if (cell.failed) continue;
        if (!cell.envelope_bounded) {
          ++footprint_unbounded;
          continue;
        }
        footprint_envelope += cell.envelope_output_bytes;
        footprint_observed += cell.observed_bytes;
        footprint_peak += cell.envelope_peak_bytes;
        footprint_scan_envelope += cell.scan_envelope_bytes;
        footprint_scan_observed += cell.scan_observed_bytes;
        footprint_leaves += cell.scan_leaves;
        ++footprint_cells;
      }
    }
    if (!footprint_dir.empty()) {
      bool wrote =
          WriteFootprintArtifact(footprint_dir, "FOOTPRINT_envelope.json",
                                 "footprint_envelope",
                                 footprint_scan_envelope, footprint_peak,
                                 footprint_cells, footprint_unbounded,
                                 footprint_leaves) &&
          WriteFootprintArtifact(footprint_dir, "FOOTPRINT_observed.json",
                                 "footprint_observed",
                                 footprint_scan_observed, footprint_observed,
                                 footprint_cells, footprint_unbounded,
                                 footprint_leaves);
      if (!wrote) return 2;
    }
  }

  std::string tiers_label;
  if (tier_a) tiers_label += "A";
  if (tier_b) tiers_label += "B";
  if (tier_c) tiers_label += "C";
  if (tier_d) tiers_label += "D";

  if (json) {
    std::string out = "{\n  \"tool\": \"dataflow_lint\",\n  \"tiers\": \"" +
                      tiers_label + "\",\n  \"engines\": [";
    for (size_t e = 0; e < factories.size(); ++e) {
      out += e == 0 ? "\n" : ",\n";
      out += "    {\"engine\": \"" + JsonEscape(factories[e].name) +
             "\", \"queries\": [";
      for (size_t q = 0; q < corpus.size(); ++q) {
        const Cell& cell = cells[e][q];
        out += q == 0 ? "\n" : ",\n";
        out += "      {\"query\": \"";
        out += rdf::QueryShapeName(corpus[q].first);
        out += "\", \"lineage_nodes\": " +
               std::to_string(cell.lineage_nodes) +
               ", \"lineage_shuffles\": " +
               std::to_string(cell.lineage_shuffles);
        if (tier_d) {
          out += ", \"envelope_bounded\": ";
          out += cell.envelope_bounded ? "true" : "false";
          out += ", \"envelope_peak_bytes\": " +
                 std::to_string(cell.envelope_bounded
                                    ? cell.envelope_peak_bytes
                                    : 0) +
                 ", \"envelope_output_bytes\": " +
                 std::to_string(cell.envelope_bounded
                                    ? cell.envelope_output_bytes
                                    : 0) +
                 ", \"observed_bytes\": " +
                 std::to_string(cell.observed_bytes) +
                 ", \"scan_envelope_bytes\": " +
                 std::to_string(cell.scan_envelope_bytes) +
                 ", \"scan_observed_bytes\": " +
                 std::to_string(cell.scan_observed_bytes) +
                 ", \"scan_leaves\": " + std::to_string(cell.scan_leaves);
        }
        if (cell.failed) {
          out += ", \"error\": \"" + JsonEscape(cell.failure) + "\"";
        }
        out += ", \"findings\": [";
        bool first = true;
        AppendJsonFindings("query", cell.query_findings, &first, &out);
        AppendJsonFindings("lineage", cell.lineage_findings, &first, &out);
        AppendJsonFindings("race", cell.race_findings, &first, &out);
        AppendJsonFindings("plan", cell.plan_findings, &first, &out);
        AppendJsonFindings("resource", cell.resource_findings, &first, &out);
        out += first ? "]}" : "\n      ]}";
      }
      out += "\n    ]}";
    }
    out += "\n  ],\n  \"race_probe\": [";
    bool first_probe = true;
    AppendJsonFindings("race", probe_findings, &first_probe, &out);
    out += first_probe ? "]" : "\n  ]";
    out += ",\n  \"race_serving\": [";
    bool first_serving = true;
    AppendJsonFindings("race", serving_findings, &first_serving, &out);
    out += first_serving ? "]" : "\n  ]";
    if (!serving_failure.empty()) {
      out += ",\n  \"race_serving_error\": \"" + JsonEscape(serving_failure) +
             "\"";
    }
    out += ",\n  \"race_errors\": " + std::to_string(race_errors) +
           ",\n  \"race_warnings\": " + std::to_string(race_warnings);
    if (tier_d) {
      out += ",\n  \"footprint_envelope_bytes\": " +
             std::to_string(footprint_envelope) +
             ",\n  \"footprint_observed_bytes\": " +
             std::to_string(footprint_observed) +
             ",\n  \"footprint_peak_bytes\": " +
             std::to_string(footprint_peak) +
             ",\n  \"footprint_scan_envelope_bytes\": " +
             std::to_string(footprint_scan_envelope) +
             ",\n  \"footprint_scan_observed_bytes\": " +
             std::to_string(footprint_scan_observed) +
             ",\n  \"footprint_scan_leaves\": " +
             std::to_string(footprint_leaves) +
             ",\n  \"footprint_cells\": " + std::to_string(footprint_cells) +
             ",\n  \"footprint_unbounded_cells\": " +
             std::to_string(footprint_unbounded);
    }
    out += ",\n  \"has_error\": ";
    out += any_error ? "true" : "false";
    out += "\n}\n";
    std::string error;
    if (!ValidateJson(out, &error)) {
      std::fprintf(stderr, "internal error: emitted invalid JSON: %s\n",
                   error.c_str());
      return 2;
    }
    std::fputs(out.c_str(), stdout);
    return any_error ? 1 : 0;
  }

  std::printf("dataflow_lint: query + lineage + race + resource analysis "
              "over the LUBM corpus (tiers %s)\n", tiers_label.c_str());
  std::printf("dataset: %zu triples (1 university)\n\n", store.size());
  std::printf("%-26s %-14s %-14s %-14s %-14s\n", "engine",
              rdf::QueryShapeName(corpus[0].first),
              rdf::QueryShapeName(corpus[1].first),
              rdf::QueryShapeName(corpus[2].first),
              rdf::QueryShapeName(corpus[3].first));
  for (size_t e = 0; e < factories.size(); ++e) {
    std::printf("%-26s %-14s %-14s %-14s %-14s\n", factories[e].name.c_str(),
                Summarize(cells[e][0]).c_str(), Summarize(cells[e][1]).c_str(),
                Summarize(cells[e][2]).c_str(),
                Summarize(cells[e][3]).c_str());
  }

  bool any_detail = false;
  for (size_t e = 0; e < factories.size(); ++e) {
    for (size_t q = 0; q < corpus.size(); ++q) {
      const Cell& cell = cells[e][q];
      if (cell.failed) {
        if (!any_detail) std::printf("\nfindings:\n");
        any_detail = true;
        std::printf("  %s / %s: %s\n", factories[e].name.c_str(),
                    rdf::QueryShapeName(corpus[q].first),
                    cell.failure.c_str());
        continue;
      }
      std::vector<Diagnostic> all = cell.query_findings;
      for (const auto& d : cell.lineage_findings) all.push_back(d);
      for (const auto& d : cell.race_findings) all.push_back(d);
      for (const auto& d : cell.plan_findings) all.push_back(d);
      for (const auto& d : cell.resource_findings) all.push_back(d);
      if (all.empty()) continue;
      systems::plan::SortDiagnostics(&all);
      if (!any_detail) std::printf("\nfindings:\n");
      any_detail = true;
      for (const auto& d : all) {
        std::printf("  %s / %s: %s\n", factories[e].name.c_str(),
                    rdf::QueryShapeName(corpus[q].first),
                    systems::plan::FormatDiagnostic(d).c_str());
      }
    }
  }
  if (tier_c) {
    std::printf("\ntier C (happens-before race & determinism check):\n");
    std::printf("  runtime probe: %s\n",
                probe_findings.empty() ? "ok" : "findings");
    for (const auto& d : probe_findings) {
      std::printf("    %s\n", systems::plan::FormatDiagnostic(d).c_str());
    }
    if (!serving_failure.empty()) {
      std::printf("  serving workload: error: %s\n", serving_failure.c_str());
    } else {
      std::printf("  serving workload (12 variants x corpus, 2 tenants): %s\n",
                  serving_findings.empty() ? "ok" : "findings");
      for (const auto& d : serving_findings) {
        std::printf("    %s\n", systems::plan::FormatDiagnostic(d).c_str());
      }
    }
    std::printf("tier C findings: %d error(s), %d warning(s)\n", race_errors,
                race_warnings);
  }
  if (tier_d) {
    std::printf("\ntier D footprint (static output envelope / observed "
                "bytes, flat IdTable model):\n");
    std::printf("%-26s %-20s %-20s %-20s %-20s\n", "engine",
                rdf::QueryShapeName(corpus[0].first),
                rdf::QueryShapeName(corpus[1].first),
                rdf::QueryShapeName(corpus[2].first),
                rdf::QueryShapeName(corpus[3].first));
    for (size_t e = 0; e < factories.size(); ++e) {
      std::printf("%-26s %-20s %-20s %-20s %-20s\n",
                  factories[e].name.c_str(),
                  SummarizeFootprint(cells[e][0]).c_str(),
                  SummarizeFootprint(cells[e][1]).c_str(),
                  SummarizeFootprint(cells[e][2]).c_str(),
                  SummarizeFootprint(cells[e][3]).c_str());
    }
    std::printf("footprint totals: envelope %lluB, observed %lluB, peak "
                "%lluB over %d cell(s), %d unbounded cell(s) excluded\n",
                static_cast<unsigned long long>(footprint_envelope),
                static_cast<unsigned long long>(footprint_observed),
                static_cast<unsigned long long>(footprint_peak),
                footprint_cells, footprint_unbounded);
    std::printf("scan calibration (gated): envelope %lluB / observed %lluB "
                "over %d leaf scan(s)\n",
                static_cast<unsigned long long>(footprint_scan_envelope),
                static_cast<unsigned long long>(footprint_scan_observed),
                footprint_leaves);
  }
  std::printf(
      "\nrules: QA001 dead/unprojectable vars, QA002 unsatisfiable "
      "filters, QA003 non-well-designed OPTIONAL, QA004 disconnected BGP, "
      "QA005 unbounded predicate on VP; LN001 uncached reuse, LN002 "
      "redundant shuffle, LN003 deep shuffle chain; RC001 unsynchronized "
      "conflicting access, RC002 publication without barrier, RC003 "
      "eviction vs pooled access; DT001 completion-order-dependent "
      "accumulator, DT002 non-commutative unordered merge, DT003 "
      "unordered-container iteration at a result boundary; SC001/SC002 "
      "schema soundness, CP001 cartesian fallback, BC001 broadcast size, "
      "ST001 star locality, VP001 unbounded-predicate scan; RS001 broadcast "
      "over executor budget, RS002 peak envelope over cluster budget, RS003 "
      "unbounded envelope at a blocking operator, RS004 retention dominated "
      "by a never-reread RDD, RS005 superlinear working set, RS006 envelope "
      "drift vs actuals\n");
  return any_error ? 1 : 0;
}
