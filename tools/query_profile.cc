// query_profile — runtime profile matrix across the 12 engine variants.
//
// Executes the canonical LUBM query shapes (star, chain, snowflake) on
// every reproduced engine with per-operator actuals collection and prints
// a per-engine runtime profile: result rows, simulated time, shuffle and
// join work, task-duration skew. The EXPLAIN ANALYZE companion to
// dataflow_lint's static tiers — here everything *is* executed.
//
//   $ ./query_profile                  # human-readable matrix
//   $ ./query_profile --json           # machine-readable (RFC 8259) dump
//   $ ./query_profile --trace t.json   # also write a Chrome trace of the
//                                      # S2RDF/star run (chrome://tracing)
//
// Every query runs on a fresh serial-executor context, so all numbers are
// deterministic and the JSON is byte-stable across runs and machines.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "rdf/generator.h"
#include "rdf/store.h"
#include "systems/s2rdf.h"
#include "spark/context.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/plan/plan.h"

namespace {

using namespace rdfspark;

spark::ClusterConfig SmallCluster() {
  spark::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = 1;  // deterministic timelines for --trace
  return cfg;
}

/// Same dataset as dataflow_lint and the golden tests: one LUBM university.
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

struct ShapeQuery {
  const char* label;
  std::string text;
};

std::vector<ShapeQuery> Shapes() {
  return {
      {"star", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3)},
      {"chain", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)},
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)},
  };
}

/// One analyzed (engine, shape) execution.
struct Profile {
  std::string engine;
  std::string shape;
  bool ok = false;
  std::string error;
  uint64_t rows = 0;
  bool rows_known = false;
  spark::Metrics delta;                   // query-only (load excluded)
  std::vector<std::string> plan_lines;    // per-node JSON objects, pre-order
};

std::string JsonNumber(double v) {
  char buf[64];
  // %.10g keeps integers exact up to 2^33 and stays valid JSON.
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void AppendPlanNodes(const systems::plan::PlanNode& node, int depth,
                     std::vector<std::string>* out) {
  std::string line = "{\"op\":\"";
  line += systems::plan::NodeKindName(node.kind);
  line += "\",\"depth\":" + std::to_string(depth);
  if (!node.detail.empty()) {
    line += ",\"detail\":\"" + JsonEscape(node.detail) + "\"";
  }
  if (node.est_cardinality != systems::plan::kNoEstimate) {
    line += ",\"est\":" + std::to_string(node.est_cardinality);
  }
  if (node.actuals != nullptr) {
    const auto& a = *node.actuals;
    if (a.rows_known) line += ",\"rows\":" + std::to_string(a.rows_out);
    line += ",\"tasks\":" + std::to_string(a.tasks.value());
    line += ",\"join_comparisons\":" +
            std::to_string(a.join_comparisons.value());
    line += ",\"shuffle_bytes\":" + std::to_string(a.shuffle_bytes.value());
    line += ",\"broadcast_bytes\":" +
            std::to_string(a.broadcast_bytes.value());
    line += ",\"busy_ms\":" +
            JsonNumber(static_cast<double>(a.busy_ns.value()) / 1e6);
  }
  line += "}";
  out->push_back(std::move(line));
  for (const auto& child : node.children) {
    AppendPlanNodes(*child, depth + 1, out);
  }
}

Profile RunOne(const systems::EngineVariantFactory& factory,
               const ShapeQuery& shape, const rdf::TripleStore& store) {
  Profile p;
  p.engine = factory.name;
  p.shape = shape.label;
  spark::SparkContext sc(SmallCluster());
  auto engine = factory.make(&sc);
  auto loaded = engine->Load(store);
  if (!loaded.ok()) {
    p.error = loaded.status().ToString();
    return p;
  }
  auto query = sparql::ParseQuery(shape.text);
  if (!query.ok()) {
    p.error = query.status().ToString();
    return p;
  }
  spark::Metrics before = sc.metrics();
  auto root = engine->ExecuteAnalyzed(*query);
  if (!root.ok()) {
    p.error = root.status().ToString();
    return p;
  }
  p.delta = sc.metrics() - before;
  if ((*root)->actuals != nullptr && (*root)->actuals->rows_known) {
    p.rows = (*root)->actuals->rows_out;
    p.rows_known = true;
  }
  AppendPlanNodes(**root, 0, &p.plan_lines);
  p.ok = true;
  return p;
}

std::string ToJson(const std::vector<Profile>& profiles,
                   const rdf::TripleStore& store) {
  std::string out = "{\n  \"tool\": \"query_profile\",\n";
  out += "  \"dataset\": {\"triples\": " + std::to_string(store.size()) +
         "},\n";
  out += "  \"cluster\": {\"executors\": 4, \"parallelism\": 8, "
         "\"executor_threads\": 1},\n";
  out += "  \"profiles\": [\n";
  for (size_t i = 0; i < profiles.size(); ++i) {
    const Profile& p = profiles[i];
    out += "    {\"engine\": \"" + JsonEscape(p.engine) + "\", \"shape\": \"" +
           JsonEscape(p.shape) + "\"";
    if (!p.ok) {
      out += ", \"error\": \"" + JsonEscape(p.error) + "\"}";
    } else {
      out += ", \"rows\": ";
      out += p.rows_known ? std::to_string(p.rows) : std::string("null");
      out += ",\n     \"metrics\": {";
      bool first = true;
      p.delta.ForEachNumericField([&](const std::string& name, double v) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + JsonEscape(name) + "\": " + JsonNumber(v);
      });
      out += "},\n     \"plan\": [";
      for (size_t n = 0; n < p.plan_lines.size(); ++n) {
        if (n > 0) out += ", ";
        out += p.plan_lines[n];
      }
      out += "]}";
    }
    out += i + 1 < profiles.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// Re-runs one canonical combination (S2RDF / star) with the tracer on and
/// writes the Chrome chrome://tracing export to `path`.
bool WriteTrace(const std::string& path, const rdf::TripleStore& store) {
  spark::SparkContext sc(SmallCluster());
  systems::S2rdfEngine engine(&sc);
  auto loaded = engine.Load(store);
  if (!loaded.ok()) {
    std::fprintf(stderr, "trace load failed: %s\n",
                 loaded.status().ToString().c_str());
    return false;
  }
  sc.tracer().set_enabled(true);
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  if (!result.ok()) {
    std::fprintf(stderr, "trace query failed: %s\n",
                 result.status().ToString().c_str());
    return false;
  }
  std::string json = sc.tracer().ToChromeTraceJson();
  std::string error;
  if (!ValidateJson(json, &error)) {
    std::fprintf(stderr, "trace export is not valid JSON: %s\n",
                 error.c_str());
    return false;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << json;
  std::fprintf(stderr, "wrote %zu spans to %s\n", sc.tracer().event_count(),
               path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--trace <chrome-trace.json>]\n",
                   argv[0]);
      return 2;
    }
  }

  rdf::TripleStore store = MakeDataset();
  std::vector<Profile> profiles;
  bool any_error = false;
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    for (const auto& shape : Shapes()) {
      profiles.push_back(RunOne(factory, shape, store));
      any_error |= !profiles.back().ok;
    }
  }

  if (json) {
    std::string out = ToJson(profiles, store);
    std::string error;
    if (!ValidateJson(out, &error)) {
      // Self-check: the emitter and the validator must agree.
      std::fprintf(stderr, "internal error: emitted invalid JSON: %s\n",
                   error.c_str());
      return 1;
    }
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf("query_profile: EXPLAIN ANALYZE matrix over the LUBM "
                "shape queries\n");
    std::printf("dataset: %zu triples (1 university); fresh serial context "
                "per query\n\n",
                store.size());
    std::printf("%-22s %-10s %6s %9s %9s %10s %8s %6s\n", "engine", "shape",
                "rows", "sim_ms", "shuffled", "join_cmp", "tasks", "skew");
    for (const auto& p : profiles) {
      if (!p.ok) {
        std::printf("%-22s %-10s error: %s\n", p.engine.c_str(),
                    p.shape.c_str(), p.error.c_str());
        continue;
      }
      std::printf("%-22s %-10s %6llu %9.3f %9llu %10llu %8llu %6.2f\n",
                  p.engine.c_str(), p.shape.c_str(),
                  static_cast<unsigned long long>(p.rows),
                  p.delta.simulated_ms.ms(),
                  static_cast<unsigned long long>(
                      p.delta.shuffle_records.value()),
                  static_cast<unsigned long long>(
                      p.delta.join_comparisons.value()),
                  static_cast<unsigned long long>(p.delta.tasks.value()),
                  p.delta.task_records.SkewVsMean());
    }
    std::printf("\nskew = max/mean records per task within the query; "
                "rows/actuals are per-operator in --json\n");
  }

  if (!trace_path.empty() && !WriteTrace(trace_path, store)) return 1;
  return any_error ? 1 : 0;
}
