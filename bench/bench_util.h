#ifndef RDFSPARK_BENCH_BENCH_UTIL_H_
#define RDFSPARK_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "rdf/generator.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "sparql/parser.h"
#include "systems/engine.h"

namespace rdfspark::bench {

/// Fixed-width table printing for benchmark reports. Each cell is printed
/// whole and padded to its column width; a cell that fills or overflows its
/// column is still followed by one space, so it never runs into the next.
inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t w = i < widths.size() ? static_cast<size_t>(widths[i]) : 16;
    line += cells[i];
    size_t pad = w > cells[i].size() ? w - cells[i].size() : 0;
    if (pad == 0 && i + 1 < cells.size()) pad = 1;
    line.append(pad, ' ');
  }
  std::printf("%s\n", line.c_str());
}

inline void PrintRule(const std::vector<int>& widths) {
  int total = 0;
  for (int w : widths) total += w;
  std::printf("%s\n", std::string(static_cast<size_t>(total), '-').c_str());
}

inline std::string Fmt(uint64_t v) { return std::to_string(v); }
inline std::string Fmt(double v, int digits = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// LUBM dataset scaled by `universities`, deduplicated.
inline rdf::TripleStore MakeLubmStore(int universities, uint64_t seed = 42) {
  rdf::LubmConfig cfg;
  cfg.num_universities = universities;
  cfg.seed = seed;
  rdf::TripleStore store;
  store.AddAll(rdf::GenerateLubm(cfg));
  store.Dedupe();
  return store;
}

inline spark::ClusterConfig DefaultCluster(int executors = 4,
                                           int parallelism = 8,
                                           int executor_threads = 0) {
  spark::ClusterConfig cfg;
  cfg.num_executors = executors;
  cfg.default_parallelism = parallelism;
  cfg.executor_threads = executor_threads;
  return cfg;
}

/// Wall-clock milliseconds spent in `fn`.
inline double WallMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Result of one measured query execution.
struct QueryRun {
  uint64_t rows = 0;
  double wall_ms = 0.0;
  spark::Metrics delta;
  bool ok = false;
  std::string error;
};

inline QueryRun RunQuery(systems::BgpEngineBase* engine,
                         const sparql::Query& query) {
  QueryRun run;
  auto before = engine->context()->metrics();
  auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(query);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  run.delta = engine->context()->metrics() - before;
  if (!result.ok()) {
    run.error = result.status().ToString();
    return run;
  }
  run.ok = true;
  run.rows = result->num_rows();
  return run;
}

inline QueryRun RunQuery(systems::BgpEngineBase* engine,
                         const std::string& text) {
  auto query = sparql::ParseQuery(text);
  if (!query.ok()) {
    QueryRun run;
    run.error = query.status().ToString();
    return run;
  }
  return RunQuery(engine, *query);
}

/// EXPLAIN of `query`'s top-level BGP, for plan-shape guards: a bench whose
/// plan does not show the strategy it measures aborts instead of reporting
/// numbers for the wrong plan.
inline std::string MustExplain(systems::BgpEngineBase* engine,
                               const sparql::Query& query,
                               const std::string& label) {
  auto root = engine->PlanBgp(query.where.bgp);
  if (!root.ok()) {
    std::fprintf(stderr, "EXPLAIN failed for %s: %s\n", label.c_str(),
                 root.status().ToString().c_str());
    std::abort();
  }
  return systems::plan::Explain(**root);
}

/// Machine-readable benchmark output. The human tables above are for eyes;
/// this collects the same numbers as (label, metric, value) triples and
/// writes them to $RDFSPARK_BENCH_JSON_DIR/BENCH_<name>.json when that
/// environment variable points at a directory (CI sets it; interactive
/// runs that leave it unset write nothing). Values are emitted with %.10g,
/// so counters survive round-tripping exactly.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& label, const std::string& metric,
           double value) {
    RowFor(label)->values.emplace_back(metric, value);
  }

  /// Flattens a metrics delta (counters, simulated time, histogram
  /// summaries incl. partition skew) under `label`.
  void AddMetrics(const std::string& label, const spark::Metrics& delta) {
    Row* row = RowFor(label);
    delta.ForEachNumericField(
        [row](const std::string& metric, double value) {
          row->values.emplace_back(metric, value);
        });
  }

  /// Writes BENCH_<name>.json if requested; returns whether a file was
  /// written. Call once, after the tables are printed.
  bool Write() const {
    const char* dir = std::getenv("RDFSPARK_BENCH_JSON_DIR");
    if (dir == nullptr || dir[0] == '\0') return false;
    std::string json = "{\n  \"benchmark\": \"" + JsonEscape(name_) +
                       "\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      json += "    {\"label\": \"" + JsonEscape(rows_[i].label) +
              "\", \"metrics\": {";
      for (size_t v = 0; v < rows_[i].values.size(); ++v) {
        if (v > 0) json += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g",
                      rows_[i].values[v].second);
        json += "\"" + JsonEscape(rows_[i].values[v].first) + "\": " + buf;
      }
      json += i + 1 < rows_.size() ? "}},\n" : "}}\n";
    }
    json += "  ]\n}\n";
    std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return false;
    }
    out << json;
    std::fprintf(stderr, "BenchJson: wrote %s (%zu rows)\n", path.c_str(),
                 rows_.size());
    return true;
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
  };

  Row* RowFor(const std::string& label) {
    for (auto& row : rows_) {
      if (row.label == label) return &row;
    }
    rows_.push_back(Row{label, {}});
    return &rows_.back();
  }

  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace rdfspark::bench

#endif  // RDFSPARK_BENCH_BENCH_UTIL_H_
