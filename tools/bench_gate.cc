// bench_gate — CI gate over the machine-readable bench output.
//
//   bench_gate --candidate=artifacts/BENCH_lubm.json \
//              --baseline=bench/baselines/BENCH_lubm.json \
//              [--metric=shuffle_bytes] [--max-regression=0.10] \
//              [--label=<row label>]
//
// Both files must pass the in-tree RFC 8259 validator. The gate then sums
// `metric` across every row of each file and exits nonzero when the
// candidate total exceeds baseline * (1 + max-regression). Totals (not
// per-label values) are compared so benign label renames don't trip the
// gate; a shuffle-volume regression big enough to matter moves the total.
//
// --label restricts the sum to the row(s) with that exact "label" value —
// the serving gate compares the aggregate row's p99_ms only, because the
// per-tenant percentile rows are noisy under worker interleaving:
//
//   bench_gate --candidate=artifacts/BENCH_serving.json \
//              --baseline=bench/baselines/BENCH_serving.json \
//              --label=total --metric=p99_ms --max-regression=0.5
//
// Exit codes: 0 pass, 1 regression, 2 usage / unreadable / invalid JSON.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Sums every `"<metric>": <number>` occurrence. The BENCH_*.json writer
// emits one flat metrics object per row with unique keys, so occurrence
// count == row count; the file has already passed full RFC 8259
// validation, so this scan only has to locate, not parse, the grammar.
double SumMetric(const std::string& json, const std::string& metric,
                 size_t* occurrences) {
  const std::string needle = "\"" + metric + "\":";
  double total = 0;
  *occurrences = 0;
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    total += std::strtod(json.c_str() + pos, nullptr);
    ++*occurrences;
  }
  return total;
}

// Like SumMetric, but only inside rows whose "label" equals `label`. A row
// window spans from its "label" key to the next "label" key (or EOF) —
// sound because the BENCH_*.json writers emit "label" first in each row
// and never nest rows.
double SumLabeledMetric(const std::string& json, const std::string& metric,
                        const std::string& label, size_t* occurrences) {
  const std::string label_key = "\"label\":";
  const std::string metric_needle = "\"" + metric + "\":";
  double total = 0;
  *occurrences = 0;
  size_t pos = 0;
  while ((pos = json.find(label_key, pos)) != std::string::npos) {
    size_t value_start = pos + label_key.size();
    size_t window_end = json.find(label_key, value_start);
    if (window_end == std::string::npos) window_end = json.size();
    // Match the label value: skip whitespace, expect "label".
    size_t v = value_start;
    while (v < json.size() && (json[v] == ' ' || json[v] == '\n')) ++v;
    const std::string quoted = "\"" + label + "\"";
    if (json.compare(v, quoted.size(), quoted) == 0) {
      size_t m = value_start;
      while ((m = json.find(metric_needle, m)) != std::string::npos &&
             m < window_end) {
        m += metric_needle.size();
        total += std::strtod(json.c_str() + m, nullptr);
        ++*occurrences;
      }
    }
    pos = value_start;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::string candidate_path, baseline_path;
  std::string metric = "shuffle_bytes";
  std::string label;
  double max_regression = 0.10;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--candidate=", 12) == 0) {
      candidate_path = arg + 12;
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
    } else if (std::strncmp(arg, "--metric=", 9) == 0) {
      metric = arg + 9;
    } else if (std::strncmp(arg, "--label=", 8) == 0) {
      label = arg + 8;
    } else if (std::strncmp(arg, "--max-regression=", 17) == 0) {
      max_regression = std::strtod(arg + 17, nullptr);
    } else {
      std::fprintf(stderr, "bench_gate: unknown argument %s\n", arg);
      return 2;
    }
  }
  if (candidate_path.empty() || baseline_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_gate --candidate=<json> --baseline=<json> "
                 "[--metric=<name>] [--label=<row>] "
                 "[--max-regression=<fraction>]\n");
    return 2;
  }

  struct {
    const char* role;
    const std::string* path;
    std::string text;
    double total = 0;
    size_t rows = 0;
  } sides[2] = {{"candidate", &candidate_path}, {"baseline", &baseline_path}};
  for (auto& side : sides) {
    if (!ReadFile(*side.path, &side.text)) {
      std::fprintf(stderr, "bench_gate: cannot read %s %s\n", side.role,
                   side.path->c_str());
      return 2;
    }
    std::string error;
    if (!rdfspark::ValidateJson(side.text, &error)) {
      std::fprintf(stderr, "bench_gate: %s %s is not valid JSON: %s\n",
                   side.role, side.path->c_str(), error.c_str());
      return 2;
    }
    side.total = label.empty()
                     ? SumMetric(side.text, metric, &side.rows)
                     : SumLabeledMetric(side.text, metric, label, &side.rows);
    if (side.rows == 0) {
      std::fprintf(stderr, "bench_gate: %s %s has no \"%s\" entries%s%s\n",
                   side.role, side.path->c_str(), metric.c_str(),
                   label.empty() ? "" : " in rows labeled ",
                   label.c_str());
      return 2;
    }
  }

  double limit = sides[1].total * (1.0 + max_regression);
  bool pass = sides[0].total <= limit;
  std::printf(
      "bench_gate: %s total %s = %.0f over %zu rows; baseline %.0f over "
      "%zu rows; limit %.0f (+%.0f%%): %s\n",
      candidate_path.c_str(), metric.c_str(), sides[0].total, sides[0].rows,
      sides[1].total, sides[1].rows, limit, max_regression * 100.0,
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
