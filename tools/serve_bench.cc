// serve_bench — closed/open-loop load generator for the serving layer.
//
// Drives a QueryServer with a configurable tenant mix over the LUBM shape
// queries and reports per-tenant and aggregate serving metrics: P50/P99
// wall latency, sustained QPS, plan-cache hit rate, and the fairness of
// the round-robin dispatch (per-tenant completion counts).
//
//   $ ./serve_bench                                  # defaults
//   $ ./serve_bench --tenants=8 --workers=8 --requests=400
//   $ ./serve_bench --mode=open --rate=200           # open loop, 200 req/s
//   $ ./serve_bench --variants=HAQWA,S2RDF,S2X
//   $ ./serve_bench --warmup=5                       # warm/cold split
//   $ ./serve_bench --threads=8 --telemetry-dir=/tmp/telemetry
//   $ ./serve_bench --memory-budget=100000           # Tier D admission gate
//   $ ./serve_bench --cache-bytes=500000             # plan-cache byte budget
//
// Closed loop: one driver thread per tenant keeps exactly one request in
// flight (submit → wait → submit), the classic closed system model. Open
// loop: requests arrive on a fixed schedule regardless of completions, so
// queueing delay shows up in the latency tail.
//
// --warmup=N excludes each tenant's first N requests from the reported
// wall-latency percentiles (cache fills and first-touch costs dominate
// them); BENCH_serving.json then carries the warm/cold split.
//
// --threads picks the simulated cluster's executor_threads (the partition
// task pool). The telemetry artifacts written by --telemetry-dir are on
// the per-tenant *virtual* timeline and must be byte-identical across
// --threads values — the determinism contract CI diffs two runs to check.
//
// Writes BENCH_serving.json via the shared BenchJson sink when
// RDFSPARK_BENCH_JSON_DIR is set (the CI baseline flow).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "obs/telemetry.h"
#include "rdf/generator.h"
#include "serving/query_server.h"
#include "spark/context.h"
#include "systems/engine.h"

namespace {

using namespace rdfspark;

struct Config {
  int universities = 1;
  int tenants = 4;
  int workers = 8;
  int requests = 120;  // Total across tenants.
  std::string mode = "closed";
  double rate = 100.0;  // Open-loop arrivals per second.
  uint64_t seed = 42;
  std::vector<std::string> variants;  // Empty = all.
  int threads = 0;     // Simulated executor_threads (0 = serial reference).
  int warmup = 0;      // Per-tenant requests excluded from percentiles.
  std::string telemetry_dir;  // Write telemetry artifacts here.
  double window_ms = 0;       // Telemetry window width (simulated ms).
  double audit_ms = 0;        // Slow-query latency threshold (simulated ms).
  double audit_err = 0;       // Cardinality-estimate error trigger factor.
  uint64_t memory_budget = 0;  // Tier D admission budget in bytes (0 = off).
  uint64_t cache_bytes = 0;    // Plan-cache byte budget (0 = entries only).
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* name) -> const char* {
      size_t n = std::strlen(name);
      if (arg.compare(0, n, name) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--universities")) {
      cfg->universities = std::atoi(v);
    } else if (const char* v = value("--tenants")) {
      cfg->tenants = std::atoi(v);
    } else if (const char* v = value("--workers")) {
      cfg->workers = std::atoi(v);
    } else if (const char* v = value("--requests")) {
      cfg->requests = std::atoi(v);
    } else if (const char* v = value("--mode")) {
      cfg->mode = v;
    } else if (const char* v = value("--rate")) {
      cfg->rate = std::atof(v);
    } else if (const char* v = value("--seed")) {
      cfg->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--variants")) {
      cfg->variants = SplitCsv(v);
    } else if (const char* v = value("--threads")) {
      cfg->threads = std::atoi(v);
    } else if (const char* v = value("--warmup")) {
      cfg->warmup = std::atoi(v);
    } else if (const char* v = value("--telemetry-dir")) {
      cfg->telemetry_dir = v;
    } else if (const char* v = value("--window-ms")) {
      cfg->window_ms = std::atof(v);
    } else if (const char* v = value("--audit-ms")) {
      cfg->audit_ms = std::atof(v);
    } else if (const char* v = value("--audit-err")) {
      cfg->audit_err = std::atof(v);
    } else if (const char* v = value("--memory-budget")) {
      cfg->memory_budget = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--cache-bytes")) {
      cfg->cache_bytes = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (cfg->mode != "closed" && cfg->mode != "open") {
    std::fprintf(stderr, "--mode must be closed or open\n");
    return false;
  }
  return true;
}

/// SplitMix64: deterministic per-request variant/query selection.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted_ms.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) return 2;

  rdf::TripleStore store = bench::MakeLubmStore(cfg.universities, cfg.seed);
  spark::SparkContext sc(bench::DefaultCluster(4, 8, cfg.threads));

  serving::QueryServer::Options options;
  options.worker_threads = cfg.workers;
  options.variants = cfg.variants;
  if (cfg.window_ms > 0) {
    options.telemetry_options.window.width_ns =
        static_cast<uint64_t>(cfg.window_ms * 1e6);
  }
  if (cfg.audit_ms > 0) {
    options.telemetry_options.audit.latency_threshold_ns =
        static_cast<uint64_t>(cfg.audit_ms * 1e6);
  }
  if (cfg.audit_err > 0) {
    options.telemetry_options.audit.est_error_bound = cfg.audit_err;
  }
  options.memory_budget_bytes = cfg.memory_budget;
  if (cfg.cache_bytes > 0) options.plan_cache_byte_budget = cfg.cache_bytes;
  serving::QueryServer server(&sc, options);
  Status attached = server.AttachDataset(store);
  if (!attached.ok()) {
    std::fprintf(stderr, "AttachDataset: %s\n", attached.ToString().c_str());
    return 1;
  }

  // Per-variant admissible mix: BGP-only engines answer Unsupported for
  // the FILTER/DISTINCT shape, so keep it off their schedule — the bench
  // measures serving latency, not fragment coverage.
  std::vector<serving::QueryServer::VariantInfo> variants =
      server.variants();
  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();
  std::vector<std::string> bgp_mix;
  std::vector<std::string> full_mix;
  for (const auto& [shape, text] : mix) {
    if (shape != rdf::QueryShape::kComplex) bgp_mix.push_back(text);
    full_mix.push_back(text);
  }

  std::printf("serve_bench: %s loop, %d tenants, %d workers, %d requests\n",
              cfg.mode.c_str(), cfg.tenants, cfg.workers, cfg.requests);
  std::printf("dataset: %zu triples (%d universities); %zu variants\n\n",
              store.size(), cfg.universities, variants.size());

  // Sessions and the per-request schedule, fixed up front so the workload
  // is identical run to run for a given seed.
  std::vector<int> sessions;
  for (int t = 0; t < cfg.tenants; ++t) {
    sessions.push_back(server.OpenSession("tenant" + std::to_string(t)));
  }
  struct Planned {
    int tenant;
    int tenant_index;  ///< Position within the tenant's own sequence.
    std::string variant;
    std::string text;
  };
  std::vector<Planned> schedule;
  std::vector<int> tenant_counts(static_cast<size_t>(cfg.tenants), 0);
  uint64_t rng = cfg.seed;
  for (int i = 0; i < cfg.requests; ++i) {
    Planned p;
    p.tenant = i % cfg.tenants;
    p.tenant_index = tenant_counts[static_cast<size_t>(p.tenant)]++;
    const auto& variant = variants[NextRand(&rng) % variants.size()];
    p.variant = variant.name;
    const auto& texts =
        variant.fragment == systems::SparqlFragment::kBgpPlus ? full_mix
                                                              : bgp_mix;
    p.text = texts[NextRand(&rng) % texts.size()];
    schedule.push_back(std::move(p));
  }

  // One byte per request, never std::vector<bool>: in closed loop each
  // tenant's thread writes its own requests' entries concurrently with the
  // others', and vector<bool> packs neighbouring entries into one word,
  // so those writes lose updates.
  std::vector<double> latencies_ms(schedule.size(), 0.0);
  std::vector<uint8_t> succeeded(schedule.size(), 0);
  // Budget-gate rejections are an expected outcome when a budget is set
  // (the bench reports them as their own column), not a workload failure.
  std::vector<uint8_t> budget_rejected(schedule.size(), 0);
  auto bench_start = std::chrono::steady_clock::now();

  if (cfg.mode == "closed") {
    // One driver per tenant, one request in flight each.
    std::vector<std::thread> drivers;
    for (int t = 0; t < cfg.tenants; ++t) {
      drivers.emplace_back([&, t] {
        for (size_t i = 0; i < schedule.size(); ++i) {
          if (schedule[i].tenant != t) continue;
          serving::RequestResult r = server.Execute(
              sessions[static_cast<size_t>(t)], schedule[i].variant,
              schedule[i].text);
          latencies_ms[i] = r.latency_ms;
          succeeded[i] = r.status.ok();
          budget_rejected[i] = r.budget_rejected;
        }
      });
    }
    for (auto& d : drivers) d.join();
  } else {
    // Open loop: submit on schedule, collect tickets, wait at the end.
    double gap_ms = cfg.rate > 0 ? 1000.0 / cfg.rate : 0.0;
    std::vector<std::shared_ptr<serving::QueryServer::Ticket>> tickets;
    tickets.reserve(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      auto due = bench_start + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       gap_ms * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
      tickets.push_back(server.Submit(
          sessions[static_cast<size_t>(schedule[i].tenant)],
          schedule[i].variant, schedule[i].text));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      const serving::RequestResult& r = tickets[i]->Wait();
      latencies_ms[i] = r.latency_ms;
      succeeded[i] = r.status.ok();
      budget_rejected[i] = r.budget_rejected;
    }
  }

  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - bench_start)
                       .count();

  // Aggregate + per-tenant report.
  bench::BenchJson json("serving");
  std::vector<int> widths = {10, 10, 10, 11, 9, 9, 11, 11, 10};
  bench::PrintRow({"tenant", "completed", "rejected", "budget_rej", "failed",
                   "rows", "p50_ms", "p99_ms", "hits"},
                  widths);
  bench::PrintRule(widths);

  uint64_t total_ok = 0;
  for (int t = 0; t < cfg.tenants; ++t) {
    std::string name = "tenant" + std::to_string(t);
    serving::TenantStats stats = server.tenant_stats(name);
    // Warm = past the tenant's first `warmup` requests; the reported
    // percentiles are warm-only so steady-state latency is not skewed by
    // plan-cache fills and first-touch costs.
    std::vector<double> mine;
    std::vector<double> cold;
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (schedule[i].tenant != t || !succeeded[i]) continue;
      if (schedule[i].tenant_index < cfg.warmup) {
        cold.push_back(latencies_ms[i]);
      } else {
        mine.push_back(latencies_ms[i]);
      }
    }
    std::sort(mine.begin(), mine.end());
    std::sort(cold.begin(), cold.end());
    double p50 = Percentile(mine, 0.50);
    double p99 = Percentile(mine, 0.99);
    total_ok += stats.completed;
    bench::PrintRow({name, bench::Fmt(stats.completed),
                     bench::Fmt(stats.rejected),
                     bench::Fmt(stats.budget_rejected),
                     bench::Fmt(stats.failed),
                     bench::Fmt(stats.rows_returned), bench::Fmt(p50),
                     bench::Fmt(p99), bench::Fmt(stats.cache_hits)},
                    widths);
    json.Add(name, "completed", static_cast<double>(stats.completed));
    json.Add(name, "rejected", static_cast<double>(stats.rejected));
    json.Add(name, "budget_rejected",
             static_cast<double>(stats.budget_rejected));
    json.Add(name, "failed", static_cast<double>(stats.failed));
    json.Add(name, "rows_returned",
             static_cast<double>(stats.rows_returned));
    json.Add(name, "cache_hits", static_cast<double>(stats.cache_hits));
    json.Add(name, "cache_bypasses",
             static_cast<double>(stats.cache_bypasses));
    json.Add(name, "records_processed",
             static_cast<double>(stats.records_processed));
    json.Add(name, "tasks", static_cast<double>(stats.tasks));
    json.Add(name, "p50_ms", p50);
    json.Add(name, "p99_ms", p99);
    if (cfg.warmup > 0) {
      json.Add(name, "warm_requests", static_cast<double>(mine.size()));
      json.Add(name, "cold_requests", static_cast<double>(cold.size()));
      json.Add(name, "cold_p50_ms", Percentile(cold, 0.50));
      json.Add(name, "cold_p99_ms", Percentile(cold, 0.99));
    }
  }

  std::vector<double> all;
  std::vector<double> all_cold;
  for (size_t i = 0; i < latencies_ms.size(); ++i) {
    if (!succeeded[i]) continue;
    if (schedule[i].tenant_index < cfg.warmup) {
      all_cold.push_back(latencies_ms[i]);
    } else {
      all.push_back(latencies_ms[i]);
    }
  }
  std::sort(all.begin(), all.end());
  std::sort(all_cold.begin(), all_cold.end());
  double p50 = Percentile(all, 0.50);
  double p99 = Percentile(all, 0.99);
  double qps = wall_ms > 0
                   ? static_cast<double>(total_ok) / (wall_ms / 1000.0)
                   : 0.0;
  serving::PlanCacheStats cache = server.plan_cache_stats();
  uint64_t lookups = cache.hits + cache.misses;
  double hit_rate =
      lookups > 0
          ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
          : 0.0;

  std::printf("\ntotal: %llu ok in %.1f ms  (%.1f qps)\n",
              static_cast<unsigned long long>(total_ok), wall_ms, qps);
  if (cfg.warmup > 0) {
    std::printf(
        "latency: p50 %.2f ms, p99 %.2f ms  (warm, %zu requests; cold %zu: "
        "p50 %.2f ms, p99 %.2f ms)\n",
        p50, p99, all.size(), all_cold.size(), Percentile(all_cold, 0.50),
        Percentile(all_cold, 0.99));
  } else {
    std::printf("latency: p50 %.2f ms, p99 %.2f ms\n", p50, p99);
  }
  std::printf(
      "plan cache: %llu hits, %llu misses, %llu bypasses "
      "(hit rate %.0f%%), %llu resident (%lluB held, %lluB evicted)\n",
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.bypasses), hit_rate * 100.0,
      static_cast<unsigned long long>(cache.entries),
      static_cast<unsigned long long>(cache.resident_bytes),
      static_cast<unsigned long long>(cache.evicted_bytes));
  uint64_t total_budget_rejects = 0;
  for (size_t i = 0; i < budget_rejected.size(); ++i) {
    if (budget_rejected[i]) ++total_budget_rejects;
  }
  if (total_budget_rejects > 0) {
    std::printf("budget gate: %llu request(s) rejected over the envelope "
                "budget\n",
                static_cast<unsigned long long>(total_budget_rejects));
  }

  if (obs::TelemetrySink* sink = server.telemetry()) {
    std::printf(
        "telemetry: %zu windows, %zu audit entries, %zu unapplied records\n",
        sink->window_count(), sink->audit_count(), sink->unapplied());
    if (!cfg.telemetry_dir.empty()) {
      Status wrote = sink->WriteArtifacts(cfg.telemetry_dir);
      if (!wrote.ok()) {
        std::fprintf(stderr, "telemetry artifacts: %s\n",
                     wrote.ToString().c_str());
        return 1;
      }
      std::printf("telemetry: artifacts written to %s\n",
                  cfg.telemetry_dir.c_str());
    }
  }

  json.Add("total", "completed", static_cast<double>(total_ok));
  json.Add("total", "qps", qps);
  json.Add("total", "p50_ms", p50);
  json.Add("total", "p99_ms", p99);
  json.Add("total", "cache_hits", static_cast<double>(cache.hits));
  json.Add("total", "cache_misses", static_cast<double>(cache.misses));
  json.Add("total", "cache_bypasses", static_cast<double>(cache.bypasses));
  json.Add("total", "cache_hit_rate", hit_rate);
  json.Add("total", "cache_resident_bytes",
           static_cast<double>(cache.resident_bytes));
  json.Add("total", "budget_rejected",
           static_cast<double>(total_budget_rejects));
  if (cfg.warmup > 0) {
    json.Add("total", "warm_requests", static_cast<double>(all.size()));
    json.Add("total", "cold_requests", static_cast<double>(all_cold.size()));
    json.Add("total", "cold_p50_ms", Percentile(all_cold, 0.50));
    json.Add("total", "cold_p99_ms", Percentile(all_cold, 0.99));
  }
  if (json.Write()) {
    // Self-check the written artifact with the strict RFC 8259 validator,
    // like the other JSON-emitting tools do for their outputs.
    const char* dir = std::getenv("RDFSPARK_BENCH_JSON_DIR");
    std::ifstream in(std::string(dir) + "/BENCH_serving.json");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    if (!ValidateJson(text, &error)) {
      std::fprintf(stderr, "BENCH_serving.json is not valid JSON: %s\n",
                   error.c_str());
      return 1;
    }
  }

  // Exit non-zero if anything failed outright (rejections count as
  // failures here: the default workload contains only admissible queries).
  // Budget-gate rejections are the exception — with --memory-budget set
  // they are the measured behavior, not a failure.
  uint64_t bad = 0;
  for (size_t i = 0; i < succeeded.size(); ++i) {
    if (!succeeded[i] && !budget_rejected[i]) ++bad;
  }
  if (bad > 0) {
    std::fprintf(stderr, "serve_bench: %llu requests failed\n",
                 static_cast<unsigned long long>(bad));
    return 1;
  }
  return 0;
}
