#include "obs/telemetry.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <list>
#include <tuple>
#include <unordered_map>

#include "common/json.h"
#include "obs/prometheus.h"

namespace rdfspark::obs {

namespace {

/// The per-request series metrics, interned once per export.
enum Metric : size_t {
  kRequests,
  kOk,
  kAdmissionRejects,
  kRaceRejects,
  kBudgetRejects,
  kEnvelopeDrift,
  kFailed,
  kRows,
  kTasks,
  kShuffleBytes,
  kJoinComparisons,
  kAudited,
  kLatencyNs,
  kMetricCount,
};

constexpr const char* kMetricNames[kMetricCount] = {
    "requests",      "ok",           "admission_rejects", "race_rejects",
    "budget_rejects", "envelope_drift", "failed",          "rows",
    "tasks",         "shuffle_bytes", "join_comparisons",  "audited",
    "latency_ns",
};

// Metrics only the export-time cache replay writes.
constexpr const char* kMetricCacheHits = "cache_hits";
constexpr const char* kMetricCacheMisses = "cache_misses";
constexpr const char* kMetricCacheBypass = "cache_bypass";

/// Envelope-vs-actual calibration (Tier D / RS006 at the serving layer):
/// when an audited request carries both a static envelope and observed
/// bytes, an envelope_drift event fires if the envelope exceeds this many
/// times the observed bytes — or under-estimates them at all, which is a
/// soundness violation. Mirrors systems::plan::kEnvelopeDriftBound.
constexpr double kEnvelopeDriftBound = 16.0;

Metric OutcomeMetric(RequestRecord::Outcome outcome) {
  switch (outcome) {
    case RequestRecord::Outcome::kOk:
      return kOk;
    case RequestRecord::Outcome::kRejected:
      return kAdmissionRejects;
    case RequestRecord::Outcome::kRaceRejected:
      return kRaceRejects;
    case RequestRecord::Outcome::kBudgetRejected:
      return kBudgetRejects;
    case RequestRecord::Outcome::kFailed:
      return kFailed;
  }
  return kFailed;
}

std::string ScopeLabel(const SeriesId& id) {
  if (id.scope == ScopeKind::kTotal) return "total";
  return std::string(ScopeKindName(id.scope)) + "/" + id.scope_name;
}

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatRate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// Appends printf-formatted text of whatever length it formats to.
__attribute__((format(printf, 2, 3))) void AppendF(std::string* out,
                                                   const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list probe;
  va_copy(probe, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, probe);
  va_end(probe);
  if (n > 0) {
    const size_t at = out->size();
    out->resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, args);
    out->resize(at + static_cast<size_t>(n));
  }
  va_end(args);
}

}  // namespace

TelemetrySink::TelemetrySink(TelemetryOptions options) : options_(options) {}

void TelemetrySink::Ingest(RequestRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [entry, inserted] = tenants_.try_emplace(record.tenant);
  TenantState& tenant = entry->second;
  if (inserted) tenant.name = names_.Intern(record.tenant);
  if (record.tenant_seq != tenant.next_seq) {
    tenant.pending.emplace(record.tenant_seq, std::move(record));
    return;
  }
  Apply(tenant, std::move(record));
  // Drain any buffered successors now unblocked.
  auto it = tenant.pending.begin();
  while (it != tenant.pending.end() && it->first == tenant.next_seq) {
    RequestRecord next = std::move(it->second);
    it = tenant.pending.erase(it);
    Apply(tenant, std::move(next));
  }
}

void TelemetrySink::Apply(TenantState& tenant, RequestRecord rec) {
  const uint64_t start_ns = tenant.clock_ns;
  const uint64_t duration_ns = rec.busy_ns + options_.request_overhead_ns;
  const uint64_t end_ns = start_ns + duration_ns;
  tenant.clock_ns = end_ns;
  tenant.next_seq = rec.tenant_seq + 1;

  const bool ok = rec.outcome == RequestRecord::Outcome::kOk;

  // ---- Structured events ----
  Event start;
  start.t_ns = start_ns;
  start.scope = rec.tenant;
  start.seq = rec.tenant_seq;
  start.kind = EventKind::kRequestStart;
  start.AddField("variant", rec.variant);
  events_.Add(std::move(start));

  Event finish;
  finish.t_ns = end_ns;
  finish.scope = rec.tenant;
  finish.seq = rec.tenant_seq;
  switch (rec.outcome) {
    case RequestRecord::Outcome::kOk:
      finish.kind = EventKind::kRequestFinish;
      finish.AddField("rows", rec.rows);
      break;
    case RequestRecord::Outcome::kRejected:
      finish.kind = EventKind::kAdmissionReject;
      finish.AddField("reason", rec.detail);
      break;
    case RequestRecord::Outcome::kRaceRejected:
      finish.kind = EventKind::kRaceGateReject;
      finish.AddField("reason", rec.detail);
      break;
    case RequestRecord::Outcome::kBudgetRejected:
      finish.kind = EventKind::kBudgetReject;
      finish.AddField("reason", rec.detail);
      finish.AddField("envelope_bytes", rec.envelope_bytes);
      break;
    case RequestRecord::Outcome::kFailed:
      finish.kind = EventKind::kRequestFinish;
      finish.AddField("error", rec.detail);
      break;
  }
  finish.AddField("sim_latency_ns", duration_ns);
  finish.AddField("variant", rec.variant);
  events_.Add(std::move(finish));

  // ---- The record the windows and the cache replay are built from ----
  Applied applied;
  applied.end_ns = end_ns;
  applied.duration_ns = duration_ns;
  applied.seq = rec.tenant_seq;
  applied.epoch = rec.epoch;
  applied.rows = rec.rows;
  applied.tasks = rec.tasks;
  applied.shuffle_bytes = rec.shuffle_bytes;
  applied.join_comparisons = rec.join_comparisons;
  applied.tenant = tenant.name;
  applied.variant = names_.Intern(rec.variant);
  applied.outcome = rec.outcome;
  applied.audited = rec.audited;
  if (ok && rec.cache_bypass) {
    applied.kind = Applied::Kind::kBypass;
  } else if (ok && !rec.cache_key.empty()) {
    applied.kind = Applied::Kind::kKeyed;
    applied.key = names_.Intern(rec.cache_key);
  }

  // ---- Slow-query audit ----
  if (rec.audited) {
    AuditEntry entry;
    entry.t_ns = end_ns;
    entry.tenant = rec.tenant;
    entry.seq = rec.tenant_seq;
    entry.variant = rec.variant;
    entry.query = rec.query;
    entry.span_id = "serve " + rec.tenant + "#" +
                    std::to_string(rec.tenant_seq) + " " + rec.variant;
    entry.sim_latency_ns = duration_ns;
    entry.latency_trigger = rec.audit_latency_trigger;
    entry.error_trigger = rec.audit_error_trigger;
    entry.max_est_error = rec.max_est_error;
    entry.profile = rec.audit_profile;
    entry.patterns = std::move(rec.pattern_actuals);
    audit_.Add(std::move(entry));

    Event captured;
    captured.t_ns = end_ns;
    captured.scope = rec.tenant;
    captured.seq = rec.tenant_seq;
    captured.kind = EventKind::kAuditCapture;
    std::string trigger;
    if (rec.audit_latency_trigger) trigger = "latency";
    if (rec.audit_error_trigger) {
      trigger += trigger.empty() ? "est_error" : "+est_error";
    }
    captured.AddField("trigger", trigger);
    captured.AddField("sim_latency_ns", duration_ns);
    events_.Add(std::move(captured));
  }

  // ---- Envelope-vs-actual calibration (Tier D drift, serving side) ----
  // Both sides present only when the request executed a statically bounded
  // plan AND the audit's profiled re-execution measured its actual bytes.
  if (rec.envelope_bytes > 0 && rec.observed_bytes > 0) {
    const bool under = rec.observed_bytes > rec.envelope_bytes;
    const bool over =
        static_cast<double>(rec.envelope_bytes) >
        kEnvelopeDriftBound * static_cast<double>(rec.observed_bytes);
    if (under || over) {
      applied.envelope_drift = true;
      Event drift;
      drift.t_ns = end_ns;
      drift.scope = rec.tenant;
      drift.seq = rec.tenant_seq;
      drift.kind = EventKind::kEnvelopeDrift;
      drift.AddField("direction", under ? "under" : "over");
      drift.AddField("envelope_bytes", rec.envelope_bytes);
      drift.AddField("observed_bytes", rec.observed_bytes);
      drift.AddField("variant", rec.variant);
      events_.Add(std::move(drift));
    }
  }

  applied_.push_back(applied);
}

void TelemetrySink::RecordDatasetSwap(uint64_t epoch, uint64_t triples) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t t = 0;
  for (const auto& [name, tenant] : tenants_) {
    t = std::max(t, tenant.clock_ns);
  }
  Event swap;
  swap.t_ns = t;
  swap.scope = "server";
  swap.kind = EventKind::kDatasetSwap;
  swap.AddField("epoch", epoch);
  swap.AddField("triples", triples);
  events_.Add(std::move(swap));

  Applied marker;
  marker.end_ns = t;
  marker.epoch = epoch;
  marker.kind = Applied::Kind::kSwap;
  applied_.push_back(marker);
}

AuditDecision TelemetrySink::DecideAudit(const std::string& tenant,
                                         uint64_t sim_latency_ns,
                                         double root_est_error) const {
  AuditDecision d;
  d.latency = sim_latency_ns >= options_.audit.LatencyThresholdFor(tenant);
  d.est_error = root_est_error >= options_.audit.est_error_bound;
  return d;
}

size_t TelemetrySink::unapplied() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, tenant] : tenants_) n += tenant.pending.size();
  return n;
}

WindowedRegistry TelemetrySink::RequestWindows() const {
  WindowedRegistry registry(options_.window);
  NameTable& names = registry.names();
  uint32_t metric_ids[kMetricCount];
  for (size_t m = 0; m < kMetricCount; ++m) {
    metric_ids[m] = names.Intern(kMetricNames[m]);
  }
  const uint32_t total = names.Intern("");
  // The sink's name ids, interned into the registry's table on first use.
  constexpr uint32_t kUnmapped = ~uint32_t{0};
  std::vector<uint32_t> remap(names_.size(), kUnmapped);
  auto scope_name = [&](uint32_t id) {
    if (remap[id] == kUnmapped) remap[id] = names.Intern(names_.Name(id));
    return remap[id];
  };
  for (const Applied& a : applied_) {
    if (a.kind == Applied::Kind::kSwap) continue;
    SeriesKey scopes[3] = {{ScopeKind::kTotal, total, 0},
                           {ScopeKind::kTenant, scope_name(a.tenant), 0}};
    size_t scope_count = 2;
    if (!names_.Name(a.variant).empty()) {
      scopes[scope_count++] = {ScopeKind::kVariant, scope_name(a.variant), 0};
    }
    WindowedRegistry::Window& window = registry.At(a.end_ns);
    auto count = [&](Metric metric, uint64_t delta) {
      if (delta == 0) return;
      for (size_t i = 0; i < scope_count; ++i) {
        SeriesKey key = scopes[i];
        key.metric = metric_ids[metric];
        window.Add(key, static_cast<int64_t>(delta));
      }
    };
    count(kRequests, 1);
    count(OutcomeMetric(a.outcome), 1);
    count(kRows, a.rows);
    count(kTasks, a.tasks);
    count(kShuffleBytes, a.shuffle_bytes);
    count(kJoinComparisons, a.join_comparisons);
    count(kAudited, a.audited ? 1 : 0);
    count(kEnvelopeDrift, a.envelope_drift ? 1 : 0);
    if (a.outcome == RequestRecord::Outcome::kOk) {
      for (size_t i = 0; i < scope_count; ++i) {
        SeriesKey key = scopes[i];
        key.metric = metric_ids[kLatencyNs];
        window.Observe(key, a.duration_ns);
      }
    }
  }
  return registry;
}

TelemetrySink::Replay TelemetrySink::ReplayRecords() const {
  Replay replay;
  replay.cache_windows = WindowedRegistry(options_.window);
  replay.events = events_;

  // Canonical replay order (end_ns, swap after requests, tenant *name*,
  // seq): a pure function of the applied-record set. Tenant ids follow
  // arrival order, so they are ranked by name first; tenants_ iterates in
  // name order. The sort is stable so swap markers at one instant keep
  // the order the swaps happened in.
  std::vector<uint32_t> rank(names_.size(), 0);
  uint32_t next_rank = 0;
  for (const auto& [name, tenant] : tenants_) rank[tenant.name] = next_rank++;
  auto sort_key = [&rank](const Applied& a) {
    const bool swap = a.kind == Applied::Kind::kSwap;
    return std::make_tuple(a.end_ns, swap, swap ? 0u : rank[a.tenant], a.seq);
  };
  std::vector<Applied> order;
  std::copy_if(applied_.begin(), applied_.end(), std::back_inserter(order),
               [](const Applied& a) {
                 return a.kind != Applied::Kind::kUncached;
               });
  std::stable_sort(order.begin(), order.end(),
                   [&](const Applied& a, const Applied& b) {
                     return sort_key(a) < sort_key(b);
                   });

  // Logical LRU keyed by (epoch, interned cache key), same capacity as the
  // physical plan cache. list front = most recent.
  using Key = std::pair<uint64_t, uint32_t>;
  std::list<Key> lru;
  std::map<Key, std::list<Key>::iterator> index;

  WindowedRegistry& cache_windows = replay.cache_windows;
  auto observe = [&](const Applied& a, const char* metric) {
    WindowedRegistry::Window& window = cache_windows.At(a.end_ns);
    window.Add(cache_windows.Key(ScopeKind::kTotal, "", metric), 1);
    window.Add(
        cache_windows.Key(ScopeKind::kTenant, names_.Name(a.tenant), metric),
        1);
  };

  for (const Applied& a : order) {
    if (a.kind == Applied::Kind::kSwap) {
      // The physical cache drops every entry at a hot swap.
      Event ev;
      ev.t_ns = a.end_ns;
      ev.scope = "server";
      ev.kind = EventKind::kCacheInvalidate;
      ev.AddField("entries", static_cast<uint64_t>(lru.size()));
      ev.AddField("epoch", a.epoch);
      replay.events.Add(std::move(ev));
      replay.invalidations += lru.size();
      lru.clear();
      index.clear();
      continue;
    }
    if (a.kind == Applied::Kind::kBypass) {
      // Bypasses include single-use-plan engines whose requests never
      // form a cache key; the key is irrelevant to the count.
      observe(a, kMetricCacheBypass);
      ++replay.bypasses;
      continue;
    }
    Key key{a.epoch, a.key};
    auto it = index.find(key);
    if (it != index.end()) {
      lru.splice(lru.begin(), lru, it->second);
      observe(a, kMetricCacheHits);
      ++replay.hits;
      Event ev;
      ev.t_ns = a.end_ns;
      ev.scope = names_.Name(a.tenant);
      ev.seq = a.seq;
      ev.kind = EventKind::kCacheHit;
      replay.events.Add(std::move(ev));
      continue;
    }
    observe(a, kMetricCacheMisses);
    ++replay.misses;
    Event fill;
    fill.t_ns = a.end_ns;
    fill.scope = names_.Name(a.tenant);
    fill.seq = a.seq;
    fill.kind = EventKind::kCacheFill;
    fill.AddField("epoch", a.epoch);
    replay.events.Add(std::move(fill));
    lru.push_front(key);
    index[key] = lru.begin();
    if (options_.logical_cache_capacity > 0 &&
        lru.size() > options_.logical_cache_capacity) {
      Key victim = lru.back();
      lru.pop_back();
      index.erase(victim);
      ++replay.evictions;
      Event ev;
      ev.t_ns = a.end_ns;
      ev.scope = names_.Name(a.tenant);
      ev.seq = a.seq;
      ev.kind = EventKind::kCacheEvict;
      ev.AddField("epoch", victim.first);
      replay.events.Add(std::move(ev));
    }
  }
  return replay;
}

namespace {

/// One window's union of per-request and cache-replay series.
struct MergedWindow {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::map<SeriesId, WindowedRegistry::Cell> series;
};

std::vector<MergedWindow> MergeWindows(
    const std::vector<WindowedRegistry::WindowSnapshot>& base,
    const std::vector<WindowedRegistry::WindowSnapshot>& cache) {
  std::map<uint64_t, MergedWindow> merged;
  auto fold = [&](const std::vector<WindowedRegistry::WindowSnapshot>& src) {
    for (const auto& w : src) {
      MergedWindow& m = merged[w.start_ns];
      m.start_ns = w.start_ns;
      m.end_ns = w.end_ns;
      for (const auto& [id, cell] : w.series) m.series[id] = cell;
    }
  };
  fold(base);
  fold(cache);
  std::vector<MergedWindow> out;
  out.reserve(merged.size());
  for (auto& [start, w] : merged) out.push_back(std::move(w));
  return out;
}

int64_t CounterOf(const MergedWindow& w, const SeriesId& scope,
                  const char* metric) {
  SeriesId id = scope;
  id.metric = metric;
  auto it = w.series.find(id);
  return it == w.series.end() ? 0 : it->second.counter;
}

const LatencyHistogram* HistOf(const MergedWindow& w, const SeriesId& scope,
                               const char* metric) {
  SeriesId id = scope;
  id.metric = metric;
  auto it = w.series.find(id);
  return it == w.series.end() ? nullptr : it->second.hist;
}

}  // namespace

std::string TelemetrySink::WindowsTextLocked(const WindowedRegistry& windows,
                                             const Replay& replay) const {
  std::vector<MergedWindow> merged =
      MergeWindows(windows.Snapshot(), replay.cache_windows.Snapshot());
  std::string out;
  for (const MergedWindow& w : merged) {
    out += "window [" + FormatMs(w.start_ns) + "ms, " + FormatMs(w.end_ns) +
           "ms)\n";
    AppendF(&out, "  %-22s %8s %8s %9s %9s %6s %7s %12s\n", "scope", "reqs",
            "qps", "p50_ms", "p99_ms", "hit%", "rejects", "shuffle_B");
    // Distinct scopes present in this window, in SeriesId order.
    std::vector<SeriesId> scopes;
    for (const auto& [id, cell] : w.series) {
      SeriesId scope = id;
      scope.metric.clear();
      if (scopes.empty() || !(scopes.back() == scope)) {
        scopes.push_back(scope);
      }
    }
    double width_s =
        static_cast<double>(options_.window.width_ns) / 1e9;
    for (const SeriesId& scope : scopes) {
      int64_t reqs = CounterOf(w, scope, kMetricNames[kRequests]);
      int64_t rejects = CounterOf(w, scope, kMetricNames[kAdmissionRejects]) +
                        CounterOf(w, scope, kMetricNames[kRaceRejects]) +
                        CounterOf(w, scope, kMetricNames[kBudgetRejects]);
      int64_t hits = CounterOf(w, scope, kMetricCacheHits);
      int64_t misses = CounterOf(w, scope, kMetricCacheMisses);
      const LatencyHistogram* hist =
          HistOf(w, scope, kMetricNames[kLatencyNs]);
      std::string p50 = hist == nullptr ? "-" : FormatMs(hist->ValueAtQuantile(0.50));
      std::string p99 = hist == nullptr ? "-" : FormatMs(hist->ValueAtQuantile(0.99));
      std::string hit_rate =
          hits + misses == 0
              ? "-"
              : FormatRate(100.0 * static_cast<double>(hits) /
                           static_cast<double>(hits + misses));
      AppendF(&out, "  %-22s %8lld %8s %9s %9s %6s %7lld %12lld\n",
              ScopeLabel(scope).c_str(), static_cast<long long>(reqs),
              FormatRate(static_cast<double>(reqs) / width_s).c_str(),
              p50.c_str(), p99.c_str(), hit_rate.c_str(),
              static_cast<long long>(rejects),
              static_cast<long long>(
                  CounterOf(w, scope, kMetricNames[kShuffleBytes])));
    }
  }
  if (merged.empty()) out += "(no windows)\n";
  return out;
}

std::string TelemetrySink::TelemetryJsonLocked(const WindowedRegistry& windows,
                                               const Replay& replay) const {
  std::vector<MergedWindow> merged =
      MergeWindows(windows.Snapshot(), replay.cache_windows.Snapshot());
  std::string out = "{\"window\":{\"width_ns\":" +
                    std::to_string(options_.window.width_ns) +
                    "},\"request_overhead_ns\":" +
                    std::to_string(options_.request_overhead_ns) +
                    ",\"cache\":{\"hits\":" + std::to_string(replay.hits) +
                    ",\"misses\":" + std::to_string(replay.misses) +
                    ",\"bypasses\":" + std::to_string(replay.bypasses) +
                    ",\"evictions\":" + std::to_string(replay.evictions) +
                    ",\"invalidations\":" + std::to_string(replay.invalidations) +
                    "},\"audit_entries\":" + std::to_string(audit_.size()) +
                    ",\"events_dropped\":" +
                    std::to_string(replay.events.dropped()) +
                    ",\"windows\":[\n";
  bool first_window = true;
  for (const MergedWindow& w : merged) {
    if (!first_window) out += ",\n";
    first_window = false;
    out += "{\"start_ns\":" + std::to_string(w.start_ns) +
           ",\"end_ns\":" + std::to_string(w.end_ns) + ",\"series\":[";
    bool first_series = true;
    for (const auto& [id, cell] : w.series) {
      if (!first_series) out += ",";
      first_series = false;
      out += "{\"scope\":\"" + std::string(ScopeKindName(id.scope)) +
             "\",\"name\":\"" + JsonEscape(id.scope_name) +
             "\",\"metric\":\"" + JsonEscape(id.metric) + "\",";
      if (cell.hist == nullptr) {
        out += "\"value\":" + std::to_string(cell.counter);
      } else {
        out += "\"count\":" + std::to_string(cell.hist->count()) +
               ",\"sum\":" + std::to_string(cell.hist->sum()) +
               ",\"p50\":" + std::to_string(cell.hist->ValueAtQuantile(0.50)) +
               ",\"p99\":" + std::to_string(cell.hist->ValueAtQuantile(0.99)) +
               ",\"max\":" + std::to_string(cell.hist->max_value());
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string TelemetrySink::PrometheusTextLocked(
    const WindowedRegistry& windows, const Replay& replay) const {
  PrometheusBuilder b;
  auto labels = [](const SeriesId& id) {
    PrometheusLabels l;
    l.emplace_back("level", ScopeKindName(id.scope));
    l.emplace_back("name", id.scope == ScopeKind::kTotal ? "all"
                                                         : id.scope_name);
    return l;
  };

  // All-time totals are the window sums: with tumbling windows every
  // observation lies in exactly one window, so the sums are exact.
  // Counters grouped per metric family (SeriesId sorts by scope first, so
  // regroup by metric name).
  std::map<std::string, std::vector<std::pair<SeriesId, int64_t>>> families;
  for (const auto& [id, value] : windows.CounterTotals()) {
    families[id.metric].emplace_back(id, value);
  }
  for (const auto& [metric, samples] : families) {
    std::string name = "rdfspark_serve_" + metric + "_total";
    b.Family(name, "counter", "serving telemetry counter " + metric);
    for (const auto& [id, value] : samples) {
      b.Add(name, labels(id), static_cast<uint64_t>(value < 0 ? 0 : value));
    }
  }

  {
    std::string name = "rdfspark_serve_cache_ops_total";
    b.Family(name, "counter", "logical plan-cache operations (replayed)");
    b.Add(name, {{"op", "hit"}}, replay.hits);
    b.Add(name, {{"op", "miss"}}, replay.misses);
    b.Add(name, {{"op", "bypass"}}, replay.bypasses);
    b.Add(name, {{"op", "evict"}}, replay.evictions);
    b.Add(name, {{"op", "invalidate"}}, replay.invalidations);
  }

  {
    std::string name = "rdfspark_serve_latency_ns";
    b.Family(name, "histogram", "simulated request latency (ok requests)");
    for (const auto& [id, hist] : windows.HistogramTotals()) {
      PrometheusLabels base = labels(id);
      uint64_t cumulative = 0;
      for (const LatencyHistogram::Bucket& bucket : hist.nonzero_buckets()) {
        cumulative += bucket.count;
        PrometheusLabels l = base;
        l.emplace_back("le", std::to_string(LatencyHistogram::BucketUpperBound(
                                 bucket.index)));
        b.Add(name + "_bucket", l, cumulative);
      }
      PrometheusLabels inf = base;
      inf.emplace_back("le", "+Inf");
      b.Add(name + "_bucket", inf, hist.count());
      b.Add(name + "_sum", base, hist.sum());
      b.Add(name + "_count", base, hist.count());
    }
  }

  b.Family("rdfspark_serve_windows", "gauge", "non-empty telemetry windows");
  b.Add("rdfspark_serve_windows", {},
        static_cast<uint64_t>(windows.window_count()));
  b.Family("rdfspark_serve_audit_entries", "gauge",
           "captured slow-query audit entries");
  b.Add("rdfspark_serve_audit_entries", {},
        static_cast<uint64_t>(audit_.size()));
  b.Family("rdfspark_serve_events_dropped_total", "counter",
           "events evicted from the bounded event log");
  b.Add("rdfspark_serve_events_dropped_total", {}, replay.events.dropped());
  return b.Text();
}

std::string TelemetrySink::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PrometheusTextLocked(RequestWindows(), ReplayRecords());
}

std::string TelemetrySink::WindowsText() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowsTextLocked(RequestWindows(), ReplayRecords());
}

std::string TelemetrySink::EventsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReplayRecords().events.ToJson();
}

std::string TelemetrySink::AuditJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_.ToJson();
}

std::string TelemetrySink::TelemetryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TelemetryJsonLocked(RequestWindows(), ReplayRecords());
}

size_t TelemetrySink::window_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The windows RequestWindows() would fill, counted without building them.
  const uint64_t width = options_.window.width_ns;
  std::vector<uint64_t> starts;
  starts.reserve(applied_.size());
  for (const Applied& a : applied_) {
    if (a.kind == Applied::Kind::kSwap) continue;
    starts.push_back(a.end_ns - a.end_ns % width);
  }
  std::sort(starts.begin(), starts.end());
  return static_cast<size_t>(
      std::unique(starts.begin(), starts.end()) - starts.begin());
}

size_t TelemetrySink::audit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_.size();
}

Status TelemetrySink::WriteArtifacts(const std::string& dir) const {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::InvalidArgument("cannot create telemetry dir: " + dir);
  }
  using Check = bool (*)(std::string_view, std::string*);
  auto write = [&](const std::string& name, const std::string& content,
                   Check check) -> Status {
    std::string error;
    if (check != nullptr && !check(content, &error)) {
      return Status::Internal(name + " failed its format check: " + error);
    }
    std::ofstream out(dir + "/" + name);
    if (!out) {
      return Status::InvalidArgument("cannot write " + dir + "/" + name);
    }
    out << content;
    return Status::OK();
  };
  std::lock_guard<std::mutex> lock(mu_);
  const WindowedRegistry windows = RequestWindows();
  const Replay replay = ReplayRecords();
  RDFSPARK_RETURN_NOT_OK(write("metrics.prom",
                               PrometheusTextLocked(windows, replay),
                               CheckPrometheusText));
  RDFSPARK_RETURN_NOT_OK(
      write("windows.txt", WindowsTextLocked(windows, replay), nullptr));
  RDFSPARK_RETURN_NOT_OK(
      write("events.json", replay.events.ToJson(), ValidateJson));
  RDFSPARK_RETURN_NOT_OK(write("audit.json", audit_.ToJson(), ValidateJson));
  RDFSPARK_RETURN_NOT_OK(
      write("telemetry.json", TelemetryJsonLocked(windows, replay),
            ValidateJson));
  return Status::OK();
}

}  // namespace rdfspark::obs
