#include "obs/telemetry.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <list>
#include <tuple>
#include <unordered_map>

#include "common/json.h"
#include "obs/prometheus.h"

namespace rdfspark::obs {

namespace {

constexpr const char* kMetricRequests = "requests";
constexpr const char* kMetricOk = "ok";
constexpr const char* kMetricAdmissionRejects = "admission_rejects";
constexpr const char* kMetricRaceRejects = "race_rejects";
constexpr const char* kMetricBudgetRejects = "budget_rejects";
constexpr const char* kMetricEnvelopeDrift = "envelope_drift";
constexpr const char* kMetricFailed = "failed";
constexpr const char* kMetricRows = "rows";
constexpr const char* kMetricTasks = "tasks";
constexpr const char* kMetricShuffleBytes = "shuffle_bytes";
constexpr const char* kMetricJoinComparisons = "join_comparisons";
constexpr const char* kMetricAudited = "audited";
constexpr const char* kMetricLatencyNs = "latency_ns";
constexpr const char* kMetricCacheHits = "cache_hits";
constexpr const char* kMetricCacheMisses = "cache_misses";
constexpr const char* kMetricCacheBypass = "cache_bypass";

/// Envelope-vs-actual calibration (Tier D / RS006 at the serving layer):
/// when an audited request carries both a static envelope and observed
/// bytes, an envelope_drift event fires if the envelope exceeds this many
/// times the observed bytes — or under-estimates them at all, which is a
/// soundness violation. Mirrors systems::plan::kEnvelopeDriftBound.
constexpr double kEnvelopeDriftBound = 16.0;

const char* OutcomeMetric(RequestRecord::Outcome outcome) {
  switch (outcome) {
    case RequestRecord::Outcome::kOk:
      return kMetricOk;
    case RequestRecord::Outcome::kRejected:
      return kMetricAdmissionRejects;
    case RequestRecord::Outcome::kRaceRejected:
      return kMetricRaceRejects;
    case RequestRecord::Outcome::kBudgetRejected:
      return kMetricBudgetRejects;
    case RequestRecord::Outcome::kFailed:
      return kMetricFailed;
  }
  return "?";
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

}  // namespace

TelemetrySink::TelemetrySink(TelemetryOptions options)
    : options_(options), registry_(options.window) {}

void TelemetrySink::Ingest(RequestRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& tenant = tenants_[record.tenant];
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

  // ---- Windowed series, per scope ----
  std::vector<SeriesId> scopes;
  scopes.push_back({ScopeKind::kTotal, "", ""});
  scopes.push_back({ScopeKind::kTenant, rec.tenant, ""});
  if (!rec.variant.empty()) {
    scopes.push_back({ScopeKind::kVariant, rec.variant, ""});
  }
  auto count = [&](const char* metric, int64_t delta) {
    if (delta == 0) return;
    for (SeriesId id : scopes) {
      id.metric = metric;
      registry_.Add(id, end_ns, delta);
    }
  };
  count(kMetricRequests, 1);
  count(OutcomeMetric(rec.outcome), 1);
  count(kMetricRows, static_cast<int64_t>(rec.rows));
  count(kMetricTasks, static_cast<int64_t>(rec.tasks));
  count(kMetricShuffleBytes, static_cast<int64_t>(rec.shuffle_bytes));
  count(kMetricJoinComparisons, static_cast<int64_t>(rec.join_comparisons));
  if (ok) {
    for (SeriesId id : scopes) {
      id.metric = kMetricLatencyNs;
      registry_.Observe(id, end_ns, duration_ns);
    }
  }

  // ---- Slow-query audit ----
  if (rec.audited) {
    count(kMetricAudited, 1);
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
      count(kMetricEnvelopeDrift, 1);
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

  // ---- Retain for logical cache replay ----
  Applied applied;
  applied.end_ns = end_ns;
  applied.tenant = rec.tenant;
  applied.seq = rec.tenant_seq;
  applied.cache_key = std::move(rec.cache_key);
  applied.epoch = rec.epoch;
  applied.bypass = rec.cache_bypass;
  applied.ok = ok;
  applied_.push_back(std::move(applied));
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
  marker.tenant = "server";
  marker.epoch = epoch;
  marker.is_swap = true;
  applied_.push_back(std::move(marker));
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

TelemetrySink::CacheReplay TelemetrySink::ReplayCache() const {
  CacheReplay replay;
  replay.windows = WindowedRegistry(options_.window);
  replay.events = events_;

  // Canonical replay order: a pure function of the applied-record set.
  std::vector<const Applied*> order;
  order.reserve(applied_.size());
  for (const Applied& a : applied_) order.push_back(&a);
  std::sort(order.begin(), order.end(), [](const Applied* a, const Applied* b) {
    return std::tie(a->end_ns, a->is_swap, a->tenant, a->seq) <
           std::tie(b->end_ns, b->is_swap, b->tenant, b->seq);
  });

  // Logical LRU keyed by (epoch, cache key), same capacity as the physical
  // plan cache. list front = most recent.
  using Key = std::pair<uint64_t, std::string>;
  std::list<Key> lru;
  std::map<Key, std::list<Key>::iterator> index;

  auto observe = [&](const SeriesId& base, uint64_t t, const char* metric) {
    SeriesId id = base;
    id.metric = metric;
    replay.windows.Add(id, t, 1);
  };

  for (const Applied* a : order) {
    if (a->is_swap) {
      // The physical cache drops every entry at a hot swap.
      Event ev;
      ev.t_ns = a->end_ns;
      ev.scope = "server";
      ev.kind = EventKind::kCacheInvalidate;
      ev.AddField("entries", static_cast<uint64_t>(lru.size()));
      ev.AddField("epoch", a->epoch);
      replay.events.Add(std::move(ev));
      replay.invalidations += lru.size();
      lru.clear();
      index.clear();
      continue;
    }
    if (!a->ok) continue;
    SeriesId total{ScopeKind::kTotal, "", ""};
    SeriesId tenant{ScopeKind::kTenant, a->tenant, ""};
    if (a->bypass) {
      // Bypasses include single-use-plan engines whose requests never
      // form a cache key; the key is irrelevant to the count.
      observe(total, a->end_ns, kMetricCacheBypass);
      observe(tenant, a->end_ns, kMetricCacheBypass);
      ++replay.bypasses;
      continue;
    }
    if (a->cache_key.empty()) continue;
    Key key{a->epoch, a->cache_key};
    auto it = index.find(key);
    if (it != index.end()) {
      lru.splice(lru.begin(), lru, it->second);
      observe(total, a->end_ns, kMetricCacheHits);
      observe(tenant, a->end_ns, kMetricCacheHits);
      ++replay.hits;
      Event ev;
      ev.t_ns = a->end_ns;
      ev.scope = a->tenant;
      ev.seq = a->seq;
      ev.kind = EventKind::kCacheHit;
      replay.events.Add(std::move(ev));
      continue;
    }
    observe(total, a->end_ns, kMetricCacheMisses);
    observe(tenant, a->end_ns, kMetricCacheMisses);
    ++replay.misses;
    Event fill;
    fill.t_ns = a->end_ns;
    fill.scope = a->tenant;
    fill.seq = a->seq;
    fill.kind = EventKind::kCacheFill;
    fill.AddField("epoch", a->epoch);
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
      ev.t_ns = a->end_ns;
      ev.scope = a->tenant;
      ev.seq = a->seq;
      ev.kind = EventKind::kCacheEvict;
      ev.AddField("epoch", victim.first);
      replay.events.Add(std::move(ev));
    }
  }
  return replay;
}

namespace {

/// One window's union of base-registry and cache-replay series.
struct MergedWindow {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::map<SeriesId, const WindowedRegistry::Cell*> series;
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
  return it == w.series.end() ? 0 : it->second->counter;
}

const LatencyHistogram* HistOf(const MergedWindow& w, const SeriesId& scope,
                               const char* metric) {
  SeriesId id = scope;
  id.metric = metric;
  auto it = w.series.find(id);
  return it == w.series.end() || it->second->hist == nullptr
             ? nullptr
             : it->second->hist.get();
}

}  // namespace

std::string TelemetrySink::WindowsTextLocked(const CacheReplay& cache) const {
  std::vector<MergedWindow> windows =
      MergeWindows(registry_.Snapshot(), cache.windows.Snapshot());
  std::string out;
  char line[256];
  for (const MergedWindow& w : windows) {
    out += "window [" + FormatMs(w.start_ns) + "ms, " + FormatMs(w.end_ns) +
           "ms)\n";
    std::snprintf(line, sizeof(line),
                  "  %-22s %8s %8s %9s %9s %6s %7s %12s\n", "scope", "reqs",
                  "qps", "p50_ms", "p99_ms", "hit%", "rejects", "shuffle_B");
    out += line;
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
      int64_t reqs = CounterOf(w, scope, kMetricRequests);
      int64_t rejects = CounterOf(w, scope, kMetricAdmissionRejects) +
                        CounterOf(w, scope, kMetricRaceRejects) +
                        CounterOf(w, scope, kMetricBudgetRejects);
      int64_t hits = CounterOf(w, scope, kMetricCacheHits);
      int64_t misses = CounterOf(w, scope, kMetricCacheMisses);
      const LatencyHistogram* hist = HistOf(w, scope, kMetricLatencyNs);
      std::string p50 = hist == nullptr ? "-" : FormatMs(hist->ValueAtQuantile(0.50));
      std::string p99 = hist == nullptr ? "-" : FormatMs(hist->ValueAtQuantile(0.99));
      std::string hit_rate =
          hits + misses == 0
              ? "-"
              : FormatRate(100.0 * static_cast<double>(hits) /
                           static_cast<double>(hits + misses));
      std::snprintf(line, sizeof(line),
                    "  %-22s %8lld %8s %9s %9s %6s %7lld %12lld\n",
                    ScopeLabel(scope).c_str(), static_cast<long long>(reqs),
                    FormatRate(static_cast<double>(reqs) / width_s).c_str(),
                    p50.c_str(), p99.c_str(), hit_rate.c_str(),
                    static_cast<long long>(rejects),
                    static_cast<long long>(
                        CounterOf(w, scope, kMetricShuffleBytes)));
      out += line;
    }
  }
  if (windows.empty()) out += "(no windows)\n";
  return out;
}

std::string TelemetrySink::TelemetryJsonLocked(const CacheReplay& cache) const {
  std::vector<MergedWindow> windows =
      MergeWindows(registry_.Snapshot(), cache.windows.Snapshot());
  std::string out = "{\"window\":{\"width_ns\":" +
                    std::to_string(options_.window.width_ns) +
                    "},\"request_overhead_ns\":" +
                    std::to_string(options_.request_overhead_ns) +
                    ",\"cache\":{\"hits\":" + std::to_string(cache.hits) +
                    ",\"misses\":" + std::to_string(cache.misses) +
                    ",\"bypasses\":" + std::to_string(cache.bypasses) +
                    ",\"evictions\":" + std::to_string(cache.evictions) +
                    ",\"invalidations\":" + std::to_string(cache.invalidations) +
                    "},\"audit_entries\":" + std::to_string(audit_.size()) +
                    ",\"events_dropped\":" +
                    std::to_string(cache.events.dropped()) +
                    ",\"windows\":[\n";
  bool first_window = true;
  for (const MergedWindow& w : windows) {
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
      if (cell->hist == nullptr) {
        out += "\"value\":" + std::to_string(cell->counter);
      } else {
        out += "\"count\":" + std::to_string(cell->hist->count()) +
               ",\"sum\":" + std::to_string(cell->hist->sum()) +
               ",\"p50\":" + std::to_string(cell->hist->ValueAtQuantile(0.50)) +
               ",\"p99\":" + std::to_string(cell->hist->ValueAtQuantile(0.99)) +
               ",\"max\":" + std::to_string(cell->hist->max_value());
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string TelemetrySink::PrometheusTextLocked(const CacheReplay& cache) const {
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
  for (const auto& [id, value] : registry_.CounterTotals()) {
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
    b.Add(name, {{"op", "hit"}}, cache.hits);
    b.Add(name, {{"op", "miss"}}, cache.misses);
    b.Add(name, {{"op", "bypass"}}, cache.bypasses);
    b.Add(name, {{"op", "evict"}}, cache.evictions);
    b.Add(name, {{"op", "invalidate"}}, cache.invalidations);
  }

  {
    std::string name = "rdfspark_serve_latency_ns";
    b.Family(name, "histogram", "simulated request latency (ok requests)");
    for (const auto& [id, hist] : registry_.HistogramTotals()) {
      PrometheusLabels base = labels(id);
      uint64_t cumulative = 0;
      for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
        if (hist.bucket(i) == 0) continue;
        cumulative += hist.bucket(i);
        PrometheusLabels l = base;
        l.emplace_back(
            "le", std::to_string(LatencyHistogram::BucketUpperBound(i)));
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
        static_cast<uint64_t>(registry_.window_count()));
  b.Family("rdfspark_serve_audit_entries", "gauge",
           "captured slow-query audit entries");
  b.Add("rdfspark_serve_audit_entries", {},
        static_cast<uint64_t>(audit_.size()));
  b.Family("rdfspark_serve_events_dropped_total", "counter",
           "events evicted from the bounded event log");
  b.Add("rdfspark_serve_events_dropped_total", {}, cache.events.dropped());
  return b.Text();
}

std::string TelemetrySink::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PrometheusTextLocked(ReplayCache());
}

std::string TelemetrySink::WindowsText() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowsTextLocked(ReplayCache());
}

std::string TelemetrySink::EventsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReplayCache().events.ToJson();
}

std::string TelemetrySink::AuditJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_.ToJson();
}

std::string TelemetrySink::TelemetryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TelemetryJsonLocked(ReplayCache());
}

size_t TelemetrySink::window_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registry_.window_count();
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
  CacheReplay cache = ReplayCache();
  RDFSPARK_RETURN_NOT_OK(write("metrics.prom", PrometheusTextLocked(cache),
                               CheckPrometheusText));
  RDFSPARK_RETURN_NOT_OK(
      write("windows.txt", WindowsTextLocked(cache), nullptr));
  RDFSPARK_RETURN_NOT_OK(
      write("events.json", cache.events.ToJson(), ValidateJson));
  RDFSPARK_RETURN_NOT_OK(write("audit.json", audit_.ToJson(), ValidateJson));
  RDFSPARK_RETURN_NOT_OK(
      write("telemetry.json", TelemetryJsonLocked(cache), ValidateJson));
  return Status::OK();
}

}  // namespace rdfspark::obs
