#ifndef RDFSPARK_OBS_TELEMETRY_H_
#define RDFSPARK_OBS_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "obs/audit.h"
#include "obs/event_log.h"
#include "obs/time_series.h"

namespace rdfspark::obs {

/// Configuration of the serving telemetry pipeline.
struct TelemetryOptions {
  WindowSpec window;
  /// Virtual cost charged per request on top of the operators' busy_ns, so
  /// zero-cost requests (admission rejects, parse failures) still advance
  /// the tenant's virtual clock.
  uint64_t request_overhead_ns = 200'000;
  /// Capacity of the logical plan-cache model replayed at export time.
  /// Wired to the server's plan_cache_capacity.
  size_t logical_cache_capacity = 256;
  AuditOptions audit;
};

/// Everything the serving layer reports about one finished request.
/// Deliberately excludes wall-clock values: the pipeline's timeline is
/// per-tenant *virtual* time, advanced by the deterministic simulated cost
/// of each request, so every derived artifact is bit-identical across
/// executor-thread counts.
struct RequestRecord {
  std::string tenant;
  /// Per-tenant submission sequence (0-based). Assigned under the server
  /// lock at submit; the sink applies records in this order per tenant.
  uint64_t tenant_seq = 0;
  std::string variant;
  uint64_t epoch = 0;  ///< Dataset epoch the request executed against.

  enum class Outcome : uint8_t {
    kOk,
    kRejected,        ///< Tier A admission / parse failure.
    kRaceRejected,    ///< Tier C race gate.
    kBudgetRejected,  ///< Tier D envelope gate (memory_budget_bytes).
    kFailed,
  };
  Outcome outcome = Outcome::kOk;
  std::string detail;  ///< Status message for non-kOk outcomes.

  /// Normalized query text used as the plan-cache key; empty when the
  /// request never reached the cache (reject/parse failure).
  std::string cache_key;
  bool cache_bypass = false;

  /// Tier D calibration pair: the plan's static peak envelope (0 when no
  /// analysis ran or the envelope is unbounded) and the bytes the audit's
  /// profiled re-execution actually materialized (0 when not audited).
  /// When both are present the sink drift-checks them (envelope_drift).
  uint64_t envelope_bytes = 0;
  uint64_t observed_bytes = 0;

  uint64_t busy_ns = 0;  ///< Sum of operator busy time (deterministic).
  uint64_t rows = 0;
  uint64_t records = 0;
  uint64_t tasks = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t join_comparisons = 0;

  /// Slow-query audit payload (filled by the server when triggered).
  bool audited = false;
  bool audit_latency_trigger = false;
  bool audit_error_trigger = false;
  double max_est_error = 0.0;
  std::string query;          ///< Original query text (audited only).
  std::string audit_profile;  ///< EXPLAIN ANALYZE text (audited only).
  std::vector<PatternActual> pattern_actuals;
};

/// Which audit triggers fire for a request.
struct AuditDecision {
  bool latency = false;
  bool est_error = false;
  bool Any() const { return latency || est_error; }
};

/// Thread-safe collector turning per-request records into the windowed
/// time-series registry, the structured event log and the slow-query audit
/// log — all on the per-tenant virtual timeline.
///
/// Determinism: workers may finish one tenant's requests out of order, so
/// the sink buffers records per tenant and applies them in tenant_seq
/// order; each tenant's virtual clock then advances through the same
/// sequence of deterministic costs regardless of scheduling. Plan-cache
/// metrics are NOT taken from the physical cache (whose hit/miss pattern
/// depends on interleaving): they are recomputed at export time by
/// replaying the retained records in canonical (end_ns, tenant, seq)
/// order through a logical LRU model of the same capacity.
///
/// Retained memory: a request leaves behind one trivially copyable Applied
/// record of 80 bytes. The tumbling windows are built from those records
/// at export time, like the cache replay, and the Prometheus totals are
/// their sums; window sums and histogram merges do not depend on order.
/// Names — tenants, variants, cache keys — are interned once; the event
/// log and the audit log are bounded.
class TelemetrySink {
 public:
  explicit TelemetrySink(TelemetryOptions options = TelemetryOptions());

  const TelemetryOptions& options() const { return options_; }

  /// Folds one finished (or rejected) request in. Every submitted request
  /// must be ingested exactly once — per-tenant application stalls at a
  /// missing sequence number otherwise (reported by unapplied()).
  void Ingest(RequestRecord record);

  /// Notes a dataset hot swap to `epoch`. Virtual timestamp = max tenant
  /// clock, which is deterministic when the swap happens at a quiescent
  /// point (the server drains in-flight requests before swapping).
  void RecordDatasetSwap(uint64_t epoch, uint64_t triples);

  /// Which audit triggers fire for a request with the given simulated
  /// latency and root-operator estimate error factor.
  AuditDecision DecideAudit(const std::string& tenant, uint64_t sim_latency_ns,
                            double root_est_error) const;

  /// Records buffered behind a missing tenant_seq (0 at quiescence).
  size_t unapplied() const;

  // ---- Exports (each takes the lock, safe at any quiescent point) ----

  /// Prometheus text: serve-level counters, per-tenant/variant latency
  /// histograms and logical cache metrics.
  std::string PrometheusText() const;

  /// Human-readable per-window table of tenant/variant series.
  std::string WindowsText() const;

  /// {"dropped":N,"events":[...]} — typed events incl. replayed cache
  /// fill/hit/evict/invalidate events; the newest
  /// EventLog::kDefaultCapacity of them, the rest counted in `dropped`.
  std::string EventsJson() const;

  std::string AuditJson() const;

  /// Machine-readable rollup: window geometry plus every window's series
  /// values.
  std::string TelemetryJson() const;

  /// Writes metrics.prom, windows.txt, events.json, audit.json and
  /// telemetry.json under `dir` (created if needed). Each artifact is
  /// checked first (Prometheus line format, RFC 8259 JSON); a failed
  /// check is returned as an error and that file is not written.
  Status WriteArtifacts(const std::string& dir) const;

  /// Number of non-empty windows so far.
  size_t window_count() const;

  /// Audit entries captured so far.
  size_t audit_count() const;

 private:
  struct TenantState {
    uint32_t name = 0;          ///< Interned tenant name.
    uint64_t next_seq = 0;      ///< Next tenant_seq to apply.
    uint64_t clock_ns = 0;      ///< Virtual now.
    std::map<uint64_t, RequestRecord> pending;  ///< Out-of-order buffer.
  };

  /// One applied request, or a dataset-swap marker: everything the
  /// export-time windows and the logical cache replay read of it, with
  /// names as ids into `names_`.
  struct Applied {
    /// What the cache replay does with the record: skip it (a request
    /// that failed or never reached the cache), look its key up, count a
    /// bypass, or drop every entry (a swap marker, which is no request).
    enum class Kind : uint8_t { kUncached, kKeyed, kBypass, kSwap };
    uint64_t end_ns = 0;
    uint64_t duration_ns = 0;
    uint64_t seq = 0;
    uint64_t epoch = 0;
    uint64_t rows = 0;
    uint64_t tasks = 0;
    uint64_t shuffle_bytes = 0;
    uint64_t join_comparisons = 0;
    uint32_t tenant = 0;
    uint32_t variant = 0;  ///< An empty name: no variant series.
    uint32_t key = 0;      ///< Cache key (kKeyed only).
    Kind kind = Kind::kUncached;
    RequestRecord::Outcome outcome = RequestRecord::Outcome::kOk;
    bool audited = false;
    bool envelope_drift = false;
  };
  static_assert(std::is_trivially_copyable_v<Applied>);
  static_assert(sizeof(Applied) <= 96, "one compact record per request");

  /// What the exports derive from the applied records.
  struct Replay {
    WindowedRegistry windows;        ///< The per-request series.
    WindowedRegistry cache_windows;  ///< cache_hits / misses / bypass.
    /// The ingested events with the replayed cache events merged in,
    /// bounded like the ingest-side log.
    EventLog events;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bypasses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  void Apply(TenantState& tenant, RequestRecord rec);
  /// The per-request series of every applied request, in tumbling windows.
  WindowedRegistry RequestWindows() const;
  Replay ReplayRecords() const;
  std::string WindowsTextLocked(const Replay& replay) const;
  std::string TelemetryJsonLocked(const Replay& replay) const;
  std::string PrometheusTextLocked(const Replay& replay) const;

  TelemetryOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, TenantState> tenants_;
  NameTable names_;  ///< Tenants, variants and cache keys.
  EventLog events_;
  SlowQueryAudit audit_;
  std::vector<Applied> applied_;
};

}  // namespace rdfspark::obs

#endif  // RDFSPARK_OBS_TELEMETRY_H_
