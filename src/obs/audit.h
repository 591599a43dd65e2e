#ifndef RDFSPARK_OBS_AUDIT_H_
#define RDFSPARK_OBS_AUDIT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace rdfspark::obs {

/// When the serving layer captures a slow-query audit entry.
struct AuditOptions {
  /// Simulated-latency threshold: requests at or above it are audited.
  uint64_t latency_threshold_ns = 50'000'000;  // 50 simulated ms
  /// Per-tenant overrides of latency_threshold_ns.
  std::map<std::string, uint64_t> tenant_latency_threshold_ns;
  /// Requests whose max per-operator |actual/estimate| error factor
  /// reaches this bound are audited regardless of latency.
  double est_error_bound = 16.0;

  uint64_t LatencyThresholdFor(const std::string& tenant) const {
    auto it = tenant_latency_threshold_ns.find(tenant);
    return it == tenant_latency_threshold_ns.end() ? latency_threshold_ns
                                                   : it->second;
  }
};

/// Estimated vs. observed cardinality of one leaf triple-pattern scan,
/// harvested from an EXPLAIN ANALYZE run. `pattern` is the normalized
/// triple pattern text; `predicate` is its predicate IRI (or "?" when the
/// predicate is a variable).
struct PatternActual {
  std::string pattern;
  std::string predicate;
  uint64_t est_rows = 0;
  uint64_t actual_rows = 0;
};

/// One captured slow-query profile.
struct AuditEntry {
  uint64_t t_ns = 0;  ///< Simulated end time of the audited request.
  std::string tenant;
  uint64_t seq = 0;  ///< Per-tenant request sequence.
  std::string variant;
  std::string query;
  std::string span_id;  ///< Trace span name of the serving job span.
  uint64_t sim_latency_ns = 0;
  bool latency_trigger = false;
  bool error_trigger = false;
  double max_est_error = 0.0;  ///< Max per-operator error factor observed.
  std::string profile;         ///< Full EXPLAIN ANALYZE text.
  std::vector<PatternActual> patterns;

  auto Key() const { return std::tie(t_ns, tenant, seq); }
  bool operator<(const AuditEntry& o) const { return Key() < o.Key(); }

  std::string ToJson() const;
};

/// Bounded store of audit entries, canonically ordered by
/// (t_ns, tenant, seq). Over kMaxEntries the canonically *latest* entry is
/// dropped (and counted): the retained set is "the first kMaxEntries
/// audited requests on the simulated timeline", a deterministic function
/// of the entry set.
class SlowQueryAudit {
 public:
  static constexpr size_t kMaxEntries = 64;

  void Add(AuditEntry entry);

  size_t size() const { return entries_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// {"dropped":N,"entries":[...]}, entries in canonical order.
  std::string ToJson() const;

 private:
  std::multiset<AuditEntry> entries_;
  uint64_t dropped_ = 0;
};

}  // namespace rdfspark::obs

#endif  // RDFSPARK_OBS_AUDIT_H_
