#ifndef RDFSPARK_OBS_EVENT_LOG_H_
#define RDFSPARK_OBS_EVENT_LOG_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rdfspark::obs {

/// Typed serving-layer events. Kinds cover the request lifecycle, the
/// plan cache (logical replay, see telemetry.h), dataset hot swaps and the
/// two admission gates.
enum class EventKind : uint8_t {
  kRequestStart,
  kRequestFinish,
  kAdmissionReject,   ///< Tier A query-analysis gate (or parse failure).
  kRaceGateReject,    ///< Tier C happens-before gate (check_races).
  kBudgetReject,      ///< Tier D envelope gate (memory_budget_bytes).
  kCacheFill,
  kCacheHit,
  kCacheEvict,
  kCacheInvalidate,
  kDatasetSwap,
  kAuditCapture,      ///< Slow-query audit captured a profile.
  kEnvelopeDrift,     ///< Plan envelope diverged from audited actuals.
};

const char* EventKindName(EventKind k);

/// One event on the simulated timeline. Events sort by the canonical key
/// (t_ns, scope, seq, kind, fields) — a total order over their content, so
/// any set of events renders identically no matter in which order they
/// were appended. Payload fields are kept as sorted-by-name string/number
/// pairs and serialize in that order.
struct Event {
  uint64_t t_ns = 0;
  std::string scope;  ///< Tenant name, or "server" for global events.
  uint64_t seq = 0;   ///< Per-tenant request sequence (0 for globals).
  EventKind kind = EventKind::kRequestStart;
  std::vector<std::pair<std::string, std::string>> str_fields;
  std::vector<std::pair<std::string, uint64_t>> num_fields;

  void AddField(std::string name, std::string value);
  void AddField(std::string name, uint64_t value);

  /// One JSON object, fixed member order:
  /// {"t_ns":..,"kind":"..","scope":"..","seq":..,<fields sorted by name>}.
  std::string ToJson() const;

  bool operator<(const Event& o) const;
};

/// Bounded, canonically ordered event store. Capacity eviction drops the
/// canonically oldest event (smallest key), so at any quiescent point the
/// retained set is "the capacity newest events on the simulated timeline"
/// — a deterministic function of the event set, independent of append
/// order. Dropped counts are reported, never silent.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit EventLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  void Add(Event event);

  size_t size() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// RFC 8259 array of the retained events (canonical order) wrapped as
  /// {"dropped":N,"events":[...]}.
  std::string ToJson() const;

 private:
  size_t capacity_;
  std::multiset<Event> events_;
  uint64_t dropped_ = 0;
};

}  // namespace rdfspark::obs

#endif  // RDFSPARK_OBS_EVENT_LOG_H_
