#ifndef RDFSPARK_OBS_TIME_SERIES_H_
#define RDFSPARK_OBS_TIME_SERIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "obs/histogram.h"

namespace rdfspark::obs {

/// Tumbling-window geometry over the simulated-ns timeline: windows start
/// at the multiples of width_ns, so every instant belongs to exactly one
/// window and summing a series over all windows gives its exact total.
struct WindowSpec {
  uint64_t width_ns = 25'000'000;  // 25 simulated ms
};

/// Scope a series is attributed to. Totals, per-tenant and per-engine-
/// variant series coexist in one registry and render as separate table
/// sections.
enum class ScopeKind : uint8_t { kTotal, kTenant, kVariant };

const char* ScopeKindName(ScopeKind k);

struct SeriesId {
  ScopeKind scope = ScopeKind::kTotal;
  std::string scope_name;  // empty for kTotal
  std::string metric;

  auto Tie() const { return std::tie(scope, scope_name, metric); }
  bool operator<(const SeriesId& o) const { return Tie() < o.Tie(); }
  bool operator==(const SeriesId& o) const { return Tie() == o.Tie(); }
};

/// Windowed time-series registry: counters and mergeable latency
/// histograms per (window, scope, metric). NOT internally synchronized —
/// the TelemetrySink owns one under its lock. Determinism contract: every
/// aggregation is commutative and associative (sums, bucket-wise histogram
/// merges), so a snapshot taken at a quiescent point depends only on the
/// multiset of observations, never on ingest order or thread count.
class WindowedRegistry {
 public:
  explicit WindowedRegistry(WindowSpec spec = WindowSpec()) : spec_(spec) {}

  /// Adds `delta` (possibly negative) to a counter in the window
  /// containing `t_ns`.
  void Add(const SeriesId& id, uint64_t t_ns, int64_t delta);

  /// Records a histogram sample in the window containing `t_ns`.
  void Observe(const SeriesId& id, uint64_t t_ns, uint64_t v);

  /// A counter, or a histogram when `hist` is set.
  struct Cell {
    int64_t counter = 0;
    std::unique_ptr<LatencyHistogram> hist;
  };

  struct WindowSnapshot {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /// Sorted by SeriesId — deterministic iteration for every export.
    std::map<SeriesId, const Cell*> series;
  };

  /// All non-empty windows in ascending start order. Pointers stay valid
  /// until the next mutation.
  std::vector<WindowSnapshot> Snapshot() const;

  /// Every counter summed and every histogram merged over all windows.
  std::map<SeriesId, int64_t> CounterTotals() const;
  std::map<SeriesId, LatencyHistogram> HistogramTotals() const;

  size_t window_count() const { return windows_.size(); }

 private:
  using Window = std::map<SeriesId, Cell>;

  Cell& CellAt(const SeriesId& id, uint64_t t_ns);

  WindowSpec spec_;
  std::map<uint64_t, Window> windows_;  // keyed by window start
};

}  // namespace rdfspark::obs

#endif  // RDFSPARK_OBS_TIME_SERIES_H_
