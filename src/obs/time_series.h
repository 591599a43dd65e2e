#ifndef RDFSPARK_OBS_TIME_SERIES_H_
#define RDFSPARK_OBS_TIME_SERIES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
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

/// Interns names to dense ids, assigned in first-seen order. An id carries
/// no order: arrival order changes with worker interleaving, so every
/// export resolves ids back to names and orders by name, never by id.
class NameTable {
 public:
  NameTable() = default;
  // Move-only: ids_ views the strings names_ owns, which a move keeps in
  // place and a copy would not.
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;
  NameTable(NameTable&&) = default;
  NameTable& operator=(NameTable&&) = default;

  uint32_t Intern(std::string_view name);
  const std::string& Name(uint32_t id) const { return names_[id]; }
  size_t size() const { return names_.size(); }

 private:
  std::deque<std::string> names_;  ///< By id; a deque never moves them.
  std::unordered_map<std::string_view, uint32_t> ids_;  ///< Views names_.
};

/// A series by name: what exports see and sort by.
struct SeriesId {
  ScopeKind scope = ScopeKind::kTotal;
  std::string scope_name;  // empty for kTotal
  std::string metric;

  auto Tie() const { return std::tie(scope, scope_name, metric); }
  bool operator<(const SeriesId& o) const { return Tie() < o.Tie(); }
  bool operator==(const SeriesId& o) const { return Tie() == o.Tie(); }
};

/// A series by interned ids (WindowedRegistry::names()): what ingest uses,
/// so recording an observation builds no string.
struct SeriesKey {
  ScopeKind scope = ScopeKind::kTotal;
  uint32_t name = 0;    ///< Id of the scope name ("" for kTotal).
  uint32_t metric = 0;  ///< Id of the metric name.
};

/// Windowed time-series registry: counters and mergeable latency
/// histograms per (window, scope, metric). NOT internally synchronized —
/// the TelemetrySink owns one under its lock. Determinism contract: every
/// aggregation is commutative and associative (sums, bucket-wise histogram
/// merges), so a snapshot taken at a quiescent point depends only on the
/// multiset of observations, never on ingest order or thread count.
///
/// Memory: a window stores only the cells it was given, flat and keyed by
/// interned ids — a counter is 16 bytes, a histogram is held by value with
/// only its non-zero buckets.
class WindowedRegistry {
 public:
  explicit WindowedRegistry(WindowSpec spec = WindowSpec()) : spec_(spec) {}

  /// The table the ids of every SeriesKey come from.
  NameTable& names() { return names_; }
  const NameTable& names() const { return names_; }

  /// Interns a series' names.
  SeriesKey Key(ScopeKind scope, std::string_view scope_name,
                std::string_view metric);

  /// One window's cells.
  class Window {
   public:
    /// Adds `delta` (possibly negative) to a counter.
    void Add(SeriesKey key, int64_t delta);
    /// Records a histogram sample.
    void Observe(SeriesKey key, uint64_t v);

   private:
    friend class WindowedRegistry;
    struct CounterCell {
      uint64_t key = 0;
      int64_t value = 0;
    };
    struct HistogramCell {
      uint64_t key = 0;
      LatencyHistogram hist;
    };
    std::vector<CounterCell> counters_;  ///< Sorted by packed key.
    std::vector<HistogramCell> hists_;   ///< Sorted by packed key.
  };

  /// The window containing `t_ns`, created on first use. One request's
  /// observations all land in one window, so ingest looks it up once.
  Window& At(uint64_t t_ns);

  /// A counter, or a histogram when `hist` is set (a view into the
  /// registry).
  struct Cell {
    int64_t counter = 0;
    const LatencyHistogram* hist = nullptr;
  };

  struct WindowSnapshot {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /// Sorted by SeriesId (names) — deterministic iteration for every
    /// export.
    std::map<SeriesId, Cell> series;
  };

  /// All non-empty windows in ascending start order. Histogram pointers
  /// stay valid until the next mutation.
  std::vector<WindowSnapshot> Snapshot() const;

  /// Every counter summed and every histogram merged over all windows.
  std::map<SeriesId, int64_t> CounterTotals() const;
  std::map<SeriesId, LatencyHistogram> HistogramTotals() const;

  size_t window_count() const { return windows_.size(); }

 private:
  SeriesId Resolve(uint64_t packed) const;

  WindowSpec spec_;
  NameTable names_;
  std::map<uint64_t, Window> windows_;  // keyed by window start
};

}  // namespace rdfspark::obs

#endif  // RDFSPARK_OBS_TIME_SERIES_H_
