#include "obs/time_series.h"

namespace rdfspark::obs {

const char* ScopeKindName(ScopeKind k) {
  switch (k) {
    case ScopeKind::kTotal:
      return "total";
    case ScopeKind::kTenant:
      return "tenant";
    case ScopeKind::kVariant:
      return "variant";
  }
  return "?";
}

WindowedRegistry::Cell& WindowedRegistry::CellAt(const SeriesId& id,
                                                 uint64_t t_ns) {
  return windows_[t_ns - t_ns % spec_.width_ns][id];
}

void WindowedRegistry::Add(const SeriesId& id, uint64_t t_ns, int64_t delta) {
  CellAt(id, t_ns).counter += delta;
}

void WindowedRegistry::Observe(const SeriesId& id, uint64_t t_ns, uint64_t v) {
  Cell& cell = CellAt(id, t_ns);
  if (cell.hist == nullptr) cell.hist = std::make_unique<LatencyHistogram>();
  cell.hist->Record(v);
}

std::vector<WindowedRegistry::WindowSnapshot> WindowedRegistry::Snapshot()
    const {
  std::vector<WindowSnapshot> out;
  out.reserve(windows_.size());
  for (const auto& [start, window] : windows_) {
    WindowSnapshot snap;
    snap.start_ns = start;
    snap.end_ns = start + spec_.width_ns;
    for (const auto& [id, cell] : window) {
      snap.series.emplace(id, &cell);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::map<SeriesId, int64_t> WindowedRegistry::CounterTotals() const {
  std::map<SeriesId, int64_t> totals;
  for (const auto& [start, window] : windows_) {
    for (const auto& [id, cell] : window) {
      if (cell.hist == nullptr) totals[id] += cell.counter;
    }
  }
  return totals;
}

std::map<SeriesId, LatencyHistogram> WindowedRegistry::HistogramTotals()
    const {
  std::map<SeriesId, LatencyHistogram> totals;
  for (const auto& [start, window] : windows_) {
    for (const auto& [id, cell] : window) {
      if (cell.hist != nullptr) totals[id].Merge(*cell.hist);
    }
  }
  return totals;
}

}  // namespace rdfspark::obs
