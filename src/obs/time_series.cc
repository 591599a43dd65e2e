#include "obs/time_series.h"

#include <algorithm>
#include <stdexcept>

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

namespace {

/// Ids fill 31 bits of a packed key; the table would exhaust memory long
/// before, but a wrapped id must never alias another series.
constexpr uint32_t kIdBits = 31;

/// (scope, name, metric) in one word: cells sort and compare on it.
uint64_t Pack(SeriesKey key) {
  return static_cast<uint64_t>(key.scope) << (2 * kIdBits) |
         static_cast<uint64_t>(key.name) << kIdBits | key.metric;
}

template <typename Cell>
Cell& CellFor(std::vector<Cell>& cells, uint64_t key) {
  auto it = std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const Cell& c, uint64_t k) { return c.key < k; });
  if (it == cells.end() || it->key != key) {
    if (cells.size() == cells.capacity()) {
      // Grow by half rather than double: a window stops growing once its
      // requests are in, and what doubling over-reserves stays for good.
      const size_t at = static_cast<size_t>(it - cells.begin());
      cells.reserve(cells.size() + std::max<size_t>(4, cells.size() / 2));
      it = cells.begin() + static_cast<std::ptrdiff_t>(at);
    }
    it = cells.insert(it, Cell{});
    it->key = key;
  }
  return *it;
}

}  // namespace

uint32_t NameTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  if (names_.size() >= (size_t{1} << kIdBits)) {
    throw std::length_error("NameTable: id space exhausted");
  }
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

SeriesKey WindowedRegistry::Key(ScopeKind scope, std::string_view scope_name,
                                std::string_view metric) {
  return {scope, names_.Intern(scope_name), names_.Intern(metric)};
}

void WindowedRegistry::Window::Add(SeriesKey key, int64_t delta) {
  CellFor(counters_, Pack(key)).value += delta;
}

void WindowedRegistry::Window::Observe(SeriesKey key, uint64_t v) {
  CellFor(hists_, Pack(key)).hist.Record(v);
}

WindowedRegistry::Window& WindowedRegistry::At(uint64_t t_ns) {
  return windows_[t_ns - t_ns % spec_.width_ns];
}

SeriesId WindowedRegistry::Resolve(uint64_t packed) const {
  constexpr uint64_t kMask = (uint64_t{1} << kIdBits) - 1;
  return {static_cast<ScopeKind>(packed >> (2 * kIdBits)),
          names_.Name(static_cast<uint32_t>((packed >> kIdBits) & kMask)),
          names_.Name(static_cast<uint32_t>(packed & kMask))};
}

std::vector<WindowedRegistry::WindowSnapshot> WindowedRegistry::Snapshot()
    const {
  std::vector<WindowSnapshot> out;
  out.reserve(windows_.size());
  for (const auto& [start, window] : windows_) {
    WindowSnapshot snap;
    snap.start_ns = start;
    snap.end_ns = start + spec_.width_ns;
    for (const auto& c : window.counters_) {
      snap.series.emplace(Resolve(c.key), Cell{c.value, nullptr});
    }
    for (const auto& h : window.hists_) {
      snap.series.emplace(Resolve(h.key), Cell{0, &h.hist});
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::map<SeriesId, int64_t> WindowedRegistry::CounterTotals() const {
  std::map<uint64_t, int64_t> totals;
  for (const auto& [start, window] : windows_) {
    for (const auto& c : window.counters_) totals[c.key] += c.value;
  }
  std::map<SeriesId, int64_t> named;
  for (const auto& [key, value] : totals) named.emplace(Resolve(key), value);
  return named;
}

std::map<SeriesId, LatencyHistogram> WindowedRegistry::HistogramTotals()
    const {
  std::map<uint64_t, LatencyHistogram> totals;
  for (const auto& [start, window] : windows_) {
    for (const auto& h : window.hists_) totals[h.key].Merge(h.hist);
  }
  std::map<SeriesId, LatencyHistogram> named;
  for (auto& [key, hist] : totals) named.emplace(Resolve(key), std::move(hist));
  return named;
}

}  // namespace rdfspark::obs
