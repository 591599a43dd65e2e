#include "obs/event_log.h"

#include <algorithm>
#include <tuple>

#include "common/json.h"

namespace rdfspark::obs {

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kRequestStart:
      return "request_start";
    case EventKind::kRequestFinish:
      return "request_finish";
    case EventKind::kAdmissionReject:
      return "admission_reject";
    case EventKind::kRaceGateReject:
      return "race_gate_reject";
    case EventKind::kBudgetReject:
      return "budget_reject";
    case EventKind::kCacheFill:
      return "cache_fill";
    case EventKind::kCacheHit:
      return "cache_hit";
    case EventKind::kCacheEvict:
      return "cache_evict";
    case EventKind::kCacheInvalidate:
      return "cache_invalidate";
    case EventKind::kDatasetSwap:
      return "dataset_swap";
    case EventKind::kAuditCapture:
      return "audit_capture";
    case EventKind::kEnvelopeDrift:
      return "envelope_drift";
  }
  return "?";
}

void Event::AddField(std::string name, std::string value) {
  auto entry = std::make_pair(std::move(name), std::move(value));
  auto it = std::lower_bound(str_fields.begin(), str_fields.end(), entry);
  str_fields.insert(it, std::move(entry));
}

void Event::AddField(std::string name, uint64_t value) {
  auto entry = std::make_pair(std::move(name), value);
  auto it = std::lower_bound(num_fields.begin(), num_fields.end(), entry);
  num_fields.insert(it, std::move(entry));
}

bool Event::operator<(const Event& o) const {
  return std::tie(t_ns, scope, seq, kind, str_fields, num_fields) <
         std::tie(o.t_ns, o.scope, o.seq, o.kind, o.str_fields, o.num_fields);
}

std::string Event::ToJson() const {
  std::string out = "{\"t_ns\":" + std::to_string(t_ns) + ",\"kind\":\"" +
                    EventKindName(kind) + "\",\"scope\":\"" +
                    JsonEscape(scope) + "\",\"seq\":" + std::to_string(seq);
  // Fields interleave by name so the member order is canonical regardless
  // of the string/number split.
  size_t si = 0;
  size_t ni = 0;
  while (si < str_fields.size() || ni < num_fields.size()) {
    bool take_str =
        ni == num_fields.size() ||
        (si < str_fields.size() && str_fields[si].first <= num_fields[ni].first);
    if (take_str) {
      out += ",\"" + JsonEscape(str_fields[si].first) + "\":\"" +
             JsonEscape(str_fields[si].second) + "\"";
      ++si;
    } else {
      out += ",\"" + JsonEscape(num_fields[ni].first) +
             "\":" + std::to_string(num_fields[ni].second);
      ++ni;
    }
  }
  out += "}";
  return out;
}

void EventLog::Add(Event event) {
  events_.insert(std::move(event));
  while (events_.size() > capacity_) {
    events_.erase(events_.begin());
    ++dropped_;
  }
}

std::string EventLog::ToJson() const {
  std::string out =
      "{\"dropped\":" + std::to_string(dropped_) + ",\"events\":[\n";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ",\n";
    first = false;
    out += e.ToJson();
  }
  out += "\n]}\n";
  return out;
}

}  // namespace rdfspark::obs
