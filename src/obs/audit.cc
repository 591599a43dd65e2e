#include "obs/audit.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "common/json.h"

namespace rdfspark::obs {

namespace {

std::string FormatError(double err) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", err);
  return buf;
}

}  // namespace

std::string AuditEntry::ToJson() const {
  std::string trigger;
  if (latency_trigger) trigger = "latency";
  if (error_trigger) trigger += trigger.empty() ? "est_error" : "+est_error";
  std::string out = "{\"t_ns\":" + std::to_string(t_ns) + ",\"tenant\":\"" +
                    JsonEscape(tenant) + "\",\"seq\":" + std::to_string(seq) +
                    ",\"variant\":\"" + JsonEscape(variant) +
                    "\",\"span_id\":\"" + JsonEscape(span_id) +
                    "\",\"sim_latency_ns\":" + std::to_string(sim_latency_ns) +
                    ",\"trigger\":\"" + trigger + "\",\"max_est_error\":" +
                    FormatError(max_est_error) + ",\"query\":\"" +
                    JsonEscape(query) + "\",\"patterns\":[";
  for (size_t i = 0; i < patterns.size(); ++i) {
    const PatternActual& p = patterns[i];
    if (i > 0) out += ",";
    out += "{\"pattern\":\"" + JsonEscape(p.pattern) + "\",\"predicate\":\"" +
           JsonEscape(p.predicate) +
           "\",\"est_rows\":" + std::to_string(p.est_rows) +
           ",\"actual_rows\":" + std::to_string(p.actual_rows) + "}";
  }
  out += "],\"profile\":\"" + JsonEscape(profile) + "\"}";
  return out;
}

void SlowQueryAudit::Add(AuditEntry entry) {
  entries_.insert(std::move(entry));
  while (entries_.size() > kMaxEntries) {
    entries_.erase(std::prev(entries_.end()));
    ++dropped_;
  }
}

std::string SlowQueryAudit::ToJson() const {
  std::string out =
      "{\"dropped\":" + std::to_string(dropped_) + ",\"entries\":[\n";
  bool first = true;
  for (const AuditEntry& e : entries_) {
    if (!first) out += ",\n";
    first = false;
    out += e.ToJson();
  }
  out += "\n]}\n";
  return out;
}

}  // namespace rdfspark::obs
