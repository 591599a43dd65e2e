#include "spark/tracing.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/json.h"
#include "common/string_util.h"

namespace rdfspark::spark {

namespace {

/// Operator scopes open on this thread, innermost last. Shared across all
/// tracers/contexts: an OpStats identifies itself, no owner tag needed.
thread_local std::vector<std::shared_ptr<OpStats>> t_op_scopes;

/// Maps tracer id -> this thread's buffer. A plain linear scan: a thread
/// typically touches one or two live tracers. Entries of destroyed tracers
/// stay behind (compared only by id, never dereferenced) and are pruned
/// wholesale when the cache grows past a small bound.
struct TlsBufEntry {
  uint64_t tracer_id;
  void* buf;
};
thread_local std::vector<TlsBufEntry> t_tracer_bufs;

uint64_t NextTracerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string LaneName(int lane) {
  return lane < 0 ? std::string("driver") : "exec" + std::to_string(lane);
}

}  // namespace

const std::shared_ptr<OpStats>& CurrentOpStats() {
  // OpScopeGuard never pushes null, so the innermost scope is the last.
  static const std::shared_ptr<OpStats> kNone;
  return t_op_scopes.empty() ? kNone : t_op_scopes.back();
}

OpScopeGuard::OpScopeGuard(std::shared_ptr<OpStats> stats) {
  if (stats == nullptr) return;
  t_op_scopes.push_back(std::move(stats));
  pushed_ = true;
}

OpScopeGuard::~OpScopeGuard() {
  if (pushed_) t_op_scopes.pop_back();
}

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kJob:
      return "job";
    case SpanKind::kStage:
      return "stage";
    case SpanKind::kTask:
      return "task";
    case SpanKind::kShuffleWrite:
      return "shuffle-write";
    case SpanKind::kBroadcast:
      return "broadcast";
    case SpanKind::kSuperstep:
      return "superstep";
    case SpanKind::kServe:
      return "serve";
  }
  return "?";
}

Tracer::Tracer() : tracer_id_(NextTracerId()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuf* Tracer::BufForThisThread() {
  for (const auto& entry : t_tracer_bufs) {
    if (entry.tracer_id == tracer_id_) {
      return static_cast<ThreadBuf*>(entry.buf);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  bufs_.push_back(std::make_unique<ThreadBuf>());
  ThreadBuf* buf = bufs_.back().get();
  if (t_tracer_bufs.size() > 64) t_tracer_bufs.clear();
  t_tracer_bufs.push_back({tracer_id_, buf});
  return buf;
}

void Tracer::Record(SpanKind kind, std::string name, uint64_t ts_ns,
                    uint64_t dur_ns, int lane, uint64_t records,
                    uint64_t bytes) {
  if (!enabled()) return;
  BufForThisThread()->events.push_back(
      TraceEvent{kind, std::move(name), ts_ns, dur_ns, lane, records, bytes});
}

std::vector<TraceEvent> Tracer::Merged() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : bufs_) {
      all.insert(all.end(), buf->events.begin(), buf->events.end());
    }
  }
  // Total order over every field: the sorted sequence depends only on the
  // event multiset, not on which thread buffered what.
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.ts_ns, a.lane, a.kind, a.name, a.dur_ns,
                              a.records, a.bytes) <
                     std::tie(b.ts_ns, b.lane, b.kind, b.name, b.dur_ns,
                              b.records, b.bytes);
            });
  return all;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buf : bufs_) n += buf->events.size();
  return n;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) buf->events.clear();
}

std::string Tracer::ToChromeTraceJson() const {
  std::vector<TraceEvent> events = Merged();

  // Lanes present, mapped to Chrome "threads": tid 0 driver, tid N+1 exec N.
  std::vector<int> lanes = {-1};
  for (const auto& e : events) {
    if (std::find(lanes.begin(), lanes.end(), e.lane) == lanes.end()) {
      lanes.push_back(e.lane);
    }
  }
  std::sort(lanes.begin(), lanes.end());

  std::string out = "{\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"rdfspark simulated cluster\"}}";
  for (int lane : lanes) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
           std::to_string(lane + 1) + ",\"args\":{\"name\":\"" +
           JsonEscape(LaneName(lane)) + "\"}}";
  }
  char buf[64];
  for (const auto& e : events) {
    // Chrome expects microseconds; emit 3 decimals to keep ns precision.
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(e.ts_ns / 1000),
                  static_cast<unsigned long long>(e.ts_ns % 1000));
    out += ",\n{\"name\":\"" + JsonEscape(e.name) + "\",\"cat\":\"" +
           SpanKindName(e.kind) + "\",\"ph\":\"X\",\"ts\":" + buf;
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(e.dur_ns / 1000),
                  static_cast<unsigned long long>(e.dur_ns % 1000));
    out += ",\"dur\":";
    out += buf;
    out += ",\"pid\":0,\"tid\":" + std::to_string(e.lane + 1) +
           ",\"args\":{\"records\":" + std::to_string(e.records) +
           ",\"bytes\":" + std::to_string(e.bytes) + "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string Tracer::ToTimelineText() const {
  std::vector<TraceEvent> events = Merged();
  std::string out = "-- trace: " + std::to_string(events.size()) + " events\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%10s %10s  %-7s %-13s %-28s %10s %12s\n",
                "ts_ms", "dur_ms", "lane", "kind", "name", "records", "bytes");
  out += line;
  for (const auto& e : events) {
    std::snprintf(line, sizeof(line),
                  "%10.3f %10.3f  %-7s %-13s %-28s %10llu %12llu\n",
                  static_cast<double>(e.ts_ns) / 1e6,
                  static_cast<double>(e.dur_ns) / 1e6, LaneName(e.lane).c_str(),
                  SpanKindName(e.kind), e.name.c_str(),
                  static_cast<unsigned long long>(e.records),
                  static_cast<unsigned long long>(e.bytes));
    out += line;
  }
  return out;
}

}  // namespace rdfspark::spark
