#include "spark/hb.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spark/context.h"
#include "spark/rdd.h"
#include "systems/plan/diagnostics.h"

// Link-layer note: this file lives in rdfspark_spark, which the systems
// library depends on — so it may only use the header-only parts of
// systems/plan/diagnostics.h (the Diagnostic struct and Severity enum),
// never FormatDiagnostic/SortDiagnostics from diagnostics.cc. The
// deterministic ordering below is therefore implemented locally (the same
// arrangement spark/lineage.cc uses).

namespace rdfspark::spark::hb {

using systems::plan::Diagnostic;
using systems::plan::Severity;

const char* AccessName(Access access) {
  switch (access) {
    case Access::kRead:
      return "read";
    case Access::kWrite:
      return "write";
    case Access::kAtomicRead:
      return "atomic read";
    case Access::kAtomicWrite:
      return "atomic write";
  }
  return "access";
}

std::string ObjectName(const ObjectId& obj) {
  switch (obj.kind) {
    case ObjectKind::kCacheSlot:
      return "rdd#" + std::to_string(obj.a) + ".slot[" +
             std::to_string(obj.b) + "]";
    case ObjectKind::kCacheFlag:
      return "rdd#" + std::to_string(obj.a) + ".cached";
    case ObjectKind::kShuffleBuffer:
      return "shuffle#" + std::to_string(obj.a);
    case ObjectKind::kBatchBuffer:
      return "batch#" + std::to_string(obj.a) + ".part[" +
             std::to_string(obj.b) + "]";
    case ObjectKind::kDictionary:
      return "dictionary#" + std::to_string(obj.a);
    case ObjectKind::kPlanCache:
      return "plan_cache#" + std::to_string(obj.a);
    case ObjectKind::kMetrics:
      return "metrics#" + std::to_string(obj.a);
    case ObjectKind::kPoolInit:
      return "executor_pool#" + std::to_string(obj.a);
    case ObjectKind::kBroadcast:
      return "broadcast#" + std::to_string(obj.a);
    case ObjectKind::kAccumulator:
      return "accumulator#" + std::to_string(obj.a);
    case ObjectKind::kContainer:
      return "container#" + std::to_string(obj.a);
  }
  return "object";
}

namespace {

using ObjKey = std::tuple<uint8_t, int64_t, int64_t>;

ObjKey KeyOf(const ObjectId& obj) {
  return {static_cast<uint8_t>(obj.kind), obj.a, obj.b};
}

struct Event {
  ObjectId obj;
  Access access;
  const char* site;
  uint8_t flags;
  int segment;
  std::vector<uintptr_t> locks;  ///< Sorted lock ids held at the access.
};

struct ThreadBuf {
  std::mutex mu;
  std::vector<Event> events;
};

/// A logical execution segment: a maximal run of one thread's work with a
/// fixed set of incoming HB edges. `preds` always point at lower ids
/// (segments are appended in creation order), so the segment graph is a
/// DAG in topological order by construction.
///
/// Segments are materialized LAZILY: a task that records no event never
/// allocates one (its fork/join structure contracts to nothing), so window
/// size scales with the number of distinct logical accesses, not with how
/// many tasks the runtime spawned. SparkSQL-style batch plans run millions
/// of metric-only tasks per query; eager segments made those windows
/// quadratically unanalyzable.
struct Segment {
  std::vector<int> preds;
};

struct Batch {
  int parent = -1;             ///< Forking segment (-1: none materialized).
  std::vector<int> final_seg;  ///< Last segment per task; -1 = recorded
                               ///< nothing, contracts out of the join.
};

struct GlobalState {
  std::mutex mu;
  std::vector<Segment> segments;
  std::vector<Batch> batches;
  std::map<ObjKey, int> publications;  ///< Object -> publishing segment.
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  int64_t window_id = 0;
};

GlobalState& G() {
  static GlobalState* g = new GlobalState;  // Immortal: threads may outlive
  return *g;                                // static destruction order.
}

/// Per-thread recording state, lazily re-initialized whenever the recorder
/// generation moved (i.e. after Reset).
struct ThreadState {
  uint64_t gen = 0;
  int segment = -1;  ///< -1: lazily materialized on first recorded fact.
  /// Predecessor a lazily materialized segment must link to: the segment
  /// the enclosing task forked from (-1 at a root). Keeping the pred here
  /// instead of materializing at EnterTask is what lets event-free tasks
  /// contract away while nested forks still inherit correct ordering.
  int pending_parent = -1;
  std::vector<int> parent_stack;  ///< Saved pending_parent of outer tasks.
  std::vector<uintptr_t> locks;
  /// Saved locksets of enclosing TaskScopes: a logical task starts with an
  /// empty lockset even when it runs inline on the driver thread (which may
  /// physically hold e.g. a shuffle mutex) — pooled execution would not
  /// inherit those locks, and logical facts must not depend on which
  /// execution mode ran.
  std::vector<std::vector<uintptr_t>> lock_stack;
  std::shared_ptr<ThreadBuf> buf;
  std::set<uint64_t> dedup;
  std::map<ObjKey, int> consumed;  ///< Publications already spliced in.
};

thread_local ThreadState t_state;

int NewSegmentLocked(std::vector<int> preds) {
  auto& g = G();
  g.segments.push_back(Segment{std::move(preds)});
  return static_cast<int>(g.segments.size()) - 1;
}

ThreadState& Tls(uint64_t gen) {
  ThreadState& s = t_state;
  if (s.gen != gen) {
    s.gen = gen;
    s.segment = -1;
    s.pending_parent = -1;
    s.parent_stack.clear();
    s.locks.clear();
    s.lock_stack.clear();
    s.dedup.clear();
    s.consumed.clear();
    s.buf = std::make_shared<ThreadBuf>();
    auto& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    g.bufs.push_back(s.buf);
  }
  return s;
}

int EnsureSegmentLocked(ThreadState& s) {
  if (s.segment >= 0) return s.segment;
  s.segment = s.pending_parent >= 0 ? NewSegmentLocked({s.pending_parent})
                                    : NewSegmentLocked({});
  return s.segment;
}

int EnsureSegment(ThreadState& s) {
  if (s.segment >= 0) return s.segment;
  std::lock_guard<std::mutex> lock(G().mu);
  return EnsureSegmentLocked(s);
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

bool IsWrite(Access a) {
  return a == Access::kWrite || a == Access::kAtomicWrite;
}
bool IsAtomic(Access a) {
  return a == Access::kAtomicRead || a == Access::kAtomicWrite;
}

bool LocksIntersect(const std::vector<uintptr_t>& a,
                    const std::vector<uintptr_t>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

Recorder& Recorder::Get() {
  static Recorder* r = new Recorder;
  return *r;
}

void Recorder::Reset() {
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.segments.clear();
  g.batches.clear();
  g.publications.clear();
  g.bufs.clear();
  g.window_id = 0;
  gen_.fetch_add(1, std::memory_order_acq_rel);
}

int Recorder::BeginBatch(int count) {
  ThreadState& s = Tls(generation());
  // Do NOT materialize the forking segment here: if the driver (or the
  // enclosing task, for a nested fork) has recorded nothing, the tasks
  // lazily inherit its own pending parent instead — path contraction over
  // event-free frames.
  int parent = s.segment >= 0 ? s.segment : s.pending_parent;
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  int handle = static_cast<int>(g.batches.size());
  Batch batch;
  batch.parent = parent;
  batch.final_seg.assign(static_cast<size_t>(count), -1);
  g.batches.push_back(std::move(batch));
  return handle;
}

int Recorder::EnterTask(int batch, uint64_t gen, int index) {
  if (gen != generation()) return -1;
  ThreadState& s = Tls(gen);
  int save = s.segment;
  int parent = -1;
  {
    auto& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    if (batch < 0 || batch >= static_cast<int>(g.batches.size())) return save;
    const auto& b = g.batches[static_cast<size_t>(batch)];
    if (index < 0 || index >= static_cast<int>(b.final_seg.size())) {
      return save;
    }
    parent = b.parent;
  }
  s.parent_stack.push_back(s.pending_parent);
  s.pending_parent = parent;
  s.segment = -1;  // Materialized (with pred = parent) on first event.
  s.lock_stack.push_back(std::move(s.locks));
  s.locks.clear();
  s.consumed.clear();
  return save;
}

void Recorder::ExitTask(int batch, uint64_t gen, int index,
                        int restore_segment) {
  if (gen != generation()) return;
  ThreadState& s = Tls(gen);
  {
    auto& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    if (batch >= 0 && batch < static_cast<int>(g.batches.size())) {
      auto& b = g.batches[static_cast<size_t>(batch)];
      if (index >= 0 && index < static_cast<int>(b.final_seg.size()) &&
          s.segment >= 0) {
        b.final_seg[static_cast<size_t>(index)] = s.segment;
      }
    }
  }
  s.segment = restore_segment;
  if (!s.parent_stack.empty()) {
    s.pending_parent = s.parent_stack.back();
    s.parent_stack.pop_back();
  } else {
    s.pending_parent = -1;
  }
  if (!s.lock_stack.empty()) {
    s.locks = std::move(s.lock_stack.back());
    s.lock_stack.pop_back();
  }
  s.consumed.clear();
}

void Recorder::EndBatch(int batch, uint64_t gen) {
  if (gen != generation()) return;
  ThreadState& s = Tls(gen);
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  if (batch < 0 || batch >= static_cast<int>(g.batches.size())) return;
  const auto& b = g.batches[static_cast<size_t>(batch)];
  // The join succeeds every task that materialized a segment plus the
  // driver's *current* segment (it may have advanced past `parent` via a
  // Consume splice since the fork). A batch where no task recorded
  // anything contracts away entirely: the driver keeps its segment and its
  // consumed-publication cache stays valid.
  std::vector<int> preds;
  for (int f : b.final_seg) {
    if (f >= 0) preds.push_back(f);
  }
  if (preds.empty()) return;
  int cur = s.segment >= 0 ? s.segment : b.parent;
  if (cur >= 0) preds.push_back(cur);
  s.segment = NewSegmentLocked(std::move(preds));
  s.consumed.clear();
}

int Recorder::BeginRoot() {
  ThreadState& s = Tls(generation());
  int save = s.segment;
  {
    std::lock_guard<std::mutex> lock(G().mu);
    s.segment = NewSegmentLocked({});
  }
  s.consumed.clear();
  return save;
}

void Recorder::EndRoot(int restore_segment) {
  ThreadState& s = Tls(generation());
  s.segment = restore_segment;
  s.consumed.clear();
}

void Recorder::LockAcquired(uintptr_t lock_id) {
  Tls(generation()).locks.push_back(lock_id);
}

void Recorder::LockReleased(uintptr_t lock_id) {
  auto& locks = Tls(generation()).locks;
  for (size_t i = locks.size(); i-- > 0;) {
    if (locks[i] == lock_id) {
      locks.erase(locks.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void Recorder::Publish(const ObjectId& obj) {
  ThreadState& s = Tls(generation());
  int seg = EnsureSegment(s);
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.publications[KeyOf(obj)] = seg;
}

void Recorder::Consume(const ObjectId& obj) {
  ThreadState& s = Tls(generation());
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  auto it = g.publications.find(KeyOf(obj));
  if (it == g.publications.end()) return;  // RC002 territory.
  int pub_seg = it->second;
  auto seen = s.consumed.find(KeyOf(obj));
  if (seen != s.consumed.end() && seen->second == pub_seg) return;
  int cur = EnsureSegmentLocked(s);
  if (cur != pub_seg) {
    s.segment = NewSegmentLocked({cur, pub_seg});
  } else {
    s.segment = cur;
  }
  s.consumed[KeyOf(obj)] = pub_seg;
}

void Recorder::Record(const ObjectId& obj, Access access, const char* site,
                      uint8_t flags) {
  ThreadState& s = Tls(generation());
  // A commutative atomic merge (metrics counters, relaxed accumulators)
  // can never contribute to a finding: RC skips atomic/atomic pairs,
  // DT002 requires a non-commutative operator, and DT001 exempts
  // commutative pairs (their result is completion-order independent by
  // definition). Record it once per (object, site) per thread —
  // segment-free — so a plan that charges one counter per task does not
  // materialize millions of task segments.
  bool inert = IsAtomic(access) && (flags & kSiteMerge) != 0 &&
               (flags & kSiteCommutative) != 0;
  int seg = inert ? -1 : EnsureSegment(s);
  std::vector<uintptr_t> locks;
  if (!inert) {
    locks = s.locks;
    std::sort(locks.begin(), locks.end());
    locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
  }
  uint64_t h = Mix(0, static_cast<uint64_t>(obj.kind));
  h = Mix(h, static_cast<uint64_t>(obj.a));
  h = Mix(h, static_cast<uint64_t>(obj.b));
  h = Mix(h, static_cast<uint64_t>(access));
  h = Mix(h, reinterpret_cast<uintptr_t>(site));
  h = Mix(h, flags);
  h = Mix(h, static_cast<uint64_t>(seg));
  for (uintptr_t l : locks) h = Mix(h, l);
  if (!s.dedup.insert(h).second) return;  // Same logical access, seen.
  std::lock_guard<std::mutex> lock(s.buf->mu);
  s.buf->events.push_back(
      Event{obj, access, site, flags, seg, std::move(locks)});
}

int64_t Recorder::NextStableId() {
  static std::atomic<int64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

int64_t Recorder::NextWindowId() {
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  return ++g.window_id;
}

size_t Recorder::SegmentCountForTest() {
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.segments.size();
}

size_t Recorder::EventCountForTest() {
  auto& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  size_t n = 0;
  for (const auto& buf : g.bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

namespace {

/// Reachability over the segment DAG, restricted to the segments the rule
/// passes will actually query (those carrying a deduplicated event). One
/// bitset row per segment but only one COLUMN per queried segment, so
/// memory is n_segments * n_event_segments / 8 bytes instead of n^2/8 —
/// lazily materialized segments already keep n itself proportional to the
/// number of distinct logical accesses. preds < id always holds, so one
/// forward pass closes the relation.
class Reachability {
 public:
  Reachability(const std::vector<Segment>& segments,
               const std::set<int>& query_segments) {
    int m = 0;
    for (int sid : query_segments) {
      if (sid >= 0 && sid < static_cast<int>(segments.size())) {
        col_.emplace(sid, m++);
      }
    }
    words_ = (static_cast<size_t>(m) + 63) / 64;
    if (words_ == 0) return;
    size_t n = segments.size();
    bits_.assign(n * words_, 0);
    for (size_t i = 0; i < n; ++i) {
      uint64_t* row = &bits_[i * words_];
      for (int p : segments[i].preds) {
        auto it = col_.find(p);
        if (it != col_.end()) {
          auto c = static_cast<size_t>(it->second);
          row[c / 64] |= uint64_t{1} << (c % 64);
        }
        const uint64_t* prow = &bits_[static_cast<size_t>(p) * words_];
        for (size_t w = 0; w < words_; ++w) row[w] |= prow[w];
      }
    }
  }

  /// True when `a` happens-before `b` or vice versa (or same segment).
  /// Segment -1 (an inert, segment-free event) is never ordered.
  bool OrderedEither(int a, int b) const {
    if (a == b) return true;
    if (a < 0 || b < 0) return false;
    return Reaches(a, b) || Reaches(b, a);
  }

 private:
  bool Reaches(int anc, int seg) const {
    auto it = col_.find(anc);
    if (it == col_.end()) return false;
    auto c = static_cast<size_t>(it->second);
    return (bits_[static_cast<size_t>(seg) * words_ + c / 64] >> (c % 64)) &
           1;
  }

  std::map<int, int> col_;
  size_t words_ = 0;
  std::vector<uint64_t> bits_;
};

/// Canonical "x at A vs y at B" fragment: the two sides sorted so the text
/// never depends on enumeration order.
std::string PairText(const Event& a, const Event& b) {
  std::string site_a = a.site;
  std::string site_b = b.site;
  std::string acc_a = AccessName(a.access);
  std::string acc_b = AccessName(b.access);
  if (std::tie(site_b, acc_b) < std::tie(site_a, acc_a)) {
    std::swap(site_a, site_b);
    std::swap(acc_a, acc_b);
  }
  return acc_a + " at " + site_a + " vs " + acc_b + " at " + site_b;
}

bool IsPublicationKind(ObjectKind kind) {
  return kind == ObjectKind::kShuffleBuffer ||
         kind == ObjectKind::kBroadcast || kind == ObjectKind::kPoolInit ||
         kind == ObjectKind::kBatchBuffer;
}

}  // namespace

std::vector<Diagnostic> Recorder::Analyze() {
  std::vector<Event> events;
  std::vector<Segment> segments;
  std::map<ObjKey, int> publications;
  {
    auto& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    segments = g.segments;
    publications = g.publications;
    for (const auto& buf : g.bufs) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      events.insert(events.end(), buf->events.begin(), buf->events.end());
    }
  }

  // Group by object, then re-deduplicate by *content* (per-thread dedup
  // keys on the site pointer; two threads at one site produce one logical
  // event here, keeping verdicts independent of how many threads ran).
  std::map<ObjKey, std::vector<Event>> by_object;
  std::set<int> event_segments;
  {
    std::set<std::tuple<ObjKey, uint8_t, std::string, uint8_t, int,
                        std::vector<uintptr_t>>>
        seen;
    for (const Event& e : events) {
      if (seen
              .insert({KeyOf(e.obj), static_cast<uint8_t>(e.access), e.site,
                       e.flags, e.segment, e.locks})
              .second) {
        by_object[KeyOf(e.obj)].push_back(e);
        event_segments.insert(e.segment);
      }
    }
  }

  Reachability reach(segments, event_segments);

  // Findings keyed by (rule, object, message): one finding per logical
  // defect no matter how many segment pairs exhibit it.
  std::map<std::tuple<std::string, std::string, std::string>, Diagnostic>
      findings;
  auto emit = [&findings](Severity severity, const char* rule,
                          std::string path, std::string message,
                          std::string hint) {
    auto key = std::make_tuple(std::string(rule), path, message);
    findings.emplace(std::move(key),
                     Diagnostic{severity, rule, std::move(path),
                                std::move(message), std::move(hint)});
  };

  for (const auto& [key, evs] : by_object) {
    const ObjectId& obj = evs.front().obj;
    std::string path = ObjectName(obj);
    bool published = publications.contains(key);

    // ---- RC pass: conflicting access pairs unordered by HB. ----
    // Accumulators and containers carry order semantics, not exclusion
    // semantics; they are judged by the DT pass below instead.
    bool rc_eligible = obj.kind != ObjectKind::kAccumulator &&
                       obj.kind != ObjectKind::kContainer;
    for (size_t i = 0; rc_eligible && i < evs.size(); ++i) {
      for (size_t j = i + 1; j < evs.size(); ++j) {
        const Event& a = evs[i];
        const Event& b = evs[j];
        if (!IsWrite(a.access) && !IsWrite(b.access)) continue;
        if (IsAtomic(a.access) && IsAtomic(b.access)) continue;
        if (LocksIntersect(a.locks, b.locks)) continue;
        if (reach.OrderedEither(a.segment, b.segment)) continue;
        bool eviction = ((a.flags | b.flags) & kSiteEviction) != 0;
        bool cacheish = obj.kind == ObjectKind::kCacheSlot ||
                        obj.kind == ObjectKind::kCacheFlag;
        if (cacheish && eviction) {
          emit(Severity::kError, "RC003", path,
               "cache eviction can interleave with pooled access: " +
                   PairText(a, b),
               "evict under the partition slot lock and keep the persist "
               "flag atomic, or quiesce tasks before unpersisting");
        } else if (IsPublicationKind(obj.kind) || published) {
          emit(Severity::kError, "RC002", path,
               "publication object accessed without its barrier: " +
                   PairText(a, b),
               "route readers through the publication barrier (shuffle "
               "materialization, broadcast, Freeze, call_once) before they "
               "touch the published state");
        } else {
          emit(Severity::kError, "RC001", path,
               "unsynchronized conflicting accesses: " + PairText(a, b),
               "order the accesses with a fork/join edge, a publication "
               "barrier, or a common lock");
        }
      }
    }

    // ---- DT pass: order-dependence even when access is synchronized. ----
    if (obj.kind == ObjectKind::kAccumulator) {
      // Locks give atomicity, not order: any two writes from unordered
      // segments leave the final value schedule-dependent — unless both
      // sides declare a commutative merge, which cannot observe order.
      for (size_t i = 0; i < evs.size(); ++i) {
        for (size_t j = i + 1; j < evs.size(); ++j) {
          const Event& a = evs[i];
          const Event& b = evs[j];
          if (!IsWrite(a.access) || !IsWrite(b.access)) continue;
          if ((a.flags & kSiteCommutative) && (b.flags & kSiteCommutative)) {
            continue;
          }
          if (reach.OrderedEither(a.segment, b.segment)) continue;
          emit(Severity::kError, "DT001", path,
               "accumulator written by logically concurrent tasks; the "
               "final value depends on completion order: " + PairText(a, b),
               "collect per-task partials and merge them in "
               "partition-index order on the driver");
        }
      }
    }
    for (size_t i = 0; i < evs.size(); ++i) {
      for (size_t j = i + 1; j < evs.size(); ++j) {
        const Event& a = evs[i];
        const Event& b = evs[j];
        bool both_merge = (a.flags & kSiteMerge) && (b.flags & kSiteMerge);
        bool commutative =
            (a.flags & kSiteCommutative) && (b.flags & kSiteCommutative);
        if (!both_merge || commutative) continue;
        if (reach.OrderedEither(a.segment, b.segment)) continue;
        emit(Severity::kWarn, "DT002", path,
             "non-commutative merge runs across unordered partitions: " +
                 PairText(a, b),
             "make the merge operator commutative or apply partials in "
             "partition-index order");
      }
    }
    if (obj.kind == ObjectKind::kContainer) {
      bool unordered_writes = false;
      std::string wpair;
      for (size_t i = 0; i < evs.size() && !unordered_writes; ++i) {
        for (size_t j = i + 1; j < evs.size(); ++j) {
          const Event& a = evs[i];
          const Event& b = evs[j];
          if (!IsWrite(a.access) || !IsWrite(b.access)) continue;
          if (reach.OrderedEither(a.segment, b.segment)) continue;
          unordered_writes = true;
          wpair = PairText(a, b);
          break;
        }
      }
      if (unordered_writes) {
        for (const Event& e : evs) {
          if ((e.flags & kSiteIteration) == 0) continue;
          emit(Severity::kWarn, "DT003", path,
               std::string("iteration at ") + e.site +
                   " over an unordered container crosses a result/trace "
                   "boundary while inserts are unordered (" +
                   wpair + ")",
               "sort the entries before emitting or collect into an "
               "order-preserving container");
        }
      }
    }
  }

  std::vector<Diagnostic> out;
  out.reserve(findings.size());
  for (auto& [key, diag] : findings) out.push_back(std::move(diag));
  return out;  // Already sorted by (rule, object, message) via the map.
}

std::vector<Diagnostic> ScopedRaceCheck::Finish() {
  if (!owner_ || finished_) return {};
  finished_ = true;
  auto out = Recorder::Get().Analyze();
  Recorder::Get().Disable();
  return out;
}

void RunRuntimeProbe(SparkContext* sc) {
  // 1. Sibling tasks pull the same parent partitions (Union of one RDD):
  //    clean builds suppress the conflicts via the per-slot lock; the
  //    RDFSPARK_MUTATE_NO_SLOT_LOCK build fires RC001 here.
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  auto base = Parallelize(sc, data, 4);
  base.Union(base).Count();

  // 2. Shuffle materialization + TakeBucket: exercises the publication
  //    barrier (publish at materialize, consume at read).
  auto keyed =
      base.KeyBy([](const int& x) { return static_cast<uint64_t>(x % 16); });
  keyed.PartitionByKey(4).Count();

  // 3. Broadcast publication and pooled reads.
  std::unordered_map<uint64_t, std::vector<int>, ValueHasher> small;
  for (int i = 0; i < 16; ++i) {
    small[static_cast<uint64_t>(i)] = {i};
  }
  keyed.BroadcastHashJoin(small).Count();

  // 4. Uncache racing pooled reads, the RC003 shape: one logical task
  //    unpersists while siblings recompute partitions. Clean builds stay
  //    silent (atomic persist flag + slot locks); either mutation makes
  //    this fire RC003 — deterministically, because the tasks are
  //    logically concurrent even under --threads=1.
  auto victim = base.Map([](const int& x) { return x + 1; });
  victim.Count();
  auto* node = victim.node().get();
  int np = node->num_partitions();
  sc->RunParallel(np + 1, [node](int i) {
    if (i == 0) {
      node->Uncache();
    } else {
      node->ComputePartition(i - 1);
    }
  });
}

}  // namespace rdfspark::spark::hb
