#ifndef RDFSPARK_SPARK_HB_H_
#define RDFSPARK_SPARK_HB_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// Lint Tier C: a deterministic happens-before (HB) race and determinism
/// checker for the simulated runtime.
///
/// TSan reports a race only when the racy interleaving actually fires on a
/// given run. This engine instead records *logical* accesses to the shared
/// objects of the runtime (RDD partition cache slots, the persist flag,
/// shuffle materialization buffers, IdTable batch buffers, Dictionary
/// tables, the serving PlanCache, metrics counters) together with the
/// synchronization the code *declares* — fork/join structure of
/// SparkContext::RunParallel batches, shuffle/broadcast/Freeze publication
/// barriers, call_once pool init, and lock acquisitions — and then decides
/// orderedness from that declared structure alone. Two conflicting
/// accesses race iff no structural HB path orders them, their locksets are
/// disjoint, and they are not both atomic. Because every task of a batch
/// gets its own logical segment even when the pool is disabled, the exact
/// same findings fire at --threads=1 as at --threads=8: detection is a
/// property of the program, not of the schedule that happened to run.
///
/// Rule catalog (details + fix hints in DESIGN.md):
///   RC001  unsynchronized conflicting access (error)
///   RC002  publication object reached without its barrier (error)
///   RC003  cache eviction / persist-flag write racing pooled reads (error)
///   DT001  order-sensitive accumulator written by unordered tasks (error)
///   DT002  non-commutative merge across unordered partitions (warn)
///   DT003  unordered-container iteration crossing a result boundary (warn)
///
/// All hooks are compiled in permanently and gated on one relaxed atomic
/// flag (the Tracer pattern); a disabled recorder costs one branch per
/// instrumentation site.

namespace rdfspark::systems::plan {
struct Diagnostic;
}  // namespace rdfspark::systems::plan

namespace rdfspark::spark {
class SparkContext;
}  // namespace rdfspark::spark

namespace rdfspark::spark::hb {

/// What kind of logical shared object an event touched. The kind picks the
/// diagnostic rule when a pair of accesses turns out unordered.
enum class ObjectKind : uint8_t {
  kCacheSlot,      ///< One RddNode partition cache slot.
  kCacheFlag,      ///< RddNodeBase's persist bit (cached_).
  kShuffleBuffer,  ///< One ShuffleState's buckets (publication object).
  kBatchBuffer,    ///< IdTable sub-batches handed across partitions.
  kDictionary,     ///< One rdf::Dictionary's tables.
  kPlanCache,      ///< One serving::PlanCache's LRU state.
  kMetrics,        ///< A context's global metrics counters.
  kPoolInit,       ///< A context's lazily created executor pool.
  kBroadcast,      ///< One Broadcast value (publication object).
  kAccumulator,    ///< Order-sensitive shared accumulator (DT001).
  kContainer,      ///< Unordered container with an iteration boundary.
};

/// Identity of a logical shared object: kind plus up to two integers
/// (node id, partition, instance id...). Pointer values never appear here —
/// names must be identical across runs and thread counts.
struct ObjectId {
  ObjectKind kind = ObjectKind::kCacheSlot;
  int64_t a = 0;
  int64_t b = 0;
  bool operator==(const ObjectId&) const = default;
};

/// Deterministic display name, e.g. "rdd#4.slot[2]" or "dictionary#1".
std::string ObjectName(const ObjectId& obj);

inline ObjectId CacheSlotObject(int node_id, int partition) {
  return {ObjectKind::kCacheSlot, node_id, partition};
}
inline ObjectId CacheFlagObject(int node_id) {
  return {ObjectKind::kCacheFlag, node_id, 0};
}
inline ObjectId ShuffleObject(int64_t shuffle_id) {
  return {ObjectKind::kShuffleBuffer, shuffle_id, 0};
}
inline ObjectId BatchBufferObject(int64_t buffer_id, int partition) {
  return {ObjectKind::kBatchBuffer, buffer_id, partition};
}
inline ObjectId DictionaryObject(int64_t instance_id) {
  return {ObjectKind::kDictionary, instance_id, 0};
}
inline ObjectId PlanCacheObject(int64_t instance_id) {
  return {ObjectKind::kPlanCache, instance_id, 0};
}
inline ObjectId MetricsObject(int64_t context_id) {
  return {ObjectKind::kMetrics, context_id, 0};
}
inline ObjectId PoolInitObject(int64_t context_id) {
  return {ObjectKind::kPoolInit, context_id, 0};
}
inline ObjectId BroadcastObject(int64_t broadcast_id) {
  return {ObjectKind::kBroadcast, broadcast_id, 0};
}
inline ObjectId AccumulatorObject(int64_t id) {
  return {ObjectKind::kAccumulator, id, 0};
}
inline ObjectId ContainerObject(int64_t id) {
  return {ObjectKind::kContainer, id, 0};
}

/// How the object was accessed. Two accesses conflict when at least one is
/// a write; a pair where both sides are atomic is synchronization by
/// construction and never reported.
enum class Access : uint8_t { kRead, kWrite, kAtomicRead, kAtomicWrite };

const char* AccessName(Access access);

/// Extra semantics of the access site, used by rule selection.
enum SiteFlag : uint8_t {
  kSiteNone = 0,
  kSiteEviction = 1,     ///< Uncache / EvictPartition / DropRetained.
  kSiteMerge = 2,        ///< Merges a per-task partial into a shared total.
  kSiteCommutative = 4,  ///< ...and the merge commutes (never DT002).
  kSiteIteration = 8,    ///< Iterates an unordered container (DT003).
};

/// Global enabled bit, readable with one relaxed load so disabled hooks are
/// effectively free on hot paths.
inline std::atomic<bool> g_enabled{false};
inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// The process-wide recorder. One instance serves every SparkContext,
/// Dictionary and PlanCache (several of those objects have no path to a
/// context). Thread-safe: structure mutations take one mutex, events go to
/// per-thread buffers.
///
/// Usage window: Reset() + Enable() on a quiescent process, run the
/// workload, Analyze() (+ Disable()). Reset must not run concurrently with
/// instrumented work — callers own that fence (the lint tools reset
/// between cells on the driver with no tasks in flight).
class Recorder {
 public:
  static Recorder& Get();

  void Enable() { g_enabled.store(true, std::memory_order_relaxed); }
  void Disable() { g_enabled.store(false, std::memory_order_relaxed); }
  bool enabled() const { return Enabled(); }

  /// Discards all segments, events, publications and window ids; bumps the
  /// generation so every thread lazily re-initializes its local state.
  void Reset();

  // -- Structure hooks (used via the RAII scopes below). ------------------

  /// Declares a fork of `count` logical tasks off the calling thread's
  /// current segment. Returns a batch handle (-1 when disabled).
  int BeginBatch(int count);
  /// Enters logical task `index` of `batch` on this thread; returns the
  /// segment to restore on exit.
  int EnterTask(int batch, uint64_t gen, int index);
  /// Leaves the task, recording its final segment as a join predecessor.
  void ExitTask(int batch, uint64_t gen, int index, int restore_segment);
  /// Joins the batch: the caller's next segment succeeds every task.
  void EndBatch(int batch, uint64_t gen);

  /// Detaches the thread onto a fresh root segment (a lint cell, a serving
  /// request): events recorded under different roots are mutually
  /// unordered unless a declared edge connects them. Returns the previous
  /// segment for EndRoot.
  int BeginRoot();
  void EndRoot(int restore_segment);

  /// Declared lock acquisitions; the lock id is only compared for
  /// intersection, never printed, so the mutex address is a fine id.
  void LockAcquired(uintptr_t lock_id);
  void LockReleased(uintptr_t lock_id);

  /// Publication barrier: Publish marks the caller's segment as the
  /// publication point of `obj`; a later Consume orders the consuming
  /// segment after it. Consume without a prior Publish is a no-op — the
  /// unordered accesses it fails to order then surface as RC002.
  void Publish(const ObjectId& obj);
  void Consume(const ObjectId& obj);

  // -- Event hook. --------------------------------------------------------

  /// Records one access. `site` must be a string literal (stored by
  /// pointer, compared by content).
  void Record(const ObjectId& obj, Access access, const char* site,
              uint8_t flags = kSiteNone);

  // -- Analysis. -----------------------------------------------------------

  /// Pairwise HB verdict over everything recorded since Reset. Findings are
  /// deduplicated by (rule, object, site pair) and sorted, so the result is
  /// byte-identical across runs and thread counts.
  std::vector<systems::plan::Diagnostic> Analyze();

  /// Never-reset id source for long-lived instances (dictionaries, plan
  /// caches, contexts); assignment order is construction/first-use order.
  static int64_t NextStableId();

  /// Window-scoped id source (reset by Reset) for per-run objects such as
  /// ShuffleStates and Broadcasts; returns 0 while disabled, so objects
  /// born outside a window never alias a tracked one that has writes.
  int64_t NextWindowId();

  uint64_t generation() const {
    return gen_.load(std::memory_order_acquire);
  }

  /// Introspection for tests.
  size_t SegmentCountForTest();
  size_t EventCountForTest();

 private:
  Recorder() = default;

  std::atomic<uint64_t> gen_{1};
};

// -- Convenience wrappers (all free when disabled). ------------------------

inline void RecordAccess(const ObjectId& obj, Access access, const char* site,
                         uint8_t flags = kSiteNone) {
  if (Enabled()) Recorder::Get().Record(obj, access, site, flags);
}

/// A per-task partial merged into a shared total. Commutative merges (e.g.
/// relaxed counter adds) are recorded but can never fire; non-commutative
/// ones fire DT002 when the merging segments are unordered.
inline void RecordMerge(const ObjectId& obj, const char* site,
                        bool commutative) {
  if (Enabled()) {
    Recorder::Get().Record(
        obj, Access::kAtomicWrite, site,
        static_cast<uint8_t>(kSiteMerge |
                             (commutative ? kSiteCommutative : kSiteNone)));
  }
}

/// Iteration of an unordered container whose output crosses a result or
/// trace boundary (DT003 when unordered segments populated it).
inline void RecordUnorderedIteration(const ObjectId& obj, const char* site) {
  if (Enabled()) {
    Recorder::Get().Record(obj, Access::kRead, site, kSiteIteration);
  }
}

inline void Publish(const ObjectId& obj) {
  if (Enabled()) Recorder::Get().Publish(obj);
}
inline void Consume(const ObjectId& obj) {
  if (Enabled()) Recorder::Get().Consume(obj);
}

/// Assigns a window id to a newly constructed per-run object (0 while the
/// recorder is disabled).
inline int64_t AssignWindowId() {
  return Enabled() ? Recorder::Get().NextWindowId() : 0;
}

/// Lazily assigns a stable instance id (for Dictionary / PlanCache /
/// SparkContext members declared as std::atomic<int64_t>{0}).
inline int64_t StableId(std::atomic<int64_t>* slot) {
  int64_t id = slot->load(std::memory_order_acquire);
  if (id != 0) return id;
  int64_t fresh = Recorder::NextStableId();
  if (slot->compare_exchange_strong(id, fresh, std::memory_order_acq_rel)) {
    return fresh;
  }
  return id;  // Another thread won the assignment.
}

// -- RAII scopes. ----------------------------------------------------------

/// Fork/join of one RunParallel batch, created on the driving thread.
class BatchScope {
 public:
  explicit BatchScope(int count) {
    if (Enabled()) {
      gen_ = Recorder::Get().generation();
      handle_ = Recorder::Get().BeginBatch(count);
    }
  }
  ~BatchScope() {
    if (handle_ >= 0) Recorder::Get().EndBatch(handle_, gen_);
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  int handle() const { return handle_; }
  uint64_t gen() const { return gen_; }

 private:
  int handle_ = -1;
  uint64_t gen_ = 0;
};

/// One logical task of a batch, entered on whichever thread runs it.
class TaskScope {
 public:
  TaskScope(const BatchScope& batch, int index) {
    if (batch.handle() >= 0) {
      handle_ = batch.handle();
      gen_ = batch.gen();
      index_ = index;
      restore_ = Recorder::Get().EnterTask(handle_, gen_, index_);
    }
  }
  ~TaskScope() {
    if (handle_ >= 0) {
      Recorder::Get().ExitTask(handle_, gen_, index_, restore_);
    }
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  int handle_ = -1;
  uint64_t gen_ = 0;
  int index_ = 0;
  int restore_ = -1;
};

/// A fresh logical root (lint cell, serving request).
class RootScope {
 public:
  RootScope() {
    if (Enabled()) {
      gen_ = Recorder::Get().generation();
      restore_ = Recorder::Get().BeginRoot();
      active_ = true;
    }
  }
  ~RootScope() {
    if (active_ && Recorder::Get().generation() == gen_) {
      Recorder::Get().EndRoot(restore_);
    }
  }
  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

 private:
  bool active_ = false;
  uint64_t gen_ = 0;
  int restore_ = -1;
};

/// std::lock_guard that also records the acquisition in the thread's
/// lockset. Deleting the declaration removes both the real lock and its
/// record, so a mutation that drops the lock is honestly visible to the
/// checker (scripts/mutation_check.sh relies on this).
class TrackedLock {
 public:
  explicit TrackedLock(std::mutex& mu) : lock_(mu) {
    if (Enabled()) {
      id_ = reinterpret_cast<uintptr_t>(&mu);
      Recorder::Get().LockAcquired(id_);
      tracked_ = true;
    }
  }
  ~TrackedLock() {
    if (tracked_) Recorder::Get().LockReleased(id_);
  }
  TrackedLock(const TrackedLock&) = delete;
  TrackedLock& operator=(const TrackedLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
  uintptr_t id_ = 0;
  bool tracked_ = false;
};

/// Tier C gate (QueryServer::Options::check_races, the engines'
/// set_debug_check_races): the outermost active check owns the recorder
/// window; nested/concurrent checks (a serving request while the server
/// owns the window) defer to the owner instead of resetting shared state
/// under it.
class ScopedRaceCheck {
 public:
  explicit ScopedRaceCheck(bool active) {
    if (active && !Enabled()) {
      Recorder::Get().Reset();
      Recorder::Get().Enable();
      owner_ = true;
    }
  }
  ~ScopedRaceCheck() {
    if (owner_ && !finished_) Recorder::Get().Disable();
  }
  ScopedRaceCheck(const ScopedRaceCheck&) = delete;
  ScopedRaceCheck& operator=(const ScopedRaceCheck&) = delete;

  bool owner() const { return owner_; }

  /// Analyzes and disables the window (owner only; empty otherwise).
  std::vector<systems::plan::Diagnostic> Finish();

 private:
  bool owner_ = false;
  bool finished_ = false;
};

/// Canonical shared-object exercise for the checker: self-union slot
/// sharing, a shuffle publication, a broadcast read path, and an
/// uncache-vs-pooled-read batch. Zero findings on the clean tree; the
/// RDFSPARK_MUTATE_* builds make it fire RC001/RC003 deterministically at
/// --threads=1 (tools/dataflow_lint's "runtime probe" row and
/// scripts/mutation_check.sh run exactly this).
void RunRuntimeProbe(SparkContext* sc);

}  // namespace rdfspark::spark::hb

/// The per-partition cache slot lock, spelled as a macro so the mutation
/// build RDFSPARK_MUTATE_NO_SLOT_LOCK removes the real mutex AND its
/// lockset record in one stroke — the checker then sees exactly what the
/// mutated program provides, which is the honesty property the mutation
/// validation exercises.
#ifdef RDFSPARK_MUTATE_NO_SLOT_LOCK
#define RDFSPARK_SLOT_LOCK(mu) ((void)sizeof(mu))
#else
#define RDFSPARK_SLOT_LOCK(mu) \
  ::rdfspark::spark::hb::TrackedLock rdfspark_slot_lock_(mu)
#endif

#endif  // RDFSPARK_SPARK_HB_H_
