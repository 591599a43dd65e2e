#ifndef RDFSPARK_SPARK_SHUFFLE_STAGING_H_
#define RDFSPARK_SPARK_SHUFFLE_STAGING_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rdfspark::spark {

/// Numbers the shuffle targets one task writes, in [0, n), by slot in
/// first-write order. The target → slot table belongs to the thread and is
/// reset entry by entry when the numbering is dropped, so a task pays for
/// the targets it writes, never for the ones it does not. One numbering at
/// a time per thread: build it after the task's input is computed.
class TargetSlots {
 public:
  explicit TargetSlots(int n) : scratch_(Scratch()) {
    assert(!scratch_.in_use && "one TargetSlots per thread at a time");
    scratch_.in_use = true;
    if (scratch_.slots.size() < static_cast<size_t>(n)) {
      scratch_.slots.resize(static_cast<size_t>(n), kNoSlot);
    }
  }
  TargetSlots(const TargetSlots&) = delete;
  TargetSlots& operator=(const TargetSlots&) = delete;
  ~TargetSlots() {
    for (int t : targets_) scratch_.slots[static_cast<size_t>(t)] = kNoSlot;
    scratch_.in_use = false;
  }

  /// Slot of `target`, assigned on its first write.
  uint32_t SlotOf(int target) {
    uint32_t& slot = scratch_.slots[static_cast<size_t>(target)];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(targets_.size());
      targets_.push_back(target);
    }
    return slot;
  }
  /// The targets written so far, by slot.
  const std::vector<int>& targets() const { return targets_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  struct ThreadScratch {
    std::vector<uint32_t> slots;  ///< kNoSlot for every target not in use.
    bool in_use = false;
  };
  static ThreadScratch& Scratch() {
    thread_local ThreadScratch scratch;
    return scratch;
  }

  ThreadScratch& scratch_;
  std::vector<int> targets_;
};

/// One map task's share of a shuffle: its record indices grouped by target,
/// in input order within a target, and one run per target written (in
/// first-write order) that carries the run's remote bytes.
struct StagedRuns {
  struct Run {
    int target;
    size_t end;  ///< One past the run's last entry of `order`.
    uint64_t remote_bytes;
  };
  std::vector<uint32_t> order;
  std::vector<Run> runs;

  /// Calls f(run, begin) for every run, where [begin, run.end) are its
  /// entries of `order`.
  template <typename F>
  void ForEachRun(F f) const {
    size_t begin = 0;
    for (const Run& run : runs) {
      f(run, begin);
      begin = run.end;
    }
  }
};

/// Stages a map task's `count` records for a shuffle into [0, n):
/// `route(i)` returns record i's target and the bytes it sends to another
/// executor (0 when the target is local). A counting sort, so staging
/// costs O(count + touched targets), never a buffer per target.
template <typename RouteFn>
StagedRuns StageByTarget(size_t count, int n, RouteFn route) {
  TargetSlots slots(n);
  std::vector<uint32_t> slot_of(count);
  std::vector<StagedRuns::Run> runs;  // By slot; `end` counts first.
  for (size_t i = 0; i < count; ++i) {
    auto [target, remote_bytes] = route(i);
    assert(target >= 0 && target < n && "bucket index out of range");
    uint32_t s = slots.SlotOf(target);
    if (s == runs.size()) runs.push_back(StagedRuns::Run{target, 0, 0});
    slot_of[i] = s;
    ++runs[s].end;
    runs[s].remote_bytes += remote_bytes;
  }
  std::vector<size_t> fill(runs.size());
  size_t end = 0;
  for (size_t s = 0; s < runs.size(); ++s) {
    fill[s] = end;
    end += runs[s].end;
    runs[s].end = end;
  }
  StagedRuns out;
  out.order.resize(count);
  for (size_t i = 0; i < count; ++i) {
    out.order[fill[slot_of[i]]++] = static_cast<uint32_t>(i);
  }
  out.runs = std::move(runs);
  return out;
}

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_SHUFFLE_STAGING_H_
