#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rdfspark::obs {

int LatencyHistogram::BucketOf(uint64_t v) {
  if (v < kSubCount) return static_cast<int>(v);
  // Octave k holds [2^k, 2^(k+1)), split into kSubCount linear sub-buckets
  // of width 2^(k - kSubBits).
  int k = 63 - std::countl_zero(v);
  uint64_t sub = (v >> (k - kSubBits)) - kSubCount;  // in [0, kSubCount)
  return static_cast<int>(kSubCount) +
         (k - kSubBits) * static_cast<int>(kSubCount) + static_cast<int>(sub);
}

uint64_t LatencyHistogram::BucketUpperBound(int i) {
  if (i < static_cast<int>(kSubCount)) return static_cast<uint64_t>(i);
  int rel = i - static_cast<int>(kSubCount);
  int k = kSubBits + rel / static_cast<int>(kSubCount);
  uint64_t sub = static_cast<uint64_t>(rel % static_cast<int>(kSubCount));
  // Bucket covers [(kSubCount+sub) << shift, (kSubCount+sub+1) << shift).
  int shift = k - kSubBits;
  return ((kSubCount + sub + 1) << shift) - 1;
}

namespace {

bool IndexLess(const LatencyHistogram::Bucket& b, int index) {
  return b.index < index;
}

}  // namespace

uint64_t LatencyHistogram::bucket(int i) const {
  auto it = std::lower_bound(buckets_.begin(), buckets_.end(), i, IndexLess);
  return it != buckets_.end() && it->index == i ? it->count : 0;
}

void LatencyHistogram::Record(uint64_t v, uint64_t count) {
  if (count == 0) return;
  const int index = BucketOf(v);
  auto it = std::lower_bound(buckets_.begin(), buckets_.end(), index, IndexLess);
  if (it != buckets_.end() && it->index == index) {
    it->count += count;
  } else {
    buckets_.insert(it, Bucket{static_cast<uint16_t>(index), count});
  }
  count_ += count;
  sum_ += v * count;
  max_ = std::max(max_, v);
  min_ = std::min(min_, v);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  // Two-way merge of the sorted bucket lists, adding counts on a shared
  // index: the sparse form of element-wise addition.
  std::vector<Bucket> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  auto a = buckets_.begin();
  auto b = other.buckets_.begin();
  while (a != buckets_.end() || b != other.buckets_.end()) {
    if (b == other.buckets_.end() ||
        (a != buckets_.end() && a->index < b->index)) {
      merged.push_back(*a++);
    } else if (a == buckets_.end() || b->index < a->index) {
      merged.push_back(*b++);
    } else {
      merged.push_back({a->index, a->count + b->count});
      ++a;
      ++b;
    }
  }
  buckets_ = std::move(merged);
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  min_ = std::min(min_, other.min_);
}

uint64_t LatencyHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (const Bucket& b : buckets_) {
    seen += b.count;
    if (seen >= rank) {
      return std::min(BucketUpperBound(b.index), max_);
    }
  }
  return max_;
}

bool LatencyHistogram::operator==(const LatencyHistogram& other) const {
  // Both bucket lists are sorted and free of zero counts, so equal lists
  // are exactly equal dense arrays.
  return count_ == other.count_ && sum_ == other.sum_ && max_ == other.max_ &&
         min_ == other.min_ && buckets_ == other.buckets_;
}

}  // namespace rdfspark::obs
