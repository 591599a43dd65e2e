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

void LatencyHistogram::Record(uint64_t v, uint64_t count) {
  if (count == 0) return;
  buckets_[BucketOf(v)] += count;
  count_ += count;
  sum_ += v * count;
  max_ = std::max(max_, v);
  min_ = std::min(min_, v);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
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
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

bool LatencyHistogram::operator==(const LatencyHistogram& other) const {
  if (count_ != other.count_ || sum_ != other.sum_ || max_ != other.max_ ||
      min_ != other.min_) {
    return false;
  }
  return std::equal(buckets_, buckets_ + kBuckets, other.buckets_);
}

}  // namespace rdfspark::obs
