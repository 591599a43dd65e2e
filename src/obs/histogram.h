#ifndef RDFSPARK_OBS_HISTOGRAM_H_
#define RDFSPARK_OBS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace rdfspark::obs {

/// Mergeable log-linear histogram of uint64 samples (simulated-ns request
/// latencies). HDR-style bucket layout: values below 2^kSubBits are held
/// exactly (one bucket per value); above that, each power-of-two octave is
/// split into 2^kSubBits linear sub-buckets, bounding the relative
/// quantile error at 2^-kSubBits (6.25%).
///
/// Storage is sparse: only the non-zero buckets are kept, as (index, count)
/// pairs sorted by index. A telemetry window's histogram typically holds a
/// handful of samples, so it costs tens of bytes rather than the 7.8 KB of
/// a dense kBuckets array. The layout and every result are those of the
/// dense array; only the representation differs.
///
/// Everything the telemetry pipeline needs from a distribution is a
/// deterministic function of the bucket counts:
///  - Merge is bucket-wise addition — associative and commutative, so a
///    window's histogram is bit-identical no matter in which order (or
///    from how many threads' worth of requests) its samples arrived.
///  - ValueAtQuantile returns the *upper bound* of the bucket holding the
///    target rank: exact for samples below 2^kSubBits or samples that sit
///    on bucket upper bounds, within 6.25% otherwise, and never dependent
///    on insertion order.
///
/// Unlike spark::Histogram (atomic counters charged from live partition
/// tasks), this type has plain value semantics: the telemetry sink only
/// touches it under its own lock, and snapshots copy it freely.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSubCount = 1ull << kSubBits;  // 16
  /// Octaves [kSubBits, 63] each contribute kSubCount buckets on top of
  /// the kSubCount exact small-value buckets.
  static constexpr int kBuckets =
      static_cast<int>(kSubCount) + (64 - kSubBits) * static_cast<int>(kSubCount);

  /// One non-zero bucket: its index in the layout and its sample count.
  struct Bucket {
    uint16_t index = 0;
    uint64_t count = 0;
    bool operator==(const Bucket&) const = default;
  };
  static_assert(kBuckets <= UINT16_MAX + 1, "bucket index must fit uint16_t");

  void Record(uint64_t v, uint64_t count = 1);

  /// Bucket-wise addition of counts/sum and max/min folding.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max_value() const { return max_; }
  uint64_t min_value() const { return count_ == 0 ? 0 : min_; }
  /// Count of bucket `i` (0 for a bucket that holds no sample).
  uint64_t bucket(int i) const;

  /// The non-zero buckets in ascending index order — what an exporter
  /// walks instead of probing all kBuckets.
  const std::vector<Bucket>& nonzero_buckets() const { return buckets_; }

  /// Upper bound of the bucket containing the sample of rank
  /// ceil(q * count) (q in [0,1]; q=0 is the minimum bucket), clamped to
  /// the recorded max so the top quantiles are exact. 0 when empty.
  uint64_t ValueAtQuantile(double q) const;

  /// Bucket index of `v` (exact value for v < kSubCount).
  static int BucketOf(uint64_t v);

  /// Largest value mapping to bucket `i` — what ValueAtQuantile reports.
  static uint64_t BucketUpperBound(int i);

  bool operator==(const LatencyHistogram& other) const;

 private:
  std::vector<Bucket> buckets_;  ///< Sorted by index; every count > 0.
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t min_ = ~0ull;
};

}  // namespace rdfspark::obs

#endif  // RDFSPARK_OBS_HISTOGRAM_H_
