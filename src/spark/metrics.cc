#include "spark/metrics.h"

#include <sstream>

#include "common/string_util.h"

namespace rdfspark::spark {

namespace {

// Tripwire for the field lists above: adding a field to Metrics without
// appending it to the matching RDFSPARK_METRICS_*_FIELDS list changes this
// sizeof and fails the build here with a pointer at the lists.
#define RDFSPARK_COUNT_ONE(name) +1
constexpr size_t kCounterFields = 0 RDFSPARK_METRICS_COUNTER_FIELDS(
    RDFSPARK_COUNT_ONE);
constexpr size_t kSimTimeFields = 0 RDFSPARK_METRICS_SIMTIME_FIELDS(
    RDFSPARK_COUNT_ONE);
constexpr size_t kHistogramFields = 0 RDFSPARK_METRICS_HISTOGRAM_FIELDS(
    RDFSPARK_COUNT_ONE);
#undef RDFSPARK_COUNT_ONE

static_assert(sizeof(Metrics) == kCounterFields * sizeof(Counter) +
                                     kSimTimeFields * sizeof(SimTime) +
                                     kHistogramFields * sizeof(Histogram),
              "Metrics has a field that is missing from the "
              "RDFSPARK_METRICS_*_FIELDS lists in metrics.h — append it "
              "there so snapshots/deltas/dumps keep covering every field");

}  // namespace

uint64_t Histogram::QuantileUpperBound(double q) const noexcept {
  uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(n) + 0.5);
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= target) {
      uint64_t bound = b == 0 ? 0 : (uint64_t{1} << b) - 1;
      // The true max tightens the top bucket's bound.
      return bound < max_value() ? bound : max_value();
    }
  }
  return max_value();
}

Histogram& Histogram::operator+=(const Histogram& rhs) noexcept {
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += rhs.bucket(b);
  count_ += rhs.count();
  sum_ += rhs.sum();
  max_.UpdateMax(rhs.max_value());
  return *this;
}

void Histogram::Record(uint64_t v) noexcept {
  HistogramTally one;
  one.Record(v);
  Fold(one);
}

void Histogram::Fold(HistogramTally& tally) noexcept {
  if (tally.count == 0) return;
  for (int b = tally.lo; b <= tally.hi; ++b) {
    if (tally.buckets[b] == 0) continue;
    buckets_[b] += tally.buckets[b];
    tally.buckets[b] = 0;
  }
  count_ += tally.count;
  sum_ += tally.sum;
  max_.UpdateMax(tally.max);
  tally.count = tally.sum = tally.max = 0;
  tally.lo = kBuckets;
  tally.hi = -1;
}

Histogram Histogram::operator-(const Histogram& rhs) const noexcept {
  Histogram d;
  for (int b = 0; b < kBuckets; ++b) {
    d.buckets_[b] = bucket(b) - rhs.bucket(b);
  }
  d.count_ = count() - rhs.count();
  d.sum_ = sum() - rhs.sum();
  d.max_ = max_value();  // Max cannot be windowed; see class comment.
  return d;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count() << " mean=" << FormatDouble(Mean(), 1)
     << " p50<=" << QuantileUpperBound(0.5)
     << " p95<=" << QuantileUpperBound(0.95) << " max=" << max_value()
     << " skew=" << FormatDouble(SkewVsMean(), 2);
  return os.str();
}

Metrics Metrics::operator-(const Metrics& rhs) const {
  Metrics d;
#define RDFSPARK_FIELD_SUB(name) d.name = name - rhs.name;
  RDFSPARK_METRICS_COUNTER_FIELDS(RDFSPARK_FIELD_SUB)
  RDFSPARK_METRICS_SIMTIME_FIELDS(RDFSPARK_FIELD_SUB)
  RDFSPARK_METRICS_HISTOGRAM_FIELDS(RDFSPARK_FIELD_SUB)
#undef RDFSPARK_FIELD_SUB
  return d;
}

Metrics& Metrics::operator+=(const Metrics& rhs) {
#define RDFSPARK_FIELD_ADD(name) name += rhs.name;
  RDFSPARK_METRICS_COUNTER_FIELDS(RDFSPARK_FIELD_ADD)
  RDFSPARK_METRICS_SIMTIME_FIELDS(RDFSPARK_FIELD_ADD)
  RDFSPARK_METRICS_HISTOGRAM_FIELDS(RDFSPARK_FIELD_ADD)
#undef RDFSPARK_FIELD_ADD
  return *this;
}

std::string Metrics::ToString() const {
  std::ostringstream os;
  os << "jobs=" << jobs << " stages=" << stages << " tasks=" << tasks << "\n"
     << "shuffle: records=" << shuffle_records
     << " bytes=" << FormatBytes(shuffle_bytes)
     << " remote_bytes=" << FormatBytes(remote_shuffle_bytes) << "\n"
     << "reads: local=" << local_read_records
     << " remote=" << remote_read_records << "\n"
     << "broadcast_bytes=" << FormatBytes(broadcast_bytes)
     << " join_comparisons=" << join_comparisons
     << " records_processed=" << records_processed << "\n"
     << "graph: messages=" << messages << " supersteps=" << supersteps << "\n"
     << "task_duration_ns: " << task_duration_ns.ToString() << "\n"
     << "task_records: " << task_records.ToString() << "\n"
     << "simulated_ms=" << FormatDouble(simulated_ms, 3);
  return os.str();
}

void Metrics::ForEachNumericField(
    const std::function<void(const std::string&, double)>& fn) const {
#define RDFSPARK_FIELD_EMIT(name) \
  fn(#name, static_cast<double>(name.value()));
  RDFSPARK_METRICS_COUNTER_FIELDS(RDFSPARK_FIELD_EMIT)
#undef RDFSPARK_FIELD_EMIT
  fn("simulated_ms", simulated_ms.ms());
#define RDFSPARK_FIELD_EMIT(name)                                          \
  fn(#name ".count", static_cast<double>(name.count()));                   \
  fn(#name ".mean", name.Mean());                                          \
  fn(#name ".p50_upper", static_cast<double>(name.QuantileUpperBound(0.5))); \
  fn(#name ".p95_upper",                                                   \
     static_cast<double>(name.QuantileUpperBound(0.95)));                  \
  fn(#name ".max", static_cast<double>(name.max_value()));                 \
  fn(#name ".skew_vs_mean", name.SkewVsMean());
  RDFSPARK_METRICS_HISTOGRAM_FIELDS(RDFSPARK_FIELD_EMIT)
#undef RDFSPARK_FIELD_EMIT
}

void Metrics::ForEachHistogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
#define RDFSPARK_FIELD_EMIT(name) fn(#name, name);
  RDFSPARK_METRICS_HISTOGRAM_FIELDS(RDFSPARK_FIELD_EMIT)
#undef RDFSPARK_FIELD_EMIT
}

}  // namespace rdfspark::spark
