// Telemetry-pipeline tests: the obs/ subsystem must be a deterministic
// function of the multiset of request records — exact quantiles where the
// histogram layout promises them, merge associativity, canonical event
// ordering under bounded eviction, Prometheus line-format acceptance,
// ingest-order invariance of the sink, exports pinned to goldens, the
// logical plan-cache replay, and (end to end) bit-identical serving
// artifacts across simulated executor-thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

// The heap guard reads glibc's allocator counters; sanitizers replace the
// allocator, so it only runs on an uninstrumented glibc build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RDFSPARK_OBS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RDFSPARK_OBS_SANITIZED 1
#endif
#endif
#if !defined(RDFSPARK_OBS_SANITIZED) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define RDFSPARK_OBS_HEAP_COUNTERS 1
#endif

#include "common/json.h"
#include "obs/event_log.h"
#include "obs/histogram.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "obs/time_series.h"
#include "rdf/generator.h"
#include "rdf/store.h"
#include "serving/query_server.h"
#include "spark/context.h"

namespace rdfspark::obs {
namespace {

// ---- LatencyHistogram ----------------------------------------------------

TEST(LatencyHistogramTest, ExactQuantilesForSmallValues) {
  // Values below 2^kSubBits = 16 get one bucket each, so quantiles are
  // exact order statistics: rank ceil(q * count).
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55u);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1u);
  EXPECT_EQ(h.ValueAtQuantile(0.50), 5u);
  EXPECT_EQ(h.ValueAtQuantile(0.90), 9u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 10u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 10u);
  EXPECT_EQ(h.min_value(), 1u);
  EXPECT_EQ(h.max_value(), 10u);
}

TEST(LatencyHistogramTest, LargeValuesBoundedRelativeErrorAndExactMax) {
  LatencyHistogram one;
  one.Record(1'000'000);
  // A single sample: every quantile's bucket bound clamps to the max.
  EXPECT_EQ(one.ValueAtQuantile(0.5), 1'000'000u);
  EXPECT_EQ(one.ValueAtQuantile(0.99), 1'000'000u);

  LatencyHistogram two;
  two.Record(100'000);
  two.Record(200'000);
  uint64_t p50 = two.ValueAtQuantile(0.5);
  EXPECT_GE(p50, 100'000u);             // Bucket upper bound >= the sample.
  EXPECT_LE(p50, 106'250u);             // Within the 6.25% layout bound.
  EXPECT_EQ(two.ValueAtQuantile(1.0), 200'000u);  // Clamped to max: exact.
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  std::vector<uint64_t> a = {1, 5, 9, 100'000};
  std::vector<uint64_t> b = {2, 6, 1'234};
  std::vector<uint64_t> c = {7, 50'000'000};
  auto make = [](const std::vector<uint64_t>& vs) {
    LatencyHistogram h;
    for (uint64_t v : vs) h.Record(v);
    return h;
  };
  LatencyHistogram ha = make(a), hb = make(b), hc = make(c);

  LatencyHistogram left = ha;   // (a + b) + c
  left.Merge(hb);
  left.Merge(hc);
  LatencyHistogram bc = hb;     // a + (b + c)
  bc.Merge(hc);
  LatencyHistogram right = ha;
  right.Merge(bc);
  EXPECT_TRUE(left == right);

  LatencyHistogram ab = ha;     // a + b == b + a
  ab.Merge(hb);
  LatencyHistogram ba = hb;
  ba.Merge(ha);
  EXPECT_TRUE(ab == ba);

  // Merging equals recording the union directly.
  std::vector<uint64_t> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  EXPECT_TRUE(left == make(all));
}

/// The dense 976-bucket layout the sparse histogram replaces, kept as the
/// reference it is checked against.
struct DenseHistogram {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t min = ~0ull;

  void Record(uint64_t v, uint64_t n) {
    if (n == 0) return;
    buckets[static_cast<size_t>(LatencyHistogram::BucketOf(v))] += n;
    count += n;
    sum += v * n;
    max = std::max(max, v);
    min = std::min(min, v);
  }
  void Merge(const DenseHistogram& o) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum += o.sum;
    max = std::max(max, o.max);
    min = std::min(min, o.min);
  }
  uint64_t ValueAtQuantile(double q) const {
    if (count == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count)));
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      seen += buckets[static_cast<size_t>(i)];
      if (seen >= rank) {
        return std::min(LatencyHistogram::BucketUpperBound(i), max);
      }
    }
    return max;
  }
};

void ExpectSameAsDense(const LatencyHistogram& h, const DenseHistogram& d) {
  ASSERT_EQ(h.count(), d.count);
  EXPECT_EQ(h.sum(), d.sum);
  EXPECT_EQ(h.max_value(), d.max);
  EXPECT_EQ(h.min_value(), d.count == 0 ? 0 : d.min);
  std::vector<LatencyHistogram::Bucket> dense_walk;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const uint64_t n = d.buckets[static_cast<size_t>(i)];
    ASSERT_EQ(h.bucket(i), n) << "bucket " << i;
    if (n != 0) dense_walk.push_back({static_cast<uint16_t>(i), n});
  }
  // The walk the Prometheus writer uses visits exactly the non-zero
  // buckets, in index order.
  EXPECT_EQ(h.nonzero_buckets(), dense_walk);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.ValueAtQuantile(q), d.ValueAtQuantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SparseMatchesDenseReference) {
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // A sample in octave `k` (0 means the exact small values), plus the
  // layout's edges: 0, 15, 16 and values above 2^63.
  auto sample = [&](int k) -> uint64_t {
    if (k == 0) return next() % LatencyHistogram::kSubCount;
    const uint64_t base = uint64_t{1} << (k - 1 + LatencyHistogram::kSubBits);
    return base + next() % base;
  };
  const std::vector<uint64_t> edges = {0, 15, 16, (uint64_t{1} << 63),
                                       (uint64_t{1} << 63) + 12345,
                                       ~uint64_t{0}};
  constexpr int kOctaves = 64 - LatencyHistogram::kSubBits + 1;
  LatencyHistogram chained;
  DenseHistogram chained_dense;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::pair<uint64_t, uint64_t>> samples;  // (value, count)
    for (int i = 0; i < 40; ++i) {
      // Record(v, count) with a count of 0 is a no-op in both.
      const uint64_t v = sample(static_cast<int>(next() % kOctaves));
      samples.emplace_back(v, i % 7 == 0 ? next() % 4 : 1);
    }
    for (uint64_t v : edges) {
      if (next() % 2 == 0) samples.emplace_back(v, 1 + round);
    }
    LatencyHistogram h;
    DenseHistogram d;
    ExpectSameAsDense(h, d);  // Empty.
    for (const auto& [v, n] : samples) {
      h.Record(v, n);
      d.Record(v, n);
    }
    ExpectSameAsDense(h, d);
    // operator== is equality of the dense arrays: the same samples in
    // another order compare equal, one more sample does not.
    LatencyHistogram reversed;
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
      reversed.Record(it->first, it->second);
    }
    EXPECT_TRUE(reversed == h);
    reversed.Record(samples.front().first);
    EXPECT_FALSE(reversed == h);
    // Chained merges fold every round into one histogram; a copy merged
    // into itself doubles every bucket.
    chained.Merge(h);
    chained_dense.Merge(d);
    ExpectSameAsDense(chained, chained_dense);
    LatencyHistogram self = h;
    self.Merge(self);
    DenseHistogram self_dense = d;
    self_dense.Merge(d);
    ExpectSameAsDense(self, self_dense);
  }
}

// ---- WindowedRegistry ----------------------------------------------------

TEST(WindowedRegistryTest, TumblingWindowsPartitionTheTimeline) {
  WindowSpec spec;
  spec.width_ns = 100;
  WindowedRegistry reg(spec);
  SeriesKey key = reg.Key(ScopeKind::kTotal, "", "requests");
  reg.At(0).Add(key, 1);
  reg.At(99).Add(key, 1);    // Same window as t=0.
  reg.At(100).Add(key, 1);   // Next window.
  reg.At(250).Add(key, 1);   // [200, 300).

  SeriesId id{ScopeKind::kTotal, "", "requests"};
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].start_ns, 0u);
  EXPECT_EQ(snap[0].end_ns, 100u);
  EXPECT_EQ(snap[0].series.at(id).counter, 2);
  EXPECT_EQ(snap[1].start_ns, 100u);
  EXPECT_EQ(snap[1].series.at(id).counter, 1);
  EXPECT_EQ(snap[2].start_ns, 200u);
  EXPECT_EQ(snap[2].series.at(id).counter, 1);
  // Every observation lies in exactly one window: the sum is the total.
  EXPECT_EQ(reg.CounterTotals().at(id), 4);
}

TEST(WindowedRegistryTest, HistogramMerges) {
  WindowedRegistry reg;
  SeriesKey key = reg.Key(ScopeKind::kTotal, "", "latency_ns");
  reg.At(10).Observe(key, 100);
  reg.At(20).Observe(key, 200);
  reg.At(30'000'000).Observe(key, 300);  // The next 25 ms window.
  SeriesId h{ScopeKind::kTotal, "", "latency_ns"};
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].series.at(h).hist->count(), 2u);
  // The total merges every window's histogram.
  EXPECT_EQ(reg.HistogramTotals().at(h).sum(), 600u);
}

TEST(WindowedRegistryTest, SnapshotsOrderByNameNotById) {
  // Ids follow first-seen order; every export must sort by name instead,
  // or two runs whose tenants arrive in different orders would differ.
  WindowedRegistry first_z;
  WindowedRegistry first_a;
  for (const char* name : {"z", "a"}) {
    first_z.At(0).Add(first_z.Key(ScopeKind::kTenant, name, "requests"), 1);
  }
  for (const char* name : {"a", "z"}) {
    first_a.At(0).Add(first_a.Key(ScopeKind::kTenant, name, "requests"), 1);
  }
  auto names_in_order = [](const WindowedRegistry& reg) {
    std::vector<std::string> names;
    const auto snap = reg.Snapshot();
    for (const auto& [id, cell] : snap.at(0).series) {
      names.push_back(id.scope_name);
    }
    return names;
  };
  const std::vector<std::string> expected = {"a", "z"};
  EXPECT_EQ(names_in_order(first_z), expected);
  EXPECT_EQ(names_in_order(first_a), expected);
}

// ---- EventLog ------------------------------------------------------------

// Exports are byte-deterministic, so tests read them back as text.
size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// The unsigned integer after the first `"key":` at or past `from`.
uint64_t NumberAfter(const std::string& text, const std::string& key,
                     size_t from = 0) {
  const std::string member = "\"" + key + "\":";
  size_t at = text.find(member, from);
  EXPECT_NE(at, std::string::npos) << member;
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(text.c_str() + at + member.size(), nullptr, 10);
}

TEST(EventLogTest, CanonicalOrderAndBoundedEviction) {
  EventLog log(/*capacity=*/2);
  auto ev = [](uint64_t t, EventKind kind) {
    Event e;
    e.t_ns = t;
    e.scope = "tenant0";
    e.kind = kind;
    return e;
  };
  // Append out of order: eviction must drop the canonically *oldest*
  // (smallest timestamp), independent of append order.
  log.Add(ev(30, EventKind::kRequestFinish));
  log.Add(ev(10, EventKind::kRequestStart));
  log.Add(ev(20, EventKind::kCacheHit));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);

  std::string json = log.ToJson();
  EXPECT_TRUE(ValidateJson(json));
  EXPECT_EQ(json.rfind("{\"dropped\":1,", 0), 0u) << json;
  // The export lists events in canonical order.
  ASSERT_EQ(Occurrences(json, "{\"t_ns\":"), 2u);
  size_t first = json.find("{\"t_ns\":20,");
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_NE(json.find("{\"t_ns\":30,", first), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"cache_hit\""), std::string::npos);
  // Evicted.
  EXPECT_EQ(json.find("\"kind\":\"request_start\""), std::string::npos);
}

TEST(EventLogTest, EventJsonIsValidWithSortedFields) {
  Event e;
  e.t_ns = 5;
  e.scope = "tenantA";
  e.seq = 2;
  e.kind = EventKind::kCacheHit;
  e.AddField("key", std::string("k\"1"));
  e.AddField("epoch", uint64_t{3});
  std::string json = e.ToJson();
  EXPECT_TRUE(ValidateJson(json)) << json;
  // Fields are sorted by name: epoch before key.
  EXPECT_LT(json.find("\"epoch\":3"), json.find("\"key\":"));
  // The quote in the value is escaped, not a terminator.
  EXPECT_NE(json.find("k\\\"1"), std::string::npos);
}

// ---- Prometheus text format ----------------------------------------------

TEST(PrometheusTest, BuilderOutputPassesTheChecker) {
  PrometheusBuilder b;
  b.Family("rdfspark_requests_total", "counter", "served requests");
  b.Add("rdfspark_requests_total", {{"tenant", "t0"}, {"variant", "S2RDF"}},
        uint64_t{42});
  b.Family("rdfspark_qps", "gauge", "queries per second");
  b.Add("rdfspark_qps", {}, 12.5);
  b.Family("rdfspark_latency_ns", "histogram", "latency distribution");
  b.Add("rdfspark_latency_ns_bucket", {{"le", "1000"}}, uint64_t{3});
  b.Add("rdfspark_latency_ns_bucket", {{"le", "+Inf"}}, uint64_t{4});
  b.Add("rdfspark_latency_ns_sum", {}, uint64_t{2500});
  b.Add("rdfspark_latency_ns_count", {}, uint64_t{4});
  std::string error;
  EXPECT_TRUE(CheckPrometheusText(b.Text(), &error)) << error;
}

TEST(PrometheusTest, CheckerRejectsMalformedLines) {
  std::string error;
  // A sample whose family was never TYPE-declared.
  EXPECT_FALSE(CheckPrometheusText("orphan_metric 1\n", &error));
  // An illegal metric name (leading digit).
  EXPECT_FALSE(CheckPrometheusText(
      "# TYPE 1bad counter\n1bad 2\n", &error));
  // An unterminated label list.
  EXPECT_FALSE(CheckPrometheusText(
      "# TYPE m counter\nm{l=\"v\" 3\n", &error));
  // A non-numeric value.
  EXPECT_FALSE(CheckPrometheusText(
      "# TYPE m counter\nm not_a_number\n", &error));
}

// ---- TelemetrySink -------------------------------------------------------

RequestRecord MakeRecord(const std::string& tenant, uint64_t seq,
                         const std::string& variant, uint64_t busy_ns,
                         const std::string& cache_key,
                         RequestRecord::Outcome outcome =
                             RequestRecord::Outcome::kOk) {
  RequestRecord r;
  r.tenant = tenant;
  r.tenant_seq = seq;
  r.variant = variant;
  r.epoch = 1;
  r.outcome = outcome;
  r.cache_key = cache_key;
  r.busy_ns = busy_ns;
  r.rows = busy_ns / 1000;
  r.tasks = 2;
  r.shuffle_bytes = busy_ns / 10;
  return r;
}

std::vector<RequestRecord> MixedWorkload() {
  std::vector<RequestRecord> records;
  records.push_back(MakeRecord("a", 0, "S2RDF", 3'000'000, "S2RDF\nq1"));
  records.push_back(MakeRecord("a", 1, "S2RDF", 2'000'000, "S2RDF\nq1"));
  records.push_back(MakeRecord("a", 2, "HAQWA", 40'000'000, "HAQWA\nq2"));
  records.push_back(MakeRecord("a", 3, "S2X", 1'000'000, ""));
  records.back().cache_bypass = true;
  records.push_back(MakeRecord("b", 0, "S2RDF", 9'000'000, "S2RDF\nq1"));
  records.push_back(MakeRecord("b", 1, "S2RDF", 0, "",
                               RequestRecord::Outcome::kRejected));
  records.back().detail = "InvalidArgument: rejected by admission";
  records.push_back(MakeRecord("b", 2, "HAQWA", 500'000, "HAQWA\nq2",
                               RequestRecord::Outcome::kFailed));
  records.back().detail = "Internal: synthetic failure";
  // A slow, mis-estimated request the audit captured, whose envelope
  // over-estimates the bytes its profiled re-run materialized.
  records.push_back(MakeRecord("b", 3, "HAQWA", 60'000'000, "HAQWA\nq2"));
  RequestRecord& audited = records.back();
  audited.audited = true;
  audited.audit_latency_trigger = true;
  audited.audit_error_trigger = true;
  audited.max_est_error = 20.0;
  audited.query = "SELECT ?s WHERE { ?s a <http://ex/C> }";
  audited.audit_profile = "Scan ?s rdf:type <http://ex/C> est=1 act=20";
  audited.pattern_actuals.push_back(
      {"?s rdf:type <http://ex/C>", "rdf:type", 1, 20});
  audited.envelope_bytes = 4096;
  audited.observed_bytes = 100;
  return records;
}

TEST(TelemetrySinkTest, ExportsAreIngestOrderInvariant) {
  TelemetryOptions opts;
  opts.window.width_ns = 10'000'000;  // 10 simulated ms
  TelemetrySink ordered(opts);
  TelemetrySink shuffled(opts);

  std::vector<RequestRecord> records = MixedWorkload();
  for (const RequestRecord& r : records) ordered.Ingest(r);

  // Worst-case reordering: every tenant's records arrive backwards. The
  // sink must buffer and apply them in tenant_seq order.
  std::vector<RequestRecord> reversed(records.rbegin(), records.rend());
  shuffled.Ingest(reversed.front());
  EXPECT_EQ(shuffled.unapplied(), 1u);  // Stalled behind missing seq 0.
  for (size_t i = 1; i < reversed.size(); ++i) shuffled.Ingest(reversed[i]);
  EXPECT_EQ(shuffled.unapplied(), 0u);
  EXPECT_EQ(ordered.unapplied(), 0u);

  EXPECT_EQ(ordered.TelemetryJson(), shuffled.TelemetryJson());
  EXPECT_EQ(ordered.EventsJson(), shuffled.EventsJson());
  EXPECT_EQ(ordered.PrometheusText(), shuffled.PrometheusText());
  EXPECT_EQ(ordered.WindowsText(), shuffled.WindowsText());
  EXPECT_EQ(ordered.AuditJson(), shuffled.AuditJson());

  // The exports are well-formed and the checker accepts the exposition.
  std::string error;
  EXPECT_TRUE(CheckPrometheusText(ordered.PrometheusText(), &error)) << error;
  EXPECT_TRUE(ValidateJson(ordered.TelemetryJson(), &error)) << error;
  EXPECT_TRUE(ValidateJson(ordered.EventsJson(), &error)) << error;
  EXPECT_GE(ordered.window_count(), 3u);
}

// MixedWorkload()'s exports at 10 ms windows, byte for byte. They pin the
// all-time Prometheus totals (summed from the windows at export time) and
// every window table, so a change to either shows here and not only in
// CI's serve_bench diff.
constexpr char kGoldenPrometheus[] = R"golden(# HELP rdfspark_serve_admission_rejects_total serving telemetry counter admission_rejects
# TYPE rdfspark_serve_admission_rejects_total counter
rdfspark_serve_admission_rejects_total{level="total",name="all"} 1
rdfspark_serve_admission_rejects_total{level="tenant",name="b"} 1
rdfspark_serve_admission_rejects_total{level="variant",name="S2RDF"} 1
# HELP rdfspark_serve_audited_total serving telemetry counter audited
# TYPE rdfspark_serve_audited_total counter
rdfspark_serve_audited_total{level="total",name="all"} 1
rdfspark_serve_audited_total{level="tenant",name="b"} 1
rdfspark_serve_audited_total{level="variant",name="HAQWA"} 1
# HELP rdfspark_serve_envelope_drift_total serving telemetry counter envelope_drift
# TYPE rdfspark_serve_envelope_drift_total counter
rdfspark_serve_envelope_drift_total{level="total",name="all"} 1
rdfspark_serve_envelope_drift_total{level="tenant",name="b"} 1
rdfspark_serve_envelope_drift_total{level="variant",name="HAQWA"} 1
# HELP rdfspark_serve_failed_total serving telemetry counter failed
# TYPE rdfspark_serve_failed_total counter
rdfspark_serve_failed_total{level="total",name="all"} 1
rdfspark_serve_failed_total{level="tenant",name="b"} 1
rdfspark_serve_failed_total{level="variant",name="HAQWA"} 1
# HELP rdfspark_serve_ok_total serving telemetry counter ok
# TYPE rdfspark_serve_ok_total counter
rdfspark_serve_ok_total{level="total",name="all"} 6
rdfspark_serve_ok_total{level="tenant",name="a"} 4
rdfspark_serve_ok_total{level="tenant",name="b"} 2
rdfspark_serve_ok_total{level="variant",name="HAQWA"} 2
rdfspark_serve_ok_total{level="variant",name="S2RDF"} 3
rdfspark_serve_ok_total{level="variant",name="S2X"} 1
# HELP rdfspark_serve_requests_total serving telemetry counter requests
# TYPE rdfspark_serve_requests_total counter
rdfspark_serve_requests_total{level="total",name="all"} 8
rdfspark_serve_requests_total{level="tenant",name="a"} 4
rdfspark_serve_requests_total{level="tenant",name="b"} 4
rdfspark_serve_requests_total{level="variant",name="HAQWA"} 3
rdfspark_serve_requests_total{level="variant",name="S2RDF"} 4
rdfspark_serve_requests_total{level="variant",name="S2X"} 1
# HELP rdfspark_serve_rows_total serving telemetry counter rows
# TYPE rdfspark_serve_rows_total counter
rdfspark_serve_rows_total{level="total",name="all"} 115500
rdfspark_serve_rows_total{level="tenant",name="a"} 46000
rdfspark_serve_rows_total{level="tenant",name="b"} 69500
rdfspark_serve_rows_total{level="variant",name="HAQWA"} 100500
rdfspark_serve_rows_total{level="variant",name="S2RDF"} 14000
rdfspark_serve_rows_total{level="variant",name="S2X"} 1000
# HELP rdfspark_serve_shuffle_bytes_total serving telemetry counter shuffle_bytes
# TYPE rdfspark_serve_shuffle_bytes_total counter
rdfspark_serve_shuffle_bytes_total{level="total",name="all"} 11550000
rdfspark_serve_shuffle_bytes_total{level="tenant",name="a"} 4600000
rdfspark_serve_shuffle_bytes_total{level="tenant",name="b"} 6950000
rdfspark_serve_shuffle_bytes_total{level="variant",name="HAQWA"} 10050000
rdfspark_serve_shuffle_bytes_total{level="variant",name="S2RDF"} 1400000
rdfspark_serve_shuffle_bytes_total{level="variant",name="S2X"} 100000
# HELP rdfspark_serve_tasks_total serving telemetry counter tasks
# TYPE rdfspark_serve_tasks_total counter
rdfspark_serve_tasks_total{level="total",name="all"} 16
rdfspark_serve_tasks_total{level="tenant",name="a"} 8
rdfspark_serve_tasks_total{level="tenant",name="b"} 8
rdfspark_serve_tasks_total{level="variant",name="HAQWA"} 6
rdfspark_serve_tasks_total{level="variant",name="S2RDF"} 8
rdfspark_serve_tasks_total{level="variant",name="S2X"} 2
# HELP rdfspark_serve_cache_ops_total logical plan-cache operations (replayed)
# TYPE rdfspark_serve_cache_ops_total counter
rdfspark_serve_cache_ops_total{op="hit"} 3
rdfspark_serve_cache_ops_total{op="miss"} 2
rdfspark_serve_cache_ops_total{op="bypass"} 1
rdfspark_serve_cache_ops_total{op="evict"} 0
rdfspark_serve_cache_ops_total{op="invalidate"} 0
# HELP rdfspark_serve_latency_ns simulated request latency (ok requests)
# TYPE rdfspark_serve_latency_ns histogram
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="1245183"} 1
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="2228223"} 2
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="3276799"} 3
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="9437183"} 4
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="41943039"} 5
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="60817407"} 6
rdfspark_serve_latency_ns_bucket{level="total",name="all",le="+Inf"} 6
rdfspark_serve_latency_ns_sum{level="total",name="all"} 116200000
rdfspark_serve_latency_ns_count{level="total",name="all"} 6
rdfspark_serve_latency_ns_bucket{level="tenant",name="a",le="1245183"} 1
rdfspark_serve_latency_ns_bucket{level="tenant",name="a",le="2228223"} 2
rdfspark_serve_latency_ns_bucket{level="tenant",name="a",le="3276799"} 3
rdfspark_serve_latency_ns_bucket{level="tenant",name="a",le="41943039"} 4
rdfspark_serve_latency_ns_bucket{level="tenant",name="a",le="+Inf"} 4
rdfspark_serve_latency_ns_sum{level="tenant",name="a"} 46800000
rdfspark_serve_latency_ns_count{level="tenant",name="a"} 4
rdfspark_serve_latency_ns_bucket{level="tenant",name="b",le="9437183"} 1
rdfspark_serve_latency_ns_bucket{level="tenant",name="b",le="60817407"} 2
rdfspark_serve_latency_ns_bucket{level="tenant",name="b",le="+Inf"} 2
rdfspark_serve_latency_ns_sum{level="tenant",name="b"} 69400000
rdfspark_serve_latency_ns_count{level="tenant",name="b"} 2
rdfspark_serve_latency_ns_bucket{level="variant",name="HAQWA",le="41943039"} 1
rdfspark_serve_latency_ns_bucket{level="variant",name="HAQWA",le="60817407"} 2
rdfspark_serve_latency_ns_bucket{level="variant",name="HAQWA",le="+Inf"} 2
rdfspark_serve_latency_ns_sum{level="variant",name="HAQWA"} 100400000
rdfspark_serve_latency_ns_count{level="variant",name="HAQWA"} 2
rdfspark_serve_latency_ns_bucket{level="variant",name="S2RDF",le="2228223"} 1
rdfspark_serve_latency_ns_bucket{level="variant",name="S2RDF",le="3276799"} 2
rdfspark_serve_latency_ns_bucket{level="variant",name="S2RDF",le="9437183"} 3
rdfspark_serve_latency_ns_bucket{level="variant",name="S2RDF",le="+Inf"} 3
rdfspark_serve_latency_ns_sum{level="variant",name="S2RDF"} 14600000
rdfspark_serve_latency_ns_count{level="variant",name="S2RDF"} 3
rdfspark_serve_latency_ns_bucket{level="variant",name="S2X",le="1245183"} 1
rdfspark_serve_latency_ns_bucket{level="variant",name="S2X",le="+Inf"} 1
rdfspark_serve_latency_ns_sum{level="variant",name="S2X"} 1200000
rdfspark_serve_latency_ns_count{level="variant",name="S2X"} 1
# HELP rdfspark_serve_windows non-empty telemetry windows
# TYPE rdfspark_serve_windows gauge
rdfspark_serve_windows 4
# HELP rdfspark_serve_audit_entries captured slow-query audit entries
# TYPE rdfspark_serve_audit_entries gauge
rdfspark_serve_audit_entries 1
# HELP rdfspark_serve_events_dropped_total events evicted from the bounded event log
# TYPE rdfspark_serve_events_dropped_total counter
rdfspark_serve_events_dropped_total 0
)golden";

constexpr char kGoldenWindows[] = R"golden(window [0.000ms, 10.000ms)
  scope                      reqs      qps    p50_ms    p99_ms   hit% rejects    shuffle_B
  total                         4    400.0     3.277     9.200   66.7       1      1400000
  tenant/a                      2    200.0     2.228     3.200   50.0       0       500000
  tenant/b                      2    200.0     9.200     9.200  100.0       1       900000
  variant/S2RDF                 4    400.0     3.277     9.200      -       1      1400000
window [10.000ms, 20.000ms)
  scope                      reqs      qps    p50_ms    p99_ms   hit% rejects    shuffle_B
  total                         1    100.0         -         -      -       0        50000
  tenant/b                      1    100.0         -         -      -       0        50000
  variant/HAQWA                 1    100.0         -         -      -       0        50000
window [40.000ms, 50.000ms)
  scope                      reqs      qps    p50_ms    p99_ms   hit% rejects    shuffle_B
  total                         2    200.0     1.245    40.200    0.0       0      4100000
  tenant/a                      2    200.0     1.245    40.200    0.0       0      4100000
  variant/HAQWA                 1    100.0    40.200    40.200      -       0      4000000
  variant/S2X                   1    100.0     1.200     1.200      -       0       100000
window [70.000ms, 80.000ms)
  scope                      reqs      qps    p50_ms    p99_ms   hit% rejects    shuffle_B
  total                         1    100.0    60.200    60.200  100.0       0      6000000
  tenant/b                      1    100.0    60.200    60.200  100.0       0      6000000
  variant/HAQWA                 1    100.0    60.200    60.200      -       0      6000000
)golden";

constexpr char kGoldenEvents[] = R"golden({"dropped":0,"events":[
{"t_ns":0,"kind":"request_start","scope":"a","seq":0,"variant":"S2RDF"},
{"t_ns":0,"kind":"request_start","scope":"b","seq":0,"variant":"S2RDF"},
{"t_ns":3200000,"kind":"request_finish","scope":"a","seq":0,"rows":3000,"sim_latency_ns":3200000,"variant":"S2RDF"},
{"t_ns":3200000,"kind":"cache_fill","scope":"a","seq":0,"epoch":1},
{"t_ns":3200000,"kind":"request_start","scope":"a","seq":1,"variant":"S2RDF"},
{"t_ns":5400000,"kind":"request_finish","scope":"a","seq":1,"rows":2000,"sim_latency_ns":2200000,"variant":"S2RDF"},
{"t_ns":5400000,"kind":"cache_hit","scope":"a","seq":1},
{"t_ns":5400000,"kind":"request_start","scope":"a","seq":2,"variant":"HAQWA"},
{"t_ns":9200000,"kind":"request_finish","scope":"b","seq":0,"rows":9000,"sim_latency_ns":9200000,"variant":"S2RDF"},
{"t_ns":9200000,"kind":"cache_hit","scope":"b","seq":0},
{"t_ns":9200000,"kind":"request_start","scope":"b","seq":1,"variant":"S2RDF"},
{"t_ns":9400000,"kind":"admission_reject","scope":"b","seq":1,"reason":"InvalidArgument: rejected by admission","sim_latency_ns":200000,"variant":"S2RDF"},
{"t_ns":9400000,"kind":"request_start","scope":"b","seq":2,"variant":"HAQWA"},
{"t_ns":10100000,"kind":"request_finish","scope":"b","seq":2,"error":"Internal: synthetic failure","sim_latency_ns":700000,"variant":"HAQWA"},
{"t_ns":10100000,"kind":"request_start","scope":"b","seq":3,"variant":"HAQWA"},
{"t_ns":45600000,"kind":"request_finish","scope":"a","seq":2,"rows":40000,"sim_latency_ns":40200000,"variant":"HAQWA"},
{"t_ns":45600000,"kind":"cache_fill","scope":"a","seq":2,"epoch":1},
{"t_ns":45600000,"kind":"request_start","scope":"a","seq":3,"variant":"S2X"},
{"t_ns":46800000,"kind":"request_finish","scope":"a","seq":3,"rows":1000,"sim_latency_ns":1200000,"variant":"S2X"},
{"t_ns":70300000,"kind":"request_finish","scope":"b","seq":3,"rows":60000,"sim_latency_ns":60200000,"variant":"HAQWA"},
{"t_ns":70300000,"kind":"cache_hit","scope":"b","seq":3},
{"t_ns":70300000,"kind":"audit_capture","scope":"b","seq":3,"sim_latency_ns":60200000,"trigger":"latency+est_error"},
{"t_ns":70300000,"kind":"envelope_drift","scope":"b","seq":3,"direction":"over","envelope_bytes":4096,"observed_bytes":100,"variant":"HAQWA"}
]}
)golden";

constexpr char kGoldenAudit[] = R"golden({"dropped":0,"entries":[
{"t_ns":70300000,"tenant":"b","seq":3,"variant":"HAQWA","span_id":"serve b#3 HAQWA","sim_latency_ns":60200000,"trigger":"latency+est_error","max_est_error":20.0000,"query":"SELECT ?s WHERE { ?s a <http://ex/C> }","patterns":[{"pattern":"?s rdf:type <http://ex/C>","predicate":"rdf:type","est_rows":1,"actual_rows":20}],"profile":"Scan ?s rdf:type <http://ex/C> est=1 act=20"}
]}
)golden";

TEST(TelemetrySinkTest, ExportsMatchGoldens) {
  TelemetryOptions opts;
  opts.window.width_ns = 10'000'000;
  TelemetrySink sink(opts);
  for (const RequestRecord& r : MixedWorkload()) sink.Ingest(r);
  EXPECT_EQ(sink.PrometheusText(), kGoldenPrometheus);
  EXPECT_EQ(sink.WindowsText(), kGoldenWindows);
  EXPECT_EQ(sink.EventsJson(), kGoldenEvents);
  EXPECT_EQ(sink.AuditJson(), kGoldenAudit);
}

TEST(TelemetrySinkTest, WriteArtifactsWritesTheFiveExports) {
  TelemetryOptions opts;
  opts.window.width_ns = 10'000'000;
  TelemetrySink sink(opts);
  for (const RequestRecord& r : MixedWorkload()) sink.Ingest(r);
  const std::string dir = testing::TempDir() + "obs_test_artifacts";
  ASSERT_TRUE(sink.WriteArtifacts(dir).ok());
  auto read = [&dir](const std::string& name) {
    std::ifstream in(dir + "/" + name);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read("metrics.prom"), kGoldenPrometheus);
  EXPECT_EQ(read("windows.txt"), kGoldenWindows);
  EXPECT_EQ(read("events.json"), kGoldenEvents);
  EXPECT_EQ(read("audit.json"), kGoldenAudit);
  EXPECT_EQ(read("telemetry.json"), sink.TelemetryJson());
  EXPECT_FALSE(std::ifstream(dir + "/stats_store.json").good());
}

TEST(TelemetrySinkTest, EventsJsonKeepsTheNewestEventsWithinCapacity) {
  // Every request logs request_start + request_finish, and the export-time
  // cache replay adds one cache_fill or cache_hit: 3 events per request.
  constexpr uint64_t kRequests = 2000;
  constexpr uint64_t kGenerated = 3 * kRequests;
  static_assert(kGenerated > EventLog::kDefaultCapacity);
  TelemetrySink sink;
  for (uint64_t seq = 0; seq < kRequests; ++seq) {
    sink.Ingest(MakeRecord("t", seq, "S2RDF", 1'000'000, "S2RDF\nq1"));
  }
  const std::string events = sink.EventsJson();
  ASSERT_TRUE(ValidateJson(events));
  const uint64_t dropped = NumberAfter(events, "dropped");
  ASSERT_EQ(events.rfind("{\"dropped\":" + std::to_string(dropped) +
                             ",\"events\":[",
                         0),
            0u);
  const uint64_t kept = Occurrences(events, "{\"t_ns\":");
  EXPECT_LE(kept, EventLog::kDefaultCapacity);
  EXPECT_EQ(kept + dropped, kGenerated);
  // The kept events are the newest: the last request's survive, the
  // first request's do not.
  EXPECT_EQ(NumberAfter(events, "seq", events.rfind("{\"t_ns\":")),
            kRequests - 1);
  EXPECT_NE(NumberAfter(events, "seq", events.find("{\"t_ns\":")), 0u);
  // Every surface reports the same drop count.
  const std::string telemetry = sink.TelemetryJson();
  ASSERT_TRUE(ValidateJson(telemetry));
  EXPECT_NE(telemetry.find("\"events_dropped\":" + std::to_string(dropped) +
                           ","),
            std::string::npos);
  EXPECT_NE(sink.PrometheusText().find(
                "rdfspark_serve_events_dropped_total " +
                std::to_string(dropped) + "\n"),
            std::string::npos);
}

TEST(TelemetrySinkTest, WindowsTextKeepsLongScopeNamesWhole) {
  // A tenant name is whatever OpenSession was given; a row must grow to
  // fit it instead of truncating and swallowing its newline.
  const std::string tenant(200, 't');
  TelemetrySink sink;
  sink.Ingest(MakeRecord(tenant, 0, "HAQWA", 1'000'000, "HAQWA\nq1"));
  sink.Ingest(MakeRecord(tenant, 1, "S2RDF", 1'000'000, "S2RDF\nq1"));
  const std::string text = sink.WindowsText();
  // One window: its header line, the column header, then the total row,
  // the tenant row and one row per variant.
  EXPECT_EQ(Occurrences(text, "\n"), 6u) << text;
  EXPECT_NE(text.find("\n  tenant/" + tenant + " "), std::string::npos);
  EXPECT_NE(text.find("\n  variant/HAQWA "), std::string::npos) << text;
}

TEST(TelemetrySinkTest, LogicalCacheReplayModelsLruAtCapacity) {
  TelemetryOptions opts;
  opts.logical_cache_capacity = 1;
  TelemetrySink sink(opts);
  sink.RecordDatasetSwap(1, 100);
  sink.Ingest(MakeRecord("t", 0, "E", 1'000'000, "A"));  // miss, fill A
  sink.Ingest(MakeRecord("t", 1, "E", 1'000'000, "A"));  // hit
  sink.Ingest(MakeRecord("t", 2, "E", 1'000'000, "B"));  // miss, evict A
  sink.Ingest(MakeRecord("t", 3, "E", 1'000'000, "A"));  // miss again
  RequestRecord bypass = MakeRecord("t", 4, "S2X", 1'000'000, "");
  bypass.cache_bypass = true;
  sink.Ingest(bypass);

  const std::string telemetry = sink.TelemetryJson();
  ASSERT_TRUE(ValidateJson(telemetry));
  EXPECT_NE(telemetry.find("\"cache\":{\"hits\":1,\"misses\":3,"
                           "\"bypasses\":1,\"evictions\":2,"),
            std::string::npos)
      << telemetry;

  // The replay synthesizes typed cache events on the virtual timeline.
  std::string events = sink.EventsJson();
  EXPECT_NE(events.find("\"kind\":\"cache_fill\""), std::string::npos);
  EXPECT_NE(events.find("\"kind\":\"cache_hit\""), std::string::npos);
  EXPECT_NE(events.find("\"kind\":\"cache_evict\""), std::string::npos);
  EXPECT_NE(events.find("\"kind\":\"dataset_swap\""), std::string::npos);
}

TEST(TelemetrySinkTest, AuditTriggersOnLatencyAndEstimateError) {
  TelemetryOptions opts;
  opts.audit.latency_threshold_ns = 1'000'000;
  opts.audit.tenant_latency_threshold_ns["lenient"] = 5'000'000;
  opts.audit.est_error_bound = 16.0;
  TelemetrySink sink(opts);

  EXPECT_FALSE(sink.DecideAudit("t", 999'999, 1.0).Any());
  AuditDecision lat = sink.DecideAudit("t", 1'000'000, 1.0);
  EXPECT_TRUE(lat.latency);
  EXPECT_FALSE(lat.est_error);
  // The per-tenant override raises the bar for "lenient".
  EXPECT_FALSE(sink.DecideAudit("lenient", 1'000'000, 1.0).Any());
  EXPECT_TRUE(sink.DecideAudit("lenient", 5'000'000, 1.0).latency);
  // The estimate-error trigger fires regardless of latency.
  AuditDecision err = sink.DecideAudit("t", 0, 16.0);
  EXPECT_TRUE(err.est_error);
  EXPECT_FALSE(err.latency);
}

// ---- Retained heap per request -------------------------------------------

#if defined(RDFSPARK_OBS_HEAP_COUNTERS)
/// A synthetic finished-request stream shaped like a perfbench workload.
struct StreamShape {
  int tenants = 1;
  std::vector<std::string> variants;
  uint64_t busy_min_ns = 0;
  uint64_t busy_max_ns = 0;
  int shapes = 1;  ///< Distinct query texts per variant.
};

/// Record `i` of `shape`'s stream, built on the fly so nothing outside the
/// sink holds heap between two reads of the allocator counters. Tenants
/// take turns; a variant named S2X bypasses the cache like the server's
/// single-use-plan engine, every other request carries a cache key of
/// about 260 characters.
RequestRecord StreamRecord(const StreamShape& shape, uint64_t i,
                           uint64_t* rng) {
  auto next = [rng] {
    *rng = *rng * 6364136223846793005ull + 1442695040888963407ull;
    return *rng >> 33;
  };
  const uint64_t tenants = static_cast<uint64_t>(shape.tenants);
  const std::string& variant = shape.variants[next() % shape.variants.size()];
  RequestRecord r = MakeRecord(
      "tenant" + std::to_string(i % tenants), i / tenants, variant,
      shape.busy_min_ns + next() % (shape.busy_max_ns - shape.busy_min_ns + 1),
      "");
  r.join_comparisons = r.rows * 3;
  if (variant == "S2X") {
    r.cache_bypass = true;
  } else {
    const uint64_t query = next() % static_cast<uint64_t>(shape.shapes);
    r.cache_key = variant + "\nSELECT ?x ?y ?z WHERE { ?x <http://lubm.example"
                  ".org/univ-bench.owl#memberOf> ?y . ?y <http://lubm.example"
                  ".org/univ-bench.owl#subOrganizationOf> ?z . ?x <http://lubm"
                  ".example.org/univ-bench.owl#takesCourse> <http://www.Depar"
                  "tment0.University0.edu/Course" +
                  std::to_string(query) + "> }";
  }
  return r;
}

size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Heap the sink keeps per record between record 4,000 and 12,000 of the
/// stream: past the event log's 4,096-event cap, so only what grows with
/// requests counts.
double RetainedBytesPerRecord(const StreamShape& shape) {
  constexpr uint64_t kFirst = 4000;
  constexpr uint64_t kLast = 12000;
  static_assert(2 * kFirst > EventLog::kDefaultCapacity);
  TelemetrySink sink;
  uint64_t rng = 42;
  uint64_t i = 0;
  for (; i < kFirst; ++i) sink.Ingest(StreamRecord(shape, i, &rng));
  const size_t before = HeapInUse();
  for (; i < kLast; ++i) sink.Ingest(StreamRecord(shape, i, &rng));
  const size_t after = HeapInUse();
  EXPECT_EQ(sink.unapplied(), 0u);
  return (static_cast<double>(after) - static_cast<double>(before)) /
         static_cast<double>(kLast - kFirst);
}
#endif  // RDFSPARK_OBS_HEAP_COUNTERS

TEST(TelemetrySinkTest, RetainsUnderOneKilobytePerRecord) {
#if !defined(RDFSPARK_OBS_HEAP_COUNTERS)
  GTEST_SKIP() << "needs glibc's allocator counters (no sanitizer)";
#else
  // serve_hot: 4 clients over 11 variants (S2X among them), 12-24 ms of
  // simulated work per request, a few query shapes per variant.
  StreamShape serve_hot;
  serve_hot.tenants = 4;
  serve_hot.variants = {"HAQWA", "SPARQLGX", "S2RDF", "Hybrid_RDD_partitioned",
                        "Hybrid_DataFrame_broadcast", "Hybrid_Hybrid", "S2X",
                        "GraphX_SM", "Sparkql", "GraphFrames", "SparkRDF"};
  serve_hot.busy_min_ns = 12'000'000;
  serve_hot.busy_max_ns = 24'000'000;
  serve_hot.shapes = 4;
  // task_storm: 2 clients, one variant and query, 40-44 ms per request —
  // about one new 25 ms window per request.
  StreamShape task_storm;
  task_storm.tenants = 2;
  task_storm.variants = {"Hybrid_SparkSQL_naive"};
  task_storm.busy_min_ns = 40'000'000;
  task_storm.busy_max_ns = 44'000'000;

  const double hot = RetainedBytesPerRecord(serve_hot);
  const double storm = RetainedBytesPerRecord(task_storm);
  std::printf("retained heap per record: serve_hot-like %.0f B, "
              "task_storm-like %.0f B\n",
              hot, storm);
  EXPECT_LT(hot, 1024.0);
  EXPECT_LT(storm, 1024.0);
#endif
}

#if defined(RDFSPARK_OBS_HEAP_COUNTERS)
/// The serve_hot-like and task_storm-like streams of
/// RetainsUnderOneKilobytePerRecord.
std::vector<StreamShape> PerfbenchLikeStreams() {
  StreamShape serve_hot;
  serve_hot.tenants = 4;
  serve_hot.variants = {"HAQWA", "SPARQLGX", "S2RDF", "Hybrid_RDD_partitioned",
                        "Hybrid_DataFrame_broadcast", "Hybrid_Hybrid", "S2X",
                        "GraphX_SM", "Sparkql", "GraphFrames", "SparkRDF"};
  serve_hot.busy_min_ns = 12'000'000;
  serve_hot.busy_max_ns = 24'000'000;
  serve_hot.shapes = 4;
  StreamShape task_storm;
  task_storm.tenants = 2;
  task_storm.variants = {"Hybrid_SparkSQL_naive"};
  task_storm.busy_min_ns = 40'000'000;
  task_storm.busy_max_ns = 44'000'000;
  return {serve_hot, task_storm};
}
#endif  // RDFSPARK_OBS_HEAP_COUNTERS

TEST(TelemetrySinkTest, RetainsOneCompactRecordPerRequest) {
#if !defined(RDFSPARK_OBS_HEAP_COUNTERS)
  GTEST_SKIP() << "needs glibc's allocator counters (no sanitizer)";
#else
  // The sink keeps one 80-byte record per request and builds its windows
  // at export, so both streams retain the same: the record plus what the
  // record vector's doubling holds in reserve between the two reads.
  for (const StreamShape& shape : PerfbenchLikeStreams()) {
    const double retained = RetainedBytesPerRecord(shape);
    std::printf("retained heap per record (%d tenants): %.0f B\n",
                shape.tenants, retained);
    EXPECT_LT(retained, 192.0) << shape.tenants << "-tenant stream";
  }
#endif
}

// ---- End to end: serving artifacts across executor-thread counts. --------

rdf::TripleStore TinyLubm() {
  rdf::LubmConfig cfg;
  cfg.num_universities = 1;
  cfg.departments_per_university = 3;
  cfg.professors_per_department = 4;
  cfg.students_per_department = 20;
  cfg.courses_per_department = 5;
  cfg.seed = 42;
  rdf::TripleStore store;
  store.AddAll(rdf::GenerateLubm(cfg));
  store.Dedupe();
  return store;
}

/// Runs an identical two-tenant workload on a cluster with
/// `executor_threads` simulated threads and returns every telemetry
/// artifact the sink exports.
std::vector<std::string> ServeArtifacts(const rdf::TripleStore& store,
                                        int executor_threads) {
  spark::ClusterConfig cluster;
  cluster.num_executors = 4;
  cluster.default_parallelism = 8;
  cluster.executor_threads = executor_threads;
  spark::SparkContext sc(cluster);

  serving::QueryServer::Options options;
  options.worker_threads = 4;
  options.verify_queries = false;
  options.verify_plans = false;
  options.check_races = false;
  options.variants = {"SPARQLGX", "HAQWA", "S2X"};
  options.telemetry_options.window.width_ns = 1'000'000;  // 1 simulated ms
  options.telemetry_options.audit.latency_threshold_ns = 1'000'000;
  serving::QueryServer server(&sc, options);
  EXPECT_TRUE(server.AttachDataset(store).ok());

  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();
  std::vector<std::shared_ptr<serving::QueryServer::Ticket>> tickets;
  for (int t = 0; t < 2; ++t) {
    int session = server.OpenSession("tenant" + std::to_string(t));
    for (const auto& variant : server.variant_names()) {
      for (const auto& [shape, text] : mix) {
        if (shape == rdf::QueryShape::kComplex) continue;  // BGP engines.
        tickets.push_back(server.Submit(session, variant, text));
      }
    }
  }
  for (auto& ticket : tickets) ticket->Wait();

  TelemetrySink* sink = server.telemetry();
  EXPECT_NE(sink, nullptr);
  EXPECT_EQ(sink->unapplied(), 0u);
  EXPECT_GE(sink->window_count(), 3u);
  EXPECT_GE(sink->audit_count(), 1u);
  return {sink->TelemetryJson(), sink->EventsJson(), sink->AuditJson(),
          sink->PrometheusText(), sink->WindowsText()};
}

TEST(TelemetryDeterminismTest, ArtifactsBitIdenticalAcrossExecutorThreads) {
  rdf::TripleStore store = TinyLubm();
  std::vector<std::string> serial = ServeArtifacts(store, 1);
  std::vector<std::string> threaded = ServeArtifacts(store, 8);
  ASSERT_EQ(serial.size(), threaded.size());
  const char* names[] = {"telemetry.json", "events.json", "audit.json",
                         "metrics.prom", "windows.txt"};
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i])
        << names[i] << " diverged between executor_threads=1 and =8";
    EXPECT_FALSE(serial[i].empty()) << names[i];
  }
}

}  // namespace
}  // namespace rdfspark::obs
