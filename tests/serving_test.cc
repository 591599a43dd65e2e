// Serving-layer tests: the concurrent multi-tenant QueryServer must produce
// binding tables bit-identical to the serial reference server for every
// engine variant and query shape, account plan-cache hits/misses/bypasses
// exactly, reject inadmissible queries before planning, and never serve a
// stale plan across a dataset reload. The concurrent cases double as the
// TSan targets for the serving path (see scripts/tier1.sh).

#include "serving/query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/generator.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "systems/engine.h"

namespace rdfspark::serving {
namespace {

/// One small LUBM university — large enough that every query shape has
/// rows, small enough that 12 engines load it quickly.
rdf::TripleStore SmallLubm(uint64_t seed = 42, int departments = 3) {
  rdf::LubmConfig cfg;
  cfg.num_universities = 1;
  cfg.departments_per_university = departments;
  cfg.professors_per_department = 4;
  cfg.students_per_department = 20;
  cfg.courses_per_department = 5;
  cfg.seed = seed;
  rdf::TripleStore store;
  store.AddAll(rdf::GenerateLubm(cfg));
  store.Dedupe();
  return store;
}

/// Default options — every gate off — with `workers` worker threads.
QueryServer::Options QuietOptions(int workers) {
  QueryServer::Options options;
  options.worker_threads = workers;
  return options;
}

/// Order-insensitive canonical outcome of one request.
struct Outcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::vector<std::map<std::string, std::string>> rows;

  bool operator==(const Outcome&) const = default;
};

Outcome Canon(const RequestResult& result, const rdf::Dictionary& dict) {
  Outcome out;
  out.ok = result.status.ok();
  out.code = result.status.code();
  if (out.ok) {
    out.rows = result.table.Decode(dict);
    std::sort(out.rows.begin(), out.rows.end());
  }
  return out;
}

/// One request of a served matrix and its canonical outcome.
struct Served {
  std::string variant;
  std::string text;
  Outcome outcome;
};

/// What a server did with the 4-tenant matrix: every tenant submits the
/// whole variant x shape matrix at once.
struct MatrixRun {
  std::vector<Served> served;
  std::vector<TenantStats> tenants;
};

constexpr int kMatrixTenants = 4;

/// Serves the 4-tenant matrix with `workers` workers on a default
/// 4-executor cluster whose pool has `executor_threads` threads.
MatrixRun ServeMatrix(const rdf::TripleStore& store, int workers,
                      int executor_threads) {
  spark::ClusterConfig cluster;
  cluster.executor_threads = executor_threads;
  spark::SparkContext sc(cluster);
  QueryServer server(&sc, QuietOptions(workers));
  EXPECT_TRUE(server.AttachDataset(store).ok());
  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();
  std::vector<int> sessions;
  for (int t = 0; t < kMatrixTenants; ++t) {
    sessions.push_back(server.OpenSession("tenant" + std::to_string(t)));
  }
  std::vector<std::shared_ptr<QueryServer::Ticket>> tickets;
  MatrixRun run;
  for (int t = 0; t < kMatrixTenants; ++t) {
    for (const auto& variant : server.variant_names()) {
      for (const auto& [shape, text] : mix) {
        run.served.push_back({variant, text, Outcome()});
        tickets.push_back(
            server.Submit(sessions[static_cast<size_t>(t)], variant, text));
      }
    }
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    run.served[i].outcome = Canon(tickets[i]->Wait(), store.dictionary());
  }
  for (int t = 0; t < kMatrixTenants; ++t) {
    TenantStats stats = server.tenant_stats("tenant" + std::to_string(t));
    // Every tenant's ledger adds up.
    EXPECT_EQ(stats.submitted, server.variant_names().size() * mix.size());
    EXPECT_EQ(stats.submitted,
              stats.completed + stats.rejected + stats.failed);
    EXPECT_EQ(stats.rejected, 0u);
    run.tenants.push_back(stats);
  }
  return run;
}

TEST(QueryServerTest, ConcurrentResultsMatchSerialReference) {
  rdf::TripleStore store = SmallLubm();
  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();

  // Serial reference: a one-worker server over its own cluster.
  spark::SparkContext serial_sc;
  QueryServer serial(&serial_sc, QuietOptions(1));
  ASSERT_TRUE(serial.AttachDataset(store).ok());
  int ref_session = serial.OpenSession("ref");
  std::map<std::pair<std::string, std::string>, Outcome> reference;
  for (const auto& variant : serial.variant_names()) {
    for (const auto& [shape, text] : mix) {
      reference[{variant, text}] =
          Canon(serial.Execute(ref_session, variant, text),
                store.dictionary());
    }
  }
  // The mix must contain shapes every variant answers (engines whose
  // fragment excludes FILTER return Unsupported for the complex shape;
  // both servers must agree on that too).
  size_t ok_count = 0;
  for (const auto& [key, outcome] : reference) ok_count += outcome.ok;
  ASSERT_GT(ok_count, reference.size() / 2);

  // The tenants' execution ledgers with every task run inline by one
  // worker: what any pooled run must charge, bit for bit.
  MatrixRun inline_run = ServeMatrix(store, 1, /*executor_threads=*/1);

  // Both pool regimes: 8 workers hold all 4 executor slots while the queue
  // lasts, so helpers join only in its tail; 2 workers leave 2 slots free,
  // so helpers join throughout and run tasks on pool threads.
  for (int workers : {8, 2}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    MatrixRun run = ServeMatrix(store, workers, /*executor_threads=*/0);
    for (const Served& served : run.served) {
      const Outcome& want = reference.at({served.variant, served.text});
      EXPECT_EQ(served.outcome, want)
          << served.variant << " diverged from the serial reference on: "
          << served.text;
    }
    for (size_t t = 0; t < run.tenants.size(); ++t) {
      EXPECT_EQ(run.tenants[t].tasks, inline_run.tenants[t].tasks)
          << "tenant" << t;
      EXPECT_EQ(run.tenants[t].records_processed,
                inline_run.tenants[t].records_processed)
          << "tenant" << t;
    }
  }
}

TEST(QueryServerTest, PlanCacheHitMissAccounting) {
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer server(&sc, QuietOptions(2));
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("acct");
  std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3);

  RequestResult first = server.Execute(session, "SPARQLGX", query);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  PlanCacheStats stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  RequestResult second = server.Execute(session, "SPARQLGX", query);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);

  // Text that differs only in layout normalizes onto the same entry.
  std::string spaced;
  for (char c : query) {
    spaced += c;
    if (c == ' ') spaced += ' ';
  }
  RequestResult third = server.Execute(session, "SPARQLGX", spaced);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);

  stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);

  // A different variant plans its own entry: the key includes the engine.
  RequestResult other = server.Execute(session, "HAQWA", query);
  ASSERT_TRUE(other.status.ok());
  EXPECT_FALSE(other.cache_hit);
  stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // Cached and uncached executions return identical tables.
  EXPECT_EQ(Canon(first, store.dictionary()),
            Canon(second, store.dictionary()));
  EXPECT_EQ(Canon(first, store.dictionary()),
            Canon(third, store.dictionary()));

  TenantStats tenant = server.tenant_stats("acct");
  EXPECT_EQ(tenant.cache_hits, 2u);
}

TEST(QueryServerTest, ReloadNeverServesStalePlan) {
  // The second dataset is structurally different (fewer departments), so
  // the star query provably has a different answer set — LUBM's entity
  // layout is deterministic and a seed change alone would not move it.
  rdf::TripleStore first = SmallLubm(/*seed=*/42, /*departments=*/3);
  rdf::TripleStore second = SmallLubm(/*seed=*/7, /*departments=*/2);
  std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3);

  spark::SparkContext sc;
  QueryServer server(&sc, QuietOptions(2));
  ASSERT_TRUE(server.AttachDataset(first).ok());
  uint64_t epoch_before = server.dataset_epoch();
  int session = server.OpenSession("reload");

  // Warm the cache against the first dataset.
  RequestResult warm = server.Execute(session, "SPARQLGX", query);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_TRUE(server.Execute(session, "SPARQLGX", query).cache_hit);

  // Hot-swap the dataset: epoch bumps, cached plans die.
  ASSERT_TRUE(server.AttachDataset(second).ok());
  EXPECT_EQ(server.dataset_epoch(), epoch_before + 1);
  PlanCacheStats stats = server.plan_cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);

  // The same text re-plans against the new dataset...
  RequestResult fresh = server.Execute(session, "SPARQLGX", query);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);

  // ...and its rows match an engine loaded with the new dataset only —
  // the regression a stale plan (old dictionary ids) would break.
  spark::SparkContext ref_sc;
  std::unique_ptr<systems::BgpEngineBase> ref;
  for (auto& factory : systems::AllEngineVariantFactories()) {
    if (factory.name == "SPARQLGX") ref = factory.make(&ref_sc);
  }
  ASSERT_NE(ref, nullptr);
  ASSERT_TRUE(ref->Load(second).ok());
  auto expected = ref->ExecuteText(query);
  ASSERT_TRUE(expected.ok());
  auto expected_rows = expected->Decode(second.dictionary());
  std::sort(expected_rows.begin(), expected_rows.end());
  EXPECT_EQ(Canon(fresh, second.dictionary()).rows, expected_rows);
  // And differ from the first dataset's answer (different seed, different
  // individuals), so the comparison above is not vacuous.
  EXPECT_NE(Canon(fresh, second.dictionary()).rows,
            Canon(warm, first.dictionary()).rows);
}

TEST(QueryServerTest, AdmissionRejectsBeforePlanning) {
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer::Options options = QuietOptions(2);
  options.verify_queries = true;  // The admission gate under test.
  QueryServer server(&sc, options);
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("gate");

  // QA001: projected variable that no pattern binds — ERROR, rejected.
  RequestResult bad =
      server.Execute(session, "HAQWA", "SELECT ?x WHERE { ?s ?p ?o }");
  EXPECT_FALSE(bad.status.ok());
  EXPECT_TRUE(bad.rejected);
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);

  // Unparseable text is rejected too (never reaches an engine).
  RequestResult garbage = server.Execute(session, "HAQWA", "NOT SPARQL AT");
  EXPECT_FALSE(garbage.status.ok());
  EXPECT_TRUE(garbage.rejected);

  // Admissible queries still flow.
  RequestResult good = server.Execute(
      session, "HAQWA", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();

  TenantStats stats = server.tenant_stats("gate");
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.completed, 1u);
  // Rejected requests never planned anything: no cache traffic for them.
  PlanCacheStats cache = server.plan_cache_stats();
  EXPECT_EQ(cache.hits + cache.misses + cache.bypasses, 1u);
}

/// Gates are set in code only: with these variables in the environment, a
/// new engine and default server options still have every gate off.
TEST(QueryServerTest, EnvironmentDoesNotArmGates) {
  const char* const kNames[] = {"RDFSPARK_VERIFY_PLANS",
                                "RDFSPARK_VERIFY_QUERIES",
                                "RDFSPARK_CHECK_RACES",
                                "RDFSPARK_MEMORY_BUDGET"};
  for (const char* name : kNames) setenv(name, "1", /*overwrite=*/1);
  spark::SparkContext sc;
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    auto engine = factory.make(&sc);
    EXPECT_FALSE(engine->debug_check_plans()) << factory.name;
    EXPECT_FALSE(engine->debug_check_queries()) << factory.name;
    EXPECT_FALSE(engine->debug_check_races()) << factory.name;
  }
  QueryServer::Options options{};
  EXPECT_EQ(options.memory_budget_bytes, 0u);
  EXPECT_FALSE(options.verify_queries);
  EXPECT_FALSE(options.verify_plans);
  EXPECT_FALSE(options.check_races);
  for (const char* name : kNames) unsetenv(name);
}

TEST(QueryServerTest, UnknownVariantAndSessionAreRejected) {
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer server(&sc, QuietOptions(1));
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("edge");

  RequestResult no_engine =
      server.Execute(session, "NoSuchEngine", "SELECT ?s WHERE { ?s ?p ?o }");
  EXPECT_FALSE(no_engine.status.ok());
  EXPECT_TRUE(no_engine.rejected);

  RequestResult no_session =
      server.Execute(999, "HAQWA", "SELECT ?s WHERE { ?s ?p ?o }");
  EXPECT_FALSE(no_session.status.ok());
  EXPECT_EQ(no_session.status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryServerTest, FrozenDictionaryServesUnknownConstantsConcurrently) {
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer server(&sc, QuietOptions(8));
  ASSERT_TRUE(server.AttachDataset(store).ok());
  // AttachDataset froze the dictionary: query paths are read-only now.
  EXPECT_TRUE(store.dictionary().frozen());
  size_t terms_before = store.dictionary().size();

  // A constant no dataset term matches must resolve to the empty table —
  // via const Lookup, never via Encode — on every variant, concurrently.
  std::string unknown =
      "SELECT ?s WHERE { ?s <http://example.org/noSuchPredicate> ?o }";
  constexpr int kTenants = 4;
  std::vector<std::shared_ptr<QueryServer::Ticket>> tickets;
  for (int t = 0; t < kTenants; ++t) {
    int session = server.OpenSession("frozen" + std::to_string(t));
    for (const auto& variant : server.variant_names()) {
      tickets.push_back(server.Submit(session, variant, unknown));
    }
  }
  for (auto& ticket : tickets) {
    const RequestResult& result = ticket->Wait();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.table.num_rows(), 0u);
  }
  // No query-time path grew the dictionary.
  EXPECT_EQ(store.dictionary().size(), terms_before);
}

TEST(QueryServerTest, S2xPlansBypassTheCache) {
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer::Options options = QuietOptions(2);
  options.variants = {"S2X"};
  QueryServer server(&sc, options);
  ASSERT_TRUE(server.AttachDataset(store).ok());
  ASSERT_EQ(server.variant_names(), std::vector<std::string>{"S2X"});
  int session = server.OpenSession("s2x");
  std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3);

  // S2X plans are single-use (the matching fixpoint's state is consumed by
  // the first execution), so every request must bypass — and still return
  // the same rows each time.
  Outcome first;
  for (int i = 0; i < 3; ++i) {
    RequestResult result = server.Execute(session, "S2X", query);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.cache_hit);
    EXPECT_TRUE(result.cache_bypass);
    Outcome outcome = Canon(result, store.dictionary());
    if (i == 0) {
      first = outcome;
      EXPECT_FALSE(first.rows.empty());
    } else {
      EXPECT_EQ(outcome, first);
    }
  }
  PlanCacheStats stats = server.plan_cache_stats();
  EXPECT_EQ(stats.bypasses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(QueryServerTest, GroupQueriesShareOneCachedPlan) {
  // The complex shape's FILTER is a driver-side node of the query's one
  // plan: the first request misses and plans, the second hits, and each
  // request counts exactly once in hits + misses + bypasses.
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer::Options options = QuietOptions(1);
  options.variants = {"HAQWA"};
  QueryServer server(&sc, options);
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("group");
  std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kComplex);
  auto lookups = [&server] {
    PlanCacheStats stats = server.plan_cache_stats();
    return stats.hits + stats.misses + stats.bypasses;
  };

  RequestResult first = server.Execute(session, "HAQWA", query);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.cache_bypass);
  EXPECT_EQ(lookups(), 1u);

  RequestResult second = server.Execute(session, "HAQWA", query);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.cache_bypass);
  EXPECT_EQ(lookups(), 2u);

  PlanCacheStats stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(Canon(first, store.dictionary()),
            Canon(second, store.dictionary()));
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache(/*capacity=*/2);
  auto plan = [] {
    return std::shared_ptr<const systems::plan::PlanNode>(
        new systems::plan::PlanNode());
  };
  cache.Put("e", "q1", 1, plan());
  cache.Put("e", "q2", 1, plan());
  EXPECT_NE(cache.Get("e", "q1", 1), nullptr);  // q1 now most recent.
  cache.Put("e", "q3", 1, plan());              // Evicts q2.
  EXPECT_EQ(cache.Get("e", "q2", 1), nullptr);
  EXPECT_NE(cache.Get("e", "q1", 1), nullptr);
  EXPECT_NE(cache.Get("e", "q3", 1), nullptr);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

// ---- Tier C: the server-owned happens-before window. ---------------------

QueryServer::Options RaceCheckedOptions(int workers) {
  QueryServer::Options options = QuietOptions(workers);
  options.check_races = true;
  return options;
}

std::string RenderFindings(std::vector<systems::plan::Diagnostic> findings) {
  return systems::plan::FormatDiagnostics(findings);
}

TEST(QueryServerRaceTest, HotSwapRacingConcurrentFillsStaysSilent) {
  // AttachDataset hot-swaps the dataset while earlier requests are still
  // being admitted and the plan cache is filling concurrently. The
  // dataset_mu_ writer lock + epoch bump is the declared synchronization;
  // the HB checker must find the whole trace ordered.
  rdf::TripleStore first = SmallLubm(/*seed=*/42, /*departments=*/3);
  rdf::TripleStore second = SmallLubm(/*seed=*/7, /*departments=*/2);
  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();

  spark::SparkContext sc;
  QueryServer server(&sc, RaceCheckedOptions(/*workers=*/4));
  ASSERT_TRUE(server.AttachDataset(first).ok());
  int session_a = server.OpenSession("swap-a");
  int session_b = server.OpenSession("swap-b");

  std::vector<std::shared_ptr<QueryServer::Ticket>> tickets;
  auto submit_matrix = [&](int session) {
    for (const auto& variant : server.variant_names()) {
      for (const auto& [shape, text] : mix) {
        tickets.push_back(server.Submit(session, variant, text));
      }
    }
  };
  // Burst one tenant's matrix, hot-swap mid-flight (AttachDataset drains
  // in-flight work under the writer lock), then burst the other tenant
  // against the new epoch so the cache refills concurrently.
  submit_matrix(session_a);
  ASSERT_TRUE(server.AttachDataset(second).ok());
  uint64_t epoch_after_swap = server.dataset_epoch();
  EXPECT_EQ(epoch_after_swap, 2u);
  submit_matrix(session_b);
  for (auto& ticket : tickets) ticket->Wait();

  auto findings = server.race_findings();
  EXPECT_TRUE(findings.empty()) << RenderFindings(findings);
  server.Shutdown();
}

TEST(QueryServerRaceTest, FrozenDictionarySharedAcrossWorkersStaysSilent) {
  // Every worker decodes terms through the one frozen dictionary while
  // executing concurrently; Freeze's publication edge must order all of
  // those reads after the load-time encodes, so the checker stays silent.
  rdf::TripleStore store = SmallLubm();
  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();

  spark::SparkContext sc;
  QueryServer server(&sc, RaceCheckedOptions(/*workers=*/8));
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("dict");

  std::vector<std::shared_ptr<QueryServer::Ticket>> tickets;
  for (int round = 0; round < 2; ++round) {
    for (const auto& variant : server.variant_names()) {
      for (const auto& [shape, text] : mix) {
        tickets.push_back(server.Submit(session, variant, text));
      }
    }
  }
  size_t decoded_rows = 0;
  for (auto& ticket : tickets) {
    const RequestResult& result = ticket->Wait();
    if (result.status.ok()) {
      decoded_rows += result.table.Decode(store.dictionary()).size();
    }
  }
  EXPECT_GT(decoded_rows, 0u);

  auto findings = server.race_findings();
  EXPECT_TRUE(findings.empty()) << RenderFindings(findings);
  server.Shutdown();
}

TEST(QueryServerRaceTest, RaceGateRejectionIsRejectedNotFailed) {
  // Inject a genuine Tier C ERROR into the server's open happens-before
  // window: two writes to one accumulator object from two unconnected
  // roots are logically concurrent, so the final value is
  // schedule-dependent (DT001). The next request to finish observes the
  // raised ERROR count and must be *rejected* by the race gate — counted
  // in rejected (with race_rejected as its subset), never in failed, so
  // the tenant ledger keeps balancing.
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer server(&sc, RaceCheckedOptions(/*workers=*/1));
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("racegate");
  std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3);

  // Before the injection the workload is clean.
  RequestResult clean = server.Execute(session, "SPARQLGX", query);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();

  auto& recorder = spark::hb::Recorder::Get();
  int root_a = recorder.BeginRoot();
  recorder.Record(spark::hb::AccumulatorObject(987654),
                  spark::hb::Access::kWrite, "serving_test injected write A");
  recorder.EndRoot(root_a);
  int root_b = recorder.BeginRoot();
  recorder.Record(spark::hb::AccumulatorObject(987654),
                  spark::hb::Access::kWrite, "serving_test injected write B");
  recorder.EndRoot(root_b);

  // The next finished request surfaces the new finding and is withheld.
  RequestResult gated = server.Execute(session, "SPARQLGX", query);
  EXPECT_FALSE(gated.status.ok());
  EXPECT_EQ(gated.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(gated.rejected);
  EXPECT_TRUE(gated.race_rejected);
  EXPECT_EQ(gated.table.num_rows(), 0u);

  // The high-water mark absorbed the finding: later requests flow again.
  RequestResult after = server.Execute(session, "SPARQLGX", query);
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();

  TenantStats stats = server.tenant_stats("racegate");
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.race_rejected, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.failed);

  // The telemetry event log records the rejection as its own typed kind.
  ASSERT_NE(server.telemetry(), nullptr);
  EXPECT_NE(server.telemetry()->EventsJson().find("race_gate_reject"),
            std::string::npos);
  server.Shutdown();
}

TEST(PlanCacheTest, EpochIsPartOfTheKey) {
  PlanCache cache(8);
  auto plan = std::shared_ptr<const systems::plan::PlanNode>(
      new systems::plan::PlanNode());
  cache.Put("e", "q", 1, plan);
  EXPECT_NE(cache.Get("e", "q", 1), nullptr);
  EXPECT_EQ(cache.Get("e", "q", 2), nullptr);  // New epoch never matches.
  cache.InvalidateExcept(2);
  EXPECT_EQ(cache.Get("e", "q", 1), nullptr);  // Old entry is gone too.
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

// ---- Tier D: byte-budgeted cache eviction and the admission gate. --------

TEST(PlanCacheTest, ByteBudgetDrivesEviction) {
  PlanCache cache(/*capacity=*/16, /*byte_budget=*/1000);
  auto plan = [] {
    return std::shared_ptr<const systems::plan::PlanNode>(
        new systems::plan::PlanNode());
  };
  cache.Put("e", "q1", 1, plan(), 400);
  cache.Put("e", "q2", 1, plan(), 400);
  EXPECT_EQ(cache.stats().resident_bytes, 800u);
  cache.Put("e", "q3", 1, plan(), 400);  // 1200 > 1000: q1 evicted.
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(cache.Get("e", "q1", 1), nullptr);
  EXPECT_NE(cache.Get("e", "q2", 1), nullptr);
  EXPECT_NE(cache.Get("e", "q3", 1), nullptr);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 800u);
  EXPECT_EQ(stats.evicted_bytes, 400u);
}

TEST(PlanCacheTest, NewestEntrySurvivesAnOverBudgetEnvelope) {
  // One plan whose envelope alone exceeds the budget still caches: the
  // most recent entry is never evicted, so a hot over-budget query does
  // not thrash the cache it needs.
  PlanCache cache(/*capacity=*/16, /*byte_budget=*/1000);
  auto plan = [] {
    return std::shared_ptr<const systems::plan::PlanNode>(
        new systems::plan::PlanNode());
  };
  cache.Put("e", "small", 1, plan(), 100);
  cache.Put("e", "huge", 1, plan(), 5000);  // Evicts small, keeps itself.
  PlanCacheStats stats = cache.stats();
  EXPECT_NE(cache.Get("e", "huge", 1), nullptr);
  EXPECT_EQ(cache.Get("e", "small", 1), nullptr);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, 5000u);
}

TEST(PlanCacheTest, UnboundedPlansChargeNothing) {
  PlanCache cache(/*capacity=*/16, /*byte_budget=*/1000);
  auto plan = std::shared_ptr<const systems::plan::PlanNode>(
      new systems::plan::PlanNode());
  cache.Put("e", "q", 1, plan, /*envelope_bytes=*/0);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryServerBudgetTest, GateRejectsAgainstTheQuerysOwnEnvelope) {
  rdf::TripleStore store = SmallLubm();
  const std::string variant = "Hybrid_SparkSQL_naive";
  const std::string text = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3);

  // Reference run with the gate off: learn the plan's static envelope.
  uint64_t envelope = 0;
  {
    spark::SparkContext sc;
    QueryServer::Options options = QuietOptions(1);
    options.memory_budget_bytes = 0;
    QueryServer server(&sc, options);
    ASSERT_TRUE(server.AttachDataset(store).ok());
    int session = server.OpenSession("probe");
    RequestResult result = server.Execute(session, variant, text);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    envelope = result.envelope_bytes;
    ASSERT_GT(envelope, 0u);  // naive SparkSQL plans are bounded.
  }

  // One byte under the envelope: rejected before a single operator runs.
  {
    spark::SparkContext sc;
    QueryServer::Options options = QuietOptions(1);
    options.memory_budget_bytes = envelope - 1;
    QueryServer server(&sc, options);
    ASSERT_TRUE(server.AttachDataset(store).ok());
    int session = server.OpenSession("tight");
    RequestResult result = server.Execute(session, variant, text);
    EXPECT_FALSE(result.status.ok());
    EXPECT_TRUE(result.rejected);
    EXPECT_TRUE(result.budget_rejected);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.envelope_bytes, envelope);

    // The plan was still cached (valid for other budgets); a retry is a
    // cache hit and the gate rejects it again, deterministically.
    RequestResult retry = server.Execute(session, variant, text);
    EXPECT_TRUE(retry.budget_rejected);
    PlanCacheStats cache = server.plan_cache_stats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.hits, 1u);

    TenantStats stats = server.tenant_stats("tight");
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 2u);
    EXPECT_EQ(stats.budget_rejected, 2u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.failed, 0u);
  }

  // Budget exactly at the envelope: admitted.
  {
    spark::SparkContext sc;
    QueryServer::Options options = QuietOptions(1);
    options.memory_budget_bytes = envelope;
    QueryServer server(&sc, options);
    ASSERT_TRUE(server.AttachDataset(store).ok());
    int session = server.OpenSession("fits");
    RequestResult result = server.Execute(session, variant, text);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.budget_rejected);
    TenantStats stats = server.tenant_stats("fits");
    EXPECT_EQ(stats.budget_rejected, 0u);
    EXPECT_EQ(stats.completed, 1u);
  }
}

TEST(QueryServerBudgetTest, S2xPlansPassTheGate) {
  // S2X plans afresh on every request and bypasses the cache, but its plan
  // still meets the Tier D gate: a 1-byte budget rejects the request
  // before a single task runs.
  rdf::TripleStore store = SmallLubm();
  spark::SparkContext sc;
  QueryServer::Options options = QuietOptions(1);
  options.variants = {"S2X"};
  options.memory_budget_bytes = 1;
  QueryServer server(&sc, options);
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("s2x-budget");

  spark::Metrics before = sc.metrics();
  RequestResult result = server.Execute(
      session, "S2X", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  spark::Metrics delta = sc.metrics() - before;
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(result.rejected);
  EXPECT_TRUE(result.budget_rejected);
  EXPECT_TRUE(result.cache_bypass);
  EXPECT_GT(result.envelope_bytes, 1u);
  EXPECT_EQ(delta.tasks.value(), 0u);

  TenantStats stats = server.tenant_stats("s2x-budget");
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.budget_rejected, 1u);
  EXPECT_EQ(stats.completed, 0u);
  PlanCacheStats cache = server.plan_cache_stats();
  EXPECT_EQ(cache.bypasses, 1u);
  EXPECT_EQ(cache.hits + cache.misses, 0u);
}

TEST(QueryServerBudgetTest, ConcurrentRejectsMatchSerialReference) {
  // Budget decisions depend only on the plan's static envelope, never on
  // scheduling: an 8-worker server must reject exactly the requests a
  // 1-worker server rejects, and every tenant ledger must still add up
  // with budget_rejected a subset of rejected.
  rdf::TripleStore store = SmallLubm();
  std::vector<std::pair<rdf::QueryShape, std::string>> mix =
      rdf::LubmQueryMix();
  constexpr uint64_t kBudget = 200'000;

  std::map<std::pair<std::string, std::string>, bool> reference;
  {
    spark::SparkContext sc;
    QueryServer::Options options = QuietOptions(1);
    options.memory_budget_bytes = kBudget;
    QueryServer serial(&sc, options);
    ASSERT_TRUE(serial.AttachDataset(store).ok());
    int session = serial.OpenSession("ref");
    for (const auto& variant : serial.variant_names()) {
      for (const auto& [shape, text] : mix) {
        reference[{variant, text}] =
            serial.Execute(session, variant, text).budget_rejected;
      }
    }
  }
  size_t ref_rejects = 0;
  for (const auto& [key, rejected] : reference) ref_rejects += rejected;
  ASSERT_GT(ref_rejects, 0u) << "budget too loose to exercise the gate";
  ASSERT_LT(ref_rejects, reference.size()) << "budget rejects everything";

  spark::SparkContext sc;
  QueryServer::Options options = QuietOptions(8);
  options.memory_budget_bytes = kBudget;
  QueryServer server(&sc, options);
  ASSERT_TRUE(server.AttachDataset(store).ok());
  int session = server.OpenSession("load");
  struct Pending {
    std::string variant;
    std::string text;
    std::shared_ptr<QueryServer::Ticket> ticket;
  };
  std::vector<Pending> pending;
  for (const auto& variant : server.variant_names()) {
    for (const auto& [shape, text] : mix) {
      pending.push_back({variant, text, server.Submit(session, variant, text)});
    }
  }
  for (auto& p : pending) {
    RequestResult result = p.ticket->Wait();
    EXPECT_EQ(result.budget_rejected, reference.at({p.variant, p.text}))
        << p.variant << " budget decision diverged on: " << p.text;
    if (result.budget_rejected) {
      EXPECT_TRUE(result.rejected);
      EXPECT_FALSE(result.status.ok());
    }
  }
  TenantStats stats = server.tenant_stats("load");
  EXPECT_EQ(stats.submitted, pending.size());
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.failed);
  EXPECT_EQ(stats.budget_rejected, ref_rejects);
  EXPECT_LE(stats.budget_rejected, stats.rejected);
}

}  // namespace
}  // namespace rdfspark::serving
