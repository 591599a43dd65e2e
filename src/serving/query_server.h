#ifndef RDFSPARK_SERVING_QUERY_SERVER_H_
#define RDFSPARK_SERVING_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/telemetry.h"
#include "rdf/store.h"
#include "serving/plan_cache.h"
#include "spark/context.h"
#include "spark/hb.h"
#include "sparql/binding.h"
#include "systems/engine.h"
#include "systems/plan/diagnostics.h"

namespace rdfspark::serving {

/// Outcome of one served request.
struct RequestResult {
  Status status;  ///< OK, or the parse/admission/execution error.
  sparql::BindingTable table;
  bool cache_hit = false;     ///< Executed a plan another request built.
  bool cache_bypass = false;  ///< Ran outside the plan cache entirely.
  bool rejected = false;      ///< Failed admission (never planned/executed).
  bool race_rejected = false;  ///< Rejected by the Tier C race gate: the
                               ///< request's results were withheld because
                               ///< new ERROR-level happens-before findings
                               ///< appeared while it executed.
  bool budget_rejected = false;  ///< Rejected by the Tier D envelope gate:
                                 ///< the plan's static peak envelope
                                 ///< exceeded Options::memory_budget_bytes,
                                 ///< so it was never executed.
  /// Static peak envelope of the plan the request executed (or would have
  /// executed); 0 when no Tier D analysis ran or the envelope is unbounded.
  uint64_t envelope_bytes = 0;
  double latency_ms = 0.0;    ///< Wall-clock queue + execution latency.
  std::string tenant;
  std::string variant;
};

/// Per-tenant serving counters; snapshot taken under the server's stats
/// lock, so the totals are mutually consistent.
struct TenantStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  ///< Finished OK (admission + execution).
  uint64_t rejected = 0;   ///< Failed the admission gate, parse, or the
                           ///< race gate (race_rejected is the subset).
  uint64_t race_rejected = 0;  ///< Tier C race-gate rejections. Counted
                               ///< inside `rejected`, never in `failed`:
                               ///< the ledger submitted = completed +
                               ///< rejected + failed always balances.
  uint64_t budget_rejected = 0;  ///< Tier D envelope-gate rejections —
                                 ///< like race_rejected, a subset of
                                 ///< `rejected`, so the ledger still
                                 ///< balances.
  uint64_t failed = 0;     ///< Admitted but failed during execution.
  uint64_t rows_returned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_bypasses = 0;
  // Execution-side counters, attributed per request through the operator
  // scope mechanism (OpStats), so concurrent tenants do not contaminate
  // each other the way the global Metrics totals do.
  uint64_t records_processed = 0;
  uint64_t tasks = 0;
};

/// Concurrent multi-tenant SPARQL front end over the reproduced engines.
///
/// One server owns one instance of each requested engine variant, all bound
/// to the caller's SparkContext (one simulated cluster shared by every
/// tenant, as a real Spark deployment would share its executors). Requests
/// enter per-tenant FIFO queues; a pool of driver threads dispatches them
/// round-robin across tenants, so one tenant's burst cannot starve the
/// others. Underneath, a worker holds one executor slot for the whole
/// request (SparkContext::DriverScope) and runs its query's partition
/// tasks itself. Pool helpers join only on slots no worker holds, so they
/// never add threads beyond the cluster's executor count, and they
/// interleave the in-flight queries' tasks round-robin (see
/// spark/scheduler.h).
///
/// Request path: parse → admission (Tier A query analysis, ERROR findings
/// reject before anything is planned) → plan-cache lookup keyed by
/// (variant, normalized query, dataset epoch) → Tier D budget gate (the
/// plan's static peak envelope against Options::memory_budget_bytes, when
/// set — an over-envelope query is rejected before a single operator runs)
/// → execute. Cacheable plans are verified once at insert (when verify_plans
/// is on), charged their envelope against the cache's byte budget, and
/// shared by concurrent executions; non-cacheable shapes and
/// single-use-plan engines (S2X) fall through to the engine's ordinary
/// Execute path (which the budget gate cannot cover — no plan to analyze).
///
/// AttachDataset freezes the dataset's dictionary (query paths are
/// read-only from then on; see rdf/dictionary.h), loads every engine, and
/// bumps the dataset epoch, which both re-keys and actively invalidates
/// the plan cache — a reload can never serve a stale plan.
///
/// Determinism: the binding tables a query produces are bit-identical
/// whether the server runs one worker or many (the scheduler's invariance
/// property extended to the serving layer); only queue latency and the
/// shared global Metrics depend on concurrency.
class QueryServer {
 public:
  /// Every gate defaults to off; callers turn them on explicitly.
  struct Options {
    /// Engine variant names to serve (see AllEngineVariantFactories());
    /// empty = all twelve.
    std::vector<std::string> variants;
    /// Driver threads executing requests. 1 = the serial reference server
    /// the bit-identity tests compare against.
    int worker_threads = 4;
    size_t plan_cache_capacity = 256;
    /// Byte budget for the plan cache: cached plans are charged their
    /// static peak envelope and evicted LRU when the sum exceeds this.
    /// 0 = entries-only eviction (the capacity backstop still applies).
    uint64_t plan_cache_byte_budget = 0;
    /// Tier D admission gate: reject a request before execution when its
    /// plan's static peak envelope (bounded) exceeds this many bytes;
    /// 0 = gate off. Unbounded envelopes are admitted — the static tier
    /// already flags them as RS003, and rejecting on "no information"
    /// would block every engine without scan annotations.
    /// Only planned executions are gated: the bypass path (non-cacheable
    /// shapes, single-use-plan engines) has no plan to analyze.
    uint64_t memory_budget_bytes = 0;
    /// Admission gate: run Tier A query analysis per request and reject on
    /// ERROR findings. The engines' own query gate stays off, so analysis
    /// runs once per request, not twice.
    bool verify_queries = false;
    /// Verify cacheable plans before first execution (and every uncached
    /// execution, via the engines' gate).
    bool verify_plans = false;
    /// Tier C gate: when on, the server owns one happens-before recorder
    /// window for its whole lifetime. Each request executes as a fresh
    /// logical root, so two requests are ordered only by the
    /// synchronization the code declares (locks, publication barriers) —
    /// exactly what race_findings() then verifies. The engines' own
    /// per-Execute race gate stays off, like their query gate.
    bool check_races = false;

    /// Live telemetry pipeline (windowed series, event log, slow-query
    /// audit; see obs/telemetry.h). On by default; every artifact is
    /// derived from the deterministic virtual timeline. Its cost: the sink
    /// keeps one 80-byte record per served request (about 125 bytes with
    /// the record vector's reserve; the windows are built from the records
    /// at export, and the event and audit logs are bounded), and Finish
    /// spends a median 11 us in TelemetrySink::Ingest, under the sink's
    /// mutex, before it completes the ticket (perfbench serve_hot,
    /// `obs.ingest_us`, on a shared 4-vCPU VM).
    bool telemetry = true;
    obs::TelemetryOptions telemetry_options;
  };

  /// Ticket for an in-flight request; Wait() blocks until it completes.
  class Ticket {
   public:
    const RequestResult& Wait();

   private:
    friend class QueryServer;
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    RequestResult result_;
  };

  QueryServer(spark::SparkContext* sc, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Loads `store` into every engine, freezes its dictionary, bumps the
  /// dataset epoch and invalidates the plan cache. Blocks until in-flight
  /// requests drain; `store` must outlive the server. May be called again
  /// to hot-swap the dataset.
  Status AttachDataset(const rdf::TripleStore& store);

  uint64_t dataset_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Opens a session for `tenant` (tenants are created on first use).
  /// Returns the session id for Submit.
  int OpenSession(const std::string& tenant);

  /// Enqueues a request on the session's tenant queue. The ticket resolves
  /// when a worker finishes the request.
  std::shared_ptr<Ticket> Submit(int session_id, const std::string& variant,
                                 std::string query_text);

  /// Submit + Wait.
  RequestResult Execute(int session_id, const std::string& variant,
                        std::string query_text);

  /// Names of the variants this server actually serves.
  std::vector<std::string> variant_names() const;

  /// Name plus supported SPARQL fragment of each served variant, so
  /// clients (serve_bench) can build workloads every variant can answer.
  struct VariantInfo {
    std::string name;
    systems::SparqlFragment fragment;
  };
  std::vector<VariantInfo> variants() const;

  TenantStats tenant_stats(const std::string& tenant) const;
  PlanCacheStats plan_cache_stats() const { return cache_.stats(); }

  /// The telemetry sink, or null when Options::telemetry is off. Exports
  /// (PrometheusText, WriteArtifacts, ...) are safe at any quiescent point.
  obs::TelemetrySink* telemetry() const { return telemetry_.get(); }

  /// Tier C findings over everything recorded since the server opened its
  /// window (empty when check_races is off). Non-destructive — the window
  /// stays open; call at a quiescent point (after tickets resolved) for a
  /// complete picture of the served workload.
  std::vector<systems::plan::Diagnostic> race_findings() const;

  /// Stops accepting work and joins the workers (pending requests fail
  /// with Unsupported("server shut down")). Idempotent; the destructor
  /// calls it.
  void Shutdown();

 private:
  struct Request {
    int session_id = 0;
    std::string tenant;
    std::string variant;
    std::string text;
    /// Per-tenant submission order (0-based); the telemetry sink applies
    /// records in this order, so every tenant's virtual timeline is
    /// independent of worker scheduling.
    uint64_t tenant_seq = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<Ticket> ticket;
  };

  struct TenantState {
    TenantStats stats;
    std::deque<Request> queue;
  };

  struct SessionInfo {
    std::string tenant;
  };

  void WorkerLoop();
  /// Runs the full request path on the calling worker thread, filling
  /// `rec` with the telemetry payload (deterministic costs, cache key,
  /// audit capture).
  RequestResult Process(const Request& request, obs::RequestRecord* rec);
  void Finish(const Request& request, RequestResult result,
              obs::RequestRecord rec = obs::RequestRecord());

  spark::SparkContext* sc_;
  Options options_;
  PlanCache cache_;

  /// Serving order of tenant queues (insertion order; stable round-robin).
  std::vector<std::string> tenant_order_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::vector<SessionInfo> sessions_;
  size_t rr_next_ = 0;       ///< Round-robin cursor into tenant_order_.
  int queued_ = 0;           ///< Requests waiting in any tenant queue.
  bool stopping_ = false;
  mutable std::mutex mu_;    ///< Guards all queue/session/stats state.
  std::condition_variable work_cv_;

  /// Workers hold this shared while executing; AttachDataset takes it
  /// exclusively so a reload never overlaps a running query.
  std::shared_mutex dataset_mu_;
  const rdf::TripleStore* store_ = nullptr;
  std::atomic<uint64_t> epoch_{0};

  std::map<std::string, std::unique_ptr<systems::BgpEngineBase>> engines_;
  std::vector<std::thread> workers_;

  /// Telemetry sink (null when Options::telemetry is off).
  std::unique_ptr<obs::TelemetrySink> telemetry_;

  /// Memoized EXPLAIN ANALYZE captures for the slow-query audit, keyed by
  /// (variant, query text). A slow query pattern tends to trip the audit on
  /// every repetition; the profile is a deterministic function of
  /// (variant, dataset epoch, query) — PR 4's bit-identity guarantee — so
  /// later trips reuse the first capture instead of re-executing. Cleared
  /// on dataset swap (the map is epoch-scoped, like the plan cache).
  struct AuditProfile {
    std::string profile;
    double max_est_error = 0.0;
    uint64_t observed_bytes = 0;  ///< Actual output bytes (Tier D drift).
    std::vector<obs::PatternActual> pattern_actuals;
  };
  std::map<std::string, AuditProfile> audit_profiles_;
  std::mutex audit_mu_;
  /// Race-gate high-water mark: the most ERROR-level Tier C findings any
  /// finished request has observed. A request that raises it is the one
  /// whose execution surfaced the new finding and gets rejected.
  std::atomic<uint64_t> race_error_high_water_{0};

  /// The server-owned Tier C window (null when check_races is off).
  /// Destroyed after the workers join, so no instrumented work outlives it.
  std::unique_ptr<spark::hb::ScopedRaceCheck> race_check_;
};

}  // namespace rdfspark::serving

#endif  // RDFSPARK_SERVING_QUERY_SERVER_H_
