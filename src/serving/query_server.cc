#include "serving/query_server.h"

#include <optional>
#include <utility>

#include "spark/hb.h"
#include "spark/tracing.h"
#include "sparql/parser.h"
#include "sparql/serialize.h"
#include "systems/plan/analyze.h"
#include "systems/plan/diagnostics.h"
#include "systems/plan/resource.h"

namespace rdfspark::serving {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

const RequestResult& QueryServer::Ticket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return result_;
}

QueryServer::QueryServer(spark::SparkContext* sc, Options options)
    : sc_(sc),
      options_(options),
      cache_(options.plan_cache_capacity, options.plan_cache_byte_budget) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.telemetry) {
    // The logical cache model must mirror the physical cache's capacity,
    // or the replayed hit/miss stream would diverge from reality.
    obs::TelemetryOptions topts = options_.telemetry_options;
    topts.logical_cache_capacity = options_.plan_cache_capacity;
    telemetry_ = std::make_unique<obs::TelemetrySink>(topts);
  }
  if (options_.check_races) {
    // The server owns one Tier C window spanning its lifetime. Opened
    // before any engine is constructed so dataset loading, cache fills and
    // every request all land in the same window.
    race_check_ = std::make_unique<spark::hb::ScopedRaceCheck>(true);
  }
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    if (!options_.variants.empty()) {
      bool wanted = false;
      for (const auto& name : options_.variants) {
        wanted |= name == factory.name;
      }
      if (!wanted) continue;
    }
    auto engine = factory.make(sc_);
    // The engines' own query and race gates stay off: the server runs the
    // admission analysis once per request and owns the recorder window.
    engine->set_debug_check_plans(options_.verify_plans);
    engines_.emplace(factory.name, std::move(engine));
  }
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  // Fail whatever was still queued, so no ticket waits forever.
  std::vector<Request> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, tenant] : tenants_) {
      while (!tenant->queue.empty()) {
        orphans.push_back(std::move(tenant->queue.front()));
        tenant->queue.pop_front();
      }
    }
    queued_ = 0;
  }
  for (auto& request : orphans) {
    RequestResult result;
    result.status = Status::Unsupported("server shut down");
    result.rejected = true;
    Finish(request, std::move(result));
  }
}

Status QueryServer::AttachDataset(const rdf::TripleStore& store) {
  // Exclusive: wait out in-flight requests, block new ones while loading.
  std::unique_lock<std::shared_mutex> dataset_lock(dataset_mu_);
  // Query paths must never mutate the dictionary once tenants can reach
  // it; a frozen dictionary turns any such bug into a debug assert instead
  // of a data race (see rdf/dictionary.h).
  store.dictionary().Freeze();
  for (auto& [name, engine] : engines_) {
    auto loaded = engine->Load(store);
    if (!loaded.ok()) {
      return Status::Internal(name + ": dataset load failed: " +
                              loaded.status().ToString());
    }
  }
  store_ = &store;
  uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  cache_.InvalidateExcept(epoch);
  {
    // Audit profiles captured actuals against the old dataset; the next
    // audit trip per slow pattern re-captures against the new epoch.
    std::lock_guard<std::mutex> lock(audit_mu_);
    audit_profiles_.clear();
  }
  if (telemetry_ != nullptr) {
    // In-flight requests drained above (exclusive dataset lock), so every
    // tenant clock is settled and the swap's virtual timestamp is
    // deterministic.
    telemetry_->RecordDatasetSwap(epoch, store.size());
  }
  return Status::OK();
}

int QueryServer::OpenSession(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.find(tenant) == tenants_.end()) {
    tenants_.emplace(tenant, std::make_unique<TenantState>());
    tenant_order_.push_back(tenant);
  }
  sessions_.push_back(SessionInfo{tenant});
  return static_cast<int>(sessions_.size()) - 1;
}

std::shared_ptr<QueryServer::Ticket> QueryServer::Submit(
    int session_id, const std::string& variant, std::string query_text) {
  auto ticket = std::make_shared<Ticket>();
  Request request;
  request.ticket = ticket;
  request.variant = variant;
  request.text = std::move(query_text);
  request.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (session_id < 0 ||
        static_cast<size_t>(session_id) >= sessions_.size()) {
      RequestResult result;
      result.status = Status::InvalidArgument(
          "unknown session id " + std::to_string(session_id));
      result.rejected = true;
      std::lock_guard<std::mutex> ticket_lock(ticket->mu_);
      ticket->result_ = std::move(result);
      ticket->done_ = true;
      ticket->cv_.notify_all();
      return ticket;
    }
    request.session_id = session_id;
    request.tenant = sessions_[static_cast<size_t>(session_id)].tenant;
    TenantState& tenant = *tenants_.at(request.tenant);
    // tenant_seq doubles as the telemetry ordering key: every submitted
    // request — including ones rejected right here — must reach the sink
    // exactly once, in this order.
    request.tenant_seq = tenant.stats.submitted;
    ++tenant.stats.submitted;
    if (!stopping_) {
      tenant.queue.push_back(std::move(request));
      ++queued_;
      request.ticket = nullptr;  // queue owns it now
    }
  }
  if (request.ticket != nullptr) {
    // Submitted during shutdown: reject through the ordinary Finish path,
    // so the ledger (submitted = completed + rejected + failed) balances
    // and the telemetry sink sees the sequence number we just consumed.
    RequestResult result;
    result.status = Status::Unsupported("server shut down");
    result.rejected = true;
    result.tenant = request.tenant;
    result.variant = request.variant;
    Finish(request, std::move(result));
    return ticket;
  }
  work_cv_.notify_one();
  return ticket;
}

RequestResult QueryServer::Execute(int session_id, const std::string& variant,
                                   std::string query_text) {
  return Submit(session_id, variant, std::move(query_text))->Wait();
}

std::vector<std::string> QueryServer::variant_names() const {
  std::vector<std::string> names;
  names.reserve(engines_.size());
  for (const auto& [name, engine] : engines_) names.push_back(name);
  return names;
}

std::vector<QueryServer::VariantInfo> QueryServer::variants() const {
  std::vector<VariantInfo> out;
  out.reserve(engines_.size());
  for (const auto& [name, engine] : engines_) {
    out.push_back(VariantInfo{name, engine->traits().fragment});
  }
  return out;
}

TenantStats QueryServer::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return TenantStats{};
  return it->second->stats;
}

std::vector<systems::plan::Diagnostic> QueryServer::race_findings() const {
  if (race_check_ == nullptr || !race_check_->owner()) return {};
  return spark::hb::Recorder::Get().Analyze();
}

void QueryServer::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || queued_ > 0; });
    if (stopping_) return;
    // Fair dispatch: scan tenants round-robin from the cursor, take the
    // head of the first non-empty queue, and advance the cursor past that
    // tenant so a bursty tenant cannot monopolize the workers.
    Request request;
    bool found = false;
    size_t n = tenant_order_.size();
    for (size_t i = 0; i < n; ++i) {
      size_t slot = (rr_next_ + i) % n;
      TenantState& tenant = *tenants_.at(tenant_order_[slot]);
      if (tenant.queue.empty()) continue;
      request = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      --queued_;
      rr_next_ = (slot + 1) % n;
      found = true;
      break;
    }
    if (!found) continue;  // Raced another worker; re-wait.
    lock.unlock();
    {
      // Shared with other workers; exclusive against AttachDataset.
      std::shared_lock<std::shared_mutex> dataset_lock(dataset_mu_);
      // Tier C: each request is its own logical root — two requests are
      // ordered only by declared synchronization (locks, publication
      // barriers), which is exactly what the checker verifies.
      spark::hb::RootScope request_root;
      // The request holds one executor slot from parse to ingest, so its
      // batches run on this thread's slot and pool helpers join only on
      // slots no request holds (see spark/scheduler.h).
      spark::SparkContext::DriverScope driver(sc_);
      obs::RequestRecord rec;
      RequestResult result = Process(request, &rec);
      // Finish (stats + telemetry ingest) stays under the dataset lock so
      // a hot swap can never observe a request executed but not yet
      // ingested — the swap's virtual timestamp sees settled clocks.
      Finish(request, std::move(result), std::move(rec));
    }
    lock.lock();
  }
}

RequestResult QueryServer::Process(const Request& request,
                                   obs::RequestRecord* rec) {
  RequestResult result;
  result.tenant = request.tenant;
  result.variant = request.variant;

  auto engine_it = engines_.find(request.variant);
  if (engine_it == engines_.end()) {
    result.status = Status::InvalidArgument("unknown engine variant: " +
                                            request.variant);
    result.rejected = true;
    return result;
  }
  systems::BgpEngineBase* engine = engine_it->second.get();
  if (store_ == nullptr) {
    result.status = Status::Internal("no dataset attached");
    result.rejected = true;
    return result;
  }

  auto parsed = sparql::ParseQuery(request.text);
  if (!parsed.ok()) {
    result.status = parsed.status();
    result.rejected = true;
    return result;
  }
  const sparql::Query& query = *parsed;

  // Admission: Tier A analysis once per request, before any planning.
  if (options_.verify_queries) {
    std::vector<systems::plan::Diagnostic> errors =
        systems::plan::ErrorsOnly(engine->AnalyzeParsedQuery(query));
    if (!errors.empty()) {
      result.status = Status::InvalidArgument(
          "admission rejected:\n" +
          systems::plan::FormatDiagnostics(errors));
      result.rejected = true;
      return result;
    }
  }

  // Per-request operator scope: every charge made while this thread (and
  // the pool tasks it spawns) executes the query is attributed to this
  // request, which is what makes the per-tenant execution counters clean
  // under concurrency.
  auto op = std::make_shared<spark::OpStats>();
  sparql::BindingTable table;
  /// Plan root the request executed (null on the bypass/Execute path) —
  /// its cardinality estimate is the only one observable without a
  /// re-execution, so it drives the audit's estimate-error trigger.
  std::shared_ptr<const systems::plan::PlanNode> executed_root;
  {
    spark::OpScopeGuard scope(op);
    uint64_t epoch = dataset_epoch();
    rec->epoch = epoch;
    // Obtain the plan: a cache hit, or PlanQuery -> envelope -> Put. Shapes
    // outside the cacheable fragment (group patterns, aggregates) and
    // single-use-plan engines (S2X) get no plan and bypass the cache.
    std::shared_ptr<const systems::plan::PlanNode> plan;
    std::optional<systems::plan::ResourceAnalysis> envelope;
    if (engine->ReusablePlans()) {
      std::string normalized = sparql::ToSparql(query);
      plan = cache_.Get(request.variant, normalized, epoch);
      rec->cache_key = request.variant + "\n" + normalized;
      result.cache_hit = plan != nullptr;
      if (plan == nullptr) {
        auto planned = engine->PlanQuery(query);
        if (planned.ok()) {
          plan = std::move(planned).value();
          // Insert before the gate: the plan itself is valid (another
          // tenant with a different budget could execute it), and its
          // envelope is exactly the byte charge the cache evicts by.
          envelope = engine->AnalyzePlanResources(query, *plan);
          cache_.Put(request.variant, normalized, epoch, plan,
                     envelope->bounded ? envelope->peak_bytes : 0);
        } else if (planned.status().code() != StatusCode::kUnsupported) {
          // Planning itself failed (including plan-verifier rejections).
          result.status = planned.status();
          return result;
        }
      }
    }
    // Execute it. A planned request first passes the Tier D budget gate:
    // pure static analysis, so rejection happens before a single operator
    // runs and is deterministic — the same plan against the same budget
    // always decides the same way, regardless of worker count or cache
    // state. The envelope also feeds the telemetry calibration pair, so a
    // cache hit analyzes it whenever the gate or telemetry is on.
    if (plan != nullptr) {
      if (!envelope &&
          (options_.memory_budget_bytes != 0 || telemetry_ != nullptr)) {
        envelope = engine->AnalyzePlanResources(query, *plan);
      }
      if (envelope) {
        result.envelope_bytes = envelope->bounded ? envelope->peak_bytes : 0;
        rec->envelope_bytes = result.envelope_bytes;
        if (options_.memory_budget_bytes != 0 && envelope->bounded &&
            envelope->peak_bytes > options_.memory_budget_bytes) {
          result.status = Status::InvalidArgument(
              "budget gate: static peak envelope of " +
              std::to_string(envelope->peak_bytes) +
              "B exceeds the memory budget of " +
              std::to_string(options_.memory_budget_bytes) + "B");
          result.rejected = true;
          result.budget_rejected = true;
          return result;
        }
      }
      executed_root = plan;
    } else {
      result.cache_bypass = true;
      cache_.RecordBypass();
    }
    auto executed = plan != nullptr ? engine->ExecutePlanned(query, *plan)
                                    : engine->Execute(query);
    if (!executed.ok()) {
      result.status = executed.status();
      return result;
    }
    table = std::move(executed).value();
  }

  result.table = std::move(table);
  result.status = Status::OK();

  // Tier C race gate: analyze the recorder window after execution. A
  // request that raises the ERROR-finding high-water mark is the one
  // whose execution surfaced a new race — its results are withheld and
  // the request counts as *rejected* (distinct from execution failure:
  // the query itself was fine; the server declined to vouch for the
  // answer). Analyze() copies recorder state under its own locks, so
  // concurrent requests may analyze while others record.
  if (options_.check_races && race_check_ != nullptr &&
      race_check_->owner()) {
    uint64_t errors = static_cast<uint64_t>(
        systems::plan::ErrorsOnly(spark::hb::Recorder::Get().Analyze())
            .size());
    uint64_t seen = race_error_high_water_.load(std::memory_order_relaxed);
    bool culprit = false;
    while (errors > seen) {
      if (race_error_high_water_.compare_exchange_weak(
              seen, errors, std::memory_order_relaxed)) {
        culprit = true;
        break;
      }
    }
    if (culprit) {
      result.status = Status::InvalidArgument(
          "race gate: execution raised the happens-before ERROR count to " +
          std::to_string(errors));
      result.rejected = true;
      result.race_rejected = true;
      result.table = sparql::BindingTable();
    }
  }

  // Accumulate the request's operator-scope counters into its tenant, and
  // hand the deterministic per-request costs to the telemetry record.
  rec->busy_ns = op->busy_ns.value();
  rec->rows = result.table.num_rows();
  rec->records = op->records_in.value();
  rec->tasks = op->tasks.value();
  rec->shuffle_bytes = op->shuffle_bytes.value();
  rec->join_comparisons = op->join_comparisons.value();
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantStats& stats = tenants_.at(request.tenant)->stats;
    stats.records_processed += op->records_in.value();
    stats.tasks += op->tasks.value();
  }

  // The request's wall-clock latency stops here: the audit capture below
  // is off-path bookkeeping, not service — counting it would make the
  // slowest (audited) requests report audit overhead as request latency.
  result.latency_ms = ElapsedMs(request.enqueued);

  // Slow-query audit: decide on the request's *simulated* latency (and the
  // root operator's estimate error — the only error observable without a
  // re-execution). The capture re-executes with actuals collection OUTSIDE
  // the request's operator scope, so the profiling run never contaminates
  // the tenant's ledger; its charges land on the shared global Metrics
  // like any other execution and stay deterministic (the trigger set is a
  // deterministic function of the virtual timeline). Captures are memoized
  // per (variant, query) within a dataset epoch — see audit_profiles_.
  if (telemetry_ != nullptr && result.status.ok()) {
    double root_err = 0.0;
    if (executed_root != nullptr &&
        executed_root->est_cardinality != systems::plan::kNoEstimate) {
      root_err = systems::plan::EstimateErrorFactor(
          executed_root->est_cardinality, rec->rows);
    }
    uint64_t sim_latency_ns =
        rec->busy_ns + telemetry_->options().request_overhead_ns;
    obs::AuditDecision decision =
        telemetry_->DecideAudit(request.tenant, sim_latency_ns, root_err);
    if (decision.Any()) {
      rec->audited = true;
      rec->audit_latency_trigger = decision.latency;
      rec->audit_error_trigger = decision.est_error;
      rec->query = request.text;
      const std::string profile_key = request.variant + '\n' + request.text;
      bool memoized = false;
      {
        std::lock_guard<std::mutex> lock(audit_mu_);
        auto it = audit_profiles_.find(profile_key);
        if (it != audit_profiles_.end()) {
          rec->audit_profile = it->second.profile;
          rec->max_est_error = it->second.max_est_error;
          rec->observed_bytes = it->second.observed_bytes;
          rec->pattern_actuals = it->second.pattern_actuals;
          memoized = true;
        }
      }
      if (!memoized) {
        auto analyzed = engine->ExecuteAnalyzed(query);
        if (analyzed.ok()) {
          const systems::plan::PlanNode& root = **analyzed;
          rec->audit_profile = systems::plan::ExplainAnalyze(root);
          rec->max_est_error = systems::plan::MaxEstimateErrorFactor(root);
          // Tier D calibration: the bytes this plan actually materialized,
          // drift-checked against rec->envelope_bytes by the sink.
          rec->observed_bytes =
              systems::plan::ObserveFootprint(root).output_bytes;
          for (const systems::plan::LeafActual& leaf :
               systems::plan::CollectLeafActuals(root)) {
            obs::PatternActual pattern;
            pattern.pattern = leaf.detail;
            pattern.predicate = leaf.predicate;
            pattern.est_rows = leaf.est_rows;
            pattern.actual_rows = leaf.actual_rows;
            rec->pattern_actuals.push_back(std::move(pattern));
          }
        } else {
          rec->audit_profile =
              "analyze failed: " + analyzed.status().ToString();
          rec->max_est_error = root_err;
        }
        // Two workers racing the same key both capture (the content is
        // deterministic, so either insert is correct); last writer wins.
        std::lock_guard<std::mutex> lock(audit_mu_);
        audit_profiles_[profile_key] =
            AuditProfile{rec->audit_profile, rec->max_est_error,
                         rec->observed_bytes, rec->pattern_actuals};
      }
    }
  }
  return result;
}

void QueryServer::Finish(const Request& request, RequestResult result,
                         obs::RequestRecord rec) {
  // latency_ms was stamped by Process before any audit capture; requests
  // that never reached that point (e.g. unknown variant) stamp here.
  if (result.latency_ms == 0.0) result.latency_ms = ElapsedMs(request.enqueued);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(request.tenant);
    if (it != tenants_.end()) {
      TenantStats& stats = it->second->stats;
      if (result.rejected) {
        ++stats.rejected;
        if (result.race_rejected) ++stats.race_rejected;
        if (result.budget_rejected) ++stats.budget_rejected;
      } else if (result.status.ok()) {
        ++stats.completed;
        stats.rows_returned += result.table.num_rows();
      } else {
        ++stats.failed;
      }
      if (result.cache_hit) ++stats.cache_hits;
      if (result.cache_bypass) ++stats.cache_bypasses;
    }
  }
  // Telemetry: outcome classification mirrors the ledger above exactly.
  // Wall-clock latency deliberately stays out of the record — the sink's
  // timeline is virtual (see obs/telemetry.h).
  if (telemetry_ != nullptr && !request.tenant.empty()) {
    rec.tenant = request.tenant;
    rec.tenant_seq = request.tenant_seq;
    rec.variant = request.variant;
    if (result.rejected) {
      if (result.race_rejected) {
        rec.outcome = obs::RequestRecord::Outcome::kRaceRejected;
      } else if (result.budget_rejected) {
        rec.outcome = obs::RequestRecord::Outcome::kBudgetRejected;
      } else {
        rec.outcome = obs::RequestRecord::Outcome::kRejected;
      }
    } else if (result.status.ok()) {
      rec.outcome = obs::RequestRecord::Outcome::kOk;
    } else {
      rec.outcome = obs::RequestRecord::Outcome::kFailed;
    }
    if (!result.status.ok()) rec.detail = result.status.ToString();
    rec.cache_bypass = result.cache_bypass;
    telemetry_->Ingest(std::move(rec));
  }
  // One span per served request on the driver lane, in the same stream as
  // the job/stage/task spans the execution itself recorded. Named by the
  // per-tenant sequence — the same span id the slow-query audit records —
  // so a span is addressable from the audit log regardless of worker
  // interleaving.
  if (sc_->tracer().enabled()) {
    sc_->tracer().Record(
        spark::SpanKind::kServe,
        "serve " + request.tenant + "#" + std::to_string(request.tenant_seq) +
            " " + request.variant,
        sc_->metrics().simulated_ms.nanos(), 0, /*lane=*/-1,
        result.table.num_rows());
  }
  std::shared_ptr<Ticket> ticket = request.ticket;
  {
    std::lock_guard<std::mutex> ticket_lock(ticket->mu_);
    ticket->result_ = std::move(result);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();
}

}  // namespace rdfspark::serving
