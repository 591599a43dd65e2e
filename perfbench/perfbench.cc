// perfbench — the repository benchmark.
//
// Drives the program only through public calls (QueryServer, engine
// Load/Execute/PlanQuery/ExecutePlanned, sparql::ParseQuery, PlanCache,
// TelemetrySink) on four LUBM workloads, checks every answer against the
// reference evaluator, and prints one JSON result line last:
//
//   perfbench --workload serve_hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics through the real path (server
// or direct engine calls). --trace 1 gives the per-layer metrics instead:
// it replays the workload's request schedule with the same client count on
// the benchmark's own engines, PlanCache and TelemetrySink, calling the
// stages in the order QueryServer::Process uses and recording one span per
// stage. perfbench/README.md lists the workloads and the layer-to-metric
// map; run.py builds this binary and is the intended entry point.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/telemetry.h"
#include "rdf/generator.h"
#include "rdf/rdfs.h"
#include "rdf/store.h"
#include "serving/plan_cache.h"
#include "serving/query_server.h"
#include "spark/context.h"
#include "spark/tracing.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "sparql/serialize.h"
#include "systems/engine.h"
#include "systems/plan/analyze.h"
#include "systems/plan/diagnostics.h"
#include "systems/plan/resource.h"

extern char** environ;

namespace {

using namespace rdfspark;
using Clock = std::chrono::steady_clock;

constexpr char kNaive[] = "Hybrid_SparkSQL_naive";
constexpr char kS2x[] = "S2X";
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Repetitions of the probe query for variants a workload never schedules.
constexpr int kProbeRepeats = 5;
/// Pool texts per serve_cold warm-up (and exact-repeat counter) set.
constexpr size_t kColdWarmTexts = 24;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64 step: the workload's only source of randomness.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t v) {
  uint64_t state = v;
  return NextRand(&state);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile of an ascending vector, p in [0, 1].
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves the calling thread to `cpu`.
void RunOn(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Pinned configuration: nothing inherited from the shell may change what is
// measured.

bool ConfigurationIsPinned() {
  bool pinned = true;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "RDFSPARK_", 9) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      pinned = false;
    }
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "perfbench: built without optimisation or NDEBUG\n");
  pinned = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: built with a sanitizer\n");
  pinned = false;
#endif
#if defined(RDFSPARK_MUTATE_NO_SLOT_LOCK) || \
    defined(RDFSPARK_MUTATE_CACHED_PLAIN)
  std::fprintf(stderr, "perfbench: built with a mutation option\n");
  pinned = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: build type is %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    pinned = false;
  }
  return pinned;
}

/// `executor_threads` is the physical pool size: 1 runs every task on the
/// calling thread. Simulated metrics do not depend on it.
spark::ClusterConfig Cluster(int executor_threads = 4) {
  spark::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = executor_threads;
  return cfg;
}

using EnginePtr = std::unique_ptr<systems::BgpEngineBase>;

/// Constructs the named variants on `sc`, in order, with every gate set
/// explicitly, and loads `store` into each; `load_ms`, when given, receives
/// each Load's wall time. The Tier A admission gate is on only where the
/// engine is the whole request path: the replay runs AnalyzeParsedQuery
/// itself, like the server. Returns false on an unknown name or a failed
/// load.
bool LoadEngines(spark::SparkContext* sc, const std::vector<std::string>& names,
                 bool check_queries, const rdf::TripleStore& store,
                 std::vector<EnginePtr>* engines,
                 std::vector<double>* load_ms = nullptr) {
  for (const std::string& name : names) {
    EnginePtr engine;
    for (const auto& factory : systems::AllEngineVariantFactories()) {
      if (factory.name == name) engine = factory.make(sc);
    }
    if (engine == nullptr) return false;
    engine->set_debug_check_queries(check_queries);
    engine->set_debug_check_plans(false);
    engine->set_debug_check_races(false);
    Clock::time_point start = Clock::now();
    if (!engine->Load(store).ok()) return false;
    if (load_ms != nullptr) load_ms->push_back(MsBetween(start, Clock::now()));
    engines->push_back(std::move(engine));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Answers: row count plus an order-independent hash of the rows.

struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer&) const = default;
};

Answer Fingerprint(const sparql::BindingTable& table) {
  std::vector<std::pair<std::string, size_t>> cols;
  for (size_t i = 0; i < table.vars().size(); ++i) {
    cols.emplace_back(table.vars()[i], i);
  }
  std::sort(cols.begin(), cols.end());
  uint64_t schema = 0;
  for (const auto& [name, index] : cols) {
    schema = Mix(schema ^ std::hash<std::string>{}(name));
  }
  const sparql::IdTable& rows = table.rows();
  uint64_t sum = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    uint64_t h = schema;
    for (const auto& [name, index] : cols) h = Mix(h ^ rows.cell(r, index));
    sum += Mix(h);  // addition: independent of row order
  }
  return Answer{rows.size(), sum ^ schema};
}

/// Reorders a BGP so each pattern after the first shares a variable with
/// the ones before it where possible. BGP semantics do not depend on order;
/// the reference evaluator extends pattern by pattern, so this keeps it out
/// of cross products it would otherwise build (LUBM Q2 and Q9).
void ConnectedOrder(std::vector<sparql::TriplePattern>* bgp) {
  std::vector<sparql::TriplePattern> ordered;
  std::vector<std::string> bound;
  std::vector<bool> used(bgp->size(), false);
  for (size_t step = 0; step < bgp->size(); ++step) {
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < bgp->size(); ++i) {
      if (used[i]) continue;
      bool connected = ordered.empty();
      for (const std::string& v : (*bgp)[i].Variables()) {
        connected |= std::find(bound.begin(), bound.end(), v) != bound.end();
      }
      int score = (connected ? 4 : 0) + (*bgp)[i].BoundCount();
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    used[static_cast<size_t>(best)] = true;
    ordered.push_back((*bgp)[static_cast<size_t>(best)]);
    for (const std::string& v : ordered.back().Variables()) bound.push_back(v);
  }
  *bgp = std::move(ordered);
}

bool ReferenceAnswer(const rdf::TripleStore& store, const std::string& text,
                     Answer* out) {
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) return false;
  sparql::Query query = *parsed;
  ConnectedOrder(&query.where.bgp);
  auto table = sparql::ReferenceEvaluator(&store).Evaluate(query);
  if (!table.ok()) return false;
  *out = Fingerprint(*table);
  return true;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Pair {
  size_t variant;  ///< Index into Workload::variants.
  size_t text;     ///< Index into Workload::texts.
};

struct Workload {
  std::string name;
  std::string dataset;  ///< Human-readable scale.
  int clients = 1;
  int executor_threads = 4;  ///< See Cluster.
  double tail_percentile = 0.99;  ///< See TailPercentile.
  int server_workers = 0;  ///< 0 = direct engine calls, no server.
  /// Check the deadline only between passes, so a run measures whole
  /// passes (for a single client whose requests differ widely in cost).
  bool whole_passes = false;
  std::vector<std::string> variants;
  std::vector<std::string> texts;
  std::vector<Answer> answers;  ///< Reference answer per text.
  std::vector<Pair> pairs;      ///< Requests the schedule draws from.
  /// Warm-up set, run once per set-up; also the exact-repeat counter set.
  std::vector<Pair> warm;
  std::string probe_text;  ///< For variants the schedule never uses.
  Answer probe_answer;
};

/// Per-client request stream, fixed by (seed, client): seed-shuffled passes
/// over the workload's pairs, so every run's request mix matches the
/// workload's mix whatever its length.
class Schedule {
 public:
  Schedule(const Workload& w, uint64_t seed, int client)
      : w_(w), rng_(seed * 0x100000001b3ull + static_cast<uint64_t>(client)) {
    for (size_t i = 0; i < w_.pairs.size(); ++i) order_.push_back(i);
  }

  /// True when the deadline may end the stream before the next request.
  bool AtBoundary() const { return !w_.whole_passes || cursor_ == 0; }

  const Pair& Next() {
    if (cursor_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[NextRand(&rng_) % i]);
      }
    }
    const Pair& p = w_.pairs[order_[cursor_]];
    cursor_ = (cursor_ + 1) % order_.size();
    return p;
  }

 private:
  const Workload& w_;
  uint64_t rng_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

rdf::TripleStore MakeLubm(int universities, bool materialize) {
  rdf::LubmConfig cfg;
  cfg.num_universities = universities;  // generator seed stays at 42
  rdf::TripleStore store;
  store.AddAll(rdf::GenerateLubm(cfg));
  if (materialize) store.AddAll(rdf::LubmSchema());
  store.Dedupe();
  if (materialize) rdf::MaterializeRdfs(&store);
  return store;
}

std::vector<std::string> VariantsExcept(
    const std::vector<std::string>& excluded) {
  std::vector<std::string> out;
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    if (std::find(excluded.begin(), excluded.end(), factory.name) ==
        excluded.end()) {
      out.push_back(factory.name);
    }
  }
  return out;
}

bool SupportsFilters(const std::string& variant) {
  spark::SparkContext sc(Cluster());
  for (const auto& factory : systems::AllEngineVariantFactories()) {
    if (factory.name == variant) {
      return factory.make(&sc)->traits().fragment ==
             systems::SparqlFragment::kBgpPlus;
    }
  }
  return false;
}

/// Subjects typed with any of `classes` (local names in the ub: namespace),
/// in dataset order.
std::vector<std::string> TypedSubjects(
    const rdf::TripleStore& store, const std::vector<std::string>& classes) {
  const rdf::Dictionary& dict = store.dictionary();
  auto type = dict.Lookup(rdf::Term::Uri(rdf::kRdfType));
  std::vector<rdf::TermId> wanted;
  for (const std::string& c : classes) {
    auto id = dict.Lookup(rdf::Term::Uri(rdf::kUbPrefix + c));
    if (id.ok()) wanted.push_back(*id);
  }
  std::vector<std::string> out;
  if (!type.ok()) return out;
  for (const rdf::EncodedTriple& t : store.triples()) {
    if (t.p != *type ||
        std::find(wanted.begin(), wanted.end(), t.o) == wanted.end()) {
      continue;
    }
    auto subject = dict.Decode(t.s);
    if (subject.ok()) out.push_back(subject->ToNTriples());
  }
  return out;
}

/// serve_cold's pool: shapes x sizes x constants from the dataset. Every
/// text is a plain BGP whose patterns join on variables (patterns that
/// share only a constant make several engines build cross products), so
/// each is cacheable and cheap on every scheduled variant.
std::vector<std::string> ColdPool(const rdf::TripleStore& store) {
  struct Template {
    std::vector<std::string> classes;   ///< Where the constant `$` comes from.
    std::vector<std::string> patterns;  ///< Size k uses the first k.
  };
  const std::vector<Template> templates = {
      {{"FullProfessor", "AssociateProfessor", "AssistantProfessor"},
       {"?s ub:advisor $", "?s ub:name ?n", "?s ub:age ?a",
        "?s ub:memberOf ?d", "?s ub:takesCourse ?c"}},
      {{"Course", "GraduateCourse"},
       {"?s ub:takesCourse $", "?s ub:name ?n", "?s ub:age ?a",
        "?s ub:memberOf ?d"}},
      {{"Course", "GraduateCourse"},
       {"?t ub:teacherOf $", "?t ub:name ?n", "?t ub:worksFor ?d",
        "?t ub:emailAddress ?e"}},
      {{"GraduateStudent"},
       {"$ ub:advisor ?p", "?p ub:worksFor ?d", "?d ub:subOrganizationOf ?u"}},
      {{"Publication"},
       {"$ ub:publicationAuthor ?p", "?p ub:worksFor ?d",
        "?d ub:subOrganizationOf ?u"}},
      {{"GraduateStudent", "UndergraduateStudent"},
       {"$ ub:takesCourse ?c", "?t ub:teacherOf ?c", "?t ub:worksFor ?d"}},
  };
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) + ">\n";
  std::vector<std::string> pool;
  for (const Template& t : templates) {
    for (const std::string& constant : TypedSubjects(store, t.classes)) {
      std::vector<std::string> vars;
      std::string body;
      for (const std::string& pattern : t.patterns) {
        size_t pos = 0;
        while ((pos = pattern.find('?', pos)) != std::string::npos) {
          std::string var = pattern.substr(pos, pattern.find(' ', pos) - pos);
          if (std::find(vars.begin(), vars.end(), var) == vars.end()) {
            vars.push_back(var);
          }
          ++pos;
        }
        std::string bound = pattern;
        size_t slot = bound.find('$');
        if (slot != std::string::npos) bound.replace(slot, 1, constant);
        body += "  " + bound + " .\n";
        std::string select = "SELECT";
        for (const std::string& v : vars) select += " " + v;
        pool.push_back(prologue + select + " WHERE {\n" + body + "}\n");
      }
    }
  }
  return pool;
}

bool BuildWorkload(const std::string& name, const rdf::TripleStore& store,
                   Workload* w) {
  w->name = name;
  auto all_pairs = [w] {
    for (size_t v = 0; v < w->variants.size(); ++v) {
      for (size_t t = 0; t < w->texts.size(); ++t) w->pairs.push_back({v, t});
    }
  };
  if (name == "serve_hot" || name == "serve_cold") {
    w->dataset = "LUBM-1";
    w->clients = 4;
    w->server_workers = 4;
    if (name == "serve_hot") {
      w->variants = VariantsExcept({kNaive});
      for (const auto& [shape, text] : rdf::LubmQueryMix()) {
        w->texts.push_back(text);
      }
      for (size_t v = 0; v < w->variants.size(); ++v) {
        bool full = SupportsFilters(w->variants[v]);
        for (size_t t = 0; t < w->texts.size(); ++t) {
          // The FILTER/DISTINCT shape is the last mix entry; BGP-only
          // engines answer it Unsupported, so it stays off their schedule.
          if (full || t + 1 < w->texts.size()) w->pairs.push_back({v, t});
        }
      }
      w->warm = w->pairs;
    } else {
      // S2X plans are single-use and always bypass the cache.
      w->variants = VariantsExcept({kNaive, kS2x});
      w->texts = ColdPool(store);
      all_pairs();
      for (size_t v = 0; v < w->variants.size(); ++v) {
        for (size_t t = 0; t < kColdWarmTexts; ++t) {
          w->warm.push_back({v, t * (w->texts.size() / kColdWarmTexts)});
        }
      }
    }
  } else if (name == "exec_scan_join") {
    w->dataset = "LUBM-2 + RDFS closure";
    w->clients = 1;
    // Every task runs on the client thread, which ClosedLoop rotates over
    // the cores; a pool's threads would stay wherever the kernel put them.
    w->executor_threads = 1;
    w->whole_passes = true;
    w->variants = VariantsExcept({kNaive});
    for (const auto& [qname, text] : rdf::LubmBenchmarkQueries()) {
      w->texts.push_back(text);
    }
    all_pairs();
    w->warm = w->pairs;
  } else if (name == "task_storm") {
    w->dataset = "LUBM-1";
    w->clients = 2;
    w->tail_percentile = 0.75;  // about 120 requests per 20 s run
    w->server_workers = 2;
    w->variants = {kNaive};
    // The width-5 star: the naive SparkSQL mode's cartesian fallback makes
    // it 145,168 near-empty partition tasks, so dispatch is the cost.
    w->texts = {rdf::LubmShapeQuery(rdf::QueryShape::kStar, 5)};
    all_pairs();
    w->warm = w->pairs;
  } else {
    return false;
  }
  for (const std::string& text : w->texts) {
    Answer a;
    if (!ReferenceAnswer(store, text, &a)) {
      std::fprintf(stderr, "perfbench: reference evaluation failed:\n%s",
                   text.c_str());
      return false;
    }
    w->answers.push_back(a);
  }
  w->probe_text = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 2);
  return ReferenceAnswer(store, w->probe_text, &w->probe_answer);
}

// ---------------------------------------------------------------------------
// Exact-repeat simulated counters.

struct Counters {
  uint64_t queries = 0;
  uint64_t tasks = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t join_comparisons = 0;
  uint64_t sim_ns = 0;
  bool operator==(const Counters&) const = default;

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "queries=%llu tasks=%llu shuffle_bytes=%llu "
                  "join_comparisons=%llu sim_ns=%llu",
                  static_cast<unsigned long long>(queries),
                  static_cast<unsigned long long>(tasks),
                  static_cast<unsigned long long>(shuffle_bytes),
                  static_cast<unsigned long long>(join_comparisons),
                  static_cast<unsigned long long>(sim_ns));
    return buf;
  }
};

/// Executes the warm set once, serially, on fresh engines and a fresh
/// cluster, and sums the simulated-metric deltas. `wrong` counts answers
/// that differ from the reference.
Counters CounterPass(const Workload& w, const rdf::TripleStore& store,
                     int* wrong) {
  spark::SparkContext sc(Cluster(w.executor_threads));
  std::vector<EnginePtr> engines;
  Counters c;
  if (!LoadEngines(&sc, w.variants, false, store, &engines)) {
    ++*wrong;
    return c;
  }
  for (const Pair& p : w.warm) {
    auto query = sparql::ParseQuery(w.texts[p.text]);
    spark::Metrics before = sc.metrics();
    auto table = engines[p.variant]->Execute(*query);
    spark::Metrics delta = sc.metrics() - before;
    if (!table.ok() || !(Fingerprint(*table) == w.answers[p.text])) ++*wrong;
    ++c.queries;
    c.tasks += delta.tasks.value();
    c.shuffle_bytes += delta.shuffle_bytes.value();
    c.join_comparisons += delta.join_comparisons.value();
    c.sim_ns += delta.simulated_ms.nanos();
  }
  return c;
}

/// Reads `workload queries tasks shuffle_bytes join_comparisons sim_ns`
/// lines ('#' starts a comment).
bool GoldenCounters(const std::string& path, const std::string& workload,
                    Counters* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char name[65] = {0};
    unsigned long long v[5] = {0, 0, 0, 0, 0};
    if (std::sscanf(line.c_str(), "%64s %llu %llu %llu %llu %llu", name, &v[0],
                    &v[1], &v[2], &v[3], &v[4]) == 6 &&
        workload == name) {
      *out = Counters{v[0], v[1], v[2], v[3], v[4]};
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The measured path: QueryServer, or direct engine calls.

struct Outcome {
  bool ok = false;
  Answer answer;
  double client_ms = 0.0;  ///< Client-observed wall time.
  double server_ms = 0.0;  ///< What the callee reports (or spends) itself.
};

class Target {
 public:
  virtual ~Target() = default;
  virtual Outcome Run(int client, const Pair& p) = 0;
};

class ServerTarget : public Target {
 public:
  ServerTarget(const Workload& w, const rdf::TripleStore& store, bool* ok)
      : w_(w), sc_(Cluster(w.executor_threads)) {
    serving::QueryServer::Options options;
    options.variants = w.variants;
    options.worker_threads = w.server_workers;
    options.plan_cache_capacity = 256;
    options.plan_cache_byte_budget = 0;
    options.memory_budget_bytes = 0;
    options.verify_queries = true;
    options.verify_plans = false;
    options.check_races = false;
    options.telemetry = true;
    server_ = std::make_unique<serving::QueryServer>(&sc_, options);
    *ok = server_->AttachDataset(store).ok();
    for (int c = 0; c <= w.clients; ++c) {
      sessions_.push_back(server_->OpenSession(
          c < w.clients ? "tenant" + std::to_string(c) : "warmup"));
    }
  }

  Outcome Run(int client, const Pair& p) override {
    Outcome out;
    Clock::time_point start = Clock::now();
    serving::RequestResult r =
        server_->Execute(sessions_[static_cast<size_t>(client)],
                         w_.variants[p.variant], w_.texts[p.text]);
    out.client_ms = MsBetween(start, Clock::now());
    out.server_ms = r.latency_ms;
    out.ok = r.status.ok();
    if (out.ok) out.answer = Fingerprint(r.table);
    return out;
  }

 private:
  const Workload& w_;
  spark::SparkContext sc_;
  std::unique_ptr<serving::QueryServer> server_;
  std::vector<int> sessions_;
};

class DirectTarget : public Target {
 public:
  DirectTarget(const Workload& w, const rdf::TripleStore& store, bool* ok)
      : w_(w), sc_(Cluster(w.executor_threads)) {
    store.dictionary().Freeze();
    *ok = LoadEngines(&sc_, w.variants, true, store, &engines_);
  }

  Outcome Run(int /*client*/, const Pair& p) override {
    Outcome out;
    Clock::time_point start = Clock::now();
    auto result = engines_[p.variant]->ExecuteText(w_.texts[p.text]);
    Clock::time_point returned = Clock::now();
    out.ok = result.ok();
    sparql::BindingTable table;
    if (out.ok) table = std::move(result).value();
    Clock::time_point received = Clock::now();
    out.server_ms = MsBetween(start, returned);
    out.client_ms = MsBetween(start, received);
    if (out.ok) out.answer = Fingerprint(table);
    return out;
  }

 private:
  const Workload& w_;
  spark::SparkContext sc_;
  std::vector<EnginePtr> engines_;
};

std::unique_ptr<Target> MakeTarget(const Workload& w,
                                   const rdf::TripleStore& store) {
  bool ok = false;
  std::unique_ptr<Target> target;
  if (w.server_workers > 0) {
    target = std::make_unique<ServerTarget>(w, store, &ok);
  } else {
    target = std::make_unique<DirectTarget>(w, store, &ok);
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: dataset load failed\n");
    return nullptr;
  }
  return target;
}

/// Set-up as users pay it: cluster and server (or engines) construction,
/// dataset attach/load, and one serial pass over the warm set.
std::unique_ptr<Target> SetUp(const Workload& w, const rdf::TripleStore& store,
                              int* wrong) {
  std::unique_ptr<Target> target = MakeTarget(w, store);
  if (target == nullptr) return nullptr;
  for (const Pair& p : w.warm) {
    Outcome o = target->Run(w.clients, p);
    if (!o.ok || !(o.answer == w.answers[p.text])) ++*wrong;
  }
  return target;
}

struct Sample {
  double client_ms;
  double server_ms;
  double done_s;  ///< Completion, in seconds since the loop started.
  size_t pass;    ///< The client's pass over the workload's pairs.
};

struct LoadResult {
  std::vector<Sample> samples;  ///< Successful, correct requests.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
};

/// Closed loop: each client sends its next request only after the previous
/// one completed, until `seconds` have passed.
///
/// A whole-pass client moves to the next allowed CPU at the start of every
/// pass. A single busy thread otherwise stays on the core it started on, and
/// the cores of a shared host differ in speed for minutes at a time, so
/// where the run landed would decide its figures; rotating, every run sees
/// every core alike and the median over passes steps over a slow one.
LoadResult ClosedLoop(const Workload& w, uint64_t seed, double seconds,
                      const std::function<Outcome(int, const Pair&)>& run) {
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<LoadResult> per_client(static_cast<size_t>(w.clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      LoadResult& mine = per_client[static_cast<size_t>(c)];
      Schedule schedule(w, seed, c);
      std::vector<int> cpus;
      if (w.whole_passes) cpus = AllowedCpus();
      while (!schedule.AtBoundary() || Clock::now() < deadline) {
        size_t pass = mine.attempted / w.pairs.size();
        if (!cpus.empty() && mine.attempted % w.pairs.size() == 0) {
          RunOn(cpus[pass % cpus.size()]);
        }
        const Pair& p = schedule.Next();
        Outcome o = run(c, p);
        ++mine.attempted;
        if (o.ok && o.answer == w.answers[p.text]) {
          mine.samples.push_back({o.client_ms, o.server_ms,
                                  MsBetween(start, Clock::now()) / 1000.0,
                                  pass});
        } else {
          ++mine.failed;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  LoadResult all;
  all.wall_s = MsBetween(start, Clock::now()) / 1000.0;
  for (const LoadResult& r : per_client) {
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
  }
  return all;
}

// ---------------------------------------------------------------------------
// Traced replay.

/// One span: a layer boundary crossed by one request.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;  ///< Since the replay's origin.
  int64_t end_ns = 0;
  uint32_t id = 0;      ///< 1-based within its client's log.
  uint32_t parent = 0;  ///< 0 = root.
  uint64_t request = 0;  ///< Shared by all spans of one request.
  int variant = -1;
  bool measured = false;  ///< False for warm-up requests.
};

/// Per-client, in-memory span log; written out when the run ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, bool enabled)
      : origin_(origin), enabled_(enabled) {}

  uint32_t Open(const char* name, uint32_t parent) {
    if (!enabled_) return 0;
    Span s;
    s.name = name;
    s.start_ns = Now();
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.request = request_;
    s.variant = variant_;
    s.measured = measured_;
    spans_.push_back(s);
    return s.id;
  }
  void Close(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = Now();
  }

  void BeginRequest(uint64_t request, int variant, bool measured) {
    request_ = request;
    variant_ = variant;
    measured_ = measured;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_;
  uint64_t request_ = 0;
  int variant_ = -1;
  bool measured_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent)
      : log_(log), id_(log->Open(name, parent)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

// Stage span names; each is also the prefix of its per-layer metric.
constexpr char kRequest[] = "request";
constexpr char kParse[] = "sparql.parse";
constexpr char kQa[] = "sparql.qa";
constexpr char kNormalize[] = "sparql.normalize";
constexpr char kCacheGet[] = "serving.cache_get";
constexpr char kPlan[] = "systems.plan";
constexpr char kEnvelope[] = "systems.envelope";
constexpr char kCachePut[] = "serving.cache_put";
constexpr char kExec[] = "systems.exec";
constexpr char kAudit[] = "obs.audit";
constexpr char kAuditCapture[] = "obs.audit_capture";
constexpr char kIngest[] = "obs.ingest";

/// The benchmark's own copy of the serving pipeline: all twelve engines,
/// one PlanCache and one TelemetrySink, configured like the server's.
class Replay {
 public:
  Replay(const Workload& w, const rdf::TripleStore& store, bool* ok)
      : w_(w),
        names_(VariantsExcept({})),
        sc_(Cluster(w.executor_threads)),
        cache_(256, 0) {
    store.dictionary().Freeze();
    *ok = LoadEngines(&sc_, names_, false, store, &engines_, &load_ms_);
    for (const std::string& variant : w.variants) {
      size_t i = std::find(names_.begin(), names_.end(), variant) -
                 names_.begin();
      by_index_.push_back(i < engines_.size() ? engines_[i].get() : nullptr);
    }
  }

  /// One request in QueryServer::Process order, then Finish's ingest.
  /// Returns false when the request fails or answers wrongly.
  bool Run(SpanLog* log, const std::string& tenant, uint64_t tenant_seq,
           const Pair& p, double* wall_ms, uint64_t* tasks) {
    systems::BgpEngineBase* engine = by_index_[p.variant];
    const std::string& variant = w_.variants[p.variant];
    const std::string& text = w_.texts[p.text];
    Clock::time_point start = Clock::now();
    bool ok = false;
    sparql::BindingTable table;
    obs::RequestRecord rec;
    rec.tenant = tenant;
    rec.tenant_seq = tenant_seq;
    rec.variant = variant;
    auto op = std::make_shared<spark::OpStats>();
    {
      ScopedSpan root(log, kRequest, 0);
      uint32_t r = root.id();
      std::shared_ptr<const systems::plan::PlanNode> executed_root;
      ok = Process(log, r, engine, variant, text, op, &table, &rec,
                   &executed_root);
      {
        ScopedSpan audit(log, kAudit, r);
        if (ok) Audit(log, audit.id(), engine, variant, text, executed_root,
                      &rec);
      }
      {
        ScopedSpan ingest(log, kIngest, r);
        rec.outcome = ok ? obs::RequestRecord::Outcome::kOk
                         : obs::RequestRecord::Outcome::kFailed;
        sink_.Ingest(std::move(rec));
      }
    }
    *wall_ms = MsBetween(start, Clock::now());
    *tasks = op->tasks.value();
    return ok && Fingerprint(table) == w_.answers[p.text];
  }

  /// Median exec wall of all-variants entry `i` on the probe query.
  double ProbeExecMs(size_t i, bool* ok) {
    systems::BgpEngineBase* engine = engines_[i].get();
    auto query = sparql::ParseQuery(w_.probe_text);
    std::vector<double> ms;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Clock::time_point start = Clock::now();
      auto table = engine->Execute(*query);
      ms.push_back(MsBetween(start, Clock::now()));
      *ok &= table.ok() && Fingerprint(*table) == w_.probe_answer;
    }
    return Median(ms);
  }

  /// All twelve variant names; load_ms() is parallel to it.
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<double>& load_ms() const { return load_ms_; }
  serving::PlanCacheStats cache_stats() const { return cache_.stats(); }
  size_t audit_captures() const { return audit_captures_.load(); }

 private:
  bool Process(SpanLog* log, uint32_t root, systems::BgpEngineBase* engine,
               const std::string& variant, const std::string& text,
               const std::shared_ptr<spark::OpStats>& op,
               sparql::BindingTable* table, obs::RequestRecord* rec,
               std::shared_ptr<const systems::plan::PlanNode>* executed_root) {
    Result<sparql::Query> parsed = Status::Internal("unparsed");
    {
      ScopedSpan s(log, kParse, root);
      parsed = sparql::ParseQuery(text);
    }
    if (!parsed.ok()) return false;
    const sparql::Query& query = *parsed;
    {
      ScopedSpan s(log, kQa, root);
      if (!systems::plan::ErrorsOnly(engine->AnalyzeParsedQuery(query))
               .empty()) {
        return false;
      }
    }
    spark::OpScopeGuard scope(op);
    rec->epoch = kEpoch;
    Result<sparql::BindingTable> executed = Status::Internal("unexecuted");
    std::shared_ptr<const systems::plan::PlanNode> plan;
    bool cacheable = engine->ReusablePlans();
    std::string normalized;
    if (cacheable) {
      {
        ScopedSpan s(log, kNormalize, root);
        normalized = sparql::ToSparql(query);
      }
      ScopedSpan s(log, kCacheGet, root);
      plan = cache_.Get(variant, normalized, kEpoch);
      rec->cache_key = variant + "\n" + normalized;
    }
    if (plan != nullptr) {
      {
        ScopedSpan s(log, kEnvelope, root);
        Envelope(engine->AnalyzePlanResources(query, *plan), rec);
      }
      ScopedSpan s(log, kExec, root);
      executed = engine->ExecutePlanned(query, *plan);
      *executed_root = plan;
    } else if (cacheable) {
      Result<systems::plan::PlanPtr> planned = Status::Internal("unplanned");
      {
        ScopedSpan s(log, kPlan, root);
        planned = engine->PlanQuery(query);
      }
      if (planned.ok()) {
        std::shared_ptr<const systems::plan::PlanNode> fresh(
            std::move(planned).value());
        systems::plan::ResourceAnalysis envelope;
        {
          ScopedSpan s(log, kEnvelope, root);
          envelope = engine->AnalyzePlanResources(query, *fresh);
        }
        {
          ScopedSpan s(log, kCachePut, root);
          cache_.Put(variant, normalized, kEpoch, fresh,
                     envelope.bounded ? envelope.peak_bytes : 0);
        }
        Envelope(envelope, rec);
        ScopedSpan s(log, kExec, root);
        executed = engine->ExecutePlanned(query, *fresh);
        *executed_root = fresh;
      } else if (planned.status().code() == StatusCode::kUnsupported) {
        rec->cache_bypass = true;
        cache_.RecordBypass();
        ScopedSpan s(log, kExec, root);
        executed = engine->Execute(query);
      } else {
        return false;
      }
    } else {
      rec->cache_bypass = true;
      cache_.RecordBypass();
      ScopedSpan s(log, kExec, root);
      executed = engine->Execute(query);
    }
    if (!executed.ok()) return false;
    *table = std::move(executed).value();
    rec->busy_ns = op->busy_ns.value();
    rec->rows = table->num_rows();
    rec->records = op->records_in.value();
    rec->tasks = op->tasks.value();
    rec->shuffle_bytes = op->shuffle_bytes.value();
    rec->join_comparisons = op->join_comparisons.value();
    return true;
  }

  static void Envelope(const systems::plan::ResourceAnalysis& analysis,
                       obs::RequestRecord* rec) {
    rec->envelope_bytes = analysis.bounded ? analysis.peak_bytes : 0;
  }

  /// The server's slow-query audit: decide on simulated latency and root
  /// estimate error; capture once per (variant, text), then reuse.
  void Audit(SpanLog* log, uint32_t parent, systems::BgpEngineBase* engine,
             const std::string& variant, const std::string& text,
             const std::shared_ptr<const systems::plan::PlanNode>& root,
             obs::RequestRecord* rec) {
    double root_err = 0.0;
    if (root != nullptr &&
        root->est_cardinality != systems::plan::kNoEstimate) {
      double est = static_cast<double>(root->est_cardinality);
      double act = static_cast<double>(rec->rows);
      if (est == 0.0 && act == 0.0) {
        root_err = 1.0;
      } else if (est == 0.0 || act == 0.0) {
        root_err = est + act;
      } else {
        root_err = act > est ? act / est : est / act;
      }
    }
    uint64_t sim_latency_ns =
        rec->busy_ns + sink_.options().request_overhead_ns;
    obs::AuditDecision decision =
        sink_.DecideAudit(rec->tenant, sim_latency_ns, root_err);
    if (!decision.Any()) return;
    rec->audited = true;
    rec->audit_latency_trigger = decision.latency;
    rec->audit_error_trigger = decision.est_error;
    rec->query = text;
    const std::string key = variant + '\n' + text;
    {
      std::lock_guard<std::mutex> lock(audit_mu_);
      auto it = audit_profiles_.find(key);
      if (it != audit_profiles_.end()) {
        rec->audit_profile = it->second;
        return;
      }
    }
    ScopedSpan capture(log, kAuditCapture, parent);
    auto parsed = sparql::ParseQuery(text);
    auto analyzed = engine->ExecuteAnalyzed(*parsed);
    if (analyzed.ok()) {
      const systems::plan::PlanNode& plan_root = **analyzed;
      rec->audit_profile = systems::plan::ExplainAnalyze(plan_root);
      rec->max_est_error = systems::plan::MaxEstimateErrorFactor(plan_root);
      rec->observed_bytes =
          systems::plan::ObserveFootprint(plan_root).output_bytes;
      for (const systems::plan::LeafActual& leaf :
           systems::plan::CollectLeafActuals(plan_root)) {
        rec->pattern_actuals.push_back(
            {leaf.detail, leaf.predicate, leaf.est_rows, leaf.actual_rows});
      }
    }
    ++audit_captures_;
    std::lock_guard<std::mutex> lock(audit_mu_);
    audit_profiles_[key] = rec->audit_profile;
  }

  static constexpr uint64_t kEpoch = 1;
  const Workload& w_;
  const std::vector<std::string> names_;
  spark::SparkContext sc_;
  serving::PlanCache cache_;
  obs::TelemetrySink sink_;
  std::vector<EnginePtr> engines_;  ///< Parallel to names_.
  std::vector<double> load_ms_;
  /// Engine per Workload::variants index.
  std::vector<systems::BgpEngineBase*> by_index_;
  std::mutex audit_mu_;
  std::map<std::string, std::string> audit_profiles_;
  std::atomic<size_t> audit_captures_{0};
};

struct ReplayPhase {
  std::vector<SpanLog> logs;  ///< One per client.
  /// Request wall per client, in schedule order.
  std::vector<std::vector<double>> wall_ms;
  uint64_t tasks = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  serving::PlanCacheStats cache_before;
  serving::PlanCacheStats cache_after;
};

/// Replays the schedule for `seconds` with the workload's client count.
void RunReplayPhase(Replay* replay, const Workload& w, uint64_t seed,
                    double seconds, bool spans, Clock::time_point origin,
                    std::vector<uint64_t>* tenant_seq, ReplayPhase* phase) {
  for (int c = 0; c < w.clients; ++c) phase->logs.emplace_back(origin, spans);
  struct Tally {
    uint64_t tasks = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::vector<Tally> per_client(static_cast<size_t>(w.clients));
  phase->wall_ms.resize(static_cast<size_t>(w.clients));
  phase->cache_before = replay->cache_stats();
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      size_t ci = static_cast<size_t>(c);
      Tally& mine = per_client[ci];
      SpanLog* log = &phase->logs[ci];
      Schedule schedule(w, seed, c);
      const std::string tenant = "tenant" + std::to_string(c);
      while (!schedule.AtBoundary() || Clock::now() < deadline) {
        const Pair& p = schedule.Next();
        uint64_t seq = (*tenant_seq)[ci]++;
        log->BeginRequest((static_cast<uint64_t>(c) << 40) | seq,
                          static_cast<int>(p.variant), true);
        double wall = 0.0;
        uint64_t tasks = 0;
        ++mine.attempted;
        if (!replay->Run(log, tenant, seq, p, &wall, &tasks)) ++mine.failed;
        phase->wall_ms[ci].push_back(wall);
        mine.tasks += tasks;
      }
    });
  }
  for (auto& t : clients) t.join();
  phase->cache_after = replay->cache_stats();
  for (const Tally& r : per_client) {
    phase->tasks += r.tasks;
    phase->attempted += r.attempted;
    phase->failed += r.failed;
  }
}

std::string ChromeTrace(const std::vector<const SpanLog*>& logs) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%zu,\"args\":{\"request\":%llu,"
          "\"span\":%u,\"parent\":%u,\"variant\":%d}}",
          first ? "" : ",", s.name, s.measured ? "measured" : "warmup",
          static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, tid,
          static_cast<unsigned long long>(s.request), s.id, s.parent,
          s.variant);
      out += buf;
      first = false;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    line += (i > 0 ? ", \"" : "\"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// The workload's tail percentile, chosen so that a run of the benchmark's
/// length has at least ten samples beyond it; fixed per workload so that
/// two commits compare the same percentile. Steps down a ladder only when a
/// run falls short of ten.
double TailPercentile(double wanted, size_t samples) {
  for (double p : {0.99, 0.95, 0.9, 0.75}) {
    if (p <= wanted && static_cast<double>(samples) * (1.0 - p) >= 10.0) {
      return p;
    }
  }
  return 0.5;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string golden;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--golden") {
      args->golden = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Throughput and median latency as medians over parts of the run, so a
/// stall in one part does not move the figures. A whole-pass workload's
/// parts are its passes, which all carry the same request mix; any other
/// workload's are equal sub-windows (each with at least 500 requests, at
/// most ten).
void WindowedRates(const Workload& w, const LoadResult& load, double* qps,
                   double* p50_ms) {
  std::vector<std::vector<double>> windows;
  std::vector<double> widths;
  if (w.whole_passes) {
    // One client, so the samples are in completion order.
    std::vector<double> ends;
    for (const Sample& s : load.samples) {
      if (s.pass >= windows.size()) {
        windows.resize(s.pass + 1);
        ends.resize(s.pass + 1, 0.0);
      }
      windows[s.pass].push_back(s.client_ms);
      ends[s.pass] = std::max(ends[s.pass], s.done_s);
    }
    for (size_t i = 0; i < ends.size(); ++i) {
      widths.push_back(ends[i] - (i > 0 ? ends[i - 1] : 0.0));
    }
  } else {
    size_t k = std::clamp<size_t>(load.samples.size() / 500, 1, 10);
    double width = load.wall_s / static_cast<double>(k);
    windows.resize(k);
    widths.assign(k, width);
    for (const Sample& s : load.samples) {
      size_t i = std::min(k - 1, static_cast<size_t>(s.done_s / width));
      windows[i].push_back(s.client_ms);
    }
  }
  std::vector<double> rates;
  std::vector<double> medians;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (widths[i] <= 0.0) continue;
    rates.push_back(static_cast<double>(windows[i].size()) / widths[i]);
    medians.push_back(Median(windows[i]));
  }
  *qps = Median(rates);
  *p50_ms = Median(medians);
}

int RunUntraced(const Workload& w, const rdf::TripleStore& store,
                const Args& args, bool counters_ok) {
  int wrong = 0;
  std::vector<double> setup_s;
  std::unique_ptr<Target> target;
  for (int r = 0; r < kSetupRepeats; ++r) {
    target.reset();  // one live set-up at a time
    Clock::time_point start = Clock::now();
    target = SetUp(w, store, &wrong);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    if (target == nullptr) return 2;
  }
  Target* t = target.get();
  LoadResult load =
      ClosedLoop(w, args.seed, args.seconds,
                 [t](int c, const Pair& p) { return t->Run(c, p); });
  target.reset();

  std::vector<double> client;
  std::vector<double> server;
  std::vector<double> post;
  for (const Sample& s : load.samples) {
    client.push_back(s.client_ms);
    server.push_back(s.server_ms);
    post.push_back(s.client_ms - s.server_ms);
  }
  std::sort(client.begin(), client.end());
  double tail_p = TailPercentile(w.tail_percentile, client.size());
  size_t beyond = static_cast<size_t>(static_cast<double>(client.size()) *
                                      (1.0 - tail_p));
  double qps = 0.0;
  double p50_ms = 0.0;
  WindowedRates(w, load, &qps, &p50_ms);
  double success =
      load.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(load.failed) /
                      static_cast<double>(load.attempted);
  std::printf("setup_s:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" (median %.4f)\n", Median(setup_s));
  std::printf("measured: %llu requests in %.2f s, %llu failed\n",
              static_cast<unsigned long long>(load.attempted), load.wall_s,
              static_cast<unsigned long long>(load.failed));
  std::printf("latency_tail_ms: p%g, %zu of %zu samples beyond it\n",
              tail_p * 100.0, beyond, client.size());
  std::printf("server-reported latency p50 %.4f ms; client minus server "
              "p50 %.4f ms\n",
              Median(server), Median(post));
  bool correct = wrong == 0 && load.failed == 0 && counters_ok;
  PrintResult(correct, load.attempted, load.failed,
              {{"qps", qps, "1/s"},
               {"latency_p50_ms", p50_ms, "ms"},
               {"latency_tail_ms", Percentile(client, tail_p), "ms"},
               {"success_frac", success, "share"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return correct ? 0 : 1;
}

int RunTraced(const Workload& w, const rdf::TripleStore& store,
              const Args& args, const Counters& counters, bool counters_ok) {
  int wrong = 0;
  // Phase A: the real path, untraced, for the server-reported latency and
  // the client-side remainder the server's figure leaves out.
  LoadResult real;
  {
    std::unique_ptr<Target> target = SetUp(w, store, &wrong);
    if (target == nullptr) return 2;
    Target* t = target.get();
    real = ClosedLoop(w, args.seed, args.seconds * 0.3,
                      [t](int c, const Pair& p) { return t->Run(c, p); });
  }
  std::vector<double> server;
  std::vector<double> post;
  for (const Sample& s : real.samples) {
    server.push_back(s.server_ms);
    post.push_back(s.client_ms - s.server_ms);
  }

  // Replay: load all twelve engines, warm up with spans, then the schedule
  // with spans off and again with spans on.
  bool ok = false;
  Replay replay(w, store, &ok);
  if (!ok) return 2;
  Clock::time_point origin = Clock::now();
  std::vector<uint64_t> tenant_seq(static_cast<size_t>(w.clients), 0);
  SpanLog warm_log(origin, true);
  uint64_t warm_seq = 0;
  for (const Pair& p : w.warm) {
    warm_log.BeginRequest((uint64_t{1} << 63) | warm_seq,
                          static_cast<int>(p.variant), false);
    double wall = 0.0;
    uint64_t tasks = 0;
    if (!replay.Run(&warm_log, "warmup", warm_seq++, p, &wall, &tasks)) {
      ++wrong;
    }
  }
  ReplayPhase off;
  RunReplayPhase(&replay, w, args.seed, args.seconds * 0.25, false, origin,
                 &tenant_seq, &off);
  ReplayPhase on;
  RunReplayPhase(&replay, w, args.seed, args.seconds * 0.45, true, origin,
                 &tenant_seq, &on);

  // Stage durations: per-call over warm-up and measured spans; shares over
  // the measured requests' root wall.
  std::vector<const SpanLog*> logs = {&warm_log};
  for (const SpanLog& l : on.logs) logs.push_back(&l);
  std::map<std::string, std::vector<double>> per_call_ns;
  std::map<std::string, double> measured_ns;
  std::map<std::string, std::vector<double>> exec_by_variant_ns;
  std::vector<double> capture_ns;
  double root_ns = 0.0;
  double child_ns = 0.0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      double d = static_cast<double>(s.end_ns - s.start_ns);
      std::string name = s.name;
      if (name == kAuditCapture) {
        capture_ns.push_back(d);
        continue;
      }
      per_call_ns[name].push_back(d);
      if (name == kExec) {
        exec_by_variant_ns[w.variants[static_cast<size_t>(s.variant)]]
            .push_back(d);
      }
      if (!s.measured) continue;
      measured_ns[name] += d;
      if (s.parent == 0) {
        root_ns += d;
      } else {
        child_ns += d;
      }
    }
  }

  std::vector<Metric> m;
  auto stage = [&](const char* span, const char* metric, const char* unit,
                   double scale) {
    m.push_back({std::string(span) + "_" + metric,
                 Median(per_call_ns[span]) / scale, unit});
    m.push_back({std::string(span) + "_share",
                 root_ns > 0 ? measured_ns[span] / root_ns : 0.0, "share"});
  };
  stage(kParse, "us", "us", 1e3);
  stage(kQa, "us", "us", 1e3);
  stage(kNormalize, "us", "us", 1e3);
  stage(kCacheGet, "us", "us", 1e3);
  stage(kEnvelope, "us", "us", 1e3);
  stage(kPlan, "us", "us", 1e3);
  stage(kCachePut, "us", "us", 1e3);
  stage(kExec, "ms", "ms", 1e6);
  stage(kIngest, "us", "us", 1e3);
  m.push_back({"obs.audit_ms", Median(capture_ns) / 1e6, "ms"});
  m.push_back({"obs.audit_share",
               root_ns > 0 ? measured_ns[kAudit] / root_ns : 0.0, "share"});
  m.push_back({"obs.audit_captures",
               static_cast<double>(replay.audit_captures()), "count"});

  const serving::PlanCacheStats& b = on.cache_before;
  const serving::PlanCacheStats& a = on.cache_after;
  double lookups = static_cast<double>((a.hits + a.misses) -
                                       (b.hits + b.misses));
  m.push_back({"serving.cache_hit_rate",
               lookups > 0 ? static_cast<double>(a.hits - b.hits) / lookups
                           : 0.0,
               "share"});
  m.push_back({"serving.cache_lookups", lookups, "count"});
  m.push_back({"serving.bypass_frac",
               on.attempted > 0 ? static_cast<double>(a.bypasses - b.bypasses) /
                                      static_cast<double>(on.attempted)
                                : 0.0,
               "share"});
  m.push_back({"serving.cache_evictions",
               static_cast<double>(a.evictions - b.evictions), "count"});
  m.push_back({"serving.server_latency_ms", Median(server), "ms"});
  m.push_back({"serving.post_latency_ms", Median(post), "ms"});

  double q = static_cast<double>(counters.queries);
  m.push_back({"spark.tasks_per_query",
               static_cast<double>(counters.tasks) / q, "count"});
  m.push_back({"spark.shuffle_bytes_per_query",
               static_cast<double>(counters.shuffle_bytes) / q, "bytes"});
  m.push_back({"spark.join_comparisons_per_query",
               static_cast<double>(counters.join_comparisons) / q, "count"});
  m.push_back({"spark.sim_ms_per_query",
               static_cast<double>(counters.sim_ns) / 1e6 / q, "sim_ms"});
  m.push_back({"spark.exec_us_per_task",
               on.tasks > 0 ? measured_ns[kExec] / 1e3 /
                                  static_cast<double>(on.tasks)
                            : 0.0,
               "us"});

  bool probes_ok = true;
  const std::vector<std::string>& names = replay.names();
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = exec_by_variant_ns.find(names[i]);
    double ms = it != exec_by_variant_ns.end()
                    ? Median(it->second) / 1e6
                    : replay.ProbeExecMs(i, &probes_ok);
    m.push_back({"systems.exec_ms." + names[i], ms, "ms"});
  }
  for (size_t i = 0; i < names.size(); ++i) {
    m.push_back({"systems.load_ms." + names[i], replay.load_ms()[i], "ms"});
  }

  // Both phases replay the same per-client request sequence from its start,
  // so the common prefix compares like with like.
  double wall_off = 0.0;
  double wall_on = 0.0;
  for (size_t c = 0; c < off.wall_ms.size(); ++c) {
    size_t n = std::min(off.wall_ms[c].size(), on.wall_ms[c].size());
    for (size_t i = 0; i < n; ++i) {
      wall_off += off.wall_ms[c][i];
      wall_on += on.wall_ms[c][i];
    }
  }
  m.push_back({"trace.overhead_frac",
               wall_off > 0 ? wall_on / wall_off - 1.0 : 0.0, "share"});
  m.push_back({"trace.unaccounted_frac",
               root_ns > 0 ? (root_ns - child_ns) / root_ns : 0.0, "share"});

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << ChromeTrace(logs);
    std::printf("trace: %s\n", args.trace_out.c_str());
  }
  std::printf("replay: %llu requests spans off, %llu spans on; server "
              "phase %llu requests\n",
              static_cast<unsigned long long>(off.attempted),
              static_cast<unsigned long long>(on.attempted),
              static_cast<unsigned long long>(real.attempted));
  uint64_t attempted = real.attempted + off.attempted + on.attempted;
  uint64_t failed = real.failed + off.failed + on.failed;
  bool correct = wrong == 0 && failed == 0 && counters_ok && probes_ok;
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_hot|serve_cold|"
                 "exec_scan_join|task_storm> --seed <n> --seconds <s> "
                 "--trace <0|1> [--golden <file>] [--trace-out <file>]\n");
    return 2;
  }
  if (!ConfigurationIsPinned()) return 2;

  bool exec_workload = args.workload == "exec_scan_join";
  rdf::TripleStore store = MakeLubm(exec_workload ? 2 : 1, exec_workload);
  store.dictionary().Freeze();
  Workload w;
  if (!BuildWorkload(args.workload, store, &w)) {
    std::fprintf(stderr, "perfbench: cannot build workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("dataset: %s, %zu triples; %zu variants, %zu distinct texts, "
              "%zu schedule pairs; %d client(s), closed loop, %s\n",
              w.dataset.c_str(), store.size(), w.variants.size(),
              w.texts.size(), w.pairs.size(), w.clients,
              w.server_workers > 0 ? "QueryServer" : "direct Execute");

  int wrong = 0;
  Counters counters = CounterPass(w, store, &wrong);
  Counters golden;
  bool have_golden = GoldenCounters(args.golden, w.name, &golden);
  bool counters_ok = wrong == 0 && have_golden && counters == golden;
  std::printf("counters: %s\n", counters.ToString().c_str());
  if (!counters_ok) {
    std::printf("counters: DRIFT (expected %s; %d wrong answers)\n",
                have_golden ? golden.ToString().c_str() : "no golden entry",
                wrong);
  }
  return args.trace ? RunTraced(w, store, args, counters, counters_ok)
                    : RunUntraced(w, store, args, counters_ok);
}
