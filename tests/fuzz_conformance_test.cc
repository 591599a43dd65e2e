// Property-based conformance: random basic graph patterns over a generated
// dataset, every engine checked against the reference evaluator. This is
// the suite that catches the join-order, co-partitioning, replication and
// index-selection corner cases the hand-written queries miss.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "rdf/generator.h"
#include "rdf/store.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "sparql/serialize.h"
#include "systems/engine.h"

namespace rdfspark::systems {
namespace {

using sparql::PatternTerm;
using sparql::Query;
using sparql::TriplePattern;

const rdf::TripleStore& Dataset() {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    rdf::LubmConfig cfg;
    cfg.num_universities = 1;
    cfg.departments_per_university = 2;
    cfg.professors_per_department = 3;
    cfg.students_per_department = 10;
    cfg.courses_per_department = 4;
    s->AddAll(rdf::GenerateLubm(cfg));
    s->Dedupe();
    return s;
  }();
  return *store;
}

/// Draws a random BGP: 1-4 patterns; subjects/objects are variables from a
/// small pool or constants sampled from the data; predicates are usually
/// bound (drawn from the data) and occasionally variables. Later patterns
/// reuse earlier variables with high probability so joins actually happen.
Query RandomBgpQuery(Rng* rng, const rdf::TripleStore& store) {
  const auto& triples = store.triples();
  const rdf::Dictionary& dict = store.dictionary();
  static const char* kVarPool[] = {"a", "b", "c", "d"};

  Query query;
  std::vector<std::string> used_vars;
  int num_patterns = 1 + static_cast<int>(rng->Below(4));
  for (int i = 0; i < num_patterns; ++i) {
    // Sample a concrete triple to anchor the pattern so it usually has
    // results; constants come from that triple.
    const rdf::EncodedTriple& seed =
        triples[rng->Below(triples.size())];
    auto const_term = [&](rdf::TermId id) {
      return PatternTerm::Const(*dict.Decode(id));
    };
    auto pick_var = [&]() -> PatternTerm {
      // Reuse an existing variable 70% of the time once some exist.
      if (!used_vars.empty() && rng->Bernoulli(0.7)) {
        return PatternTerm::Var(
            used_vars[rng->Below(used_vars.size())]);
      }
      std::string v = kVarPool[rng->Below(4)];
      if (std::find(used_vars.begin(), used_vars.end(), v) ==
          used_vars.end()) {
        used_vars.push_back(v);
      }
      return PatternTerm::Var(v);
    };

    TriplePattern tp;
    tp.s = rng->Bernoulli(0.75) ? pick_var() : const_term(seed.s);
    tp.p = rng->Bernoulli(0.85) ? const_term(seed.p)
                                : (rng->Bernoulli(0.5)
                                       ? pick_var()
                                       : const_term(seed.p));
    tp.o = rng->Bernoulli(0.6) ? pick_var() : const_term(seed.o);
    query.where.bgp.push_back(std::move(tp));
  }
  return query;  // SELECT * over the pattern
}

/// Extends a random BGP with one BGP+ operator, chosen by `kind % 3`: a
/// UNION block of two random BGPs, an OPTIONAL random BGP, or a FILTER
/// over the BGP's variables (two variables differ, or one is bound).
Query RandomGroupQuery(Rng* rng, const rdf::TripleStore& store, int kind) {
  Query query = RandomBgpQuery(rng, store);
  auto sub_group = [&] {
    sparql::GroupPattern group;
    group.bgp = RandomBgpQuery(rng, store).where.bgp;
    return group;
  };
  switch (kind % 3) {
    case 0:
      query.where.unions.push_back({sub_group(), sub_group()});
      break;
    case 1:
      query.where.optionals.push_back(sub_group());
      break;
    default: {
      std::vector<std::string> vars = query.where.Variables();
      if (vars.size() >= 2) {
        query.where.filters.push_back(sparql::FilterExpr::MakeBinary(
            sparql::ExprOp::kNe, sparql::FilterExpr::MakeVar(vars[0]),
            sparql::FilterExpr::MakeVar(vars[1])));
      } else {
        auto bound = std::make_shared<sparql::FilterExpr>();
        bound->op = sparql::ExprOp::kBound;
        bound->var = vars.empty() ? "a" : vars[0];
        query.where.filters.push_back(std::move(bound));
      }
      break;
    }
  }
  return query;
}

using NamedEngines =
    std::vector<std::pair<std::string, std::unique_ptr<BgpEngineBase>>>;

/// All 12 engine variants on `sc`, loaded with `store`.
NamedEngines LoadAllVariants(spark::SparkContext* sc,
                             const rdf::TripleStore& store) {
  NamedEngines engines;
  for (const auto& factory : AllEngineVariantFactories()) {
    auto engine = factory.make(sc);
    EXPECT_TRUE(engine->Load(store).ok()) << factory.name;
    engines.emplace_back(factory.name, std::move(engine));
  }
  return engines;
}

/// Runs `query` through Execute, then plans it once with PlanQuery and runs
/// that plan twice with ExecutePlanned (once where plans are single-use),
/// handing every answer to `check`.
void RunEveryPath(
    BgpEngineBase* engine, const Query& query,
    const std::function<void(const sparql::BindingTable&)>& check) {
  auto got = engine->Execute(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  check(*got);
  auto planned = engine->PlanQuery(query);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const int runs = engine->ReusablePlans() ? 2 : 1;
  for (int run = 0; run < runs; ++run) {
    SCOPED_TRACE("planned run " + std::to_string(run));
    auto again = engine->ExecutePlanned(query, **planned);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    check(*again);
  }
}

TEST(FuzzConformanceTest, RandomBgpsMatchReferenceOnAllEngines) {
  const rdf::TripleStore& store = Dataset();
  sparql::ReferenceEvaluator reference(&store);
  int checked = 0;
  for (int threads : {1, 4}) {
    spark::ClusterConfig cfg;
    cfg.num_executors = 4;
    cfg.default_parallelism = 8;
    cfg.executor_threads = threads;
    spark::SparkContext sc(cfg);
    NamedEngines engines = LoadAllVariants(&sc, store);

    Rng rng(20260705);
    for (int round = 0; round < 40; ++round) {
      Query query = RandomBgpQuery(&rng, store);
      auto expected = reference.Evaluate(query);
      ASSERT_TRUE(expected.ok());
      // Keep runtimes sane: skip the rare cartesian blow-ups.
      if (expected->num_rows() > 20000) continue;
      auto expected_decoded = expected->Decode(store.dictionary());
      for (auto& [name, engine] : engines) {
        SCOPED_TRACE(name + " at " + std::to_string(threads) +
                     " threads, round " + std::to_string(round) + ":\n" +
                     sparql::ToSparql(query));
        ASSERT_NO_FATAL_FAILURE(RunEveryPath(
            engine.get(), query, [&](const sparql::BindingTable& got) {
              ASSERT_EQ(got.Decode(store.dictionary()), expected_decoded);
            }));
        ++checked;
      }
    }
  }
  // 2 thread counts x 40 rounds x 12 variants, minus skipped blow-ups.
  EXPECT_GT(checked, 650);
}

/// FILTER, OPTIONAL and UNION run as driver-side nodes of one plan: on
/// every BGP+ variant, PlanQuery plans each random group query once and
/// ExecutePlanned runs that plan twice (once for S2X, whose plans are
/// single-use), each time to the reference answer.
TEST(FuzzConformanceTest, RandomGroupsPlanOnceMatchReference) {
  const rdf::TripleStore& store = Dataset();
  spark::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  spark::SparkContext sc(cfg);
  std::vector<std::pair<std::string, std::unique_ptr<BgpEngineBase>>> engines;
  for (const auto& factory : AllEngineVariantFactories()) {
    auto engine = factory.make(&sc);
    if (engine->traits().fragment != SparqlFragment::kBgpPlus) continue;
    ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
    engines.emplace_back(factory.name, std::move(engine));
  }
  sparql::ReferenceEvaluator reference(&store);

  Rng rng(20261019);
  int checked = 0;
  for (int round = 0; round < 30; ++round) {
    Query query = RandomGroupQuery(&rng, store, round);
    auto expected = reference.Evaluate(query);
    ASSERT_TRUE(expected.ok());
    if (expected->num_rows() > 20000) continue;
    auto expected_decoded = expected->Decode(store.dictionary());
    for (auto& [name, engine] : engines) {
      SCOPED_TRACE(name + " round " + std::to_string(round) + ":\n" +
                   sparql::ToSparql(query));
      auto planned = engine->PlanQuery(query);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      const int runs = engine->ReusablePlans() ? 2 : 1;
      for (int run = 0; run < runs; ++run) {
        auto got = engine->ExecutePlanned(query, **planned);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->Decode(store.dictionary()), expected_decoded)
            << "run " << run;
        ++checked;
      }
    }
  }
  // Up to 30 rounds x (3 reusable x 2 runs + S2X), minus skipped blow-ups.
  EXPECT_GT(checked, 150);
}

TEST(FuzzConformanceTest, RandomBgpsOnSkewedWatdivData) {
  // Zipf-skewed data stresses the partitioners and the optimizers' size
  // estimates very differently from the uniform LUBM shapes.
  rdf::TripleStore store;
  rdf::WatdivConfig cfg;
  cfg.num_users = 60;
  cfg.num_products = 30;
  store.AddAll(rdf::GenerateWatdiv(cfg));
  store.Dedupe();

  spark::SparkContext sc(spark::ClusterConfig{});
  NamedEngines engines = LoadAllVariants(&sc, store);
  sparql::ReferenceEvaluator reference(&store);

  Rng rng(999);
  for (int round = 0; round < 20; ++round) {
    Query query = RandomBgpQuery(&rng, store);
    auto expected = reference.Evaluate(query);
    ASSERT_TRUE(expected.ok());
    if (expected->num_rows() > 20000) continue;
    auto expected_decoded = expected->Decode(store.dictionary());
    for (auto& [name, engine] : engines) {
      SCOPED_TRACE(name + " on watdiv round " + std::to_string(round) +
                   ":\n" + sparql::ToSparql(query));
      ASSERT_NO_FATAL_FAILURE(RunEveryPath(
          engine.get(), query, [&](const sparql::BindingTable& got) {
            ASSERT_EQ(got.Decode(store.dictionary()), expected_decoded);
          }));
    }
  }

  // The fixed shape queries too.
  for (auto shape :
       {rdf::QueryShape::kStar, rdf::QueryShape::kLinear,
        rdf::QueryShape::kSnowflake, rdf::QueryShape::kComplex}) {
    auto parsed = sparql::ParseQuery(rdf::WatdivShapeQuery(shape));
    ASSERT_TRUE(parsed.ok()) << rdf::QueryShapeName(shape);
    auto expected = reference.Evaluate(*parsed);
    ASSERT_TRUE(expected.ok());
    auto expected_decoded = expected->Decode(store.dictionary());
    for (auto& [name, engine] : engines) {
      bool bgp_plus = !parsed->where.IsPlainBgp();
      if (bgp_plus &&
          engine->traits().fragment == SparqlFragment::kBgp) {
        continue;
      }
      auto got = engine->Execute(*parsed);
      ASSERT_TRUE(got.ok()) << name;
      EXPECT_EQ(got->Decode(store.dictionary()), expected_decoded)
          << name << " on watdiv " << rdf::QueryShapeName(shape);
    }
  }
}

TEST(FuzzConformanceTest, RandomProjectionsAndModifiers) {
  const rdf::TripleStore& store = Dataset();
  spark::ClusterConfig cfg;
  spark::SparkContext sc(cfg);
  NamedEngines engines = LoadAllVariants(&sc, store);
  sparql::ReferenceEvaluator reference(&store);

  Rng rng(777);
  for (int round = 0; round < 15; ++round) {
    Query query = RandomBgpQuery(&rng, store);
    // Random projection + DISTINCT + LIMIT.
    auto vars = query.where.Variables();
    if (!vars.empty()) {
      query.select_vars =
          std::vector<std::string>{vars[rng.Below(vars.size())]};
    }
    query.distinct = rng.Bernoulli(0.5);
    if (rng.Bernoulli(0.3)) query.limit = 5;
    auto expected = reference.Evaluate(query);
    ASSERT_TRUE(expected.ok());
    if (expected->num_rows() > 20000) continue;
    for (auto& [name, engine] : engines) {
      SCOPED_TRACE(name + " round " + std::to_string(round) + ":\n" +
                   sparql::ToSparql(query));
      ASSERT_NO_FATAL_FAILURE(RunEveryPath(
          engine.get(), query, [&](const sparql::BindingTable& got) {
            if (query.limit >= 0) {
              EXPECT_EQ(got.num_rows(), expected->num_rows());
            } else {
              EXPECT_EQ(got.Decode(store.dictionary()),
                        expected->Decode(store.dictionary()));
            }
          }));
    }
  }
}

}  // namespace
}  // namespace rdfspark::systems
