#ifndef RDFSPARK_SYSTEMS_COMMON_H_
#define RDFSPARK_SYSTEMS_COMMON_H_

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/store.h"
#include "sparql/ast.h"
#include "sparql/binding.h"

namespace rdfspark::spark::sql {
class DataFrame;
}  // namespace rdfspark::spark::sql

namespace rdfspark::systems {

namespace plan {
struct PlanNode;
}  // namespace plan

/// Mutable variable schema used while composing distributed joins.
/// IndexOf is O(1): a side map mirrors the ordered variable list, so wide
/// schemas (star queries, synthetic variables) don't pay a linear probe per
/// row extension.
class VarSchema {
 public:
  const std::vector<std::string>& vars() const { return vars_; }
  int IndexOf(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : it->second;
  }
  /// Adds if missing; returns the index either way.
  int Add(const std::string& name) {
    auto [it, inserted] =
        index_.emplace(name, static_cast<int>(vars_.size()));
    if (inserted) vars_.push_back(name);
    return it->second;
  }

 private:
  std::vector<std::string> vars_;
  std::unordered_map<std::string, int> index_;
};

/// A triple pattern with its constants resolved against the dictionary and
/// its variables against a row schema. `impossible` marks patterns whose
/// constant term does not occur in the data at all (they match nothing).
struct EncodedPattern {
  rdf::IdPattern ids;
  /// The row cell that s, p and o bind: -1 for a constant, or for a
  /// variable outside the schema (projected away later).
  std::array<int, 3> cells = {-1, -1, -1};
  bool impossible = false;
};

/// Resolves a pattern's constants, and its variables against `schema`,
/// once per pattern. Never fails: unknown constants yield impossible=true.
EncodedPattern EncodePattern(const rdf::Dictionary& dict,
                             const sparql::TriplePattern& pattern,
                             const VarSchema& schema);

/// The variables of a BGP in first-appearance order (s/p/o within a
/// pattern): the row schema every engine's plan projects.
VarSchema BgpSchema(const std::vector<sparql::TriplePattern>& bgp);

/// "?a ?b" — the EXPLAIN detail of a Project over `vars`.
std::string VarsDetail(const std::vector<std::string>& vars);

/// Tries to extend a fixed-width row with the bindings a concrete triple
/// induces under `ep` (its resolved cells); returns false on conflict
/// (repeated variable bound to a different value).
bool ExtendRowCells(const EncodedPattern& ep, const rdf::EncodedTriple& triple,
                    rdf::TermId* cells);

/// True if `triple` matches the constant slots of `encoded`.
bool MatchesConstants(const EncodedPattern& encoded,
                      const rdf::EncodedTriple& triple);

/// The one triple-pattern match of every engine: when `triple` matches
/// `ep`'s constants, appends `base` (all kUnbound when empty) to `out`,
/// extends it with `ep`'s bindings and returns true; pops the row again and
/// returns false on a conflicting binding. `base` must not point into
/// `out`: the append may reallocate.
bool AppendMatch(const EncodedPattern& ep, const rdf::EncodedTriple& triple,
                 sparql::IdSpan base, sparql::IdTable* out);

/// Triples carrying `tp`'s predicate: all triples for a predicate
/// variable, 0 for a predicate absent from the data.
uint64_t PredicateCount(const rdf::Dictionary& dict,
                        const rdf::DatasetStatistics& stats,
                        const sparql::TriplePattern& tp);

/// The distinct-count selectivity estimate (SPARQLGX's statistic, also the
/// SPARQL-GPP planner's): PredicateCount, divided by the distinct subjects
/// when the subject is bound and by the distinct objects when the object
/// is, plus one; 0 for a predicate absent from the dictionary.
uint64_t DistinctCountEstimate(const rdf::Dictionary& dict,
                               const rdf::DatasetStatistics& stats,
                               const sparql::TriplePattern& tp);

/// Verifier schema facts of a scan leaf over one pattern: out_vars,
/// subject_var and the sound output cap `scan_bound`.
void AnnotateScan(const sparql::TriplePattern& tp, uint64_t scan_bound,
                  plan::PlanNode* node);

/// The rows of a result DataFrame's v_<var> columns as a binding table
/// (nulls read as kUnbound).
sparql::BindingTable DataFrameBindings(const spark::sql::DataFrame& df);

/// Variables shared between a pattern and an existing schema.
std::vector<std::string> SharedVars(const sparql::TriplePattern& pattern,
                                    const VarSchema& schema);

/// Adopts an already-flat batch as a BindingTable (rows must be
/// schema-width).
sparql::BindingTable ToBindingTable(const VarSchema& schema,
                                    sparql::IdTable rows);

/// Appends the element-wise merge of rows `a` and `b` over the same schema
/// to `out` (width out->width(); shorter inputs read as kUnbound) and
/// returns true, or leaves `out` unchanged and returns false when a
/// variable is bound to different values.
bool MergeRowsInto(sparql::IdSpan a, sparql::IdSpan b, sparql::IdTable* out);

/// Appends `more`'s rows to `acc` and returns it: the ReduceByKey merge of
/// the graph engines' per-vertex match tables (Spar(k)ql, GraphX-SM).
/// ReduceByKey hands the accumulator over as an rvalue, so folding k tables
/// copies each row once.
sparql::IdTable ConcatMt(sparql::IdTable acc, const sparql::IdTable& more);

/// A star fragment: patterns sharing one subject (variable or constant).
struct SubjectGroup {
  std::string subject_var;  // empty when the subject is a constant
  std::optional<rdf::TermId> subject_const;
  bool impossible = false;  // constant subject absent from the data
  std::vector<sparql::TriplePattern> patterns;
};

/// Decomposes a BGP into subject groups (HAQWA's locally-evaluable
/// sub-queries under subject-hash fragmentation).
std::vector<SubjectGroup> GroupBySubject(
    const std::vector<sparql::TriplePattern>& bgp,
    const rdf::Dictionary& dict);

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_COMMON_H_
