#include "systems/common.h"

#include "spark/sql/dataframe.h"
#include "systems/plan/plan.h"

namespace rdfspark::systems {

EncodedPattern EncodePattern(const rdf::Dictionary& dict,
                             const sparql::TriplePattern& pattern,
                             const VarSchema& schema) {
  EncodedPattern out;
  auto resolve = [&](const sparql::PatternTerm& t,
                     std::optional<rdf::TermId>* slot, int* cell) {
    if (t.is_variable()) {
      slot->reset();
      *cell = schema.IndexOf(t.var());
      return;
    }
    auto id = dict.Lookup(t.term());
    if (!id.ok()) {
      out.impossible = true;
      return;
    }
    *slot = *id;
  };
  resolve(pattern.s, &out.ids.s, &out.cells[0]);
  resolve(pattern.p, &out.ids.p, &out.cells[1]);
  resolve(pattern.o, &out.ids.o, &out.cells[2]);
  return out;
}

VarSchema BgpSchema(const std::vector<sparql::TriplePattern>& bgp) {
  VarSchema schema;
  for (const auto& tp : bgp) {
    for (const auto& v : tp.Variables()) schema.Add(v);
  }
  return schema;
}

std::string VarsDetail(const std::vector<std::string>& vars) {
  std::string detail;
  for (const auto& v : vars) detail += (detail.empty() ? "?" : " ?") + v;
  return detail;
}

bool ExtendRowCells(const EncodedPattern& ep, const rdf::EncodedTriple& triple,
                    rdf::TermId* cells) {
  auto bind = [cells](int idx, rdf::TermId value) {
    if (idx < 0) return true;
    rdf::TermId& cell = cells[static_cast<size_t>(idx)];
    if (cell == sparql::kUnbound) {
      cell = value;
      return true;
    }
    return cell == value;
  };
  return bind(ep.cells[0], triple.s) && bind(ep.cells[1], triple.p) &&
         bind(ep.cells[2], triple.o);
}

bool MatchesConstants(const EncodedPattern& encoded,
                      const rdf::EncodedTriple& triple) {
  if (encoded.impossible) return false;
  return (!encoded.ids.s || *encoded.ids.s == triple.s) &&
         (!encoded.ids.p || *encoded.ids.p == triple.p) &&
         (!encoded.ids.o || *encoded.ids.o == triple.o);
}

bool AppendMatch(const EncodedPattern& ep, const rdf::EncodedTriple& triple,
                 sparql::IdSpan base, sparql::IdTable* out) {
  if (!MatchesConstants(ep, triple)) return false;
  rdf::TermId* cells = out->AppendRowUninitialized();
  size_t width = out->width();
  if (base.empty()) {
    std::fill(cells, cells + width, sparql::kUnbound);
  } else {
    std::copy(base.begin(), base.end(), cells);
  }
  if (ExtendRowCells(ep, triple, cells)) return true;
  out->PopRow();
  return false;
}

uint64_t PredicateCount(const rdf::Dictionary& dict,
                        const rdf::DatasetStatistics& stats,
                        const sparql::TriplePattern& tp) {
  if (tp.p.is_variable()) return stats.num_triples;
  auto id = dict.Lookup(tp.p.term());
  if (!id.ok()) return 0;
  auto it = stats.predicate_count.find(*id);
  return it == stats.predicate_count.end() ? 0 : it->second;
}

uint64_t DistinctCountEstimate(const rdf::Dictionary& dict,
                               const rdf::DatasetStatistics& stats,
                               const sparql::TriplePattern& tp) {
  double cardinality = static_cast<double>(stats.num_triples);
  if (!tp.p.is_variable()) {
    auto id = dict.Lookup(tp.p.term());
    if (!id.ok()) return 0;
    auto it = stats.predicate_count.find(*id);
    cardinality = it == stats.predicate_count.end()
                      ? 0.0
                      : static_cast<double>(it->second);
  }
  // Bound subject/object shrink the estimate by the distinct counts.
  if (!tp.s.is_variable() && stats.distinct_subjects > 0) {
    cardinality /= static_cast<double>(stats.distinct_subjects);
  }
  if (!tp.o.is_variable() && stats.distinct_objects > 0) {
    cardinality /= static_cast<double>(stats.distinct_objects);
  }
  return static_cast<uint64_t>(cardinality) + 1;
}

void AnnotateScan(const sparql::TriplePattern& tp, uint64_t scan_bound,
                  plan::PlanNode* node) {
  node->out_vars = tp.Variables();
  if (tp.s.is_variable()) node->subject_var = tp.s.var();
  node->max_cardinality = scan_bound;
}

sparql::BindingTable DataFrameBindings(const spark::sql::DataFrame& df) {
  std::vector<std::string> vars;
  std::vector<int> cols;
  for (size_t i = 0; i < df.schema().num_fields(); ++i) {
    const std::string& name = df.schema().field(i).name;
    if (name.rfind("v_", 0) == 0) {
      vars.push_back(name.substr(2));
      cols.push_back(static_cast<int>(i));
    }
  }
  sparql::BindingTable table(vars);
  sparql::IdTable* rows = table.mutable_rows();
  for (const auto& row : df.Collect()) {
    rdf::TermId* cells = rows->AppendRowUninitialized();
    for (size_t i = 0; i < cols.size(); ++i) {
      const spark::sql::Value& v = row[static_cast<size_t>(cols[i])];
      cells[i] = spark::sql::IsNull(v)
                     ? sparql::kUnbound
                     : static_cast<rdf::TermId>(std::get<int64_t>(v));
    }
  }
  return table;
}

std::vector<std::string> SharedVars(const sparql::TriplePattern& pattern,
                                    const VarSchema& schema) {
  std::vector<std::string> out;
  for (const auto& v : pattern.Variables()) {
    if (schema.IndexOf(v) >= 0) out.push_back(v);
  }
  return out;
}

sparql::BindingTable ToBindingTable(const VarSchema& schema,
                                    sparql::IdTable rows) {
  return sparql::BindingTable(schema.vars(), std::move(rows));
}

bool MergeRowsInto(sparql::IdSpan a, sparql::IdSpan b, sparql::IdTable* out) {
  rdf::TermId* cells = out->AppendRowUninitialized();
  size_t width = out->width();
  for (size_t i = 0; i < width; ++i) {
    cells[i] = i < a.size() ? a[i] : sparql::kUnbound;
  }
  for (size_t i = 0; i < b.size() && i < width; ++i) {
    if (b[i] == sparql::kUnbound) continue;
    if (cells[i] == sparql::kUnbound) {
      cells[i] = b[i];
    } else if (cells[i] != b[i]) {
      out->PopRow();
      return false;
    }
  }
  return true;
}

sparql::IdTable ConcatMt(sparql::IdTable acc, const sparql::IdTable& more) {
  acc.AppendRowsFrom(more);
  return acc;
}

std::vector<SubjectGroup> GroupBySubject(
    const std::vector<sparql::TriplePattern>& bgp,
    const rdf::Dictionary& dict) {
  std::vector<SubjectGroup> groups;
  auto find_or_add = [&](const sparql::PatternTerm& s) -> SubjectGroup& {
    for (auto& g : groups) {
      if (s.is_variable() && g.subject_var == s.var()) return g;
      if (!s.is_variable() && g.subject_var.empty() &&
          g.patterns[0].s == s) {
        return g;
      }
    }
    SubjectGroup g;
    if (s.is_variable()) {
      g.subject_var = s.var();
    } else {
      auto id = dict.Lookup(s.term());
      if (id.ok()) {
        g.subject_const = *id;
      } else {
        g.impossible = true;
      }
    }
    groups.push_back(std::move(g));
    return groups.back();
  };
  for (const auto& tp : bgp) {
    find_or_add(tp.s).patterns.push_back(tp);
  }
  return groups;
}

}  // namespace rdfspark::systems
