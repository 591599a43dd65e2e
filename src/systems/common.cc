#include "systems/common.h"

namespace rdfspark::systems {

EncodedPattern EncodePattern(const rdf::Dictionary& dict,
                             const sparql::TriplePattern& pattern) {
  EncodedPattern out;
  out.source = pattern;
  auto resolve = [&](const sparql::PatternTerm& t,
                     std::optional<rdf::TermId>* slot) {
    if (t.is_variable()) {
      slot->reset();
      return;
    }
    auto id = dict.Lookup(t.term());
    if (!id.ok()) {
      out.impossible = true;
      return;
    }
    *slot = *id;
  };
  resolve(pattern.s, &out.ids.s);
  resolve(pattern.p, &out.ids.p);
  resolve(pattern.o, &out.ids.o);
  return out;
}

bool ExtendRow(const sparql::TriplePattern& pattern,
               const rdf::EncodedTriple& triple, const VarSchema& schema,
               IdRow* row) {
  auto bind = [&](const sparql::PatternTerm& slot, rdf::TermId value) {
    if (!slot.is_variable()) return true;
    int idx = schema.IndexOf(slot.var());
    if (idx < 0) return true;  // variable not tracked (projection later)
    rdf::TermId& cell = (*row)[static_cast<size_t>(idx)];
    if (cell == sparql::kUnbound) {
      cell = value;
      return true;
    }
    return cell == value;
  };
  return bind(pattern.s, triple.s) && bind(pattern.p, triple.p) &&
         bind(pattern.o, triple.o);
}

bool ExtendRowCells(const sparql::TriplePattern& pattern,
                    const rdf::EncodedTriple& triple, const VarSchema& schema,
                    rdf::TermId* cells) {
  auto bind = [&](const sparql::PatternTerm& slot, rdf::TermId value) {
    if (!slot.is_variable()) return true;
    int idx = schema.IndexOf(slot.var());
    if (idx < 0) return true;  // variable not tracked (projection later)
    rdf::TermId& cell = cells[static_cast<size_t>(idx)];
    if (cell == sparql::kUnbound) {
      cell = value;
      return true;
    }
    return cell == value;
  };
  return bind(pattern.s, triple.s) && bind(pattern.p, triple.p) &&
         bind(pattern.o, triple.o);
}

bool MatchesConstants(const EncodedPattern& encoded,
                      const rdf::EncodedTriple& triple) {
  if (encoded.impossible) return false;
  return (!encoded.ids.s || *encoded.ids.s == triple.s) &&
         (!encoded.ids.p || *encoded.ids.p == triple.p) &&
         (!encoded.ids.o || *encoded.ids.o == triple.o);
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
