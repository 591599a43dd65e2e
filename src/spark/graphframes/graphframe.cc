#include "spark/graphframes/graphframe.h"

#include <algorithm>

#include "common/string_util.h"

namespace rdfspark::spark::graphframes {

using sql::DataFrame;

Result<std::vector<MotifEdge>> ParseMotif(std::string_view pattern) {
  std::vector<MotifEdge> out;
  for (const std::string& raw : SplitString(pattern, ';')) {
    std::string_view element = TrimWhitespace(raw);
    if (element.empty()) continue;
    // Expected: (name)-[name]->(name), names optional.
    auto expect = [&](size_t pos, char c) {
      return pos < element.size() && element[pos] == c;
    };
    size_t i = 0;
    auto parse_delim = [&](char open, char close,
                           std::string* name) -> Status {
      if (!expect(i, open)) {
        return Status::ParseError("motif: expected '" + std::string(1, open) +
                                  "' in '" + std::string(element) + "'");
      }
      ++i;
      size_t end = element.find(close, i);
      if (end == std::string_view::npos) {
        return Status::ParseError("motif: missing '" + std::string(1, close) +
                                  "'");
      }
      *name = std::string(TrimWhitespace(element.substr(i, end - i)));
      i = end + 1;
      return Status::OK();
    };
    MotifEdge edge;
    RDFSPARK_RETURN_NOT_OK(parse_delim('(', ')', &edge.src));
    if (!expect(i, '-')) return Status::ParseError("motif: expected '-'");
    ++i;
    RDFSPARK_RETURN_NOT_OK(parse_delim('[', ']', &edge.edge));
    if (!(expect(i, '-') && expect(i + 1, '>'))) {
      return Status::ParseError("motif: expected '->'");
    }
    i += 2;
    RDFSPARK_RETURN_NOT_OK(parse_delim('(', ')', &edge.dst));
    if (i != element.size()) {
      return Status::ParseError("motif: trailing characters in '" +
                                std::string(element) + "'");
    }
    out.push_back(std::move(edge));
  }
  if (out.empty()) return Status::ParseError("motif: empty pattern");
  return out;
}

namespace {

/// Natural join on shared column names (the right copies are dropped).
DataFrame NaturalJoin(const DataFrame& left, const DataFrame& right) {
  std::vector<std::string> shared;
  for (const auto& f : right.schema().fields()) {
    if (left.schema().Index(f.name) >= 0) shared.push_back(f.name);
  }
  if (shared.empty()) return left.CrossJoin(right);
  // Rename shared right columns to temporaries, join, drop them.
  std::vector<std::string> rnames;
  for (const auto& f : right.schema().fields()) {
    bool is_shared =
        std::find(shared.begin(), shared.end(), f.name) != shared.end();
    rnames.push_back(is_shared ? "__rhs_" + f.name : f.name);
  }
  DataFrame renamed = right.Rename(rnames);
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& c : shared) keys.emplace_back(c, "__rhs_" + c);
  DataFrame joined = left.Join(renamed, keys);
  std::vector<std::string> keep;
  for (const auto& f : joined.schema().fields()) {
    if (!StartsWith(f.name, "__rhs_")) keep.push_back(f.name);
  }
  return joined.Select(keep);
}

}  // namespace

Result<sql::DataFrame> GraphFrame::FindMotif(
    std::string_view pattern, const MotifOptions& options) const {
  RDFSPARK_ASSIGN_OR_RETURN(std::vector<MotifEdge> motif,
                            ParseMotif(pattern));
  int anon_counter = 0;
  DataFrame result;
  std::vector<std::string> named_vertices;
  std::vector<std::string> vertex_filters_applied;
  auto apply_vertex_predicates = [&](DataFrame df) {
    for (const auto& [vertex, predicate] : options.vertex_predicates) {
      if (std::find(vertex_filters_applied.begin(),
                    vertex_filters_applied.end(),
                    vertex) != vertex_filters_applied.end()) {
        continue;
      }
      if (df.schema().Index(vertex) < 0) continue;
      df = df.Filter(predicate);
      vertex_filters_applied.push_back(vertex);
    }
    return df;
  };
  for (const MotifEdge& m : motif) {
    std::string src = m.src.empty()
                          ? "__anon" + std::to_string(anon_counter++)
                          : m.src;
    std::string dst = m.dst.empty()
                          ? "__anon" + std::to_string(anon_counter++)
                          : m.dst;
    for (const auto& v : {m.src, m.dst}) {
      if (!v.empty() && std::find(named_vertices.begin(),
                                  named_vertices.end(),
                                  v) == named_vertices.end()) {
        named_vertices.push_back(v);
      }
    }
    // Rename edge columns: src -> <src>, dst -> <dst>, attr -> <e>.attr.
    std::vector<std::string> names;
    for (const auto& f : edges_.schema().fields()) {
      if (f.name == "src") {
        names.push_back(src);
      } else if (f.name == "dst") {
        names.push_back(dst);
      } else if (!m.edge.empty()) {
        names.push_back(m.edge + "." + f.name);
      } else {
        names.push_back("__anon" + std::to_string(anon_counter++) + "." +
                        f.name);
      }
    }
    DataFrame step = edges_.Rename(names);
    if (!m.edge.empty()) {
      auto it = options.edge_predicates.find(m.edge);
      if (it != options.edge_predicates.end()) {
        step = step.Filter(it->second);
      }
    }
    result = result.valid() ? NaturalJoin(result, step) : step;
    result = apply_vertex_predicates(result);
  }
  // Attach vertex attributes for named vertices.
  for (const auto& v : named_vertices) {
    std::vector<std::string> names;
    bool has_extra = false;
    for (const auto& f : vertices_.schema().fields()) {
      if (f.name == "id") {
        names.push_back(v);
      } else {
        names.push_back(v + "." + f.name);
        has_extra = true;
      }
    }
    if (!has_extra) continue;
    result = NaturalJoin(result, vertices_.Rename(names));
  }
  // Drop anonymous columns.
  std::vector<std::string> keep;
  for (const auto& f : result.schema().fields()) {
    if (!StartsWith(f.name, "__anon")) keep.push_back(f.name);
  }
  return result.Select(keep);
}

}  // namespace rdfspark::spark::graphframes
