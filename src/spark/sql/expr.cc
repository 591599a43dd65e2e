#include "spark/sql/expr.h"

#include <algorithm>

namespace rdfspark::spark::sql {

Expr Expr::Column(std::string name) {
  auto node = std::make_shared<Node>();
  node->kind = ExprKind::kColumn;
  node->column = std::move(name);
  Expr e;
  e.node_ = std::move(node);
  return e;
}

Expr Expr::Literal(Value v) {
  auto node = std::make_shared<Node>();
  node->kind = ExprKind::kLiteral;
  node->literal = std::move(v);
  Expr e;
  e.node_ = std::move(node);
  return e;
}

Expr Expr::Unary(ExprKind kind, Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->children.push_back(std::move(child));
  Expr e;
  e.node_ = std::move(node);
  return e;
}

Expr Expr::Binary(ExprKind kind, Expr lhs, Expr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->children.push_back(std::move(lhs));
  node->children.push_back(std::move(rhs));
  Expr e;
  e.node_ = std::move(node);
  return e;
}

namespace {

Value BoolValue(bool b) { return Value(b); }

/// NULL-propagating comparison.
Value CompareToBool(const Value& a, const Value& b, ExprKind kind) {
  if (IsNull(a) || IsNull(b)) return Value{};
  auto cmp = CompareValues(a, b);
  if (!cmp.ok()) return Value{};
  switch (kind) {
    case ExprKind::kEq:
      return BoolValue(*cmp == 0);
    case ExprKind::kNe:
      return BoolValue(*cmp != 0);
    case ExprKind::kLt:
      return BoolValue(*cmp < 0);
    case ExprKind::kLe:
      return BoolValue(*cmp <= 0);
    case ExprKind::kGt:
      return BoolValue(*cmp > 0);
    case ExprKind::kGe:
      return BoolValue(*cmp >= 0);
    default:
      return Value{};
  }
}

Value Arith(const Value& a, const Value& b, ExprKind kind) {
  if (IsNull(a) || IsNull(b)) return Value{};
  bool both_int = TypeOf(a) == DataType::kInt64 && TypeOf(b) == DataType::kInt64;
  auto as_double = [](const Value& v) -> double {
    return TypeOf(v) == DataType::kInt64
               ? static_cast<double>(std::get<int64_t>(v))
               : (TypeOf(v) == DataType::kDouble ? std::get<double>(v) : 0.0);
  };
  if (TypeOf(a) != DataType::kInt64 && TypeOf(a) != DataType::kDouble) {
    return Value{};
  }
  if (TypeOf(b) != DataType::kInt64 && TypeOf(b) != DataType::kDouble) {
    return Value{};
  }
  if (both_int) {
    int64_t x = std::get<int64_t>(a), y = std::get<int64_t>(b);
    switch (kind) {
      case ExprKind::kAdd:
        return Value(x + y);
      case ExprKind::kSub:
        return Value(x - y);
      case ExprKind::kMul:
        return Value(x * y);
      default:
        return Value{};
    }
  }
  double x = as_double(a), y = as_double(b);
  switch (kind) {
    case ExprKind::kAdd:
      return Value(x + y);
    case ExprKind::kSub:
      return Value(x - y);
    case ExprKind::kMul:
      return Value(x * y);
    default:
      return Value{};
  }
}

}  // namespace

BoundExpr::BoundExpr(const Expr& expr, const Schema& schema) {
  Add(expr, schema);
}

int BoundExpr::Add(const Expr& expr, const Schema& schema) {
  int n = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(n)].kind = expr.kind();
  switch (expr.kind()) {
    case ExprKind::kColumn: {
      int idx = schema.Index(expr.column());
      nodes_[static_cast<size_t>(n)].column = idx;
      if (idx >= 0 &&
          std::find(columns_.begin(), columns_.end(), idx) == columns_.end()) {
        columns_.push_back(idx);
      }
      break;
    }
    case ExprKind::kLiteral:
      nodes_[static_cast<size_t>(n)].literal = expr.literal();
      break;
    default: {
      int lhs = Add(expr.children()[0], schema);
      int rhs = expr.children().size() > 1 ? Add(expr.children()[1], schema)
                                           : -1;
      nodes_[static_cast<size_t>(n)].lhs = lhs;
      nodes_[static_cast<size_t>(n)].rhs = rhs;
      break;
    }
  }
  return n;
}

const Value& BoundExpr::Operand(int n, const Row& row, Value* scratch) const {
  static const Value kNull;
  const Node& node = nodes_[static_cast<size_t>(n)];
  if (node.kind == ExprKind::kColumn) {
    return node.column < 0 ? kNull : row[static_cast<size_t>(node.column)];
  }
  if (node.kind == ExprKind::kLiteral) return node.literal;
  *scratch = EvalNode(n, row);
  return *scratch;
}

Value BoundExpr::EvalNode(int n, const Row& row) const {
  const Node& node = nodes_[static_cast<size_t>(n)];
  Value sa, sb;
  switch (node.kind) {
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      return Operand(n, row, &sa);
    case ExprKind::kEq:
    case ExprKind::kNe:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe:
      return CompareToBool(Operand(node.lhs, row, &sa),
                           Operand(node.rhs, row, &sb), node.kind);
    case ExprKind::kAnd: {
      const Value& a = Operand(node.lhs, row, &sa);
      const Value& b = Operand(node.rhs, row, &sb);
      if (TypeOf(a) == DataType::kBool && !std::get<bool>(a)) {
        return BoolValue(false);
      }
      if (TypeOf(b) == DataType::kBool && !std::get<bool>(b)) {
        return BoolValue(false);
      }
      if (IsNull(a) || IsNull(b)) return Value{};
      return BoolValue(std::get<bool>(a) && std::get<bool>(b));
    }
    case ExprKind::kOr: {
      const Value& a = Operand(node.lhs, row, &sa);
      const Value& b = Operand(node.rhs, row, &sb);
      if (TypeOf(a) == DataType::kBool && std::get<bool>(a)) {
        return BoolValue(true);
      }
      if (TypeOf(b) == DataType::kBool && std::get<bool>(b)) {
        return BoolValue(true);
      }
      if (IsNull(a) || IsNull(b)) return Value{};
      return BoolValue(std::get<bool>(a) || std::get<bool>(b));
    }
    case ExprKind::kNot: {
      const Value& a = Operand(node.lhs, row, &sa);
      if (TypeOf(a) != DataType::kBool) return Value{};
      return BoolValue(!std::get<bool>(a));
    }
    case ExprKind::kIsNull:
      return BoolValue(IsNull(Operand(node.lhs, row, &sa)));
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
      return Arith(Operand(node.lhs, row, &sa), Operand(node.rhs, row, &sb),
                   node.kind);
  }
  return Value{};
}

Value BoundExpr::Eval(const Row& row) const { return EvalNode(0, row); }

bool BoundExpr::EvalPredicate(const Row& row) const {
  Value scratch;
  const Value& v = Operand(0, row, &scratch);
  return TypeOf(v) == DataType::kBool && std::get<bool>(v);
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (node_->kind == ExprKind::kColumn) {
    if (std::find(out->begin(), out->end(), node_->column) == out->end()) {
      out->push_back(node_->column);
    }
  }
  for (const Expr& c : node_->children) c.CollectColumns(out);
}

bool Expr::ResolvedBy(const Schema& schema) const {
  std::vector<std::string> cols;
  CollectColumns(&cols);
  for (const auto& c : cols) {
    if (schema.Index(c) < 0) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (node_->kind) {
    case ExprKind::kColumn:
      return node_->column;
    case ExprKind::kLiteral:
      return ValueToString(node_->literal);
    case ExprKind::kNot:
      return "NOT (" + node_->children[0].ToString() + ")";
    case ExprKind::kIsNull:
      return "(" + node_->children[0].ToString() + " IS NULL)";
    default: {
      const char* op = "?";
      switch (node_->kind) {
        case ExprKind::kEq: op = "="; break;
        case ExprKind::kNe: op = "!="; break;
        case ExprKind::kLt: op = "<"; break;
        case ExprKind::kLe: op = "<="; break;
        case ExprKind::kGt: op = ">"; break;
        case ExprKind::kGe: op = ">="; break;
        case ExprKind::kAnd: op = "AND"; break;
        case ExprKind::kOr: op = "OR"; break;
        case ExprKind::kAdd: op = "+"; break;
        case ExprKind::kSub: op = "-"; break;
        case ExprKind::kMul: op = "*"; break;
        default: break;
      }
      return "(" + node_->children[0].ToString() + " " + op + " " +
             node_->children[1].ToString() + ")";
    }
  }
}

Expr Col(std::string name) { return Expr::Column(std::move(name)); }
Expr Lit(Value v) { return Expr::Literal(std::move(v)); }

Expr operator==(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kEq, std::move(a), std::move(b));
}
Expr operator!=(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kNe, std::move(a), std::move(b));
}
Expr operator<(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kLt, std::move(a), std::move(b));
}
Expr operator<=(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kLe, std::move(a), std::move(b));
}
Expr operator>(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kGt, std::move(a), std::move(b));
}
Expr operator>=(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kGe, std::move(a), std::move(b));
}
Expr operator&&(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kAnd, std::move(a), std::move(b));
}
Expr operator||(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kOr, std::move(a), std::move(b));
}
Expr operator!(Expr a) { return Expr::Unary(ExprKind::kNot, std::move(a)); }
Expr operator+(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kAdd, std::move(a), std::move(b));
}
Expr operator-(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kSub, std::move(a), std::move(b));
}
Expr operator*(Expr a, Expr b) {
  return Expr::Binary(ExprKind::kMul, std::move(a), std::move(b));
}

void SplitConjuncts(const Expr& e, std::vector<Expr>* out) {
  if (e.kind() == ExprKind::kAnd) {
    SplitConjuncts(e.children()[0], out);
    SplitConjuncts(e.children()[1], out);
  } else {
    out->push_back(e);
  }
}

Expr CombineConjuncts(const std::vector<Expr>& conjuncts) {
  Expr out;
  for (const Expr& c : conjuncts) {
    out = out.valid() ? (out && c) : c;
  }
  return out;
}

}  // namespace rdfspark::spark::sql
