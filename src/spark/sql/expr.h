#ifndef RDFSPARK_SPARK_SQL_EXPR_H_
#define RDFSPARK_SPARK_SQL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "spark/sql/value.h"

namespace rdfspark::spark::sql {

enum class ExprKind {
  kColumn,
  kLiteral,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kIsNull,
  kAdd,
  kSub,
  kMul,
};

/// Immutable expression tree node. Exprs are cheap handles (shared_ptr to
/// the node), so they compose with the operator DSL: Col("a") == Lit(5).
class Expr {
 public:
  Expr() = default;

  ExprKind kind() const { return node_->kind; }
  const std::string& column() const { return node_->column; }
  const Value& literal() const { return node_->literal; }
  const std::vector<Expr>& children() const { return node_->children; }
  bool valid() const { return node_ != nullptr; }

  /// Column names referenced anywhere in the tree.
  void CollectColumns(std::vector<std::string>* out) const;

  /// Whether all referenced columns exist in `schema`.
  bool ResolvedBy(const Schema& schema) const;

  std::string ToString() const;

  // Factories.
  static Expr Column(std::string name);
  static Expr Literal(Value v);
  static Expr Unary(ExprKind kind, Expr child);
  static Expr Binary(ExprKind kind, Expr lhs, Expr rhs);

 private:
  struct Node {
    ExprKind kind = ExprKind::kLiteral;
    std::string column;
    Value literal;
    std::vector<Expr> children;
  };

  std::shared_ptr<const Node> node_;
};

/// An Expr with its column references resolved against one schema, once:
/// evaluation reads cells by index and never looks a name up. A column the
/// schema lacks evaluates to NULL.
class BoundExpr {
 public:
  BoundExpr(const Expr& expr, const Schema& schema);

  /// Schema indices of the columns the expression reads, each once.
  const std::vector<int>& columns() const { return columns_; }

  /// Evaluates on a row laid out as the bound schema; only the cells at
  /// columns() are read. Comparison/boolean errors yield NULL (SQL
  /// three-valued logic collapses to "row fails the predicate").
  Value Eval(const Row& row) const;

  /// True iff the predicate evaluates to boolean true.
  bool EvalPredicate(const Row& row) const;

 private:
  struct Node {
    ExprKind kind = ExprKind::kLiteral;
    int column = -1;  ///< kColumn: schema index, -1 when unresolved.
    Value literal;
    int lhs = -1, rhs = -1;  ///< Child node indices.
  };

  int Add(const Expr& expr, const Schema& schema);
  Value EvalNode(int n, const Row& row) const;
  /// A column or literal node's value in place; others evaluate into
  /// `scratch`.
  const Value& Operand(int n, const Row& row, Value* scratch) const;

  std::vector<Node> nodes_;  ///< nodes_[0] is the root.
  std::vector<int> columns_;
};

/// DSL shorthands.
Expr Col(std::string name);
Expr Lit(Value v);
inline Expr Lit(const char* s) { return Lit(Value(std::string(s))); }
inline Expr Lit(int v) { return Lit(Value(int64_t{v})); }

Expr operator==(Expr a, Expr b);
Expr operator!=(Expr a, Expr b);
Expr operator<(Expr a, Expr b);
Expr operator<=(Expr a, Expr b);
Expr operator>(Expr a, Expr b);
Expr operator>=(Expr a, Expr b);
Expr operator&&(Expr a, Expr b);
Expr operator||(Expr a, Expr b);
Expr operator!(Expr a);
Expr operator+(Expr a, Expr b);
Expr operator-(Expr a, Expr b);
Expr operator*(Expr a, Expr b);

/// Splits a conjunctive predicate into its AND-ed conjuncts.
void SplitConjuncts(const Expr& e, std::vector<Expr>* out);

/// Rebuilds a conjunction (empty -> invalid Expr; caller checks valid()).
Expr CombineConjuncts(const std::vector<Expr>& conjuncts);

}  // namespace rdfspark::spark::sql

#endif  // RDFSPARK_SPARK_SQL_EXPR_H_
