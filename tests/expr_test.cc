// Tests for the predicate expression language.

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "engine/expr.h"

namespace uqp {
namespace {

std::vector<Value> Row(int64_t a, double b, const std::string& s) {
  return {Value::Int64(a), Value::Double(b), Value::String(s)};
}

bool Eval(const ExprPtr& e, const std::vector<Value>& row) {
  return EvalPredicate(*e, RowRef{row.data(), static_cast<int>(row.size())});
}

TEST(Expr, NumericComparisons) {
  const auto row = Row(5, 2.5, "x");
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kEq, Value::Int64(5)), row));
  EXPECT_FALSE(Eval(Expr::Cmp(0, CmpOp::kNe, Value::Int64(5)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kLt, Value::Int64(6)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kLe, Value::Int64(5)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kGt, Value::Int64(4)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kGe, Value::Int64(5)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(1, CmpOp::kLt, Value::Double(3.0)), row));
}

TEST(Expr, CrossTypeNumericComparison) {
  const auto row = Row(5, 5.0, "x");
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kEq, Value::Double(5.0)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(1, CmpOp::kEq, Value::Int64(5)), row));
}

TEST(Expr, StringEquality) {
  const auto row = Row(1, 1.0, "BUILDING");
  EXPECT_TRUE(Eval(Expr::StrEq(2, "BUILDING"), row));
  EXPECT_FALSE(Eval(Expr::StrEq(2, "AUTOMOBILE"), row));
  EXPECT_TRUE(Eval(Expr::Cmp(2, CmpOp::kNe, Value::String("AUTOMOBILE")), row));
}

TEST(Expr, ColumnColumnComparison) {
  const auto row = Row(3, 4.0, "x");
  EXPECT_TRUE(Eval(Expr::CmpColumns(0, CmpOp::kLt, 1), row));
  EXPECT_FALSE(Eval(Expr::CmpColumns(0, CmpOp::kGe, 1), row));
  EXPECT_TRUE(Eval(Expr::CmpColumns(1, CmpOp::kGt, 0), row));
  EXPECT_FALSE(Eval(Expr::CmpColumns(0, CmpOp::kEq, 1), row));
}

TEST(Expr, BooleanConnectives) {
  const auto row = Row(5, 2.5, "x");
  const auto t = Expr::Cmp(0, CmpOp::kEq, Value::Int64(5));
  const auto f = Expr::Cmp(0, CmpOp::kEq, Value::Int64(6));
  EXPECT_TRUE(Eval(Expr::And(t, t), row));
  EXPECT_FALSE(Eval(Expr::And(t, f), row));
  EXPECT_TRUE(Eval(Expr::Or(t, f), row));
  EXPECT_FALSE(Eval(Expr::Or(f, f), row));
  EXPECT_TRUE(Eval(Expr::Not(f), row));
  EXPECT_FALSE(Eval(Expr::Not(t), row));
}

TEST(Expr, AndWithNullBranchesCollapses) {
  const auto t = Expr::Cmp(0, CmpOp::kEq, Value::Int64(5));
  EXPECT_EQ(Expr::And(nullptr, t), t);
  EXPECT_EQ(Expr::And(t, nullptr), t);
}

TEST(Expr, Between) {
  const auto row = Row(5, 2.5, "x");
  EXPECT_TRUE(Eval(Expr::Between(0, Value::Int64(5), Value::Int64(7)), row));
  EXPECT_TRUE(Eval(Expr::Between(0, Value::Int64(3), Value::Int64(5)), row));
  EXPECT_FALSE(Eval(Expr::Between(0, Value::Int64(6), Value::Int64(7)), row));
}

TEST(Expr, PredicateOpCount) {
  EXPECT_EQ(PredicateOpCount(nullptr), 0);
  const auto c = Expr::Cmp(0, CmpOp::kEq, Value::Int64(1));
  EXPECT_EQ(PredicateOpCount(c.get()), 1);
  EXPECT_EQ(PredicateOpCount(Expr::And(c, c).get()), 2);
  EXPECT_EQ(PredicateOpCount(Expr::Not(Expr::Or(c, Expr::And(c, c))).get()), 3);
  EXPECT_EQ(PredicateOpCount(Expr::CmpColumns(0, CmpOp::kLt, 1).get()), 1);
}

TEST(Expr, ShiftColumns) {
  const auto e = Expr::And(Expr::Cmp(1, CmpOp::kEq, Value::Int64(9)),
                           Expr::CmpColumns(0, CmpOp::kLt, 2));
  const auto shifted = ShiftColumns(e, 10);
  EXPECT_EQ(shifted->lhs->column, 11);
  EXPECT_EQ(shifted->rhs->column, 10);
  EXPECT_EQ(shifted->rhs->column2, 12);
  // Original untouched.
  EXPECT_EQ(e->lhs->column, 1);
}

TEST(Expr, TryExtractRangePure) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto e = Expr::Between(3, Value::Double(2.0), Value::Double(8.0));
  EXPECT_TRUE(TryExtractRange(e.get(), 3, &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_DOUBLE_EQ(hi, 8.0);
}

TEST(Expr, TryExtractRangeStrictBoundsUseNextafter) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto e = Expr::And(Expr::Cmp(0, CmpOp::kGt, Value::Double(1.0)),
                           Expr::Cmp(0, CmpOp::kLt, Value::Double(2.0)));
  EXPECT_TRUE(TryExtractRange(e.get(), 0, &lo, &hi));
  EXPECT_GT(lo, 1.0);
  EXPECT_LT(hi, 2.0);
}

TEST(Expr, TryExtractRangeMatchesCompareAtInfinityAndNaN) {
  // A range matches exactly the values the comparison accepts under
  // Value::Compare: strict bounds at an infinity, and =, <, > against NaN,
  // match nothing (lo > hi); <= NaN and >= NaN match everything.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto range_of = [inf](CmpOp op, double v) {
    double lo = -inf;
    double hi = inf;
    EXPECT_TRUE(TryExtractRange(Expr::Cmp(0, op, Value::Double(v)).get(), 0,
                                &lo, &hi));
    return std::make_pair(lo, hi);
  };
  for (const auto& [op, v] : {std::make_pair(CmpOp::kLt, -inf),
                              std::make_pair(CmpOp::kGt, inf),
                              std::make_pair(CmpOp::kEq, nan),
                              std::make_pair(CmpOp::kLt, nan),
                              std::make_pair(CmpOp::kGt, nan)}) {
    const auto [lo, hi] = range_of(op, v);
    EXPECT_GT(lo, hi) << CmpOpName(op) << " " << v;
  }
  for (const CmpOp op : {CmpOp::kLe, CmpOp::kGe}) {
    const auto [lo, hi] = range_of(op, nan);
    EXPECT_EQ(lo, -inf);
    EXPECT_EQ(hi, inf);
  }
  // Below -1e300 a strict bound still steps down, not up.
  EXPECT_LT(range_of(CmpOp::kLt, -1e305).second, -1e305);
  EXPECT_GT(range_of(CmpOp::kGt, 1e305).first, 1e305);
  EXPECT_EQ(range_of(CmpOp::kLt, inf).second, std::numeric_limits<double>::max());
}

TEST(Expr, TryExtractRangeRejectsOtherColumns) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto e = Expr::And(Expr::Cmp(0, CmpOp::kGe, Value::Double(1.0)),
                           Expr::Cmp(1, CmpOp::kLe, Value::Double(2.0)));
  EXPECT_FALSE(TryExtractRange(e.get(), 0, &lo, &hi));
}

TEST(Expr, CollectIndexRangeResidual) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  // Range on col 0 plus a string-eq residual on col 2.
  const auto e = Expr::And(Expr::Between(0, Value::Double(3.0), Value::Double(9.0)),
                           Expr::StrEq(2, "FOO"));
  CollectIndexRange(e.get(), 0, &lo, &hi, &has_range, &pure);
  EXPECT_TRUE(has_range);
  EXPECT_FALSE(pure);
  EXPECT_DOUBLE_EQ(lo, 3.0);
  EXPECT_DOUBLE_EQ(hi, 9.0);
}

TEST(Expr, CollectIndexRangePureWhenOnlyRange) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  const auto e = Expr::Between(1, Value::Double(0.0), Value::Double(1.0));
  CollectIndexRange(e.get(), 1, &lo, &hi, &has_range, &pure);
  EXPECT_TRUE(has_range);
  EXPECT_TRUE(pure);
}

TEST(Expr, CollectIndexRangeNoRange) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  const auto e = Expr::StrEq(2, "FOO");
  CollectIndexRange(e.get(), 0, &lo, &hi, &has_range, &pure);
  EXPECT_FALSE(has_range);
  EXPECT_FALSE(pure);
}

TEST(Expr, CollectIndexRangeOrIsResidual) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  const auto range = Expr::Cmp(0, CmpOp::kLe, Value::Double(5.0));
  const auto ored = Expr::Or(Expr::Cmp(0, CmpOp::kLe, Value::Double(1.0)),
                             Expr::Cmp(0, CmpOp::kGe, Value::Double(9.0)));
  CollectIndexRange(Expr::And(range, ored).get(), 0, &lo, &hi, &has_range, &pure);
  EXPECT_TRUE(has_range);
  EXPECT_FALSE(pure);
  EXPECT_DOUBLE_EQ(hi, 5.0);  // only the conjunct range tightened
}

TEST(Expr, ToStringRendersReadably) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  const auto e = Expr::And(Expr::Cmp(0, CmpOp::kLe, Value::Int64(9)),
                           Expr::CmpColumns(0, CmpOp::kLt, 1));
  EXPECT_EQ(e->ToString(&schema), "(a <= 9 AND a < b)");
}

}  // namespace
}  // namespace uqp
