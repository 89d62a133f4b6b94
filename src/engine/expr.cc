#include "engine/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace uqp {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

ExprPtr Expr::Cmp(int column, CmpOp op, Value constant) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCmp;
  e->column = column;
  e->op = op;
  e->constant = constant;
  return e;
}

ExprPtr Expr::CmpColumns(int column, CmpOp op, int column2) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCmpCol;
  e->column = column;
  e->op = op;
  e->column2 = column2;
  return e;
}

ExprPtr Expr::And(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kAnd;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr Expr::Or(ExprPtr a, ExprPtr b) {
  UQP_CHECK(a != nullptr && b != nullptr);
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kOr;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr Expr::Not(ExprPtr a) {
  UQP_CHECK(a != nullptr);
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kNot;
  e->lhs = std::move(a);
  return e;
}

ExprPtr Expr::Between(int column, Value lo, Value hi) {
  return And(Cmp(column, CmpOp::kGe, lo), Cmp(column, CmpOp::kLe, hi));
}

ExprPtr Expr::StrEq(int column, const std::string& s) {
  return Cmp(column, CmpOp::kEq, Value::String(s));
}

std::string Expr::ToString(const Schema* schema) const {
  switch (kind) {
    case Kind::kCmp: {
      std::string col = schema != nullptr && column < schema->num_columns()
                            ? schema->column(column).name
                            : "$" + std::to_string(column);
      return col + " " + CmpOpName(op) + " " + constant.ToString();
    }
    case Kind::kCmpCol: {
      auto name = [schema](int c) {
        return schema != nullptr && c < schema->num_columns()
                   ? schema->column(c).name
                   : "$" + std::to_string(c);
      };
      return name(column) + " " + CmpOpName(op) + " " + name(column2);
    }
    case Kind::kAnd:
      return "(" + lhs->ToString(schema) + " AND " + rhs->ToString(schema) + ")";
    case Kind::kOr:
      return "(" + lhs->ToString(schema) + " OR " + rhs->ToString(schema) + ")";
    case Kind::kNot:
      return "NOT (" + lhs->ToString(schema) + ")";
  }
  return "?";
}

bool EvalPredicate(const Expr& e, RowRef row) {
  switch (e.kind) {
    case Expr::Kind::kCmp: {
      const Value& v = row[e.column];
      switch (e.op) {
        case CmpOp::kEq:
          return v.Equals(e.constant);
        case CmpOp::kNe:
          return !v.Equals(e.constant);
        case CmpOp::kLt:
          return v.Compare(e.constant) < 0;
        case CmpOp::kLe:
          return v.Compare(e.constant) <= 0;
        case CmpOp::kGt:
          return v.Compare(e.constant) > 0;
        case CmpOp::kGe:
          return v.Compare(e.constant) >= 0;
      }
      return false;
    }
    case Expr::Kind::kCmpCol: {
      const int cmp = row[e.column].Compare(row[e.column2]);
      switch (e.op) {
        case CmpOp::kEq:
          return cmp == 0;
        case CmpOp::kNe:
          return cmp != 0;
        case CmpOp::kLt:
          return cmp < 0;
        case CmpOp::kLe:
          return cmp <= 0;
        case CmpOp::kGt:
          return cmp > 0;
        case CmpOp::kGe:
          return cmp >= 0;
      }
      return false;
    }
    case Expr::Kind::kAnd:
      return EvalPredicate(*e.lhs, row) && EvalPredicate(*e.rhs, row);
    case Expr::Kind::kOr:
      return EvalPredicate(*e.lhs, row) || EvalPredicate(*e.rhs, row);
    case Expr::Kind::kNot:
      return !EvalPredicate(*e.lhs, row);
  }
  return false;
}

namespace {

/// How a comparison node combines into the chunk mask.
enum class MaskMode {
  kFill,    ///< mask[i] = p(i)
  kNarrow,  ///< mask[i] &= p(i), lanes already clear are skipped (AND)
  kWiden,   ///< mask[i] |= p(i), lanes already set are skipped (OR)
};

template <typename RowPred>
void ApplyMask(MaskMode mode, int64_t n, uint8_t* mask, RowPred pred) {
  switch (mode) {
    case MaskMode::kFill:
      for (int64_t i = 0; i < n; ++i) mask[i] = pred(i) ? 1 : 0;
      break;
    case MaskMode::kNarrow:
      for (int64_t i = 0; i < n; ++i) {
        if (mask[i] != 0 && !pred(i)) mask[i] = 0;
      }
      break;
    case MaskMode::kWiden:
      for (int64_t i = 0; i < n; ++i) {
        if (mask[i] == 0 && pred(i)) mask[i] = 1;
      }
      break;
  }
}

/// Lane i of a batch reads row first + i of every column.
struct ContiguousRows {
  int64_t first;
  int64_t operator()(int64_t i) const { return first + i; }
};

/// Lane i of a batch reads row rids[i] of every column.
struct GatheredRows {
  const uint32_t* rids;
  int64_t operator()(int64_t i) const { return rids[i]; }
};

/// Numeric cell decoders: a payload read as the number Value::AsDouble
/// returns for it (int64 promotes to double).
struct Int64Cells {
  static double Load(uint64_t bits) {
    int64_t v;
    std::memcpy(&v, &bits, sizeof(v));
    return static_cast<double>(v);
  }
};
struct DoubleCells {
  static double Load(uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

/// Calls fn(Int64Cells{}) or fn(DoubleCells{}) for a numeric column type.
template <typename Fn>
void WithNumericCells(ValueType type, Fn fn) {
  UQP_CHECK(type != ValueType::kString) << "string value is not numeric";
  if (type == ValueType::kInt64) {
    fn(Int64Cells{});
  } else {
    fn(DoubleCells{});
  }
}

/// column <op> constant over numbers, exactly as Value::Equals (==, so
/// NaN never equals) and Value::Compare (unordered pairs compare equal,
/// hence <= is !(>) and >= is !(<)).
template <typename Cells, typename Rows>
void CompareNumeric(CmpOp op, const uint64_t* col, Rows rows, double c,
                    MaskMode mode, int64_t n, uint8_t* mask) {
  const auto x = [col, rows](int64_t i) { return Cells::Load(col[rows(i)]); };
  switch (op) {
    case CmpOp::kEq:
      ApplyMask(mode, n, mask, [&](int64_t i) { return x(i) == c; });
      break;
    case CmpOp::kNe:
      ApplyMask(mode, n, mask, [&](int64_t i) { return !(x(i) == c); });
      break;
    case CmpOp::kLt:
      ApplyMask(mode, n, mask, [&](int64_t i) { return x(i) < c; });
      break;
    case CmpOp::kLe:
      ApplyMask(mode, n, mask, [&](int64_t i) { return !(x(i) > c); });
      break;
    case CmpOp::kGt:
      ApplyMask(mode, n, mask, [&](int64_t i) { return x(i) > c; });
      break;
    case CmpOp::kGe:
      ApplyMask(mode, n, mask, [&](int64_t i) { return !(x(i) < c); });
      break;
  }
}

/// column <op> column2 over numbers through the three-way result of
/// Value::Compare, for every op (kEq included: unordered pairs are equal).
template <typename CellsA, typename CellsB, typename Rows>
void CompareColumns(CmpOp op, const uint64_t* a, const uint64_t* b, Rows rows,
                    MaskMode mode, int64_t n, uint8_t* mask) {
  const auto cmp3 = [a, b, rows](int64_t i) {
    const int64_t r = rows(i);
    const double x = CellsA::Load(a[r]);
    const double y = CellsB::Load(b[r]);
    return x < y ? -1 : (x > y ? 1 : 0);
  };
  switch (op) {
    case CmpOp::kEq:
      ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) == 0; });
      break;
    case CmpOp::kNe:
      ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) != 0; });
      break;
    case CmpOp::kLt:
      ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) < 0; });
      break;
    case CmpOp::kLe:
      ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) <= 0; });
      break;
    case CmpOp::kGt:
      ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) > 0; });
      break;
    case CmpOp::kGe:
      ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) >= 0; });
      break;
  }
}

template <typename Rows>
void EvalColumnsImpl(const Expr& e, const Table& table, Rows rows, int64_t n,
                     uint8_t* mask, MaskMode mode) {
  switch (e.kind) {
    case Expr::Kind::kCmp: {
      const ValueType type = table.schema().column(e.column).type;
      const uint64_t* col = table.column_data(e.column);
      const Value& c = e.constant;
      if (type != ValueType::kString && c.type != ValueType::kString) {
        const double cd = c.AsDouble();
        WithNumericCells(type, [&](auto cells) {
          CompareNumeric<decltype(cells)>(e.op, col, rows, cd, mode, n, mask);
        });
        return;
      }
      // Strings support equality only: interned ids against a string
      // constant; a string never equals a number, either way round.
      UQP_CHECK(e.op == CmpOp::kEq || e.op == CmpOp::kNe)
          << "string value is not numeric";
      const bool ne = e.op == CmpOp::kNe;
      if (type != c.type) {
        ApplyMask(mode, n, mask, [ne](int64_t) { return ne; });
        return;
      }
      const int32_t id = c.s;
      ApplyMask(mode, n, mask, [col, rows, id, ne](int64_t i) {
        return (ValueOfPayload(ValueType::kString, col[rows(i)]).s == id) != ne;
      });
      return;
    }
    case Expr::Kind::kCmpCol: {
      const uint64_t* a = table.column_data(e.column);
      const uint64_t* b = table.column_data(e.column2);
      WithNumericCells(table.schema().column(e.column).type, [&](auto ca) {
        WithNumericCells(table.schema().column(e.column2).type, [&](auto cb) {
          CompareColumns<decltype(ca), decltype(cb)>(e.op, a, b, rows, mode, n,
                                                     mask);
        });
      });
      return;
    }
    case Expr::Kind::kAnd:
      if (mode == MaskMode::kWiden) {
        // mask |= (a AND b): materialize the conjunction in a scratch mask.
        std::vector<uint8_t> tmp(static_cast<size_t>(n));
        EvalColumnsImpl(*e.lhs, table, rows, n, tmp.data(), MaskMode::kFill);
        EvalColumnsImpl(*e.rhs, table, rows, n, tmp.data(), MaskMode::kNarrow);
        for (int64_t i = 0; i < n; ++i) mask[i] |= tmp[static_cast<size_t>(i)];
        return;
      }
      EvalColumnsImpl(*e.lhs, table, rows, n, mask, mode);
      EvalColumnsImpl(*e.rhs, table, rows, n, mask, MaskMode::kNarrow);
      return;
    case Expr::Kind::kOr:
      if (mode == MaskMode::kNarrow) {
        // mask &= (a OR b): materialize the disjunction in a scratch mask.
        std::vector<uint8_t> tmp(static_cast<size_t>(n));
        EvalColumnsImpl(*e.lhs, table, rows, n, tmp.data(), MaskMode::kFill);
        EvalColumnsImpl(*e.rhs, table, rows, n, tmp.data(), MaskMode::kWiden);
        for (int64_t i = 0; i < n; ++i) mask[i] &= tmp[static_cast<size_t>(i)];
        return;
      }
      EvalColumnsImpl(*e.lhs, table, rows, n, mask, mode);
      EvalColumnsImpl(*e.rhs, table, rows, n, mask, MaskMode::kWiden);
      return;
    case Expr::Kind::kNot: {
      std::vector<uint8_t> tmp(static_cast<size_t>(n));
      EvalColumnsImpl(*e.lhs, table, rows, n, tmp.data(), MaskMode::kFill);
      ApplyMask(mode, n, mask,
                [&](int64_t i) { return tmp[static_cast<size_t>(i)] == 0; });
      return;
    }
  }
}

}  // namespace

void EvalPredicateColumns(const Expr& e, const Table& table, int64_t first,
                          const uint32_t* rids, int64_t n, uint8_t* mask) {
  if (rids == nullptr) {
    EvalColumnsImpl(e, table, ContiguousRows{first}, n, mask, MaskMode::kFill);
  } else {
    EvalColumnsImpl(e, table, GatheredRows{rids}, n, mask, MaskMode::kFill);
  }
}

int PredicateOpCount(const Expr* e) {
  if (e == nullptr) return 0;
  switch (e->kind) {
    case Expr::Kind::kCmp:
    case Expr::Kind::kCmpCol:
      return 1;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return PredicateOpCount(e->lhs.get()) + PredicateOpCount(e->rhs.get());
    case Expr::Kind::kNot:
      return PredicateOpCount(e->lhs.get());
  }
  return 0;
}

uint64_t ExprFingerprint(const Expr* e) {
  if (e == nullptr) return 0x9ae16a3b2f90404fULL;  // null-predicate tag
  uint64_t h = 0xc3a5c85c97cb3127ULL;
  h = HashMix64(h, static_cast<uint64_t>(e->kind));
  switch (e->kind) {
    case Expr::Kind::kCmp:
      h = HashMix64(h, static_cast<uint64_t>(e->op));
      h = HashMix64(h, static_cast<uint64_t>(e->column));
      h = HashMix64(h, e->constant.Hash());
      break;
    case Expr::Kind::kCmpCol:
      h = HashMix64(h, static_cast<uint64_t>(e->op));
      h = HashMix64(h, static_cast<uint64_t>(e->column));
      h = HashMix64(h, static_cast<uint64_t>(e->column2));
      break;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      h = HashMix64(h, ExprFingerprint(e->lhs.get()));
      h = HashMix64(h, ExprFingerprint(e->rhs.get()));
      break;
    case Expr::Kind::kNot:
      h = HashMix64(h, ExprFingerprint(e->lhs.get()));
      break;
  }
  return h;
}

void AppendKeyU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

namespace {

void AppendKeyValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type));
  // The payload is 8 bytes for every type (string constants are interned
  // pool ids, stable within a process).
  AppendKeyU64(out, PayloadOf(v));
}

}  // namespace

void AppendExprKey(const Expr* e, std::string* out) {
  if (e == nullptr) {
    out->push_back('\0');  // null-predicate tag
    return;
  }
  out->push_back(static_cast<char>(static_cast<int>(e->kind) + 1));
  switch (e->kind) {
    case Expr::Kind::kCmp:
      out->push_back(static_cast<char>(e->op));
      AppendKeyU64(out, static_cast<uint64_t>(e->column));
      AppendKeyValue(out, e->constant);
      break;
    case Expr::Kind::kCmpCol:
      out->push_back(static_cast<char>(e->op));
      AppendKeyU64(out, static_cast<uint64_t>(e->column));
      AppendKeyU64(out, static_cast<uint64_t>(e->column2));
      break;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      AppendExprKey(e->lhs.get(), out);
      AppendExprKey(e->rhs.get(), out);
      break;
    case Expr::Kind::kNot:
      AppendExprKey(e->lhs.get(), out);
      break;
  }
}

bool TryExtractRange(const Expr* e, int column, double* lo, double* hi) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case Expr::Kind::kAnd:
      return TryExtractRange(e->lhs.get(), column, lo, hi) &&
             TryExtractRange(e->rhs.get(), column, lo, hi);
    case Expr::Kind::kCmp: {
      if (e->column != column || e->constant.type == ValueType::kString) {
        return false;
      }
      const double v = e->constant.AsDouble();
      constexpr double kInf = std::numeric_limits<double>::infinity();
      // Matches no value (Value::Compare semantics): = NaN, < NaN, > NaN,
      // < -inf and > +inf. <= NaN and >= NaN match every value.
      const auto empty = [lo, hi] {
        *lo = kInf;
        *hi = -kInf;
      };
      switch (e->op) {
        case CmpOp::kEq:
          if (std::isnan(v)) {
            empty();
            return true;
          }
          *lo = std::max(*lo, v);
          *hi = std::min(*hi, v);
          return true;
        case CmpOp::kLe:
          *hi = std::min(*hi, v);
          return true;
        case CmpOp::kLt:
          if (std::isnan(v) || v == -kInf) {
            empty();
            return true;
          }
          *hi = std::min(*hi, std::nextafter(v, -kInf));
          return true;
        case CmpOp::kGe:
          *lo = std::max(*lo, v);
          return true;
        case CmpOp::kGt:
          if (std::isnan(v) || v == kInf) {
            empty();
            return true;
          }
          *lo = std::max(*lo, std::nextafter(v, kInf));
          return true;
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

void CollectIndexRange(const Expr* e, int column, double* lo, double* hi,
                       bool* has_range, bool* pure) {
  if (e == nullptr) return;
  switch (e->kind) {
    case Expr::Kind::kAnd:
      CollectIndexRange(e->lhs.get(), column, lo, hi, has_range, pure);
      CollectIndexRange(e->rhs.get(), column, lo, hi, has_range, pure);
      return;
    case Expr::Kind::kCmp: {
      double clo = -std::numeric_limits<double>::infinity();
      double chi = std::numeric_limits<double>::infinity();
      if (e->column == column && TryExtractRange(e, column, &clo, &chi)) {
        *lo = std::max(*lo, clo);
        *hi = std::min(*hi, chi);
        *has_range = true;
        return;
      }
      *pure = false;
      return;
    }
    default:
      // OR / NOT / column-column conjuncts stay in the residual filter.
      *pure = false;
      return;
  }
}

ExprPtr CloneExprTree(const ExprPtr& e) {
  if (e == nullptr) return nullptr;
  auto out = std::make_shared<Expr>(*e);
  out->lhs = CloneExprTree(e->lhs);
  out->rhs = CloneExprTree(e->rhs);
  return out;
}

ExprPtr ShiftColumns(const ExprPtr& e, int offset) {
  if (e == nullptr) return nullptr;
  auto out = std::make_shared<Expr>(*e);
  if (e->kind == Expr::Kind::kCmp) {
    out->column += offset;
  } else if (e->kind == Expr::Kind::kCmpCol) {
    out->column += offset;
    out->column2 += offset;
  } else {
    out->lhs = ShiftColumns(e->lhs, offset);
    out->rhs = ShiftColumns(e->rhs, offset);
  }
  return out;
}

}  // namespace uqp
