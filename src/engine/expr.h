#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "storage/table.h"
#include "storage/value.h"

namespace uqp {

/// Comparison operators for predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Boolean scalar expression tree over one row. Leaves compare a column
/// against a constant (range predicates are numeric-only; strings support
/// equality). Interior nodes are AND / OR / NOT.
///
/// Expressions deliberately stay simple: they are exactly the predicate
/// language the paper's workloads need (Picasso-style range selections,
/// TPC-H filters) and each comparison node counts as one CPU "operation"
/// for the c_o cost unit.
struct Expr {
  enum class Kind { kCmp, kCmpCol, kAnd, kOr, kNot };

  Kind kind = Kind::kCmp;
  // kCmp / kCmpCol:
  CmpOp op = CmpOp::kEq;
  int column = -1;
  Value constant;    // kCmp only
  int column2 = -1;  // kCmpCol only
  // kAnd / kOr / kNot:
  ExprPtr lhs;
  ExprPtr rhs;

  static ExprPtr Cmp(int column, CmpOp op, Value constant);
  /// column <op> column2 (numeric columns).
  static ExprPtr CmpColumns(int column, CmpOp op, int column2);
  static ExprPtr And(ExprPtr a, ExprPtr b);
  static ExprPtr Or(ExprPtr a, ExprPtr b);
  static ExprPtr Not(ExprPtr a);
  /// column BETWEEN lo AND hi (inclusive), as an AND of two comparisons.
  static ExprPtr Between(int column, Value lo, Value hi);
  /// String equality against an interned constant.
  static ExprPtr StrEq(int column, const std::string& s);

  std::string ToString(const Schema* schema = nullptr) const;
};

/// Evaluates a predicate against a row.
bool EvalPredicate(const Expr& e, RowRef row);

/// Vectorized predicate evaluation over `n` rows of a column-store table:
///   mask[i] = e(row first + i)   when `rids` is null (a contiguous chunk),
///   mask[i] = e(row rids[i])     otherwise (e.g. index-scan matches).
/// Column-at-a-time: each comparison node runs one typed loop over its
/// column's payload array instead of the per-row tree walk of
/// EvalPredicate. ANDs narrow the mask (right side only probes lanes still
/// set), ORs widen it. Semantically identical to calling EvalPredicate on
/// each row (predicates are pure), NaN, int64 beyond 2^53 and cross-type
/// string/number equality included.
void EvalPredicateColumns(const Expr& e, const Table& table, int64_t first,
                          const uint32_t* rids, int64_t n, uint8_t* mask);

/// Number of comparison nodes (CPU operations charged per tuple).
int PredicateOpCount(const Expr* e);

/// Structural 64-bit fingerprint: kind, operator, columns and constants,
/// recursively. Stable within a process (string constants hash by interned
/// pool id); null hashes to a fixed tag. Used by PlanFingerprint.
uint64_t ExprFingerprint(const Expr* e);

/// Appends an unambiguous byte serialization of the expression tree to
/// `out`: two expressions serialize identically iff they are structurally
/// equal (same shape, operators, columns and constants; string constants
/// compare by interned pool id, like ExprFingerprint). Used by
/// PlanStructuralKey to confirm fingerprint cache hits exactly.
void AppendExprKey(const Expr* e, std::string* out);

/// Appends `v` to `out` as 8 little-endian bytes — the shared fixed-width
/// integer encoding of the structural-key serializations.
void AppendKeyU64(std::string* out, uint64_t v);

/// Deep copy of an expression tree: the result shares no Expr node with
/// the input (string constants still alias the process-wide intern pool,
/// which is immortal). Expressions are immutable and refcounted, so
/// sharing an ExprPtr is normally enough — this exists for owners that
/// must be independent of every allocation the builder made, e.g. a
/// queued PredictAsync request, whose plan clone outlives the caller's.
ExprPtr CloneExprTree(const ExprPtr& e);

/// Remaps column indexes by adding `offset` (used when pushing predicates
/// above a join whose left side contributes `offset` columns).
ExprPtr ShiftColumns(const ExprPtr& e, int offset);

/// If the predicate is a conjunction of numeric comparisons that all refer
/// to `column`, intersects them into [*lo, *hi] and returns true. Used by
/// the index-scan operator and by the planner's access-path choice.
/// A null predicate is a valid (infinite) range.
bool TryExtractRange(const Expr* e, int column, double* lo, double* hi);

/// Loose variant for index scans with residual filters (PostgreSQL's
/// "Index Cond" + "Filter" split): walks top-level conjunctions, tightens
/// [*lo, *hi] from the comparisons on `column`, and reports:
///   *has_range — at least one comparison on `column` was found;
///   *pure      — the whole predicate was consumed by the range (no
///                residual conjuncts remain).
void CollectIndexRange(const Expr* e, int column, double* lo, double* hi,
                       bool* has_range, bool* pure);

}  // namespace uqp
