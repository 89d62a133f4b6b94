#include "engine/planner.h"

#include <limits>

#include "common/logging.h"

namespace uqp {

namespace {

/// Estimated scan selectivity at or below which an index scan is preferred
/// over a sequential scan (when the predicate is an indexable range).
constexpr double kIndexSelectivityThreshold = 0.12;
/// Estimated inner cardinality at or below which an equi-join runs as a
/// nested-loop join instead of a hash join.
constexpr double kNestLoopInnerRows = 64.0;

/// Estimated selectivity of the range the predicate implies over an
/// indexed column, or 1.0 if the predicate has no range on it.
double IndexRangeSelectivity(const Expr* e, int column, const TableStats& stats) {
  if (e == nullptr) return 1.0;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  CollectIndexRange(e, column, &lo, &hi, &has_range, &pure);
  if (!has_range) return 1.0;
  if (column >= static_cast<int>(stats.columns.size())) return 1.0;
  const ColumnStats& cs = stats.columns[static_cast<size_t>(column)];
  if (!cs.numeric || cs.histogram.empty()) return 1.0;
  return cs.histogram.FractionRange(std::max(lo, cs.histogram.min()),
                                    std::min(hi, cs.histogram.max()));
}

void RewriteNode(PlanNode* node, const Database& db,
                 const std::vector<double>& rows_by_id) {
  if (node->left != nullptr) RewriteNode(node->left.get(), db, rows_by_id);
  if (node->right != nullptr) RewriteNode(node->right.get(), db, rows_by_id);

  if (node->type == OpType::kSeqScan && node->predicate != nullptr) {
    const Table& table = db.GetTable(node->table_name);
    const TableStats& stats = db.catalog().Get(node->table_name);
    // Choose the indexed column with the most selective range implied by
    // the predicate; remaining conjuncts run as a residual filter
    // (PostgreSQL's Index Cond + Filter).
    int best_col = -1;
    double best_sel = kIndexSelectivityThreshold;
    for (int c = 0; c < table.schema().num_columns(); ++c) {
      if (!table.HasIndex(c)) continue;
      const double sel = IndexRangeSelectivity(node->predicate.get(), c, stats);
      if (sel <= best_sel) {
        best_sel = sel;
        best_col = c;
      }
    }
    if (best_col >= 0) {
      node->type = OpType::kIndexScan;
      node->index_column = best_col;
    }
    return;
  }

  if (node->type == OpType::kHashJoin) {
    if (node->join_keys.empty()) {
      // Cross join / pure residual join must run as a nested loop.
      node->type = OpType::kNestLoopJoin;
      return;
    }
    const double inner_rows = rows_by_id[static_cast<size_t>(node->right->id)];
    if (inner_rows <= kNestLoopInnerRows) {
      node->type = OpType::kNestLoopJoin;
    }
  }
}

}  // namespace

StatusOr<Plan> OptimizePlan(std::unique_ptr<PlanNode> root,
                            const Database& db) {
  if (root == nullptr) return Status::InvalidArgument("empty logical tree");
  Plan plan(std::move(root));
  // Ids, schemas and leaf spans for the estimator; the identity waits for
  // the rewritten plan.
  UQP_RETURN_IF_ERROR(plan.Derive(db));

  const std::vector<double> rows_by_id =
      CardinalityEstimator(&db).EstimatePlan(plan);
  RewriteNode(plan.mutable_root(), db, rows_by_id);

  // Operator types changed: the identity is computed here, once (ids are
  // unchanged by the rewrite, but Finalize also re-validates index scans).
  UQP_RETURN_IF_ERROR(plan.Finalize(db));
  return plan;
}

}  // namespace uqp
