#include "engine/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "engine/cardinality.h"

namespace uqp {

double ResourceVector::Get(int cost_unit) const {
  switch (cost_unit) {
    case 0:
      return ns;
    case 1:
      return nr;
    case 2:
      return nt;
    case 3:
      return ni;
    case 4:
      return no;
  }
  UQP_CHECK(false) << "bad cost unit index " << cost_unit;
  return 0.0;
}

double ExpectedPageFetches(double rows, double pages) {
  if (pages <= 0.0 || rows <= 0.0) return 0.0;
  // Expected number of distinct pages when `rows` tuples are spread
  // uniformly at random over `pages` pages:
  //   pages * (1 - (1 - 1/pages)^rows)
  const double frac = 1.0 - std::pow(1.0 - 1.0 / pages, rows);
  return pages * frac;
}

namespace {
double PagesFor(double rows, double width_bytes) {
  if (rows <= 0.0) return 0.0;
  return std::ceil(rows * std::max(8.0, width_bytes) / kPageSizeBytes);
}

double Log2Rows(double rows) { return std::log2(std::max(2.0, rows)); }
}  // namespace

ResourceVector EstimateResources(const OperatorContext& ctx,
                                 const EngineConfig& config) {
  ResourceVector r;
  const double quals = std::max(0, ctx.qual_ops);
  switch (ctx.type) {
    case OpType::kSeqScan:
      r.ns = ctx.table_pages;
      r.nt = ctx.table_rows;
      r.no = ctx.table_rows * quals;
      break;
    case OpType::kIndexScan: {
      // Descent plus one index entry per range match; heap fetches follow
      // the uncorrelated-page approximation. Residual filters make the
      // range matches exceed the output rows by index_range_ratio.
      const double matches = std::min(
          ctx.table_rows, ctx.out_rows * std::max(1.0, ctx.index_range_ratio));
      r.ni = matches + Log2Rows(ctx.table_rows);
      r.nr = ExpectedPageFetches(matches, ctx.table_pages);
      r.nt = matches;
      r.no = matches * quals;
      break;
    }
    case OpType::kHashJoin: {
      r.no = ctx.left_rows + ctx.right_rows;
      r.nt = ctx.out_rows;
      const double build_bytes = ctx.right_rows * ctx.right_width;
      if (build_bytes > config.work_mem_bytes) {
        // Grace hash: write + re-read both inputs.
        r.ns = 2.0 * (PagesFor(ctx.left_rows, ctx.left_width) +
                      PagesFor(ctx.right_rows, ctx.right_width));
      }
      break;
    }
    case OpType::kMergeJoin:
      r.no = ctx.left_rows + ctx.right_rows;
      r.nt = ctx.out_rows;
      break;
    case OpType::kNestLoopJoin:
      r.no = ctx.left_rows * ctx.right_rows;
      r.nt = ctx.out_rows;
      break;
    case OpType::kSort: {
      r.no = ctx.left_rows * Log2Rows(ctx.left_rows);
      r.nt = ctx.left_rows;
      const double bytes = ctx.left_rows * ctx.left_width;
      if (bytes > config.work_mem_bytes) {
        r.ns = 3.0 * PagesFor(ctx.left_rows, ctx.left_width);
      }
      break;
    }
    case OpType::kAggregate:
      r.no = 2.0 * ctx.left_rows;
      r.nt = ctx.out_rows;
      break;
    case OpType::kMaterialize: {
      r.no = ctx.left_rows;
      r.nt = ctx.left_rows;
      const double bytes = ctx.left_rows * ctx.left_width;
      if (bytes > config.work_mem_bytes) {
        r.ns = 2.0 * PagesFor(ctx.left_rows, ctx.left_width);
      }
      break;
    }
  }
  return r;
}

double IndexRangeRatio(const PlanNode& node, const Database& db) {
  if (node.type != OpType::kIndexScan || node.predicate == nullptr) return 1.0;
  if (!db.catalog().Has(node.table_name)) return 1.0;
  const TableStats& stats = db.catalog().Get(node.table_name);
  if (node.index_column < 0 ||
      node.index_column >= static_cast<int>(stats.columns.size())) {
    return 1.0;
  }
  const ColumnStats& cs = stats.columns[static_cast<size_t>(node.index_column)];
  if (!cs.numeric || cs.histogram.empty()) return 1.0;

  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  CollectIndexRange(node.predicate.get(), node.index_column, &lo, &hi,
                    &has_range, &pure);
  if (!has_range || pure) return 1.0;
  const double min_sel = stats.row_count > 0
                             ? 1.0 / static_cast<double>(stats.row_count)
                             : 1e-9;
  const double sel_range =
      std::max(min_sel, cs.histogram.FractionRange(
                            std::max(lo, cs.histogram.min()),
                            std::min(hi, cs.histogram.max())));
  const CardinalityEstimator cards(&db);
  const double sel_full = std::max(
      min_sel, cards.PredicateSelectivity(node.predicate.get(), node.table_name));
  return std::max(1.0, sel_range / sel_full);
}

ResourceVector EstimateNodeResources(const PlanNode& node, const Database& db,
                                     const std::vector<double>& rows_by_id,
                                     const EngineConfig& config) {
  OperatorContext ctx;
  ctx.type = node.type;
  ctx.qual_ops = PredicateOpCount(node.predicate.get());
  ctx.out_rows = rows_by_id[static_cast<size_t>(node.id)];
  if (IsScan(node.type)) {
    const Table& t = db.GetTable(node.table_name);
    ctx.table_rows = static_cast<double>(t.num_rows());
    ctx.table_pages = static_cast<double>(t.num_pages());
    ctx.index_range_ratio = IndexRangeRatio(node, db);
  }
  if (node.left != nullptr) {
    ctx.left_rows = rows_by_id[static_cast<size_t>(node.left->id)];
    ctx.left_width = node.left->output_schema.TupleWidthBytes();
  }
  if (node.right != nullptr) {
    ctx.right_rows = rows_by_id[static_cast<size_t>(node.right->id)];
    ctx.right_width = node.right->output_schema.TupleWidthBytes();
  }
  return EstimateResources(ctx, config);
}

ResourceVector OptimizerResources(const Plan& plan, const Database& db) {
  CardinalityEstimator estimator(&db);
  const std::vector<double> rows = estimator.EstimatePlan(plan);
  ResourceVector total;
  for (const PlanNode* node : plan.NodesPreorder()) {
    total += EstimateNodeResources(*node, db, rows, kEngineConfig);
  }
  return total;
}

double OptimizerScalarCost(const Plan& plan, const Database& db) {
  // PostgreSQL's default cost weights (paper Table 1's charge units).
  constexpr double kSeqPage = 1.0;
  constexpr double kRandPage = 4.0;
  constexpr double kTuple = 0.01;
  constexpr double kIndexTuple = 0.005;
  constexpr double kOperator = 0.0025;
  return OptimizerResources(plan, db)
      .Dot(kSeqPage, kRandPage, kTuple, kIndexTuple, kOperator);
}

}  // namespace uqp
