#include "costfunc/fitter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "cost/units.h"
#include "math/nnls.h"

namespace uqp {

namespace {

/// W: subintervals of the 3σ interval for 1-D shapes (W+1 points).
constexpr int kGrid1d = 6;
/// W per axis for 2-D shapes ((W+1)² points).
constexpr int kGrid2d = 4;

/// The likely range of a selectivity: [μ - 3σ, μ + 3σ] clamped to [0, 1]
/// (paper §4.2; Pr(X in I) ≈ 0.997). Degenerate intervals are widened
/// slightly for numerical conditioning.
struct GridRange {
  double lo, hi;

  explicit GridRange(const Gaussian& g) {
    lo = std::clamp(g.mean - 3.0 * g.stddev(), 0.0, 1.0);
    hi = std::clamp(g.mean + 3.0 * g.stddev(), 0.0, 1.0);
    if (hi - lo < 1e-9) {
      const double pad = std::max(1e-4, 0.05 * std::max(g.mean, 1e-3));
      lo = std::clamp(g.mean - pad, 0.0, 1.0);
      hi = std::clamp(g.mean + pad, 0.0, 1.0);
      if (hi - lo < 1e-9) hi = std::min(1.0, lo + 1e-4);
    }
  }

  /// Point i of `subintervals` + 1 equally spaced grid points.
  double Point(int i, int subintervals) const {
    return lo + (hi - lo) * static_cast<double>(i) / subintervals;
  }
};

/// The cost-model oracle: expected counters for one operator at a
/// selectivity point. Cardinalities are reconstructed from selectivities
/// via the leaf-row products (Nl = |Rl| Xl etc., paper §4.1).
class Oracle {
 public:
  Oracle(const PlanNode& node, const Database& db) : node_(node) {
    ctx_.type = node.type;
    ctx_.qual_ops = PredicateOpCount(node.predicate.get());
    if (IsScan(node.type)) {
      const Table& t = db.GetTable(node.table_name);
      ctx_.table_rows = static_cast<double>(t.num_rows());
      ctx_.table_pages = static_cast<double>(t.num_pages());
      ctx_.index_range_ratio = IndexRangeRatio(node, db);
    }
    if (node.left != nullptr) {
      ctx_.left_width = node.left->output_schema.TupleWidthBytes();
    }
    if (node.right != nullptr) {
      ctx_.right_width = node.right->output_schema.TupleWidthBytes();
    }
  }

  ResourceVector Counters(double x, double xl, double xr) const {
    OperatorContext ctx = ctx_;
    ctx.out_rows = std::max(0.0, x) * node_.leaf_row_product;
    if (node_.left != nullptr) {
      ctx.left_rows = std::max(0.0, xl) * node_.left->leaf_row_product;
    }
    if (node_.right != nullptr) {
      ctx.right_rows = std::max(0.0, xr) * node_.right->leaf_row_product;
    }
    return EstimateResources(ctx, kEngineConfig);
  }

 private:
  const PlanNode& node_;
  OperatorContext ctx_;
};

/// A selectivity point and the oracle's counters there.
struct FitPoint {
  double x, xl, xr;
  ResourceVector counters;
};

/// The grids a node's functions are fitted on. Shapes that vary the same
/// selectivities share one grid: C3'/C4' vary Xl, C5'/C6' vary Xl and Xr.
enum class Grid { kConstant, kOutput, kLeft, kBoth };
constexpr int kNumGrids = 4;

Grid GridOf(CostFuncType type) {
  switch (type) {
    case CostFuncType::kConstant:
      return Grid::kConstant;
    case CostFuncType::kLinearOutput:
      return Grid::kOutput;
    case CostFuncType::kLinearLeft:
    case CostFuncType::kQuadraticLeft:
      return Grid::kLeft;
    case CostFuncType::kLinearBoth:
    case CostFuncType::kBilinear:
      return Grid::kBoth;
  }
  return Grid::kConstant;
}

size_t GridSize(Grid grid) {
  switch (grid) {
    case Grid::kConstant:
      return 1;
    case Grid::kOutput:
    case Grid::kLeft:
      return kGrid1d + 1;
    case Grid::kBoth:
      return (kGrid2d + 1) * (kGrid2d + 1);
  }
  return 0;
}

/// Appends one grid's points to `pts`, probing the oracle once per point.
/// The non-varying selectivities sit at their means.
void AppendGrid(Grid grid, const Oracle& oracle, const Gaussian& gx,
                const Gaussian& gl, const Gaussian& gr,
                std::vector<FitPoint>* pts) {
  auto probe = [&](double x, double xl, double xr) {
    pts->push_back({x, xl, xr, oracle.Counters(x, xl, xr)});
  };
  switch (grid) {
    case Grid::kConstant:
      probe(gx.mean, gl.mean, gr.mean);
      break;
    case Grid::kOutput: {
      const GridRange range(gx);
      for (int i = 0; i <= kGrid1d; ++i) {
        probe(range.Point(i, kGrid1d), gl.mean, gr.mean);
      }
      break;
    }
    case Grid::kLeft: {
      const GridRange range(gl);
      for (int i = 0; i <= kGrid1d; ++i) {
        probe(gx.mean, range.Point(i, kGrid1d), gr.mean);
      }
      break;
    }
    case Grid::kBoth: {
      const GridRange left(gl), right(gr);
      for (int i = 0; i <= kGrid2d; ++i) {
        const double xl = left.Point(i, kGrid2d);
        for (int j = 0; j <= kGrid2d; ++j) {
          probe(gx.mean, xl, right.Point(j, kGrid2d));
        }
      }
      break;
    }
  }
}

/// Fits one cost unit's function of shape `type` to the oracle's counter
/// on the grid points [begin, end), reusing `problem`'s storage.
StatusOr<std::vector<double>> FitCoefficients(CostFuncType type, int unit,
                                              const FitPoint* begin,
                                              const FitPoint* end,
                                              NnlsProblem* problem) {
  if (type == CostFuncType::kConstant) {
    // Single coefficient: the oracle value itself.
    return std::vector<double>{begin->counters.Get(unit)};
  }
  const int ncoef = CostFuncNumCoefficients(type);
  problem->rows = static_cast<int>(end - begin);
  problem->cols = ncoef;
  problem->nonnegative.assign(static_cast<size_t>(ncoef), true);
  problem->nonnegative[static_cast<size_t>(ncoef) - 1] = false;  // constant free
  problem->a.clear();
  problem->a.reserve(static_cast<size_t>(problem->rows) * ncoef);
  problem->y.clear();
  problem->y.reserve(static_cast<size_t>(problem->rows));
  for (const FitPoint* p = begin; p != end; ++p) {
    switch (type) {
      case CostFuncType::kLinearOutput:
        problem->a.insert(problem->a.end(), {p->x, 1.0});
        break;
      case CostFuncType::kLinearLeft:
        problem->a.insert(problem->a.end(), {p->xl, 1.0});
        break;
      case CostFuncType::kQuadraticLeft:
        problem->a.insert(problem->a.end(), {p->xl * p->xl, p->xl, 1.0});
        break;
      case CostFuncType::kLinearBoth:
        problem->a.insert(problem->a.end(), {p->xl, p->xr, 1.0});
        break;
      case CostFuncType::kBilinear:
        problem->a.insert(problem->a.end(),
                          {p->xl * p->xr, p->xl, p->xr, 1.0});
        break;
      case CostFuncType::kConstant:
        break;
    }
    problem->y.push_back(p->counters.Get(unit));
  }
  UQP_ASSIGN_OR_RETURN(NnlsResult result, SolveNnls(*problem));
  return std::move(result.coefficients);
}

}  // namespace

StatusOr<OperatorCostFunctions> CostFunctionFitter::FitNode(
    const PlanNode& node, const PlanEstimates& estimates) const {
  OperatorCostFunctions out;
  out.node_id = node.id;
  out.op_type = node.type;
  out.var_own = estimates.variable_of_node[static_cast<size_t>(node.id)];
  const Gaussian gx = estimates.ops[static_cast<size_t>(node.id)].AsGaussian();
  Gaussian gl(1.0, 0.0), gr(1.0, 0.0);
  if (node.left != nullptr) {
    out.var_left = estimates.variable_of_node[static_cast<size_t>(node.left->id)];
    gl = estimates.ops[static_cast<size_t>(node.left->id)].AsGaussian();
  }
  if (node.right != nullptr) {
    out.var_right = estimates.variable_of_node[static_cast<size_t>(node.right->id)];
    gr = estimates.ops[static_cast<size_t>(node.right->id)].AsGaussian();
  }

  // Probe each grid the node's shapes need once; every cost unit of that
  // grid reads its counter from the same points.
  CostFuncType types[kNumCostUnits];
  bool needed[kNumGrids] = {};
  for (int unit = 0; unit < kNumCostUnits; ++unit) {
    types[unit] = CostFunctionTypeFor(node.type, unit);
    needed[static_cast<int>(GridOf(types[unit]))] = true;
  }
  size_t num_points = 0;
  for (int g = 0; g < kNumGrids; ++g) {
    if (needed[g]) num_points += GridSize(static_cast<Grid>(g));
  }
  const Oracle oracle(node, *db_);
  std::vector<FitPoint> pts;
  pts.reserve(num_points);
  size_t grid_begin[kNumGrids], grid_end[kNumGrids];
  for (int g = 0; g < kNumGrids; ++g) {
    grid_begin[g] = pts.size();
    if (needed[g]) {
      AppendGrid(static_cast<Grid>(g), oracle, gx, gl, gr, &pts);
    }
    grid_end[g] = pts.size();
  }

  NnlsProblem problem;
  for (int unit = 0; unit < kNumCostUnits; ++unit) {
    const int g = static_cast<int>(GridOf(types[unit]));
    UQP_ASSIGN_OR_RETURN(
        out.funcs[unit].b,
        FitCoefficients(types[unit], unit, pts.data() + grid_begin[g],
                        pts.data() + grid_end[g], &problem));
    out.funcs[unit].type = types[unit];
  }
  return out;
}

StatusOr<std::vector<OperatorCostFunctions>> CostFunctionFitter::FitPlan(
    const Plan& plan, const PlanEstimates& estimates) const {
  std::vector<OperatorCostFunctions> out(
      static_cast<size_t>(plan.num_operators()));
  for (const PlanNode* node : plan.NodesPreorder()) {
    UQP_ASSIGN_OR_RETURN(out[static_cast<size_t>(node->id)],
                         FitNode(*node, estimates));
  }
  return out;
}

}  // namespace uqp
