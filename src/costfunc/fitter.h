#pragma once

#include <vector>

#include "common/status.h"
#include "cost/units.h"
#include "costfunc/types.h"
#include "engine/cost_model.h"
#include "engine/plan.h"
#include "sampling/estimator.h"
#include "storage/database.h"

namespace uqp {

/// Fitted logical cost functions for one operator: one function per cost
/// unit, plus the selectivity variables (node ids owning them) that the
/// functions reference.
struct OperatorCostFunctions {
  int node_id = -1;
  OpType op_type = OpType::kSeqScan;
  FittedCostFunction funcs[kNumCostUnits];
  /// Owning node ids of the selectivity variables; -1 when unused (e.g.
  /// var_left on a leaf).
  int var_own = -1;
  int var_left = -1;
  int var_right = -1;
};

/// Fits the logical cost functions of every operator in a plan by probing
/// the optimizer's cost model on a grid of selectivity points centered on
/// the estimated distributions (μ ± 3σ, clamped to [0, 1]) and solving the
/// nonnegativity-constrained least-squares problem of §4.2. The grid is the
/// paper's: W = 6 subintervals of the 3σ interval for 1-D shapes (7
/// points), W = 4 per axis for 2-D shapes (25 points).
class CostFunctionFitter {
 public:
  explicit CostFunctionFitter(const Database* db) : db_(db) {}

  StatusOr<std::vector<OperatorCostFunctions>> FitPlan(
      const Plan& plan, const PlanEstimates& estimates) const;

  /// Fits a single operator (exposed for tests and ablations).
  StatusOr<OperatorCostFunctions> FitNode(const PlanNode& node,
                                          const PlanEstimates& estimates) const;

 private:
  const Database* db_;
};

}  // namespace uqp
