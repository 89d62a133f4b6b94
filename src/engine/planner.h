#pragma once

#include <memory>

#include "common/status.h"
#include "engine/cardinality.h"
#include "engine/plan.h"

namespace uqp {

/// Rewrites a logical tree (scans as SeqScan, joins as HashJoin) into a
/// physical plan: access-path selection (an index scan when the predicate
/// implies a range of estimated selectivity at most 0.12 on an indexed
/// column, else a seq scan) and join algorithm choice (a nested loop when
/// the inner is estimated at most 64 rows, else a hash join; joins without
/// keys become nested-loop cross joins with residual predicates).
///
/// Column references are preserved: children are never reordered, so key
/// and aggregate column indexes written against the logical tree remain
/// valid in the physical plan.
StatusOr<Plan> OptimizePlan(std::unique_ptr<PlanNode> root,
                            const Database& db);

}  // namespace uqp
