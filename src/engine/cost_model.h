#pragma once

#include <vector>

#include "engine/plan.h"

namespace uqp {

/// The five resource counters of PostgreSQL's cost model (paper Table 1):
///   ns — pages sequentially scanned   (charged c_s)
///   nr — pages randomly accessed      (charged c_r)
///   nt — tuples processed/emitted     (charged c_t)
///   ni — index entries processed      (charged c_i)
///   no — CPU operations (hash/compare)(charged c_o)
struct ResourceVector {
  double ns = 0.0;
  double nr = 0.0;
  double nt = 0.0;
  double ni = 0.0;
  double no = 0.0;

  ResourceVector& operator+=(const ResourceVector& o) {
    ns += o.ns;
    nr += o.nr;
    nt += o.nt;
    ni += o.ni;
    no += o.no;
    return *this;
  }

  /// t = ns*cs + nr*cr + nt*ct + ni*ci + no*co  (paper Eq. 1).
  double Dot(double cs, double cr, double ct, double ci, double co) const {
    return ns * cs + nr * cr + nt * ct + ni * ci + no * co;
  }

  double Get(int cost_unit) const;       ///< 0..4 = ns,nr,nt,ni,no
};

/// Engine-wide execution parameters.
struct EngineConfig {
  /// Memory budget per operator before hash joins / sorts / materializes
  /// spill to disk. Scaled down with the data (PostgreSQL default is 4MB
  /// against GB-scale data; we run 1:100 row scale).
  double work_mem_bytes = 64.0 * 1024;
};

/// The engine configuration every layer uses: the executor spills, and the
/// optimizer's cost model and the fitter's oracle charge, against one
/// work_mem.
inline constexpr EngineConfig kEngineConfig{};

/// Inputs the optimizer cost model needs for one operator.
struct OperatorContext {
  OpType type = OpType::kSeqScan;
  // Scans:
  double table_rows = 0.0;
  double table_pages = 0.0;
  int qual_ops = 0;         ///< comparison count of the local predicate
  // Cardinalities:
  double left_rows = 0.0;   ///< Nl (0 if leaf)
  double right_rows = 0.0;  ///< Nr (0 if unary)
  double out_rows = 0.0;    ///< M
  // Tuple widths of child outputs in bytes (spill estimation):
  double left_width = 0.0;
  double right_width = 0.0;
  /// Index scans: estimated (rows matching the index range) / (rows
  /// passing the whole predicate), >= 1. Index work scales with the range
  /// matches while M counts survivors of the residual filter, so the
  /// index counters are out_rows * ratio — still linear in the operator's
  /// own selectivity, preserving the C2 cost-function shape.
  double index_range_ratio = 1.0;
};

/// The optimizer's resource model: expected counter values as a function of
/// cardinalities. This is the function the logical-cost-function fitter
/// probes on grid points (paper §4.2, "feeding in the cost model with
/// different X's"). The executor's *actual* counters deviate from these
/// formulas (hash collisions, correlated index pages, exact sort
/// comparisons) — that deviation is one of the paper's three error sources
/// (errors in g).
ResourceVector EstimateResources(const OperatorContext& ctx,
                                 const EngineConfig& config);

/// Convenience: builds the OperatorContext for a finalized plan node given
/// per-node cardinality estimates (indexed by node id), then estimates.
ResourceVector EstimateNodeResources(const PlanNode& node, const Database& db,
                                     const std::vector<double>& rows_by_id,
                                     const EngineConfig& config);

/// Expected distinct heap pages touched when fetching `rows` random tuples
/// from a table of `pages` pages (Mackert–Lohman style approximation).
double ExpectedPageFetches(double rows, double pages);

/// Estimated index_range_ratio for an index-scan node (1.0 for other
/// nodes or when statistics are unavailable).
double IndexRangeRatio(const PlanNode& node, const Database& db);

/// The optimizer's resource estimate for a whole plan: every node's
/// estimated counters (from the optimizer's cardinality estimates),
/// summed. Dotted with calibrated unit means it is a time in ms — the
/// degraded-mode predictor's mean when sampling fails.
ResourceVector OptimizerResources(const Plan& plan, const Database& db);

/// The optimizer's scalar plan cost: OptimizerResources dotted with
/// PostgreSQL's default charge weights (seq_page=1.0, rand_page=4.0,
/// tuple=0.01, index_tuple=0.005, operator=0.0025). A number in cost
/// units, not time: the coarse single-number signal the cost-only
/// scheduling baseline ranks by, after its own fitted scale to ms.
double OptimizerScalarCost(const Plan& plan, const Database& db);

}  // namespace uqp
