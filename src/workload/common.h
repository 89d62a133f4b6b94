#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "math/rng.h"
#include "storage/database.h"

namespace uqp {

/// One benchmark query: a name plus the logical plan tree (scans as
/// SeqScan, joins as HashJoin) to be handed to OptimizePlan.
struct WorkloadQuery {
  std::string name;
  std::unique_ptr<PlanNode> logical;
};

/// Picks predicate constants from catalog statistics, so generated queries
/// land at chosen points of the selectivity space (the Picasso-style
/// generation of paper §6.2).
class ConstantPicker {
 public:
  ConstantPicker(const Database* db, Rng* rng) : db_(db), rng_(rng) {}

  /// Column index of `column` in `table`'s schema (checked).
  int ColIdx(const std::string& table, const std::string& column) const;

  /// Numeric value v such that P(col <= v) ~ fraction.
  Value NumericAtFraction(const std::string& table, const std::string& column,
                          double fraction) const;

  /// Random distinct string value of the column (uniform over distinct).
  std::string RandomString(const std::string& table, const std::string& column);

  /// `col <= v` predicate hitting the target selectivity.
  ExprPtr LessEqAtFraction(const std::string& table, const std::string& column,
                           double fraction) const;

  /// `lo <= col <= hi` covering roughly `width` of the value distribution,
  /// starting at a random offset.
  ExprPtr RangeOfWidth(const std::string& table, const std::string& column,
                       double width);

  /// Log-uniform draw from [lo, hi] — used to spread query instances
  /// across orders of magnitude of selectivity, as the paper's benchmark
  /// instances span sub-second to thousands of seconds.
  double LogUniform(double lo, double hi);

  Rng* rng() { return rng_; }

 private:
  const Database* db_;
  Rng* rng_;
};

/// Builds left-deep join chains while tracking the provenance of output
/// columns, so join keys, residuals, group-by and sort columns can be
/// written with qualified "table.column" names.
class JoinChainBuilder {
 public:
  explicit JoinChainBuilder(const Database* db) : db_(db) {}

  /// Sets the base (probe-side) relation.
  JoinChainBuilder& Start(const std::string& table, ExprPtr predicate = nullptr);

  /// Joins `table` (build side) with equi-keys given as
  /// (existing "table.column", new table's column name) pairs.
  JoinChainBuilder& Join(const std::string& table, ExprPtr predicate,
                         std::vector<std::pair<std::string, std::string>> keys);

  /// Output column index of the first occurrence of "table.column".
  int Col(const std::string& qualified) const;

  std::unique_ptr<PlanNode> Finish() { return std::move(root_); }

 private:
  const Database* db_;
  std::unique_ptr<PlanNode> root_;
  std::vector<std::pair<std::string, std::string>> columns_;  // (table, col)
};

/// All workload options in one place.
struct MicroOptions {
  int selection_queries = 60;
  int join_queries = 49;  ///< laid out on a near-square 2-D selectivity grid
  uint64_t seed = 7;
};

struct SelJoinOptions {
  int instances_per_template = 6;
  uint64_t seed = 11;
};

struct TpchWorkloadOptions {
  int instances_per_template = 3;
  uint64_t seed = 13;
};

std::vector<WorkloadQuery> MakeMicroWorkload(const Database& db,
                                             const MicroOptions& options);
std::vector<WorkloadQuery> MakeSelJoinWorkload(const Database& db,
                                               const SelJoinOptions& options);
std::vector<WorkloadQuery> MakeTpchWorkload(const Database& db,
                                            const TpchWorkloadOptions& options);

/// Dispatch by benchmark name: "micro", "seljoin", "tpch".
std::vector<WorkloadQuery> MakeWorkload(const Database& db,
                                        const std::string& kind, uint64_t seed,
                                        int size_hint);

}  // namespace uqp
