#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/expr.h"
#include "storage/database.h"

namespace uqp {

/// Physical operator types (paper §2: unary/binary operators in a rooted
/// binary tree; leaves are scans).
enum class OpType {
  kSeqScan,
  kIndexScan,
  kHashJoin,
  kMergeJoin,
  kNestLoopJoin,
  kSort,
  kAggregate,
  kMaterialize,
};

const char* OpTypeName(OpType t);

bool IsScan(OpType t);
bool IsJoin(OpType t);
/// Pass-through operators emit exactly their input (M = Nl): their
/// selectivity is their child's selectivity variable.
bool IsPassThrough(OpType t);

/// Aggregate function kinds.
struct AggSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind = Kind::kCount;
  int column = -1;  ///< input column; ignored for kCount
  std::string name = "agg";
};

/// One node of a physical plan tree.
struct PlanNode {
  OpType type = OpType::kSeqScan;

  // --- scans ---
  std::string table_name;
  /// Scan filter, or join residual filter (over the concatenated child
  /// schemas), evaluated after the join keys match.
  ExprPtr predicate;
  /// For index scans: the indexed column; the predicate must be a range or
  /// equality over exactly this column.
  int index_column = -1;

  // --- joins: equi-join keys as (left column, right column) indexes into
  // the child output schemas ---
  std::vector<std::pair<int, int>> join_keys;

  // --- sort ---
  std::vector<int> sort_columns;

  // --- aggregate ---
  std::vector<int> group_columns;
  std::vector<AggSpec> aggregates;

  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;

  // ----- Derived by Plan::Finalize -----
  int id = -1;                            ///< preorder operator id
  Schema output_schema;
  int leaf_begin = 0;                     ///< [leaf_begin, leaf_end) leaf span
  int leaf_end = 0;
  bool has_aggregate_below = false;       ///< some strict descendant aggregates
  double leaf_row_product = 1.0;          ///< Π |R| over leaf tables of subtree

  bool is_unary() const { return right == nullptr; }
};

/// The interned identity of a plan: its 64-bit structural fingerprint and
/// the canonical byte serialization of its structure (PlanStructuralKey —
/// typically a few hundred bytes). Computed lazily once per Plan object
/// and shared by reference from there on: the service layer's cache
/// entries, in-flight records and async requests all alias one immutable
/// instance instead of re-serializing the plan per request and storing a
/// copy per table.
struct PlanIdentity {
  uint64_t fingerprint = 0;
  std::string key;
};

/// A finalized physical plan: ids assigned, schemas derived, leaf order
/// fixed. Leaf order is the in-order sequence of scan operators; the
/// sampling layer uses leaf positions to bind (possibly distinct) sample
/// tables per occurrence of a relation.
class Plan {
 public:
  Plan() = default;
  explicit Plan(std::unique_ptr<PlanNode> root) : root_(std::move(root)) {}

  /// Assigns operator ids, derives output schemas and leaf spans.
  /// Fails if referenced tables/columns don't exist. Drops any memoized
  /// identity: the plan may have been structurally edited before the
  /// (re-)finalization.
  Status Finalize(const Database& db);

  /// Deep copy that preserves the finalized state: operator ids, derived
  /// schemas, leaf spans and counters are copied verbatim and expression
  /// trees are cloned node for node, so the copy shares no allocation with
  /// the original and needs no re-Finalize (and hence no Database). This
  /// is the ownership primitive behind fire-and-forget PredictAsync: a
  /// queued request holds a clone of the caller's plan, so the caller may
  /// destroy it the moment the call returns.
  Plan Clone() const;

  const PlanNode* root() const { return root_.get(); }
  PlanNode* mutable_root() { return root_.get(); }

  int num_operators() const { return num_operators_; }
  int num_leaves() const { return num_leaves_; }

  /// All nodes in preorder (index == node id).
  std::vector<const PlanNode*> NodesPreorder() const;

  /// Leaf (scan) nodes left to right (index == leaf position).
  std::vector<const PlanNode*> Leaves() const;

  /// Pretty-printed tree for debugging / examples.
  std::string ToString() const;

  /// The memoized structural identity (fingerprint + canonical key) of
  /// this plan. Computed on first use — thread-safe: concurrent first
  /// calls race benignly and every caller ends up sharing one immutable
  /// instance — and aliased by every later call, so a recurring plan
  /// object pays the O(plan) serialization exactly once no matter how
  /// many requests it is submitted to. Clone() shares the memo (the copy
  /// is structurally identical by construction). The plan must not be
  /// structurally mutated after the first Identity() call without
  /// re-running Finalize, which drops the memo.
  std::shared_ptr<const PlanIdentity> Identity() const;

 private:
  std::unique_ptr<PlanNode> root_;
  int num_operators_ = 0;
  int num_leaves_ = 0;
  /// Lazily published identity; accessed only through the std::atomic_*
  /// shared_ptr free functions (plain moves are fine: a Plan is never
  /// moved concurrently with Identity()).
  mutable std::shared_ptr<const PlanIdentity> identity_;
};

/// Fluent helpers for building plan trees in workloads/tests.
std::unique_ptr<PlanNode> MakeSeqScan(const std::string& table, ExprPtr predicate);
std::unique_ptr<PlanNode> MakeIndexScan(const std::string& table, int column,
                                        ExprPtr predicate);
std::unique_ptr<PlanNode> MakeHashJoin(std::unique_ptr<PlanNode> left,
                                       std::unique_ptr<PlanNode> right,
                                       std::vector<std::pair<int, int>> keys,
                                       ExprPtr residual = nullptr);
std::unique_ptr<PlanNode> MakeMergeJoin(std::unique_ptr<PlanNode> left,
                                        std::unique_ptr<PlanNode> right,
                                        std::vector<std::pair<int, int>> keys,
                                        ExprPtr residual = nullptr);
std::unique_ptr<PlanNode> MakeNestLoopJoin(std::unique_ptr<PlanNode> left,
                                           std::unique_ptr<PlanNode> right,
                                           std::vector<std::pair<int, int>> keys,
                                           ExprPtr residual = nullptr);
std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> child,
                                   std::vector<int> sort_columns);
std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> child,
                                        std::vector<int> group_columns,
                                        std::vector<AggSpec> aggregates);
std::unique_ptr<PlanNode> MakeMaterialize(std::unique_ptr<PlanNode> child);

/// Deep copy of a plan subtree (derived fields reset; predicates shared).
/// For a copy of a whole finalized plan use Plan::Clone, which also
/// carries the derived fields and clones the expression trees.
std::unique_ptr<PlanNode> ClonePlanTree(const PlanNode& node);

/// Structural 64-bit fingerprint of a finalized plan: operator types and
/// tree shape, table names, predicates, join keys, sort/group columns and
/// aggregate specs. Two plans with the same fingerprint execute the same
/// physical query, so their sample-run artifacts are interchangeable —
/// this is the cache key of the service layer. (A 64-bit hash: collisions
/// are possible in principle but need ~2³² distinct cached plans to
/// become likely.)
uint64_t PlanFingerprint(const Plan& plan);

/// Canonical byte serialization of the plan structure: two plans produce
/// the same key iff they are structurally equal (same tree shape, operator
/// types, tables, predicates, join keys, sort/group columns and aggregate
/// specs) — exactly the equivalence PlanFingerprint approximates. The
/// service layer stores this key alongside each cache entry and confirms
/// it on every fingerprint hit, so a 64-bit hash collision degrades to a
/// cache miss instead of serving another plan's artifacts.
std::string PlanStructuralKey(const Plan& plan);

}  // namespace uqp
