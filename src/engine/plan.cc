#include "engine/plan.h"

#include <functional>

#include "common/logging.h"

namespace uqp {

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kSeqScan:
      return "SeqScan";
    case OpType::kIndexScan:
      return "IndexScan";
    case OpType::kHashJoin:
      return "HashJoin";
    case OpType::kMergeJoin:
      return "MergeJoin";
    case OpType::kNestLoopJoin:
      return "NestLoopJoin";
    case OpType::kSort:
      return "Sort";
    case OpType::kAggregate:
      return "Aggregate";
    case OpType::kMaterialize:
      return "Materialize";
  }
  return "?";
}

bool IsScan(OpType t) {
  return t == OpType::kSeqScan || t == OpType::kIndexScan;
}

bool IsJoin(OpType t) {
  return t == OpType::kHashJoin || t == OpType::kMergeJoin ||
         t == OpType::kNestLoopJoin;
}

bool IsPassThrough(OpType t) {
  return t == OpType::kSort || t == OpType::kMaterialize;
}

namespace {

/// Checks a scan predicate or join residual against the schema it runs
/// over: every column in range, and ordering or column-column comparisons
/// only over numbers (strings support equality only, against any
/// constant).
Status CheckPredicate(const Expr* e, const Schema& schema) {
  if (e == nullptr) return Status::OK();
  const auto in_range = [&schema](int c) {
    return c >= 0 && c < schema.num_columns();
  };
  const auto is_string = [&schema](int c) {
    return schema.column(c).type == ValueType::kString;
  };
  switch (e->kind) {
    case Expr::Kind::kCmp:
      if (!in_range(e->column)) {
        return Status::InvalidArgument("predicate column out of range");
      }
      if (e->op != CmpOp::kEq && e->op != CmpOp::kNe &&
          (is_string(e->column) || e->constant.type == ValueType::kString)) {
        return Status::InvalidArgument(
            "ordering comparison on a string in predicate " + e->ToString(&schema));
      }
      return Status::OK();
    case Expr::Kind::kCmpCol:
      if (!in_range(e->column) || !in_range(e->column2)) {
        return Status::InvalidArgument("predicate column out of range");
      }
      if (is_string(e->column) || is_string(e->column2)) {
        return Status::InvalidArgument(
            "column comparison on a string column in predicate " +
            e->ToString(&schema));
      }
      return Status::OK();
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
      if (e->lhs == nullptr || (e->kind != Expr::Kind::kNot && e->rhs == nullptr)) {
        return Status::InvalidArgument("predicate connective missing an operand");
      }
      UQP_RETURN_IF_ERROR(CheckPredicate(e->lhs.get(), schema));
      return CheckPredicate(e->rhs.get(), schema);
  }
  return Status::InvalidArgument("unknown predicate kind");
}

Status FinalizeNode(PlanNode* node, const Database& db, int* next_id,
                    int* next_leaf) {
  node->id = (*next_id)++;
  node->leaf_begin = *next_leaf;

  if (IsScan(node->type)) {
    if (!db.HasTable(node->table_name)) {
      return Status::NotFound("plan references unknown table " + node->table_name);
    }
    const Table& table = db.GetTable(node->table_name);
    node->output_schema = table.schema();
    node->leaf_row_product = static_cast<double>(table.num_rows());
    node->has_aggregate_below = false;
    if (node->type == OpType::kIndexScan) {
      if (node->index_column < 0 ||
          node->index_column >= node->output_schema.num_columns()) {
        return Status::InvalidArgument("index scan column out of range");
      }
      if (node->output_schema.column(node->index_column).type ==
          ValueType::kString) {
        return Status::InvalidArgument("index scan on a string column");
      }
    }
    UQP_RETURN_IF_ERROR(CheckPredicate(node->predicate.get(), node->output_schema));
    ++(*next_leaf);
    node->leaf_end = *next_leaf;
    return Status::OK();
  }

  if (node->left == nullptr) {
    return Status::InvalidArgument("non-scan operator missing child");
  }
  UQP_RETURN_IF_ERROR(FinalizeNode(node->left.get(), db, next_id, next_leaf));
  if (node->right != nullptr) {
    UQP_RETURN_IF_ERROR(FinalizeNode(node->right.get(), db, next_id, next_leaf));
  }
  node->leaf_end = *next_leaf;
  node->has_aggregate_below =
      node->left->has_aggregate_below ||
      node->left->type == OpType::kAggregate ||
      (node->right != nullptr && (node->right->has_aggregate_below ||
                                  node->right->type == OpType::kAggregate));
  node->leaf_row_product =
      node->left->leaf_row_product *
      (node->right != nullptr ? node->right->leaf_row_product : 1.0);

  switch (node->type) {
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestLoopJoin: {
      if (node->right == nullptr) {
        return Status::InvalidArgument("join requires two children");
      }
      for (const auto& [l, r] : node->join_keys) {
        if (l < 0 || l >= node->left->output_schema.num_columns() ||
            r < 0 || r >= node->right->output_schema.num_columns()) {
          return Status::InvalidArgument("join key column out of range");
        }
      }
      if (node->type == OpType::kMergeJoin) {
        // The executor's merge walk orders one key pair, and it can only
        // order strings against strings and numbers against numbers.
        if (node->join_keys.size() != 1) {
          return Status::InvalidArgument("merge join needs exactly one key");
        }
        const auto [l, r] = node->join_keys[0];
        if ((node->left->output_schema.column(l).type == ValueType::kString) !=
            (node->right->output_schema.column(r).type == ValueType::kString)) {
          return Status::InvalidArgument(
              "merge join key pairs a string column with a numeric one");
        }
      }
      node->output_schema = Schema::Concat(node->left->output_schema,
                                           node->right->output_schema);
      UQP_RETURN_IF_ERROR(
          CheckPredicate(node->predicate.get(), node->output_schema));
      break;
    }
    case OpType::kSort: {
      node->output_schema = node->left->output_schema;
      for (int c : node->sort_columns) {
        if (c < 0 || c >= node->output_schema.num_columns()) {
          return Status::InvalidArgument("sort column out of range");
        }
      }
      break;
    }
    case OpType::kMaterialize:
      node->output_schema = node->left->output_schema;
      break;
    case OpType::kAggregate: {
      std::vector<Column> cols;
      for (int c : node->group_columns) {
        if (c < 0 || c >= node->left->output_schema.num_columns()) {
          return Status::InvalidArgument("group column out of range");
        }
        cols.push_back(node->left->output_schema.column(c));
      }
      for (const auto& agg : node->aggregates) {
        if (agg.kind != AggSpec::Kind::kCount &&
            (agg.column < 0 ||
             agg.column >= node->left->output_schema.num_columns())) {
          return Status::InvalidArgument("aggregate column out of range");
        }
        if (agg.kind != AggSpec::Kind::kCount &&
            node->left->output_schema.column(agg.column).type ==
                ValueType::kString) {
          return Status::InvalidArgument("aggregate " + agg.name +
                                         " over a string column");
        }
        cols.emplace_back(agg.name, ValueType::kDouble);
      }
      node->output_schema = Schema(std::move(cols));
      break;
    }
    default:
      return Status::Internal("unexpected operator type");
  }
  return Status::OK();
}

}  // namespace

Status Plan::Finalize(const Database& db) {
  if (root_ == nullptr) return Status::InvalidArgument("empty plan");
  // The tree may have been edited since a previous finalization: any
  // memoized identity describes the old structure.
  std::atomic_store(&identity_, std::shared_ptr<const PlanIdentity>());
  int next_id = 0;
  int next_leaf = 0;
  UQP_RETURN_IF_ERROR(FinalizeNode(root_.get(), db, &next_id, &next_leaf));
  num_operators_ = next_id;
  num_leaves_ = next_leaf;
  return Status::OK();
}

namespace {

/// Field-for-field deep copy, derived (Finalize-computed) fields included.
std::unique_ptr<PlanNode> CloneNodeFinalized(const PlanNode& node) {
  auto n = std::make_unique<PlanNode>();
  n->type = node.type;
  n->table_name = node.table_name;
  n->predicate = CloneExprTree(node.predicate);
  n->index_column = node.index_column;
  n->join_keys = node.join_keys;
  n->sort_columns = node.sort_columns;
  n->group_columns = node.group_columns;
  n->aggregates = node.aggregates;
  n->id = node.id;
  n->output_schema = node.output_schema;
  n->leaf_begin = node.leaf_begin;
  n->leaf_end = node.leaf_end;
  n->has_aggregate_below = node.has_aggregate_below;
  n->leaf_row_product = node.leaf_row_product;
  if (node.left != nullptr) n->left = CloneNodeFinalized(*node.left);
  if (node.right != nullptr) n->right = CloneNodeFinalized(*node.right);
  return n;
}

}  // namespace

Plan Plan::Clone() const {
  Plan copy;
  if (root_ != nullptr) copy.root_ = CloneNodeFinalized(*root_);
  copy.num_operators_ = num_operators_;
  copy.num_leaves_ = num_leaves_;
  // The copy is structurally identical by construction: share the interned
  // identity instead of re-serializing it on the clone's first request.
  copy.identity_ = std::atomic_load(&identity_);
  return copy;
}

std::shared_ptr<const PlanIdentity> Plan::Identity() const {
  auto memo = std::atomic_load_explicit(&identity_, std::memory_order_acquire);
  if (memo != nullptr) return memo;
  auto fresh = std::make_shared<const PlanIdentity>(
      PlanIdentity{PlanFingerprint(*this), PlanStructuralKey(*this)});
  // First publisher wins, so every holder shares one instance; a losing
  // racer adopts the winner's copy (both computed the same bytes).
  std::shared_ptr<const PlanIdentity> expected;
  if (std::atomic_compare_exchange_strong_explicit(
          &identity_, &expected,
          std::shared_ptr<const PlanIdentity>(fresh),
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    return fresh;
  }
  return expected;
}

std::vector<const PlanNode*> Plan::NodesPreorder() const {
  std::vector<const PlanNode*> nodes;
  std::function<void(const PlanNode*)> visit = [&](const PlanNode* n) {
    if (n == nullptr) return;
    nodes.push_back(n);
    visit(n->left.get());
    visit(n->right.get());
  };
  visit(root_.get());
  return nodes;
}

std::vector<const PlanNode*> Plan::Leaves() const {
  std::vector<const PlanNode*> leaves;
  for (const PlanNode* n : NodesPreorder()) {
    if (IsScan(n->type)) leaves.push_back(n);
  }
  return leaves;
}

std::string Plan::ToString() const {
  std::string out;
  std::function<void(const PlanNode*, int)> visit = [&](const PlanNode* n,
                                                        int depth) {
    if (n == nullptr) return;
    out.append(static_cast<size_t>(2 * depth), ' ');
    out += OpTypeName(n->type);
    if (IsScan(n->type)) {
      out += "(" + n->table_name;
      if (n->predicate != nullptr) {
        out += ": " + n->predicate->ToString(&n->output_schema);
      }
      out += ")";
    }
    out += " [id=" + std::to_string(n->id) + "]\n";
    visit(n->left.get(), depth + 1);
    visit(n->right.get(), depth + 1);
  };
  visit(root_.get(), 0);
  return out;
}

std::unique_ptr<PlanNode> MakeSeqScan(const std::string& table, ExprPtr predicate) {
  auto n = std::make_unique<PlanNode>();
  n->type = OpType::kSeqScan;
  n->table_name = table;
  n->predicate = std::move(predicate);
  return n;
}

std::unique_ptr<PlanNode> MakeIndexScan(const std::string& table, int column,
                                        ExprPtr predicate) {
  auto n = std::make_unique<PlanNode>();
  n->type = OpType::kIndexScan;
  n->table_name = table;
  n->index_column = column;
  n->predicate = std::move(predicate);
  return n;
}

namespace {
std::unique_ptr<PlanNode> MakeJoin(OpType type, std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   std::vector<std::pair<int, int>> keys,
                                   ExprPtr residual) {
  auto n = std::make_unique<PlanNode>();
  n->type = type;
  n->left = std::move(left);
  n->right = std::move(right);
  n->join_keys = std::move(keys);
  n->predicate = std::move(residual);
  return n;
}
}  // namespace

std::unique_ptr<PlanNode> MakeHashJoin(std::unique_ptr<PlanNode> left,
                                       std::unique_ptr<PlanNode> right,
                                       std::vector<std::pair<int, int>> keys,
                                       ExprPtr residual) {
  return MakeJoin(OpType::kHashJoin, std::move(left), std::move(right),
                  std::move(keys), std::move(residual));
}

std::unique_ptr<PlanNode> MakeMergeJoin(std::unique_ptr<PlanNode> left,
                                        std::unique_ptr<PlanNode> right,
                                        std::vector<std::pair<int, int>> keys,
                                        ExprPtr residual) {
  return MakeJoin(OpType::kMergeJoin, std::move(left), std::move(right),
                  std::move(keys), std::move(residual));
}

std::unique_ptr<PlanNode> MakeNestLoopJoin(std::unique_ptr<PlanNode> left,
                                           std::unique_ptr<PlanNode> right,
                                           std::vector<std::pair<int, int>> keys,
                                           ExprPtr residual) {
  return MakeJoin(OpType::kNestLoopJoin, std::move(left), std::move(right),
                  std::move(keys), std::move(residual));
}

std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> child,
                                   std::vector<int> sort_columns) {
  auto n = std::make_unique<PlanNode>();
  n->type = OpType::kSort;
  n->left = std::move(child);
  n->sort_columns = std::move(sort_columns);
  return n;
}

std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> child,
                                        std::vector<int> group_columns,
                                        std::vector<AggSpec> aggregates) {
  auto n = std::make_unique<PlanNode>();
  n->type = OpType::kAggregate;
  n->left = std::move(child);
  n->group_columns = std::move(group_columns);
  n->aggregates = std::move(aggregates);
  return n;
}

std::unique_ptr<PlanNode> MakeMaterialize(std::unique_ptr<PlanNode> child) {
  auto n = std::make_unique<PlanNode>();
  n->type = OpType::kMaterialize;
  n->left = std::move(child);
  return n;
}

std::unique_ptr<PlanNode> ClonePlanTree(const PlanNode& node) {
  auto n = std::make_unique<PlanNode>();
  n->type = node.type;
  n->table_name = node.table_name;
  n->predicate = node.predicate;
  n->index_column = node.index_column;
  n->join_keys = node.join_keys;
  n->sort_columns = node.sort_columns;
  n->group_columns = node.group_columns;
  n->aggregates = node.aggregates;
  if (node.left != nullptr) n->left = ClonePlanTree(*node.left);
  if (node.right != nullptr) n->right = ClonePlanTree(*node.right);
  return n;
}

namespace {

uint64_t NodeFingerprint(const PlanNode& node) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  h = HashMix64(h, static_cast<uint64_t>(node.type));
  for (char c : node.table_name) {
    h = HashMix64(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  h = HashMix64(h, ExprFingerprint(node.predicate.get()));
  h = HashMix64(h, static_cast<uint64_t>(node.index_column) + 1);
  for (const auto& [l, r] : node.join_keys) {
    h = HashMix64(h, (static_cast<uint64_t>(l) << 32) |
                              static_cast<uint64_t>(static_cast<uint32_t>(r)));
  }
  for (int c : node.sort_columns) h = HashMix64(h, 0x5000 + c);
  for (int c : node.group_columns) h = HashMix64(h, 0x6000 + c);
  for (const AggSpec& a : node.aggregates) {
    h = HashMix64(h, static_cast<uint64_t>(a.kind));
    h = HashMix64(h, static_cast<uint64_t>(a.column) + 1);
  }
  // Distinct tags for left/right keep the tree shape in the hash.
  if (node.left != nullptr) {
    h = HashMix64(h, 0xa1b2c3d4e5f60718ULL ^ NodeFingerprint(*node.left));
  }
  if (node.right != nullptr) {
    h = HashMix64(h, 0x18f6e5d4c3b2a190ULL ^ NodeFingerprint(*node.right));
  }
  return h;
}

}  // namespace

uint64_t PlanFingerprint(const Plan& plan) {
  if (plan.root() == nullptr) return 0;
  return NodeFingerprint(*plan.root());
}

namespace {

void AppendKeyInt(std::string* out, int64_t v) {
  AppendKeyU64(out, static_cast<uint64_t>(v));
}

/// Mirrors NodeFingerprint field for field, but into an unambiguous byte
/// string (every variable-length field is length-prefixed) instead of a
/// lossy 64-bit mix.
void AppendNodeKey(const PlanNode& node, std::string* out) {
  out->push_back(static_cast<char>(node.type));
  AppendKeyInt(out, static_cast<int64_t>(node.table_name.size()));
  out->append(node.table_name);
  AppendExprKey(node.predicate.get(), out);
  AppendKeyInt(out, node.index_column);
  AppendKeyInt(out, static_cast<int64_t>(node.join_keys.size()));
  for (const auto& [l, r] : node.join_keys) {
    AppendKeyInt(out, l);
    AppendKeyInt(out, r);
  }
  AppendKeyInt(out, static_cast<int64_t>(node.sort_columns.size()));
  for (int c : node.sort_columns) AppendKeyInt(out, c);
  AppendKeyInt(out, static_cast<int64_t>(node.group_columns.size()));
  for (int c : node.group_columns) AppendKeyInt(out, c);
  AppendKeyInt(out, static_cast<int64_t>(node.aggregates.size()));
  for (const AggSpec& a : node.aggregates) {
    out->push_back(static_cast<char>(a.kind));
    AppendKeyInt(out, a.column);
  }
  out->push_back(node.left != nullptr ? 'L' : 'l');
  if (node.left != nullptr) AppendNodeKey(*node.left, out);
  out->push_back(node.right != nullptr ? 'R' : 'r');
  if (node.right != nullptr) AppendNodeKey(*node.right, out);
}

}  // namespace

std::string PlanStructuralKey(const Plan& plan) {
  std::string out;
  if (plan.root() != nullptr) AppendNodeKey(*plan.root(), &out);
  return out;
}

}  // namespace uqp
