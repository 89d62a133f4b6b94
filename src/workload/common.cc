#include "workload/common.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace uqp {

int ConstantPicker::ColIdx(const std::string& table,
                           const std::string& column) const {
  const int idx = db_->GetTable(table).schema().IndexOf(column);
  UQP_CHECK(idx >= 0) << "unknown column " << table << "." << column;
  return idx;
}

Value ConstantPicker::NumericAtFraction(const std::string& table,
                                        const std::string& column,
                                        double fraction) const {
  const TableStats& stats = db_->catalog().Get(table);
  const ColumnStats& cs = stats.columns[static_cast<size_t>(ColIdx(table, column))];
  UQP_CHECK(cs.numeric) << table << "." << column << " is not numeric";
  return Value::Double(cs.histogram.ValueAtFraction(fraction));
}

std::string ConstantPicker::RandomString(const std::string& table,
                                         const std::string& column) {
  const TableStats& stats = db_->catalog().Get(table);
  const ColumnStats& cs = stats.columns[static_cast<size_t>(ColIdx(table, column))];
  UQP_CHECK(!cs.numeric) << table << "." << column << " is not a string column";
  UQP_CHECK(!cs.string_freq.empty());
  // Deterministic pick: sort ids, then index uniformly.
  std::vector<int32_t> ids;
  ids.reserve(cs.string_freq.size());
  for (const auto& [id, _] : cs.string_freq) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  const int32_t id = ids[rng_->NextBelow(ids.size())];
  return StringPool::Global().Lookup(id);
}

ExprPtr ConstantPicker::LessEqAtFraction(const std::string& table,
                                         const std::string& column,
                                         double fraction) const {
  return Expr::Cmp(ColIdx(table, column), CmpOp::kLe,
                   NumericAtFraction(table, column, fraction));
}

ExprPtr ConstantPicker::RangeOfWidth(const std::string& table,
                                     const std::string& column, double width) {
  width = std::clamp(width, 0.0, 1.0);
  const double start = rng_->NextDouble() * (1.0 - width);
  const Value lo = NumericAtFraction(table, column, start);
  const Value hi = NumericAtFraction(table, column, start + width);
  return Expr::Between(ColIdx(table, column), lo, hi);
}

double ConstantPicker::LogUniform(double lo, double hi) {
  UQP_CHECK(lo > 0.0 && hi >= lo);
  const double u = rng_->NextDouble();
  return lo * std::pow(hi / lo, u);
}

JoinChainBuilder& JoinChainBuilder::Start(const std::string& table,
                                          ExprPtr predicate) {
  root_ = MakeSeqScan(table, std::move(predicate));
  columns_.clear();
  const Schema& schema = db_->GetTable(table).schema();
  for (int i = 0; i < schema.num_columns(); ++i) {
    columns_.emplace_back(table, schema.column(i).name);
  }
  return *this;
}

JoinChainBuilder& JoinChainBuilder::Join(
    const std::string& table, ExprPtr predicate,
    std::vector<std::pair<std::string, std::string>> keys) {
  UQP_CHECK(root_ != nullptr) << "Join before Start";
  const Schema& schema = db_->GetTable(table).schema();
  std::vector<std::pair<int, int>> key_idx;
  for (const auto& [existing, fresh] : keys) {
    const int left = Col(existing);
    const int right = schema.IndexOf(fresh);
    UQP_CHECK(right >= 0) << "unknown column " << table << "." << fresh;
    key_idx.emplace_back(left, right);
  }
  root_ = MakeHashJoin(std::move(root_), MakeSeqScan(table, std::move(predicate)),
                       std::move(key_idx));
  for (int i = 0; i < schema.num_columns(); ++i) {
    columns_.emplace_back(table, schema.column(i).name);
  }
  return *this;
}

int JoinChainBuilder::Col(const std::string& qualified) const {
  const size_t dot = qualified.find('.');
  UQP_CHECK(dot != std::string::npos) << "expected table.column: " << qualified;
  const std::string table = qualified.substr(0, dot);
  const std::string column = qualified.substr(dot + 1);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].first == table && columns_[i].second == column) {
      return static_cast<int>(i);
    }
  }
  UQP_CHECK(false) << "column not in chain: " << qualified;
  return -1;
}

std::vector<WorkloadQuery> MakeWorkload(const Database& db,
                                        const std::string& kind, uint64_t seed,
                                        int size_hint) {
  if (kind == "micro") {
    MicroOptions options;
    options.seed = seed;
    if (size_hint > 0) {
      options.selection_queries = size_hint / 2;
      options.join_queries = size_hint - options.selection_queries;
    }
    return MakeMicroWorkload(db, options);
  }
  if (kind == "seljoin") {
    SelJoinOptions options;
    options.seed = seed;
    if (size_hint > 0) {
      options.instances_per_template = std::max(1, size_hint / 8);
    }
    return MakeSelJoinWorkload(db, options);
  }
  if (kind == "tpch") {
    TpchWorkloadOptions options;
    options.seed = seed;
    if (size_hint > 0) {
      options.instances_per_template = std::max(1, size_hint / 14);
    }
    return MakeTpchWorkload(db, options);
  }
  UQP_CHECK(false) << "unknown workload kind: " << kind;
  return {};
}

}  // namespace uqp
