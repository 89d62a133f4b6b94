#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"

namespace uqp {

int64_t Table::rows_per_page() const {
  const int width = schema_.TupleWidthBytes();
  return std::max<int64_t>(1, kPageSizeBytes / std::max(1, width));
}

int64_t Table::num_pages() const {
  const int64_t rows = num_rows();
  if (rows == 0) return 1;
  const int64_t rpp = rows_per_page();
  return (rows + rpp - 1) / rpp;
}

void Table::AppendRow(const std::vector<Value>& row) {
  UQP_CHECK(static_cast<int>(row.size()) == schema_.num_columns())
      << "row arity " << row.size() << " != " << schema_.num_columns()
      << " columns of " << name_;
  for (size_t c = 0; c < row.size(); ++c) {
    UQP_CHECK(row[c].type == schema_.column(static_cast<int>(c)).type)
        << "column " << schema_.column(static_cast<int>(c)).name << " of "
        << name_ << " holds " << ValueTypeName(schema_.column(static_cast<int>(c)).type)
        << ", got " << ValueTypeName(row[c].type);
    columns_[c].push_back(PayloadOf(row[c]));
  }
}

void Table::AppendRows(const Table& src, const uint32_t* rids, int64_t n) {
  UQP_CHECK(src.schema_.num_columns() == schema_.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    UQP_CHECK(src.schema_.column(static_cast<int>(c)).type ==
              schema_.column(static_cast<int>(c)).type);
    const uint64_t* from = src.columns_[c].data();
    std::vector<uint64_t>& to = columns_[c];
    const size_t first = to.size();
    to.resize(first + static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) to[first + static_cast<size_t>(i)] = from[rids[i]];
  }
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  // Stage the guarded state under the source's lock, then install it under
  // our own: the two critical sections never nest, so two threads
  // cross-assigning a pair of tables cannot deadlock — and each guarded
  // access happens under exactly its own table's mutex.
  std::map<int, std::vector<uint32_t>> indexes;
  {
    MutexLock lock(&other.index_mu_);
    indexes = other.ordered_indexes_;
  }
  name_ = other.name_;
  schema_ = other.schema_;
  columns_ = other.columns_;
  declared_indexes_ = other.declared_indexes_;
  MutexLock lock(&index_mu_);
  ordered_indexes_ = std::move(indexes);
  return *this;
}

Table& Table::operator=(Table&& other) {
  if (this == &other) return *this;
  std::map<int, std::vector<uint32_t>> indexes;
  {
    MutexLock lock(&other.index_mu_);
    indexes = std::move(other.ordered_indexes_);
    other.ordered_indexes_.clear();
  }
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  columns_ = std::move(other.columns_);
  declared_indexes_ = std::move(other.declared_indexes_);
  MutexLock lock(&index_mu_);
  ordered_indexes_ = std::move(indexes);
  return *this;
}

const std::vector<uint32_t>& Table::OrderedIndex(int column) const {
  MutexLock lock(&index_mu_);
  auto it = ordered_indexes_.find(column);
  if (it != ordered_indexes_.end()) return it->second;
  // Rows sorted by the column compared as double (int64 cells promote);
  // the keys are decoded once, the comparator is unchanged.
  const int64_t rows = num_rows();
  std::vector<double> keys(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) keys[static_cast<size_t>(r)] = at(r, column).AsDouble();
  std::vector<uint32_t> idx(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) idx[static_cast<size_t>(r)] = static_cast<uint32_t>(r);
  std::sort(idx.begin(), idx.end(), [&keys](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  auto [pos, _] = ordered_indexes_.emplace(column, std::move(idx));
  return pos->second;
}

}  // namespace uqp
