#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace uqp {

/// Size of one storage page in bytes (PostgreSQL default).
inline constexpr int kPageSizeBytes = 8192;

/// An in-memory relation stored column by column: schema + one contiguous
/// array per column holding each cell's raw 8-byte Value payload (see
/// PayloadOf); the column's type is held once, by the schema. Scans filter
/// these arrays with typed kernels (EvalPredicateColumns); every
/// intermediate RowBlock reads its cells out of them through row ids.
///
/// The page model (rows per page derived from tuple width) is what the cost
/// model and the simulated machine use to translate scans into I/O counts,
/// mirroring how PostgreSQL charges seq_page_cost / random_page_cost.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        columns_(static_cast<size_t>(schema_.num_columns())) {}

  // Copy/move are explicit because of the index-build mutex: the data and
  // any already-built indexes transfer, the new table gets a fresh mutex.
  Table(const Table& other) { *this = other; }
  Table& operator=(const Table& other);
  Table(Table&& other) { *this = std::move(other); }
  Table& operator=(Table&& other);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  int64_t num_rows() const {
    return columns_.empty() ? 0 : static_cast<int64_t>(columns_[0].size());
  }

  /// Number of pages the relation occupies under the page model.
  int64_t num_pages() const;

  /// Rows that fit on one page (>= 1).
  int64_t rows_per_page() const;

  /// The cell at row `r`, column `c`.
  Value at(int64_t r, int c) const {
    return ValueOfPayload(schema_.column(c).type,
                          columns_[static_cast<size_t>(c)][static_cast<size_t>(r)]);
  }

  /// Column `c`'s payload array: num_rows() cells in row order.
  const uint64_t* column_data(int c) const {
    return columns_[static_cast<size_t>(c)].data();
  }

  /// Appends one row; `row` must match the schema's arity and each
  /// column's type.
  void AppendRow(const std::vector<Value>& row);

  /// Appends rows rids[0..n) of `src`, gathering each column through the
  /// rid list; `src` must have this table's column types.
  void AppendRows(const Table& src, const uint32_t* rids, int64_t n);

  void Reserve(int64_t rows) {
    for (auto& col : columns_) col.reserve(static_cast<size_t>(rows));
  }

  /// Returns (building lazily) a B-tree-like ordered index on a numeric
  /// column: row ids sorted ascending by the column value. Used by the
  /// index-scan operator. Thread-safe: concurrent sample runs in the
  /// service layer may race to first use of an index; the build is
  /// serialized and the returned reference stays valid (map nodes are
  /// stable and entries are never erased).
  const std::vector<uint32_t>& OrderedIndex(int column) const;

  /// True if an ordered index has been declared for the column. Indexes are
  /// declared by the data generator on key/date columns; the planner only
  /// considers index scans on declared columns.
  bool HasIndex(int column) const { return declared_indexes_.count(column) > 0; }
  void DeclareIndex(int column) { declared_indexes_.emplace(column, true); }

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::vector<uint64_t>> columns_;  ///< one payload array per column
  std::map<int, bool> declared_indexes_;
  /// Guards the lazy build of ordered_indexes_ (see OrderedIndex). The
  /// references OrderedIndex hands out outlive the lock by design: map
  /// nodes are stable and entries are never erased, so only the build and
  /// the first lookup need serialization.
  mutable Mutex index_mu_;
  mutable std::map<int, std::vector<uint32_t>> ordered_indexes_
      UQP_GUARDED_BY(index_mu_);
};

}  // namespace uqp
