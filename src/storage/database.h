#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace uqp {

/// A named collection of tables plus the analyzed catalog.
class Database {
 public:
  Database() = default;
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a table; replaces any table with the same name.
  Table* AddTable(Table table);

  bool HasTable(const std::string& name) const { return tables_.count(name) > 0; }
  const Table& GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Runs ANALYZE over every table.
  void AnalyzeAll(int histogram_buckets = 64);

  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }

  /// Sum of pages across tables (used by the buffer-cache effect in the
  /// simulated machine).
  int64_t TotalPages() const;

 private:
  std::string name_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  Catalog catalog_;
};

}  // namespace uqp
