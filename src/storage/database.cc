#include "storage/database.h"

#include <algorithm>

#include "common/logging.h"

namespace uqp {

Table* Database::AddTable(Table table) {
  const std::string name = table.name();
  auto owned = std::make_unique<Table>(std::move(table));
  Table* ptr = owned.get();
  tables_[name] = std::move(owned);
  return ptr;
}

const Table& Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  UQP_CHECK(it != tables_.end()) << "no table named " << name;
  return *it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void Database::AnalyzeAll(int histogram_buckets) {
  for (const auto& [name, table] : tables_) {
    catalog_.Put(name, Catalog::Analyze(*table, histogram_buckets));
  }
}

int64_t Database::TotalPages() const {
  int64_t pages = 0;
  for (const auto& [_, table] : tables_) pages += table->num_pages();
  return pages;
}

}  // namespace uqp
