#include "storage/catalog.h"

#include "common/logging.h"

namespace uqp {

TableStats Catalog::Analyze(const Table& table, int histogram_buckets) {
  TableStats stats;
  stats.row_count = table.num_rows();
  stats.page_count = table.num_pages();
  const int ncols = table.schema().num_columns();
  stats.columns.resize(static_cast<size_t>(ncols));
  const int64_t rows = table.num_rows();
  for (int c = 0; c < ncols; ++c) {
    ColumnStats& cs = stats.columns[static_cast<size_t>(c)];
    const ValueType type = table.schema().column(c).type;
    const uint64_t* cells = table.column_data(c);
    if (type == ValueType::kString) {
      cs.numeric = false;
      for (int64_t r = 0; r < rows; ++r) {
        cs.string_freq[ValueOfPayload(type, cells[r]).s] += 1;
      }
      cs.num_distinct = static_cast<int64_t>(cs.string_freq.size());
    } else {
      cs.numeric = true;
      std::vector<double> values(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) {
        values[static_cast<size_t>(r)] = ValueOfPayload(type, cells[r]).AsDouble();
      }
      cs.histogram = EquiDepthHistogram::Build(std::move(values), histogram_buckets);
      cs.min = cs.histogram.min();
      cs.max = cs.histogram.max();
      cs.num_distinct = cs.histogram.num_distinct();
    }
  }
  return stats;
}

const TableStats& Catalog::Get(const std::string& table_name) const {
  auto it = stats_.find(table_name);
  UQP_CHECK(it != stats_.end()) << "no stats for table " << table_name;
  return it->second;
}

}  // namespace uqp
