// Tests for the storage substrate: values, schemas, tables with the page
// model, equi-depth histograms and catalog statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/database.h"
#include "storage/histogram.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "math/rng.h"
#include "storage/value.h"

namespace uqp {
namespace {

// ---------- Value / StringPool ----------

TEST(StringPool, InternIsIdempotent) {
  StringPool& pool = StringPool::Global();
  const int32_t a = pool.Intern("uqp-test-token-1");
  const int32_t b = pool.Intern("uqp-test-token-1");
  const int32_t c = pool.Intern("uqp-test-token-2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.Lookup(a), "uqp-test-token-1");
}

TEST(Value, NumericEqualityCrossType) {
  EXPECT_TRUE(Value::Int64(5).Equals(Value::Double(5.0)));
  EXPECT_FALSE(Value::Int64(5).Equals(Value::Double(5.5)));
  EXPECT_TRUE(Value::Int64(5).Equals(Value::Int64(5)));
}

TEST(Value, StringEqualityByPoolId) {
  EXPECT_TRUE(Value::String("abc").Equals(Value::String("abc")));
  EXPECT_FALSE(Value::String("abc").Equals(Value::String("abd")));
  EXPECT_FALSE(Value::String("5").Equals(Value::Int64(5)));
}

TEST(Value, HashConsistentWithEquality) {
  // Int-valued doubles must hash like the equal int64 (equi-join support).
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

TEST(Value, HashOfOutOfRangeDoublesIsDefined) {
  // NaN, +-inf and |d| >= 2^63 have no int64 counterpart; hashing them must
  // not cast them to int64 (undefined behaviour, trapped by the UBSan build).
  const double kTwo63 = 9223372036854775808.0;
  for (double d : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300, -1e300, kTwo63}) {
    EXPECT_EQ(Value::Double(d).Hash(), Value::Double(d).Hash()) << d;
    EXPECT_NE(Value::Double(d).Hash(),
              Value::Int64(std::numeric_limits<int64_t>::min()).Hash())
        << d;
  }
  // Integral doubles in range still hash like their int64 values, down to
  // the bottom of the range.
  EXPECT_EQ(Value::Double(-kTwo63).Hash(),
            Value::Int64(std::numeric_limits<int64_t>::min()).Hash());
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Int64(0).Hash());
  EXPECT_EQ(Value::Double(4611686018427387904.0).Hash(),
            Value::Int64(int64_t{1} << 62).Hash());
  EXPECT_EQ(Value::Double(-1e15).Hash(), Value::Int64(-1000000000000000).Hash());
}

TEST(Value, NumericCompare) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.0).Compare(Value::Int64(1)), 0);
  EXPECT_EQ(Value::Int64(3).Compare(Value::Int64(3)), 0);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Int64(7).ToString(), "7");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

// ---------- Schema ----------

TEST(Schema, IndexOfAndWidth) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString, 20}});
  EXPECT_EQ(s.num_columns(), 2);
  EXPECT_EQ(s.IndexOf("a"), 0);
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("c"), -1);
  EXPECT_EQ(s.TupleWidthBytes(), 24 + 8 + 20);
}

TEST(Schema, Concat) {
  Schema l({{"a", ValueType::kInt64}});
  Schema r({{"b", ValueType::kDouble}, {"c", ValueType::kInt64}});
  const Schema j = Schema::Concat(l, r);
  EXPECT_EQ(j.num_columns(), 3);
  EXPECT_EQ(j.column(0).name, "a");
  EXPECT_EQ(j.column(2).name, "c");
}

// ---------- Table ----------

Table MakeNumbersTable(int64_t rows) {
  Table t("numbers", Schema({{"id", ValueType::kInt64},
                             {"val", ValueType::kDouble}}));
  for (int64_t i = 0; i < rows; ++i) {
    // val descends so the ordered index differs from row order.
    t.AppendRow({Value::Int64(i), Value::Double(static_cast<double>(rows - i))});
  }
  return t;
}

TEST(Table, PageModel) {
  Table t = MakeNumbersTable(1000);
  // width = 24 + 8 + 8 = 40 bytes -> 204 rows/page.
  EXPECT_EQ(t.rows_per_page(), kPageSizeBytes / 40);
  EXPECT_EQ(t.num_pages(), (1000 + t.rows_per_page() - 1) / t.rows_per_page());
}

TEST(Table, EmptyTableHasOnePage) {
  Table t("empty", Schema({{"a", ValueType::kInt64}}));
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_EQ(t.num_pages(), 1);
}

TEST(Table, OrderedIndexSortsByValue) {
  Table t = MakeNumbersTable(100);
  const auto& index = t.OrderedIndex(1);
  ASSERT_EQ(index.size(), 100u);
  for (size_t i = 1; i < index.size(); ++i) {
    EXPECT_LE(t.at(index[i - 1], 1).AsDouble(), t.at(index[i], 1).AsDouble());
  }
  // val is descending in row order, so index 0 of the ordered index must be
  // the last row.
  EXPECT_EQ(index[0], 99u);
}

TEST(Table, DeclareIndex) {
  Table t = MakeNumbersTable(10);
  EXPECT_FALSE(t.HasIndex(1));
  t.DeclareIndex(1);
  EXPECT_TRUE(t.HasIndex(1));
}

TEST(Table, ColumnAccess) {
  Table t = MakeNumbersTable(5);
  // Each column is one contiguous payload array in row order.
  const uint64_t* ids = t.column_data(0);
  const uint64_t* vals = t.column_data(1);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(ValueOfPayload(ValueType::kInt64, ids[r]).AsInt64(), r);
    EXPECT_DOUBLE_EQ(ValueOfPayload(ValueType::kDouble, vals[r]).AsDouble(),
                     static_cast<double>(5 - r));
  }
  EXPECT_EQ(t.at(2, 0).AsInt64(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 1).AsDouble(), 3.0);
}

TEST(Table, AtRoundTripsEveryType) {
  Table t("types", Schema({{"i", ValueType::kInt64},
                           {"d", ValueType::kDouble},
                           {"s", ValueType::kString}}));
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<std::vector<Value>> rows = {
      {Value::Int64(big), Value::Double(-0.0), Value::String("alpha")},
      {Value::Int64(-big), Value::Double(std::numeric_limits<double>::quiet_NaN()),
       Value::String("")},
      {Value::Int64(std::numeric_limits<int64_t>::min()),
       Value::Double(-std::numeric_limits<double>::infinity()),
       Value::String("alpha")},
  };
  for (const auto& row : rows) t.AppendRow(row);
  ASSERT_EQ(t.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const Value& want = rows[static_cast<size_t>(r)][static_cast<size_t>(c)];
      const Value got = t.at(r, c);
      EXPECT_EQ(got.type, want.type) << "row " << r << " col " << c;
      EXPECT_EQ(PayloadOf(got), PayloadOf(want)) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(t.at(0, 0).AsInt64(), big);
  EXPECT_TRUE(std::signbit(t.at(0, 1).AsDouble()));
  EXPECT_TRUE(std::isnan(t.at(1, 1).AsDouble()));
  EXPECT_EQ(t.at(0, 2).AsString(), "alpha");
  EXPECT_EQ(t.at(1, 2).AsString(), "");
}

TEST(TableDeathTest, WrongTypedAppendRowDies) {
  Table t = MakeNumbersTable(3);
  EXPECT_DEATH(t.AppendRow({Value::Double(1.0), Value::Double(2.0)}),
               "holds int64, got double");
  EXPECT_DEATH(t.AppendRow({Value::Int64(1), Value::String("x")}),
               "holds double, got string");
  EXPECT_DEATH(t.AppendRow({Value::Int64(1)}), "row arity");
}

TEST(Table, AppendRowsGathersEveryColumn) {
  const Table src = MakeNumbersTable(10);
  Table dst("picked", src.schema());
  const std::vector<uint32_t> rids = {7, 0, 7, 3};
  dst.AppendRows(src, rids.data(), static_cast<int64_t>(rids.size()));
  ASSERT_EQ(dst.num_rows(), 4);
  for (size_t i = 0; i < rids.size(); ++i) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(PayloadOf(dst.at(static_cast<int64_t>(i), c)),
                PayloadOf(src.at(rids[i], c)));
    }
  }
}

TEST(Table, CopyAndMoveKeepColumnsAndIndexes) {
  Table t = MakeNumbersTable(50);
  t.DeclareIndex(1);
  const std::vector<uint32_t> index = t.OrderedIndex(1);
  const auto same_cells = [](const Table& a, const Table& b) {
    if (a.num_rows() != b.num_rows()) return false;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      for (int c = 0; c < a.schema().num_columns(); ++c) {
        if (PayloadOf(a.at(r, c)) != PayloadOf(b.at(r, c))) return false;
      }
    }
    return true;
  };

  const Table copy(t);
  EXPECT_TRUE(same_cells(copy, t));
  EXPECT_TRUE(copy.HasIndex(1));
  EXPECT_EQ(copy.OrderedIndex(1), index);

  Table assigned;
  assigned = copy;
  EXPECT_TRUE(same_cells(assigned, t));
  EXPECT_EQ(assigned.OrderedIndex(1), index);

  const Table moved(std::move(assigned));
  EXPECT_TRUE(same_cells(moved, t));
  EXPECT_TRUE(moved.HasIndex(1));
  EXPECT_EQ(moved.OrderedIndex(1), index);
  // The copies own their columns: appending to the source leaves them be.
  t.AppendRow({Value::Int64(50), Value::Double(0.0)});
  EXPECT_EQ(copy.num_rows(), 50);
  EXPECT_EQ(moved.num_rows(), 50);
}

// ---------- Histogram ----------

TEST(Histogram, EmptyBehaviour) {
  EquiDepthHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.FractionLessEq(1.0), 0.0);
}

TEST(Histogram, UniformFractions) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  EXPECT_EQ(h.count(), 10000);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 9999.0);
  EXPECT_NEAR(h.FractionLessEq(4999.5), 0.5, 0.02);
  EXPECT_NEAR(h.FractionLessEq(999.5), 0.1, 0.02);
  EXPECT_EQ(h.FractionLessEq(-1.0), 0.0);
  EXPECT_EQ(h.FractionLessEq(1e9), 1.0);
}

TEST(Histogram, FractionLessEqIsMonotone) {
  std::vector<double> values;
  Rng rng_seedless;  // default-seeded deterministic
  for (int i = 0; i < 5000; ++i) values.push_back(rng_seedless.NextDouble() * 100);
  const auto h = EquiDepthHistogram::Build(std::move(values), 32);
  double prev = 0.0;
  for (double v = -5.0; v <= 105.0; v += 0.5) {
    const double f = h.FractionLessEq(v);
    EXPECT_GE(f, prev - 1e-12);
    prev = f;
  }
}

class HistogramInverse : public ::testing::TestWithParam<double> {};

TEST_P(HistogramInverse, ValueAtFractionInvertsFraction) {
  const double q = GetParam();
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(std::sqrt(i));  // skewed
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  const double v = h.ValueAtFraction(q);
  EXPECT_NEAR(h.FractionLessEq(v), q, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Fractions, HistogramInverse,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.95));

TEST(Histogram, SkewedDistributionFractions) {
  // 90% of mass at small values.
  std::vector<double> values;
  for (int i = 0; i < 9000; ++i) values.push_back(i % 10);
  for (int i = 0; i < 1000; ++i) values.push_back(1000.0 + i);
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  EXPECT_NEAR(h.FractionLessEq(9.5), 0.9, 0.03);
}

TEST(Histogram, RangeFraction) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  EXPECT_NEAR(h.FractionRange(2000, 3000), 0.1, 0.02);
  EXPECT_EQ(h.FractionRange(5, 1), 0.0);  // inverted range
}

TEST(Histogram, NumDistinct) {
  std::vector<double> values = {1, 1, 2, 2, 3};
  const auto h = EquiDepthHistogram::Build(std::move(values), 4);
  EXPECT_EQ(h.num_distinct(), 3);
}

// ---------- Catalog / Database ----------

TEST(Catalog, AnalyzeNumericAndString) {
  Table t("mixed", Schema({{"n", ValueType::kInt64},
                           {"s", ValueType::kString, 8}}));
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value::Int64(i % 10), Value::String(i % 2 == 0 ? "even" : "odd")});
  }
  const TableStats stats = Catalog::Analyze(t, 16);
  EXPECT_EQ(stats.row_count, 100);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_TRUE(stats.columns[0].numeric);
  EXPECT_EQ(stats.columns[0].num_distinct, 10);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, 9.0);
  EXPECT_FALSE(stats.columns[1].numeric);
  EXPECT_EQ(stats.columns[1].num_distinct, 2);
  EXPECT_EQ(stats.columns[1].string_freq.at(StringPool::Global().Intern("even")),
            50);
}

TEST(Database, AddAnalyzeAndLookup) {
  Database db("testdb");
  db.AddTable(MakeNumbersTable(500));
  EXPECT_TRUE(db.HasTable("numbers"));
  EXPECT_FALSE(db.HasTable("nope"));
  db.AnalyzeAll(16);
  EXPECT_TRUE(db.catalog().Has("numbers"));
  EXPECT_EQ(db.catalog().Get("numbers").row_count, 500);
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"numbers"});
  EXPECT_EQ(db.TotalPages(), db.GetTable("numbers").num_pages());
}

}  // namespace
}  // namespace uqp
