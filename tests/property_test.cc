// Randomized property tests: random plans over the TPC-H schema must
// satisfy the library's invariants end to end, and the S²_n/n variance
// estimate must statistically match the TRUE sampling variance of ρ_n
// (paper Theorem 3 / §3.2.1, validated by brute force over many
// independent sample sets).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/expr.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "math/gaussian.h"
#include "math/stats.h"
#include "sampling/estimator.h"
#include "workload/common.h"

namespace uqp {
namespace {

/// Generates a random logical plan over the TPC-H schema: a join chain of
/// 1-4 relations along FK edges with random filters, optionally topped by
/// an aggregate and/or sort.
std::unique_ptr<PlanNode> RandomPlan(const Database& db, Rng* rng) {
  ConstantPicker pick(&db, rng);
  struct Edge {
    const char* from_col;
    const char* to_table;
    const char* to_col;
  };
  // FK edges walkable from lineitem.
  const Edge edges[] = {
      {"lineitem.l_orderkey", "orders", "o_orderkey"},
      {"lineitem.l_partkey", "part", "p_partkey"},
      {"lineitem.l_suppkey", "supplier", "s_suppkey"},
  };
  auto random_filter = [&pick, rng](const char* table,
                                    const char* column) -> ExprPtr {
    switch (rng->NextInt(0, 2)) {
      case 0:
        return nullptr;
      case 1:
        return pick.LessEqAtFraction(table, column, rng->NextDouble());
      default:
        return pick.RangeOfWidth(table, column,
                                 0.05 + 0.5 * rng->NextDouble());
    }
  };

  JoinChainBuilder chain(&db);
  chain.Start("lineitem", random_filter("lineitem", "l_shipdate"));
  const int joins = static_cast<int>(rng->NextInt(0, 3));
  bool used[3] = {false, false, false};
  const char* filter_col[3] = {"o_totalprice", "p_retailprice", "s_acctbal"};
  for (int j = 0; j < joins; ++j) {
    const int e = static_cast<int>(rng->NextInt(0, 2));
    if (used[e]) continue;
    used[e] = true;
    chain.Join(edges[e].to_table,
               random_filter(edges[e].to_table, filter_col[e]),
               {{edges[e].from_col, edges[e].to_col}});
  }
  std::unique_ptr<PlanNode> root = chain.Finish();
  if (rng->NextBool(0.3)) {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
    aggs.push_back({AggSpec::Kind::kSum, 4, "sum_qty"});
    root = MakeAggregate(std::move(root), {2}, aggs);
  } else if (rng->NextBool(0.3)) {
    root = MakeSort(std::move(root), {0});
  }
  return root;
}

class RandomPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanProperty, EndToEndInvariantsHold) {
  static Database* db = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
  static SampleDb* samples = [] {
    SampleOptions so;
    so.sampling_ratio = 0.1;
    return new SampleDb(SampleDb::Build(*db, so));
  }();
  static CostUnits* units = [] {
    SimulatedMachine machine(MachineProfile::PC2(), 1);
    Calibrator calibrator(&machine);
    return new CostUnits(calibrator.Calibrate());
  }();

  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  auto plan_or = OptimizePlan(RandomPlan(*db, &rng), *db);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  const Plan plan = std::move(plan_or).value();

  // Executor invariants.
  Executor executor(db);
  auto full = executor.Execute(plan, ExecOptions{});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (const OpStats& st : full->ops) {
    EXPECT_GE(st.actual.ns, 0.0);
    EXPECT_GE(st.actual.nr, 0.0);
    EXPECT_GE(st.out_rows, 0.0);
    EXPECT_GE(st.leaf_row_product, 1.0);
    EXPECT_LE(st.selectivity(), 1.0 + 1e-12);
  }

  // Estimator invariants.
  SamplingEstimator estimator(db, samples);
  auto est = estimator.Estimate(plan);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  for (const SelectivityEstimate& e : est->ops) {
    EXPECT_GE(e.rho, 0.0);
    EXPECT_LE(e.rho, 1.0);
    EXPECT_GE(e.variance, -1e-15);
    double comp = 0.0;
    for (double v : e.var_components) comp += v;
    EXPECT_NEAR(comp, e.variance, 1e-12 + 1e-9 * e.variance);
  }

  // Prediction invariants.
  PredictionPipeline predictor(db, samples, *units);
  auto pred = predictor.Predict(plan);
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_TRUE(std::isfinite(pred->mean()));
  EXPECT_TRUE(std::isfinite(pred->stddev()));
  EXPECT_GT(pred->mean(), 0.0);
  EXPECT_GE(pred->breakdown.variance, 0.0);

  // Variant ordering.
  for (PredictorVariant v : {PredictorVariant::kNoVarC, PredictorVariant::kNoVarX,
                             PredictorVariant::kNoCov}) {
    const VarianceBreakdown b =
        predictor.Recompute(*pred, v, CovarianceBoundKind::kBest);
    EXPECT_LE(b.variance, pred->breakdown.variance + 1e-9)
        << PredictorVariantName(v);
  }

  // Bound ordering: B1-based total never exceeds B2-based total.
  const double v_b1 =
      predictor.Recompute(*pred, PredictorVariant::kAll, CovarianceBoundKind::kB1)
          .variance;
  const double v_b2 =
      predictor.Recompute(*pred, PredictorVariant::kAll, CovarianceBoundKind::kB2)
          .variance;
  const double v_best =
      predictor
          .Recompute(*pred, PredictorVariant::kAll, CovarianceBoundKind::kBest)
          .variance;
  EXPECT_LE(v_b1, v_b2 + 1e-9);
  EXPECT_LE(v_best, v_b1 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanProperty, ::testing::Range(0, 24));

// ---------- Scan predicates vs a row-at-a-time reference ----------
//
// Random predicate trees run through the scans' column-store filter must
// keep exactly the rows a row-at-a-time EvalPredicate filter keeps, over
// rows built cell by cell from Table::at: same rows (type and payload),
// same provenance, same order — at every batch size, with and without a
// pool, as a seq scan and as an index scan with a residual.

/// Row `r` of `t`, built from Table::at.
std::vector<Value> TableRow(const Table& t, int64_t r) {
  std::vector<Value> row;
  for (int c = 0; c < t.schema().num_columns(); ++c) row.push_back(t.at(r, c));
  return row;
}

/// Seeded generator of predicate trees over one table. Comparison
/// constants are drawn from the compared column (so they hit its edge
/// values), and equality also pairs strings with numbers both ways round.
class PredicateGen {
 public:
  PredicateGen(const Table* table, Rng* rng) : table_(table), rng_(rng) {
    for (int c = 0; c < table->schema().num_columns(); ++c) {
      if (table->schema().column(c).type != ValueType::kString) {
        numeric_.push_back(c);
      }
    }
  }

  /// A tree of depth <= `depth`: comparisons under AND / OR / NOT.
  ExprPtr Tree(int depth) {
    if (depth == 0 || rng_->NextBool(0.35)) return Leaf();
    const int64_t kind = rng_->NextInt(0, 2);
    ExprPtr lhs = Tree(depth - 1);
    if (kind == 2) return Expr::Not(std::move(lhs));
    ExprPtr rhs = Tree(depth - 1);
    return kind == 0 ? Expr::And(std::move(lhs), std::move(rhs))
                     : Expr::Or(std::move(lhs), std::move(rhs));
  }

  /// A cell of `column` from a random row, or `fallback` for an empty table.
  Value Cell(int column, Value fallback) {
    if (table_->num_rows() == 0) return fallback;
    return table_->at(rng_->NextInt(0, table_->num_rows() - 1), column);
  }

 private:
  static CmpOp AnyOp(Rng* rng) { return static_cast<CmpOp>(rng->NextInt(0, 5)); }

  ExprPtr Leaf() {
    const int ncols = table_->schema().num_columns();
    if (!numeric_.empty() && rng_->NextBool(0.2)) {
      const auto pick = [this] {
        return numeric_[static_cast<size_t>(
            rng_->NextInt(0, static_cast<int64_t>(numeric_.size()) - 1))];
      };
      const int a = pick();
      const int b = pick();
      return Expr::CmpColumns(a, AnyOp(rng_), b);
    }
    const int c = static_cast<int>(rng_->NextInt(0, ncols - 1));
    const bool is_string = table_->schema().column(c).type == ValueType::kString;
    const CmpOp eq_op = rng_->NextBool(0.5) ? CmpOp::kEq : CmpOp::kNe;
    if (is_string) {
      // Equality only; now and then against a number.
      if (rng_->NextBool(0.2)) {
        return Expr::Cmp(c, eq_op, Value::Int64(rng_->NextInt(0, 3)));
      }
      return Expr::Cmp(c, eq_op, Cell(c, Value::String("none")));
    }
    if (rng_->NextBool(0.1)) return Expr::Cmp(c, eq_op, Value::String("none"));
    Value constant = Cell(c, Value::Int64(0));
    if (rng_->NextBool(0.25)) {
      // The same number under the other numeric type.
      constant = constant.type == ValueType::kInt64
                     ? Value::Double(constant.AsDouble())
                     : Value::Int64(static_cast<int64_t>(
                           std::fabs(constant.d) < 1e18 ? std::trunc(constant.d) : 0.0));
    }
    return Expr::Cmp(c, AnyOp(rng_), constant);
  }

  const Table* table_;
  Rng* rng_;
  std::vector<int> numeric_;
};

/// Runs `plan` at batch {1, 7, 1024} x {no pool, MorselPool(3)} and
/// checks every run against `want_rids`: rows (type and payload, from
/// Table::at) and provenance, in order.
void ExpectScanMatches(const Database& db, const Table& table,
                       std::unique_ptr<PlanNode> logical,
                       const std::vector<uint32_t>& want_rids,
                       const std::string& what) {
  static MorselPool* pool = new MorselPool(3);
  Plan plan(std::move(logical));
  const Status finalized = plan.Finalize(db);
  ASSERT_TRUE(finalized.ok()) << what << ": " << finalized.ToString();
  Executor executor(&db);
  const int ncols = table.schema().num_columns();
  for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                             static_cast<MorselPool*>(pool)}) {
    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
      SCOPED_TRACE(what + ", batch " + std::to_string(batch) +
                   (runner == nullptr ? ", no pool" : ", pool"));
      ExecOptions options;
      options.collect_provenance = true;
      options.max_batch_size = batch;
      options.task_runner = runner;
      auto result = executor.Execute(plan, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RowBlock& out = result->output;
      ASSERT_EQ(out.prov_width, 1);
      ASSERT_EQ(out.num_rows(), static_cast<int64_t>(want_rids.size()));
      for (int64_t r = 0; r < out.num_rows(); ++r) {
        ASSERT_EQ(out.prov_row(r)[0], want_rids[static_cast<size_t>(r)]) << "row " << r;
        for (int c = 0; c < ncols; ++c) {
          const Value got = out.at(r, c);
          const Value want = table.at(want_rids[static_cast<size_t>(r)], c);
          ASSERT_EQ(got.type, want.type) << "row " << r << " col " << c;
          ASSERT_EQ(PayloadOf(got), PayloadOf(want)) << "row " << r << " col " << c;
        }
      }
    }
  }
}

/// Checks `trees` random predicates over `table_name` as seq scans, and as
/// index scans on every column in `index_columns` (the tree ANDed with a
/// range on the indexed column, drawn from its values). Returns how many
/// trees kept some but not all rows.
int CheckRandomScans(const Database& db, const std::string& table_name,
                     const std::vector<int>& index_columns, uint64_t seed,
                     int trees) {
  const Table& table = db.GetTable(table_name);
  Rng rng(seed);
  PredicateGen gen(&table, &rng);
  int selective = 0;
  for (int t = 0; t < trees; ++t) {
    const ExprPtr tree = gen.Tree(3);
    const std::string what = table_name + " tree " + std::to_string(t) + ": " +
                             tree->ToString(&table.schema());
    std::vector<uint32_t> want;
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      const std::vector<Value> row = TableRow(table, r);
      if (EvalPredicate(*tree, RowRef{row.data(), static_cast<int>(row.size())})) {
        want.push_back(static_cast<uint32_t>(r));
      }
    }
    selective += !want.empty() && static_cast<int64_t>(want.size()) < table.num_rows();
    ExpectScanMatches(db, table, MakeSeqScan(table_name, tree), want,
                      "seq " + what);
    for (const int ic : index_columns) {
      Value lo = gen.Cell(ic, Value::Int64(0));
      Value hi = gen.Cell(ic, Value::Int64(0));
      if (hi.AsDouble() < lo.AsDouble()) std::swap(lo, hi);
      const ExprPtr pred = Expr::And(Expr::Between(ic, lo, hi), tree);
      // Reference: the full predicate over the rows in index order.
      std::vector<uint32_t> want_idx;
      for (const uint32_t r : table.OrderedIndex(ic)) {
        const std::vector<Value> row = TableRow(table, r);
        if (EvalPredicate(*pred, RowRef{row.data(), static_cast<int>(row.size())})) {
          want_idx.push_back(r);
        }
      }
      ExpectScanMatches(db, table, MakeIndexScan(table_name, ic, pred), want_idx,
                        "index on " + std::to_string(ic) + ", " + what);
    }
  }
  return selective;
}

class ScanPredicateProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScanPredicateProperty, TpchScansMatchRowAtATimeFilter) {
  static Database* db = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
  int selective = 0;
  for (const std::string& name : db->TableNames()) {
    const Table& table = db->GetTable(name);
    std::vector<int> index_columns;
    for (int c = 0; c < table.schema().num_columns(); ++c) {
      if (table.HasIndex(c)) index_columns.push_back(c);
    }
    selective += CheckRandomScans(*db, name, index_columns,
                                  7000 + 31 * static_cast<uint64_t>(GetParam()), 4);
  }
  EXPECT_GT(selective, 0) << "every tree kept all rows or none";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanPredicateProperty, ::testing::Range(0, 6));

/// Hand-built edge values: NaN, +-inf, -0.0, int64 +-(2^53 + 1) (which
/// round to +-2^53 as doubles), repeated across rows so equal, unordered
/// and rounding-tied cells meet in every chunk; plus an empty table.
Database MakeEdgeDb() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<double> doubles = {nan, inf, -inf, -0.0, 0.0, 1.5,
                                       9007199254740992.0, -2.5};
  const std::vector<double> finite = {-inf, inf, -0.0, 0.0, 3.0, -1.0};
  const std::vector<int64_t> ints = {big, -big, big - 1, -(big - 1), 0, 7,
                                     std::numeric_limits<int64_t>::max()};
  const std::vector<std::string> strings = {"a", "b", ""};
  const Schema schema({{"i", ValueType::kInt64},
                       {"d", ValueType::kDouble},
                       {"k", ValueType::kDouble},
                       {"s", ValueType::kString}});
  Table edge("edge", schema);
  for (size_t r = 0; r < 61; ++r) {
    edge.AppendRow({Value::Int64(ints[(r * 3) % ints.size()]),
                    Value::Double(doubles[r % doubles.size()]),
                    Value::Double(finite[(r * 5) % finite.size()]),
                    Value::String(strings[r % strings.size()])});
  }
  // NaN breaks an ordered index's strict weak order; i and k hold none.
  edge.DeclareIndex(0);
  edge.DeclareIndex(2);
  Table empty("empty", schema);
  empty.DeclareIndex(0);
  empty.DeclareIndex(2);
  Database db("edge");
  db.AddTable(std::move(edge));
  db.AddTable(std::move(empty));
  db.AnalyzeAll(8);
  return db;
}

TEST(ScanPredicateEdgeValues, MatchRowAtATimeFilter) {
  const Database db = MakeEdgeDb();
  int selective = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    selective += CheckRandomScans(db, "edge", {0, 2}, 500 + seed, 8);
    CheckRandomScans(db, "empty", {0, 2}, 600 + seed, 2);
  }
  EXPECT_GT(selective, 0) << "every tree kept all rows or none";
}

// ---------- The column kernel's mask contract ----------
//
// EvalPredicateColumns writes every lane of its mask, and every byte it
// writes is exactly 0 or 1: AND and OR nodes fold their sides into the
// mask with &= and |=, which is exact only on 0/1 bytes. Random depth-5
// trees run over contiguous chunks at odd offsets and over gathered rids
// in reversed and shuffled order; every lane must equal EvalPredicate on
// its row.

/// Checks `trees` random trees over `table` lane by lane; returns how many
/// kept some but not all rows.
int CheckMaskContract(const Table& table, uint64_t seed, int trees) {
  Rng rng(seed);
  PredicateGen gen(&table, &rng);
  const int64_t rows = table.num_rows();
  std::vector<std::vector<Value>> cells;
  for (int64_t r = 0; r < rows; ++r) cells.push_back(TableRow(table, r));
  std::vector<uint32_t> reversed(static_cast<size_t>(rows));
  std::iota(reversed.rbegin(), reversed.rend(), 0u);
  std::vector<uint32_t> shuffled = reversed;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  int selective = 0;
  for (int t = 0; t < trees; ++t) {
    const ExprPtr tree = gen.Tree(5);
    SCOPED_TRACE(table.name() + " tree " + std::to_string(t) + ": " +
                 tree->ToString(&table.schema()));
    std::vector<uint8_t> want;
    for (const std::vector<Value>& row : cells) {
      want.push_back(
          EvalPredicate(*tree, RowRef{row.data(), static_cast<int>(row.size())}) ? 1 : 0);
    }
    const int64_t kept = std::count(want.begin(), want.end(), 1);
    selective += kept > 0 && kept < rows;
    const auto check = [&](const std::string& what, int64_t first,
                           const uint32_t* rids, int64_t n) {
      std::vector<uint8_t> mask(static_cast<size_t>(n), 0xA5);
      EvalPredicateColumns(*tree, table, first, rids, n, mask.data());
      for (int64_t i = 0; i < n; ++i) {
        const uint8_t got = mask[static_cast<size_t>(i)];
        const int64_t r = rids == nullptr ? first + i : rids[i];
        ASSERT_TRUE(got == 0 || got == 1) << what << " lane " << i << " holds "
                                          << static_cast<int>(got);
        ASSERT_EQ(got, want[static_cast<size_t>(r)]) << what << " lane " << i
                                                     << " (row " << r << ")";
      }
    };
    for (const int64_t len : {int64_t{1}, int64_t{7}, int64_t{64}, int64_t{1024}}) {
      for (const int64_t first : {int64_t{1}, int64_t{13}, (rows / 2) | 1}) {
        if (first >= rows) continue;
        check("chunk at " + std::to_string(first), first, nullptr,
              std::min(len, rows - first));
      }
    }
    check("reversed rids", 0, reversed.data(), rows);
    check("shuffled rids", 0, shuffled.data(), rows);
  }
  return selective;
}

TEST(ScanMaskContract, EdgeValueLanesAreZeroOrOneAndMatchRowAtATime) {
  const Database db = MakeEdgeDb();
  int selective = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    selective += CheckMaskContract(db.GetTable("edge"), 900 + seed, 32);
  }
  EXPECT_GT(selective, 0) << "every tree kept all rows or none";
}

TEST(ScanMaskContract, TpchLanesAreZeroOrOneAndMatchRowAtATime) {
  const Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  EXPECT_GT(CheckMaskContract(db.GetTable("lineitem"), 77, 64), 0)
      << "every tree kept all rows or none";
}

// ---------- Join keys vs a row-at-a-time reference ----------
//
// Hash, nest-loop and merge joins over edge keys (NaN, +-inf, -0.0, int64
// +-(2^53 + 1) and INT64_MIN/MAX, int-valued doubles against ints, and
// strings) must emit exactly the tuples, and count exactly the `no`
// operations, of a reference that decodes every key cell into a Value and
// uses Value::Hash / Value::Equals — at every batch size, with and
// without a pool.

/// keys(i int64, d double, s string) with `rows` rows drawn from edge lists.
Table MakeKeyTable(const std::string& name, int rows, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<int64_t> ints = {big,
                                     -big,
                                     big - 1,
                                     0,
                                     7,
                                     -3,
                                     std::numeric_limits<int64_t>::max(),
                                     std::numeric_limits<int64_t>::min()};
  const std::vector<double> doubles = {std::numeric_limits<double>::quiet_NaN(),
                                       inf,
                                       -inf,
                                       -0.0,
                                       0.0,
                                       7.0,
                                       -3.0,
                                       1.5,
                                       9007199254740992.0,
                                       -9007199254740992.0,
                                       9223372036854775808.0,
                                       -9223372036854775808.0};
  const std::vector<std::string> strings = {"a", "b", "", "7"};
  const auto pick = [rng](const auto& values) {
    return values[static_cast<size_t>(
        rng->NextInt(0, static_cast<int64_t>(values.size()) - 1))];
  };
  Table t(name, Schema({{"i", ValueType::kInt64},
                        {"d", ValueType::kDouble},
                        {"s", ValueType::kString}}));
  for (int r = 0; r < rows; ++r) {
    t.AppendRow({Value::Int64(pick(ints)), Value::Double(pick(doubles)),
                 Value::String(pick(strings))});
  }
  return t;
}

/// Total order of the reference merge walk: numbers by value with NaN last
/// (and equal to NaN), strings by their text.
int ReferenceCompare(const Value& a, const Value& b) {
  if (a.type == ValueType::kString) return a.AsString().compare(b.AsString());
  const double x = a.AsDouble(), y = b.AsDouble();
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) - std::isnan(y);
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// The rows of `t` in ReferenceCompare order on column `c`, ties by row id.
std::vector<uint32_t> ReferenceSortedRows(const Table& t, int c) {
  std::vector<uint32_t> rows(static_cast<size_t>(t.num_rows()));
  for (uint32_t r = 0; r < rows.size(); ++r) rows[r] = r;
  std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
    const int cmp = ReferenceCompare(t.at(a, c), t.at(b, c));
    return cmp != 0 ? cmp < 0 : a < b;
  });
  return rows;
}

struct JoinReference {
  std::vector<uint32_t> prov;  ///< (left id, right id) per output row
  double no = 0.0;             ///< the join operator's `no` counter
};

bool ReferenceKeysEqual(const Table& lt, uint32_t l, const Table& rt, uint32_t r,
                        const std::vector<std::pair<int, int>>& keys) {
  for (const auto& [lc, rc] : keys) {
    if (!lt.at(l, lc).Equals(rt.at(r, rc))) return false;
  }
  return true;
}

/// Hash join, probe `lt`, build `rt`: a build row is visited when its key
/// hash equals the probe row's, and joins when its keys are equal.
JoinReference ReferenceHashJoin(const Table& lt, const Table& rt,
                                const std::vector<std::pair<int, int>>& keys) {
  const auto hashes = [&keys](const Table& t, bool left) {
    std::vector<uint64_t> out;
    for (uint32_t row = 0; row < t.num_rows(); ++row) {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (const auto& [lc, rc] : keys) h = HashMix64(h, t.at(row, left ? lc : rc).Hash());
      out.push_back(h);
    }
    return out;
  };
  const std::vector<uint64_t> lh = hashes(lt, true), rh = hashes(rt, false);
  JoinReference ref;
  ref.no = static_cast<double>(lt.num_rows() + rt.num_rows());
  for (uint32_t l = 0; l < lt.num_rows(); ++l) {
    for (uint32_t r = 0; r < rt.num_rows(); ++r) {
      if (lh[l] != rh[r]) continue;
      ref.no += 1.0;
      if (ReferenceKeysEqual(lt, l, rt, r, keys)) ref.prov.insert(ref.prov.end(), {l, r});
    }
  }
  return ref;
}

JoinReference ReferenceNestLoopJoin(const Table& lt, const Table& rt,
                                    const std::vector<std::pair<int, int>>& keys) {
  JoinReference ref;
  ref.no = static_cast<double>(lt.num_rows() * rt.num_rows());
  for (uint32_t l = 0; l < lt.num_rows(); ++l) {
    for (uint32_t r = 0; r < rt.num_rows(); ++r) {
      if (ReferenceKeysEqual(lt, l, rt, r, keys)) ref.prov.insert(ref.prov.end(), {l, r});
    }
  }
  return ref;
}

/// Merge join over both inputs sorted on the key: the two-pointer walk,
/// one `no` per comparison, each equal group's cross product emitted
/// unless its key is NaN.
JoinReference ReferenceMergeJoin(const Table& lt, int lc, const Table& rt, int rc) {
  const std::vector<uint32_t> ls = ReferenceSortedRows(lt, lc);
  const std::vector<uint32_t> rs = ReferenceSortedRows(rt, rc);
  JoinReference ref;
  size_t li = 0, ri = 0;
  while (li < ls.size() && ri < rs.size()) {
    ref.no += 1.0;
    const int cmp = ReferenceCompare(lt.at(ls[li], lc), rt.at(rs[ri], rc));
    if (cmp != 0) {
      (cmp < 0 ? li : ri) += 1;
      continue;
    }
    size_t le = li + 1, re = ri + 1;
    for (; le < ls.size(); ++le) {
      ref.no += 1.0;
      if (ReferenceCompare(lt.at(ls[le], lc), lt.at(ls[li], lc)) != 0) break;
    }
    for (; re < rs.size(); ++re) {
      ref.no += 1.0;
      if (ReferenceCompare(rt.at(rs[re], rc), rt.at(rs[ri], rc)) != 0) break;
    }
    for (size_t a = li; a < le; ++a) {
      for (size_t b = ri; b < re; ++b) {
        if (lt.at(ls[a], lc).Equals(rt.at(rs[b], rc))) {
          ref.prov.insert(ref.prov.end(), {ls[a], rs[b]});
        }
      }
    }
    li = le;
    ri = re;
  }
  return ref;
}

/// Runs `plan` at batch {1, 7, 1024} x {no pool, MorselPool(3)} and checks
/// the join at `join_id` against `want`: provenance in order and the `no`
/// counter.
void ExpectJoinMatches(const Database& db, Plan plan, int join_id,
                       const JoinReference& want, const std::string& what) {
  static MorselPool* pool = new MorselPool(3);
  ASSERT_TRUE(plan.Finalize(db).ok()) << what;
  Executor executor(&db);
  for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                             static_cast<MorselPool*>(pool)}) {
    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
      SCOPED_TRACE(what + ", batch " + std::to_string(batch) +
                   (runner == nullptr ? ", no pool" : ", pool"));
      ExecOptions options;
      options.collect_provenance = true;
      options.max_batch_size = batch;
      options.task_runner = runner;
      auto result = executor.Execute(plan, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RowBlock& out = result->output;
      ASSERT_EQ(out.width, 2);
      ASSERT_EQ(out.prov_width, 2);
      EXPECT_EQ(out.rids, want.prov);
      EXPECT_EQ(result->ops[static_cast<size_t>(join_id)].actual.no, want.no);
    }
  }
}

class JoinKeyProperty : public ::testing::TestWithParam<int> {};

TEST_P(JoinKeyProperty, JoinsMatchValueAtATimeReference) {
  Rng rng(3000 + static_cast<uint64_t>(GetParam()));
  Database db("join-keys");
  db.AddTable(MakeKeyTable("l", 45, &rng));
  db.AddTable(MakeKeyTable("r", 38, &rng));
  db.AnalyzeAll(8);
  const Table& lt = db.GetTable("l");
  const Table& rt = db.GetTable("r");
  const std::vector<std::vector<std::pair<int, int>>> key_sets = {
      {{0, 0}}, {{1, 1}}, {{0, 1}}, {{1, 0}}, {{2, 2}}, {{0, 0}, {1, 1}}, {{2, 2}, {1, 0}}};
  int matched = 0;
  for (const auto& keys : key_sets) {
    std::string what = "keys";
    for (const auto& [lc, rc] : keys) {
      what += " " + std::to_string(lc) + "=" + std::to_string(rc);
    }
    const JoinReference hash = ReferenceHashJoin(lt, rt, keys);
    matched += !hash.prov.empty();
    ExpectJoinMatches(db,
                      Plan(MakeHashJoin(MakeSeqScan("l", nullptr),
                                        MakeSeqScan("r", nullptr), keys)),
                      0, hash, "hash join, " + what);
    ExpectJoinMatches(db,
                      Plan(MakeNestLoopJoin(MakeSeqScan("l", nullptr),
                                            MakeSeqScan("r", nullptr), keys)),
                      0, ReferenceNestLoopJoin(lt, rt, keys), "nest loop, " + what);
    if (keys.size() == 1) {
      const auto [lc, rc] = keys[0];
      ExpectJoinMatches(db,
                        Plan(MakeMergeJoin(MakeSort(MakeSeqScan("l", nullptr), {lc}),
                                           MakeSort(MakeSeqScan("r", nullptr), {rc}),
                                           keys)),
                        0, ReferenceMergeJoin(lt, lc, rt, rc), "merge join, " + what);
    }
  }
  EXPECT_GT(matched, 0) << "no key set joined any rows";
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinKeyProperty, ::testing::Range(0, 4));

/// One int64 key column `k` holding `keys`.
Table MakeIntKeyTable(const std::string& name, const std::vector<int64_t>& keys) {
  Table t(name, Schema({{"k", ValueType::kInt64}}));
  for (const int64_t k : keys) t.AppendRow({Value::Int64(k)});
  return t;
}

/// Hash-join build and probe sides whose shapes stress the build table's
/// directory: empty sides, a one-row build (two directory heads, so
/// distinct probe hashes share a head and its tag bits), one key shared by
/// every build row (a single chain as long as the build side), and a wide
/// int64 domain over thousands of rows.
TEST(JoinShapes, HashJoinMatchesReferenceOnEveryBuildShape) {
  Rng rng(4242);
  const auto draw = [&rng](int n, int64_t lo, int64_t hi) {
    std::vector<int64_t> keys;
    for (int i = 0; i < n; ++i) keys.push_back(rng.NextInt(lo, hi));
    return keys;
  };
  // The wide case: mostly distinct build keys with a few repeats, probed
  // by a mix of build keys (hits) and fresh draws (misses).
  const int64_t wide = int64_t{1} << 61;
  std::vector<int64_t> wide_build = draw(2000, -wide, wide);
  for (int i = 0; i < 100; ++i) {
    wide_build[rng.NextBelow(wide_build.size())] =
        wide_build[rng.NextBelow(wide_build.size())];
  }
  std::vector<int64_t> wide_probe = draw(1500, -wide, wide);
  // Keys 0..499 against one build row on key 7: 500 distinct hashes over
  // two heads, so some (five today) share its head and tag bit but not its
  // hash.
  std::vector<int64_t> ascending(500);
  std::iota(ascending.begin(), ascending.end(), int64_t{0});
  for (size_t i = 0; i < wide_probe.size(); i += 2) {
    wide_probe[i] = wide_build[rng.NextBelow(wide_build.size())];
  }
  struct Shape {
    std::string name;
    std::vector<int64_t> probe, build;
    bool joins;  ///< some probe row has a partner
  };
  const std::vector<Shape> shapes = {
      {"empty build", draw(30, 0, 9), {}, false},
      {"empty probe", {}, draw(30, 0, 9), false},
      {"one build row", ascending, {7}, true},
      {"one key", draw(300, 0, 9), std::vector<int64_t>(200, 5), true},
      {"wide domain", wide_probe, wide_build, true},
  };
  for (const Shape& shape : shapes) {
    Database db("join-shapes");
    db.AddTable(MakeIntKeyTable("l", shape.probe));
    db.AddTable(MakeIntKeyTable("r", shape.build));
    db.AnalyzeAll(8);
    const std::vector<std::pair<int, int>> keys = {{0, 0}};
    const JoinReference want =
        ReferenceHashJoin(db.GetTable("l"), db.GetTable("r"), keys);
    EXPECT_EQ(!want.prov.empty(), shape.joins) << shape.name;
    ExpectJoinMatches(db,
                      Plan(MakeHashJoin(MakeSeqScan("l", nullptr),
                                        MakeSeqScan("r", nullptr), keys)),
                      0, want, shape.name);
  }
}

// ---------- Aggregate grouping vs a Value-at-a-time reference ----------

/// One row of agg(k int64, s string, d double, v int64).
struct AggRow {
  int64_t k = 0;
  std::string s;
  double d = 0.0;
  int64_t v = 0;
};

Table MakeAggTable(const std::vector<AggRow>& rows) {
  Table t("agg", Schema({{"k", ValueType::kInt64},
                         {"s", ValueType::kString},
                         {"d", ValueType::kDouble},
                         {"v", ValueType::kInt64}}));
  for (const AggRow& row : rows) {
    t.AppendRow({Value::Int64(row.k), Value::String(row.s), Value::Double(row.d),
                 Value::Int64(row.v)});
  }
  return t;
}

/// COUNT, SUM(v), MIN(v) and MAX(v) of one group; AVG(v) is SUM / COUNT.
struct AggGroupReference {
  uint32_t first = 0;  ///< the row the group first appears at
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Groups in first-appearance order: a row joins the first earlier group
/// whose first row's keys are all Value::Equals to its own (so a NaN key
/// starts a group of its own).
std::vector<AggGroupReference> ReferenceAggregate(const Table& t,
                                                  const std::vector<int>& group_cols) {
  std::vector<AggGroupReference> groups;
  for (uint32_t row = 0; row < t.num_rows(); ++row) {
    AggGroupReference* into = nullptr;
    for (AggGroupReference& g : groups) {
      bool same = true;
      for (const int c : group_cols) same = same && t.at(g.first, c).Equals(t.at(row, c));
      if (same) {
        into = &g;
        break;
      }
    }
    if (into == nullptr) {
      groups.push_back({row});
      into = &groups.back();
    }
    const double v = t.at(row, 3).AsDouble();
    ++into->count;
    into->sum += v;
    into->min = std::min(into->min, v);
    into->max = std::max(into->max, v);
  }
  return groups;
}

/// Aggregate inputs whose shapes stress grouping: no rows, one group,
/// all-distinct keys, NaN keys, signed zeros, string keys, a three-column
/// mixed-type key, groups that recur across chunk boundaries, and a global
/// aggregate. v is integer-valued, so SUM and AVG are exact at every batch
/// size and merge order.
TEST(AggregateShapes, GroupingMatchesReferenceOnEveryShape) {
  Rng rng(5151);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::string> words = {"a", "b", "", "ab"};
  const auto rows_of = [&rng](int n, const std::function<void(int, AggRow*)>& fill) {
    std::vector<AggRow> rows(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      rows[static_cast<size_t>(i)].v = rng.NextInt(-1000, 1000);
      fill(i, &rows[static_cast<size_t>(i)]);
    }
    return rows;
  };
  struct Shape {
    std::string name;
    std::vector<AggRow> rows;
    std::vector<int> group_cols;
  };
  const std::vector<Shape> shapes = {
      {"empty input", {}, {0}},
      {"one group", rows_of(300, [](int, AggRow* r) { r->k = 3; }), {0}},
      {"all distinct", rows_of(2500, [](int i, AggRow* r) { r->k = 7 * i - 900; }), {0}},
      {"NaN keys",
       rows_of(400,
               [&](int, AggRow* r) {
                 r->d = rng.NextBool(0.3) ? nan : static_cast<double>(rng.NextInt(0, 4));
               }),
       {2}},
      {"signed zeros",
       rows_of(200, [&](int i, AggRow* r) { r->d = i == 0 || rng.NextBool(0.5) ? -0.0 : 0.0; }),
       {2}},
      {"string keys",
       rows_of(500,
               [&](int, AggRow* r) {
                 r->s = words[static_cast<size_t>(rng.NextInt(0, 3))];
               }),
       {1}},
      {"three-column key",
       rows_of(1500,
               [&](int, AggRow* r) {
                 r->k = rng.NextInt(0, 3);
                 r->s = words[static_cast<size_t>(rng.NextInt(0, 3))];
                 const double ds[] = {-0.0, 0.0, 1.5, nan, 2.0};
                 r->d = ds[rng.NextInt(0, 4)];
               }),
       {0, 1, 2}},
      {"groups across chunks",
       rows_of(2600, [](int i, AggRow* r) { r->k = (i / 5) % 41; }), {0}},
      {"global aggregate", rows_of(1300, [](int, AggRow*) {}), {}},
  };
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  aggs.push_back({AggSpec::Kind::kSum, 3, "sum_v"});
  aggs.push_back({AggSpec::Kind::kMin, 3, "min_v"});
  aggs.push_back({AggSpec::Kind::kMax, 3, "max_v"});
  aggs.push_back({AggSpec::Kind::kAvg, 3, "avg_v"});
  MorselPool pool(3);
  for (const Shape& shape : shapes) {
    Database db("agg-shapes");
    db.AddTable(MakeAggTable(shape.rows));
    db.AnalyzeAll(8);
    const Table& t = db.GetTable("agg");
    const std::vector<AggGroupReference> want = ReferenceAggregate(t, shape.group_cols);
    Plan plan(MakeAggregate(MakeSeqScan("agg", nullptr), shape.group_cols, aggs));
    ASSERT_TRUE(plan.Finalize(db).ok()) << shape.name;
    Executor executor(&db);
    const int ng = static_cast<int>(shape.group_cols.size());
    for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                               static_cast<MorselPool*>(&pool)}) {
      for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
        SCOPED_TRACE(shape.name + ", batch " + std::to_string(batch) +
                     (runner == nullptr ? ", no pool" : ", pool"));
        ExecOptions options;
        options.max_batch_size = batch;
        options.task_runner = runner;
        auto result = executor.Execute(plan, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const RowBlock& out = result->output;
        ASSERT_EQ(out.num_rows(), static_cast<int64_t>(want.size()));
        for (size_t g = 0; g < want.size(); ++g) {
          const int64_t r = static_cast<int64_t>(g);
          for (int c = 0; c < ng; ++c) {
            // Bit for bit the first row's cell: -0.0 stays -0.0.
            const Value first = t.at(want[g].first, shape.group_cols[static_cast<size_t>(c)]);
            EXPECT_EQ(out.at(r, c).type, first.type) << "group " << g;
            EXPECT_EQ(PayloadOf(out.at(r, c)), PayloadOf(first)) << "group " << g;
          }
          EXPECT_EQ(out.at(r, ng).AsDouble(), static_cast<double>(want[g].count));
          EXPECT_EQ(out.at(r, ng + 1).AsDouble(), want[g].sum) << "group " << g;
          EXPECT_EQ(out.at(r, ng + 2).AsDouble(), want[g].min) << "group " << g;
          EXPECT_EQ(out.at(r, ng + 3).AsDouble(), want[g].max) << "group " << g;
          EXPECT_EQ(out.at(r, ng + 4).AsDouble(),
                    want[g].sum / static_cast<double>(want[g].count))
              << "group " << g;
        }
        const OpStats& agg = result->ops[0];
        ASSERT_EQ(agg.type, OpType::kAggregate);
        EXPECT_EQ(agg.actual.no, static_cast<double>(t.num_rows() + out.num_rows()));
      }
    }
  }
}

// ---------- Statistical validation of Var̂[ρ_n] (Theorem 3 / S²_n) ----------

struct VarValidationCase {
  double sampling_ratio;
  bool join;  // scan otherwise
};

class VarianceEstimateValidation
    : public ::testing::TestWithParam<VarValidationCase> {};

TEST_P(VarianceEstimateValidation, EstimatedVarianceTracksTrueVariance) {
  const auto [ratio, join] = GetParam();
  static Database* db = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));

  // Fixed query; only the samples vary.
  Rng qrng(5);
  ConstantPicker pick(db, &qrng);
  std::unique_ptr<PlanNode> logical;
  if (join) {
    JoinChainBuilder chain(db);
    chain.Start("lineitem", pick.LessEqAtFraction("lineitem", "l_quantity", 0.5))
        .Join("orders", nullptr, {{"lineitem.l_orderkey", "o_orderkey"}});
    logical = chain.Finish();
  } else {
    logical = MakeSeqScan("lineitem",
                          pick.LessEqAtFraction("lineitem", "l_quantity", 0.3));
  }
  Plan plan(std::move(logical));
  ASSERT_TRUE(plan.Finalize(*db).ok());

  // Across many independent sample sets: the empirical variance of ρ̂ must
  // match the average estimated variance (S²_n/n is consistent).
  RunningStats rho_hat;
  double est_var_acc = 0.0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    SampleOptions so;
    so.sampling_ratio = ratio;
    so.seed = 10000 + static_cast<uint64_t>(t);
    const SampleDb samples = SampleDb::Build(*db, so);
    SamplingEstimator estimator(db, &samples);
    auto est = estimator.Estimate(plan);
    ASSERT_TRUE(est.ok());
    rho_hat.Add(est->ops[0].rho);
    est_var_acc += est->ops[0].variance;
  }
  const double empirical = rho_hat.variance();
  const double estimated = est_var_acc / trials;
  ASSERT_GT(empirical, 0.0);
  // Sampling WITHOUT replacement makes the true variance smaller than the
  // with-replacement formula by up to (1 - ratio); allow a generous band.
  const double ratio_of_vars = estimated / empirical;
  EXPECT_GT(ratio_of_vars, 0.4) << "estimator badly underestimates";
  EXPECT_LT(ratio_of_vars, 3.0) << "estimator badly overestimates";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VarianceEstimateValidation,
    ::testing::Values(VarValidationCase{0.05, false},
                      VarValidationCase{0.2, false},
                      VarValidationCase{0.05, true},
                      VarValidationCase{0.2, true}));

// ---------- Ordered-sum tail probability vs Monte-Carlo oracle ----------
//
// The scheduling policy library's P(both meet | a then b) — the exact
// quadrature ProbBothMeetSequential — must match a 1e6-draw Monte-Carlo
// estimate of P(A <= da AND A + B <= db) within 3 standard errors, for
// randomized job shapes. The same oracle quantifies the bias of the
// historical product approximation (NaiveBothMeetProb): wherever a's
// deadline binds, the product must sit BELOW the exact value.

class BothMeetOracle : public ::testing::TestWithParam<int> {};

TEST_P(BothMeetOracle, QuadratureMatchesMonteCarloWithin3SE) {
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  // Random job pair: means within a decade, cv in [0.05, 0.6], deadlines
  // spanning slack-to-binding (da around mu_a, db around mu_a + mu_b).
  const double mu_a = 50.0 + 450.0 * rng.NextDouble();
  const double mu_b = 50.0 + 450.0 * rng.NextDouble();
  const double sd_a = mu_a * (0.05 + 0.55 * rng.NextDouble());
  const double sd_b = mu_b * (0.05 + 0.55 * rng.NextDouble());
  const double da = mu_a * (0.8 + 0.8 * rng.NextDouble());
  const double db = (mu_a + mu_b) * (0.8 + 0.8 * rng.NextDouble());

  const double exact = ProbBothMeetSequential(mu_a, sd_a * sd_a, da,
                                              mu_b, sd_b * sd_b, db);

  const int kDraws = 1000000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double ta = rng.NextGaussian(mu_a, sd_a);
    const double tb = rng.NextGaussian(mu_b, sd_b);
    if (ta <= da && ta + tb <= db) ++hits;
  }
  const double mc = static_cast<double>(hits) / kDraws;
  const double se = std::sqrt(std::max(mc * (1.0 - mc), 1e-12) / kDraws);
  EXPECT_NEAR(exact, mc, 3.0 * se + 1e-6)
      << "mu_a=" << mu_a << " sd_a=" << sd_a << " da=" << da
      << " mu_b=" << mu_b << " sd_b=" << sd_b << " db=" << db;

  // The naive product never exceeds the exact probability (positive
  // correlation through A + truncation of A at da), and is strictly
  // below it whenever da binds.
  const double p_a = NormalCdf(da, mu_a, sd_a * sd_a);
  const double naive =
      p_a * NormalCdf(db, mu_a + mu_b, sd_a * sd_a + sd_b * sd_b);
  EXPECT_LE(naive, exact + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BothMeetOracle, ::testing::Range(0, 8));

}  // namespace
}  // namespace uqp
