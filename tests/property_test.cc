// Randomized property tests: random plans over the TPC-H schema must
// satisfy the library's invariants end to end, and the S²_n/n variance
// estimate must statistically match the TRUE sampling variance of ρ_n
// (paper Theorem 3 / §3.2.1, validated by brute force over many
// independent sample sets).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
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
  Predictor predictor(db, samples, *units);
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
  for (TaskRunner* runner : {static_cast<TaskRunner*>(nullptr),
                             static_cast<TaskRunner*>(pool)}) {
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
