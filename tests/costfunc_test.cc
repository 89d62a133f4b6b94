// Tests for the logical cost functions (paper §4): the static shape
// mapping, the closed-form distributions of §5.2.1, and the grid + NNLS
// fitting pipeline against the optimizer's cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "costfunc/fitter.h"
#include "costfunc/types.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "sampling/estimator.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

namespace uqp {
namespace {

// ---------- Shapes ----------

TEST(CostFuncTypes, StaticMappingMatchesSection41) {
  // Sequential scans are constant in the selectivities (C1).
  EXPECT_EQ(CostFunctionTypeFor(OpType::kSeqScan, kCostSeqPage),
            CostFuncType::kConstant);
  // Index scans are linear in the output cardinality (C2).
  EXPECT_EQ(CostFunctionTypeFor(OpType::kIndexScan, kCostRandPage),
            CostFuncType::kLinearOutput);
  // Hash joins: C5 for the inputs, C2 for emitted tuples.
  EXPECT_EQ(CostFunctionTypeFor(OpType::kHashJoin, kCostOperator),
            CostFuncType::kLinearBoth);
  EXPECT_EQ(CostFunctionTypeFor(OpType::kHashJoin, kCostTuple),
            CostFuncType::kLinearOutput);
  // Nested loops: the Nl*Nr product term (C6).
  EXPECT_EQ(CostFunctionTypeFor(OpType::kNestLoopJoin, kCostOperator),
            CostFuncType::kBilinear);
  // Sort comparisons: quadratic approximation of N log N (C4).
  EXPECT_EQ(CostFunctionTypeFor(OpType::kSort, kCostOperator),
            CostFuncType::kQuadraticLeft);
  // Materialize: linear in the input (C3).
  EXPECT_EQ(CostFunctionTypeFor(OpType::kMaterialize, kCostOperator),
            CostFuncType::kLinearLeft);
}

TEST(CostFuncTypes, CoefficientCounts) {
  EXPECT_EQ(CostFuncNumCoefficients(CostFuncType::kConstant), 1);
  EXPECT_EQ(CostFuncNumCoefficients(CostFuncType::kLinearOutput), 2);
  EXPECT_EQ(CostFuncNumCoefficients(CostFuncType::kQuadraticLeft), 3);
  EXPECT_EQ(CostFuncNumCoefficients(CostFuncType::kLinearBoth), 3);
  EXPECT_EQ(CostFuncNumCoefficients(CostFuncType::kBilinear), 4);
}

// ---------- Eval / Distribution ----------

TEST(FittedCostFunction, EvalPerShape) {
  FittedCostFunction f;
  f.type = CostFuncType::kBilinear;
  f.b = {2.0, 3.0, 5.0, 7.0};
  EXPECT_DOUBLE_EQ(f.Eval(0.0, 0.5, 0.2), 2.0 * 0.1 + 3.0 * 0.5 + 5.0 * 0.2 + 7.0);
  f.type = CostFuncType::kQuadraticLeft;
  f.b = {2.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(f.Eval(0.0, 0.5, 0.0), 2.0 * 0.25 + 1.5 + 5.0);
  f.type = CostFuncType::kLinearOutput;
  f.b = {4.0, 1.0};
  EXPECT_DOUBLE_EQ(f.Eval(0.3, 0.0, 0.0), 2.2);
}

TEST(FittedCostFunction, LinearDistributionIsExact) {
  FittedCostFunction f;
  f.type = CostFuncType::kLinearOutput;
  f.b = {10.0, 2.0};
  const Gaussian x(0.4, 0.01);
  const Gaussian d = f.Distribution(x, Gaussian(), Gaussian());
  EXPECT_DOUBLE_EQ(d.mean, 6.0);
  EXPECT_DOUBLE_EQ(d.variance, 100.0 * 0.01);
}

TEST(FittedCostFunction, QuadraticDistributionUsesLemma4) {
  FittedCostFunction f;
  f.type = CostFuncType::kQuadraticLeft;
  f.b = {2.0, 1.0, 3.0};
  const Gaussian xl(0.5, 0.04);
  const Gaussian d = f.Distribution(Gaussian(), xl, Gaussian());
  // E[f] = b0 (mu² + var) + b1 mu + b2.
  EXPECT_DOUBLE_EQ(d.mean, 2.0 * (0.25 + 0.04) + 0.5 + 3.0);
  EXPECT_DOUBLE_EQ(d.variance, QuadraticFormVariance(2.0, 1.0, 0.5, 0.04));
}

TEST(FittedCostFunction, BilinearDistributionUsesLemma8) {
  FittedCostFunction f;
  f.type = CostFuncType::kBilinear;
  f.b = {2.0, 1.0, 0.5, 3.0};
  const Gaussian xl(0.3, 0.01), xr(0.6, 0.02);
  const Gaussian d = f.Distribution(Gaussian(), xl, xr);
  EXPECT_DOUBLE_EQ(d.mean, 2.0 * 0.18 + 0.3 + 0.3 + 3.0);
  EXPECT_DOUBLE_EQ(d.variance,
                   BilinearFormVariance(2.0, 1.0, 0.5, 0.3, 0.01, 0.6, 0.02));
}

TEST(FittedCostFunction, LinearBothSumsComponentVariances) {
  FittedCostFunction f;
  f.type = CostFuncType::kLinearBoth;
  f.b = {2.0, 3.0, 1.0};
  const Gaussian xl(0.3, 0.01), xr(0.6, 0.04);
  const Gaussian d = f.Distribution(Gaussian(), xl, xr);
  EXPECT_DOUBLE_EQ(d.mean, 0.6 + 1.8 + 1.0);
  EXPECT_DOUBLE_EQ(d.variance, 4.0 * 0.01 + 9.0 * 0.04);
}

// ---------- Fitting ----------

struct FitFixture {
  Database db;
  SampleDb samples;

  FitFixture() {
    Rng rng(5);
    Table r("r", Schema({{"a", ValueType::kInt64}, {"x", ValueType::kDouble}}));
    for (int i = 0; i < 4000; ++i) {
      r.AppendRow({Value::Int64(i % 100), Value::Double(rng.NextDouble())});
    }
    r.DeclareIndex(1);
    Table s("s", Schema({{"b", ValueType::kInt64}, {"y", ValueType::kDouble}}));
    for (int i = 0; i < 800; ++i) {
      s.AppendRow({Value::Int64(i % 100), Value::Double(rng.NextDouble())});
    }
    db = Database("fit-test");
    db.AddTable(std::move(r));
    db.AddTable(std::move(s));
    db.AnalyzeAll(16);
    SampleOptions options;
    options.sampling_ratio = 0.1;
    samples = SampleDb::Build(db, options);
  }
};

TEST(Fitter, FittedFunctionsMatchOracleAtDistributionCenter) {
  FitFixture fx;
  // join(scan(r: x <= 0.3), scan(s)) with a sort on top.
  auto join = MakeHashJoin(
      MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(0.3))),
      MakeSeqScan("s", nullptr), {{0, 0}});
  Plan plan(MakeSort(std::move(join), {1}));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());

  SamplingEstimator estimator(&fx.db, &fx.samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(plan, *estimates);
  ASSERT_TRUE(funcs.ok());
  ASSERT_EQ(funcs->size(), 4u);

  // Every fitted function evaluated at the estimate means must be close to
  // the optimizer's resource estimate at the same cardinalities.
  const EngineConfig engine;
  for (const PlanNode* node : plan.NodesPreorder()) {
    const OperatorCostFunctions& ocf = (*funcs)[static_cast<size_t>(node->id)];
    const double x = (*estimates).ops[static_cast<size_t>(node->id)].rho;
    double xl = 1.0, xr = 1.0;
    std::vector<double> rows_by_id(4, 0.0);
    for (const PlanNode* n : plan.NodesPreorder()) {
      rows_by_id[static_cast<size_t>(n->id)] =
          (*estimates).ops[static_cast<size_t>(n->id)].rho * n->leaf_row_product;
    }
    if (node->left != nullptr) {
      xl = (*estimates).ops[static_cast<size_t>(node->left->id)].rho;
    }
    if (node->right != nullptr) {
      xr = (*estimates).ops[static_cast<size_t>(node->right->id)].rho;
    }
    const ResourceVector oracle =
        EstimateNodeResources(*node, fx.db, rows_by_id, engine);
    for (int u = 0; u < kNumCostUnits; ++u) {
      const double fitted = ocf.funcs[u].Eval(x, xl, xr);
      const double expected = oracle.Get(u);
      const double tol = std::max(1.0, 0.08 * std::fabs(expected));
      EXPECT_NEAR(fitted, expected, tol)
          << OpTypeName(node->type) << " unit " << u;
    }
  }
}

TEST(Fitter, WorkCoefficientsAreNonnegative) {
  FitFixture fx;
  auto join = MakeHashJoin(
      MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(0.4))),
      MakeSeqScan("s", nullptr), {{0, 0}});
  Plan plan(std::move(join));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  SamplingEstimator estimator(&fx.db, &fx.samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(plan, *estimates);
  ASSERT_TRUE(funcs.ok());
  for (const OperatorCostFunctions& ocf : *funcs) {
    for (int u = 0; u < kNumCostUnits; ++u) {
      const auto& b = ocf.funcs[u].b;
      // All but the final (constant) coefficient must be nonnegative.
      for (size_t i = 0; i + 1 < b.size(); ++i) {
        EXPECT_GE(b[i], -1e-9) << OpTypeName(ocf.op_type) << " unit " << u;
      }
    }
  }
}

TEST(Fitter, SortQuadraticApproximatesNLogNOverLikelyRange) {
  FitFixture fx;
  Plan plan(MakeSort(
      MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(0.5))), {0}));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  SamplingEstimator estimator(&fx.db, &fx.samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(plan, *estimates);
  ASSERT_TRUE(funcs.ok());
  const FittedCostFunction& no = (*funcs)[0].funcs[kCostOperator];
  EXPECT_EQ(no.type, CostFuncType::kQuadraticLeft);
  // Compare against Nl log2 Nl across the fitted interval.
  const Gaussian xl = (*estimates).ops[1].AsGaussian();
  for (double offset : {-2.0, -1.0, 0.0, 1.0, 2.0}) {
    const double x = xl.mean + offset * xl.stddev();
    const double nl = x * 4000.0;
    const double exact = nl * std::log2(std::max(2.0, nl));
    const double approx = no.Eval(x, x, 0.0);
    EXPECT_NEAR(approx, exact, 0.05 * exact + 10.0);
  }
}

TEST(Fitter, VariableIdsFollowPassThrough) {
  FitFixture fx;
  auto join = MakeHashJoin(
      MakeSort(MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(0.4))),
               {0}),
      MakeSeqScan("s", nullptr), {{0, 0}});
  Plan plan(std::move(join));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  SamplingEstimator estimator(&fx.db, &fx.samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(plan, *estimates);
  ASSERT_TRUE(funcs.ok());
  // Node 0 = join, node 1 = sort, node 2 = scan r, node 3 = scan s.
  // The join's left variable must resolve through the sort to the scan.
  EXPECT_EQ((*funcs)[0].var_left, 2);
  EXPECT_EQ((*funcs)[0].var_right, 3);
  EXPECT_EQ((*funcs)[1].var_own, 2);
}

TEST(Fitter, DegenerateVarianceStillFits) {
  FitFixture fx;
  // A full scan has rho = 1, variance = 0: the grid degenerates but the
  // fit must still reproduce the oracle at the point.
  Plan plan(MakeSeqScan("r", nullptr));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  SamplingEstimator estimator(&fx.db, &fx.samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(plan, *estimates);
  ASSERT_TRUE(funcs.ok());
  const Table& r = fx.db.GetTable("r");
  EXPECT_NEAR((*funcs)[0].funcs[kCostSeqPage].Eval(1.0, 1.0, 1.0),
              static_cast<double>(r.num_pages()), 1.0);
  EXPECT_NEAR((*funcs)[0].funcs[kCostTuple].Eval(1.0, 1.0, 1.0), 4000.0, 1.0);
}

TEST(Fitter, NonFiniteSelectivityIsRejected) {
  FitFixture fx;
  Plan plan(MakeHashJoin(
      MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(0.4))),
      MakeSeqScan("s", nullptr), {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  SamplingEstimator estimator(&fx.db, &fx.samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  CostFunctionFitter fitter(&fx.db);
  ASSERT_TRUE(fitter.FitPlan(plan, *estimates).ok());
  // A NaN selectivity of the probe side puts NaN grid points into the
  // join's NNLS matrix: the fit fails instead of yielding NaN coefficients.
  estimates->ops[1].rho = std::numeric_limits<double>::quiet_NaN();
  auto funcs = fitter.FitPlan(plan, *estimates);
  ASSERT_FALSE(funcs.ok());
  EXPECT_EQ(funcs.status().code(), StatusCode::kInvalidArgument)
      << funcs.status().ToString();
}

// FNV-1a over the eight bytes of `v`, least significant first.
uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The fitted functions of seeded micro, seljoin and TPC-H plans on the tiny
// TPC-H profile, plus a merge join and a materialize (which the planner
// never emits), digested bit for bit: the shape of every function and
// every coefficient's bit pattern. Any change to the grid points, the
// oracle probes, the order of the NNLS arithmetic or the sign of a zero
// coefficient changes the digest.
TEST(Fitter, CoefficientBitsArePinned) {
  const Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  const SampleDb samples = SampleDb::Build(db, SampleOptions());
  std::vector<Plan> plans;
  for (const char* kind : {"micro", "seljoin", "tpch"}) {
    for (auto& q : MakeWorkload(db, kind, 3, 16)) {
      auto plan = OptimizePlan(std::move(q.logical), db);
      ASSERT_TRUE(plan.ok()) << kind << " " << q.name;
      plans.push_back(std::move(plan).value());
    }
  }
  auto join = MakeMergeJoin(
      MakeSort(MakeSeqScan("orders", Expr::Cmp(3, CmpOp::kLe,
                                               Value::Double(150000.0))),
               {0}),
      MakeSort(MakeSeqScan("lineitem", nullptr), {0}), {{0, 0}});
  plans.emplace_back(MakeNestLoopJoin(MakeSeqScan("region", nullptr),
                                      MakeMaterialize(std::move(join)), {}));
  ASSERT_TRUE(plans.back().Finalize(db).ok());

  const SamplingEstimator estimator(&db, &samples);
  const CostFunctionFitter fitter(&db);
  bool op_seen[8] = {};
  bool shape_seen[6] = {};
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Plan& plan : plans) {
    auto estimates = estimator.Estimate(plan);
    ASSERT_TRUE(estimates.ok());
    auto funcs = fitter.FitPlan(plan, *estimates);
    ASSERT_TRUE(funcs.ok());
    for (const OperatorCostFunctions& ocf : *funcs) {
      op_seen[static_cast<int>(ocf.op_type)] = true;
      for (const FittedCostFunction& f : ocf.funcs) {
        shape_seen[static_cast<int>(f.type)] = true;
        digest = FnvMix(digest, static_cast<uint64_t>(f.type));
        for (double b : f.b) digest = FnvMix(digest, DoubleBits(b));
      }
    }
  }
  for (int op = 0; op < 8; ++op) {
    EXPECT_TRUE(op_seen[op]) << OpTypeName(static_cast<OpType>(op));
  }
  for (int shape = 0; shape < 6; ++shape) {
    EXPECT_TRUE(shape_seen[shape])
        << CostFuncTypeName(static_cast<CostFuncType>(shape));
  }
  EXPECT_EQ(digest, 0xc4cf509396f201daULL) << std::hex << "digest 0x" << digest << " over "
                            << std::dec << plans.size() << " plans";
}

}  // namespace
}  // namespace uqp
