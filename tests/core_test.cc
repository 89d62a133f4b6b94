// Tests for the core predictor: the variance engine (paper §5/Algorithm 3)
// against hand-computed cases, the predictor variants, and the evaluation
// metrics.

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/variance.h"
#include "math/rng.h"

namespace uqp {
namespace {

CostUnits UnitTestUnits() {
  CostUnits units;
  // Simple round numbers: mean u+1, sd 10% of mean.
  for (int u = 0; u < kNumCostUnits; ++u) {
    const double mean = static_cast<double>(u + 1);
    units.Get(u) = Gaussian(mean, 0.01 * mean * mean);
  }
  return units;
}

/// Artifacts for a single operator whose only nonzero cost function is a
/// C2' (b0 X + b1) on one cost unit, with X ~ N(mu, var).
struct SingleOpArtifacts {
  PlanEstimates estimates;
  std::vector<OperatorCostFunctions> funcs;

  SingleOpArtifacts(int unit, double b0, double b1, double mu, double var) {
    SelectivityEstimate est;
    est.rho = mu;
    est.variance = var;
    est.leaf_begin = 0;
    est.leaf_end = 1;
    est.var_components = {var};
    estimates.ops = {est};
    estimates.variable_of_node = {0};
    estimates.leaf_sample_rows = {100.0};

    OperatorCostFunctions ocf;
    ocf.node_id = 0;
    ocf.op_type = OpType::kIndexScan;
    ocf.var_own = 0;
    for (int u = 0; u < kNumCostUnits; ++u) {
      ocf.funcs[u].type = CostFuncType::kConstant;
      ocf.funcs[u].b = {0.0};
    }
    ocf.funcs[unit].type = CostFuncType::kLinearOutput;
    ocf.funcs[unit].b = {b0, b1};
    funcs = {ocf};
  }
};

TEST(VarianceEngine, SingleLinearOperatorHandComputed) {
  // G_c = b0 X + b1 on unit 2 (mean 3, var 0.09); X ~ N(0.4, 0.01).
  const double b0 = 100.0, b1 = 10.0, mu_x = 0.4, var_x = 0.01;
  SingleOpArtifacts art(2, b0, b1, mu_x, var_x);
  const CostUnits units = UnitTestUnits();
  const double mu_c = 3.0, var_c = 0.09;

  const VarianceEngine engine(&art.estimates, &art.funcs, &units);
  const VarianceBreakdown out = engine.Compute();

  const double e_g = b0 * mu_x + b1;  // 50
  EXPECT_DOUBLE_EQ(out.expected_work[2], e_g);
  EXPECT_DOUBLE_EQ(out.mean, e_g * mu_c);
  // Var[G c] = E[G]² Var[c] + (mu_c² + Var[c]) Var[G],
  // Var[G] = b0² var_x = 1.
  const double var_g = b0 * b0 * var_x;
  EXPECT_NEAR(out.variance, e_g * e_g * var_c + (mu_c * mu_c + var_c) * var_g,
              1e-9);
  EXPECT_NEAR(out.var_cost_units, e_g * e_g * var_c, 1e-9);
  EXPECT_NEAR(out.var_selectivity, (mu_c * mu_c + var_c) * var_g, 1e-9);
  EXPECT_DOUBLE_EQ(out.var_cov_bounds, 0.0);
}

TEST(VarianceEngine, VariantsZeroTheRightParts) {
  SingleOpArtifacts art(2, 100.0, 10.0, 0.4, 0.01);
  const CostUnits units = UnitTestUnits();

  const VarianceEngine all(&art.estimates, &art.funcs, &units,
                           PredictorVariant::kAll);
  const VarianceEngine no_c(&art.estimates, &art.funcs, &units,
                            PredictorVariant::kNoVarC);
  const VarianceEngine no_x(&art.estimates, &art.funcs, &units,
                            PredictorVariant::kNoVarX);
  const double v_all = all.Compute().variance;
  const double v_no_c = no_c.Compute().variance;
  const double v_no_x = no_x.Compute().variance;
  EXPECT_LT(v_no_c, v_all);
  EXPECT_LT(v_no_x, v_all);
  EXPECT_DOUBLE_EQ(no_c.Compute().var_cost_units, 0.0);
  EXPECT_DOUBLE_EQ(no_x.Compute().var_selectivity, 0.0);
  // Dropping both leaves nothing.
  SingleOpArtifacts frozen(2, 100.0, 10.0, 0.4, 0.0);
  const CostUnits no_var_units = units.WithoutVariance();
  const VarianceEngine none(&frozen.estimates, &frozen.funcs, &no_var_units);
  EXPECT_DOUBLE_EQ(none.Compute().variance, 0.0);
}

TEST(VarianceEngine, SharedVariableAcrossUnitsAddsCovariance) {
  // The same X feeds units 2 and 4: Cov(G_2 c_2, G_4 c_4) =
  // mu_2 mu_4 b0 b0' Var[X] > 0 must appear in the total.
  SingleOpArtifacts art(2, 100.0, 0.0, 0.4, 0.01);
  art.funcs[0].funcs[4].type = CostFuncType::kLinearOutput;
  art.funcs[0].funcs[4].b = {50.0, 0.0};
  const CostUnits units = UnitTestUnits();
  const VarianceEngine engine(&art.estimates, &art.funcs, &units);
  const VarianceBreakdown out = engine.Compute();

  const double mu2 = 3.0, mu4 = 5.0, var2 = 0.09, var4 = 0.25;
  const double var_x = 0.01;
  const double expected =
      // unit 2 alone
      std::pow(100.0 * 0.4, 2) * var2 + (mu2 * mu2 + var2) * 100.0 * 100.0 * var_x +
      // unit 4 alone
      std::pow(50.0 * 0.4, 2) * var4 + (mu4 * mu4 + var4) * 50.0 * 50.0 * var_x +
      // cross-unit covariance, both directions
      2.0 * mu2 * mu4 * 100.0 * 50.0 * var_x;
  EXPECT_NEAR(out.variance, expected, 1e-6);
}

TEST(VarianceEngine, IndependentVariablesDoNotCovary) {
  // Two operators over disjoint leaf spans: no covariance terms at all.
  PlanEstimates estimates;
  SelectivityEstimate a, b;
  a.rho = 0.3;
  a.variance = 0.01;
  a.leaf_begin = 0;
  a.leaf_end = 1;
  a.var_components = {0.01};
  b.rho = 0.6;
  b.variance = 0.04;
  b.leaf_begin = 1;
  b.leaf_end = 2;
  b.var_components = {0.04};
  estimates.ops = {a, b};
  estimates.variable_of_node = {0, 1};
  estimates.leaf_sample_rows = {100.0, 100.0};

  OperatorCostFunctions f0, f1;
  for (int u = 0; u < kNumCostUnits; ++u) {
    f0.funcs[u].type = CostFuncType::kConstant;
    f0.funcs[u].b = {0.0};
    f1.funcs[u].type = CostFuncType::kConstant;
    f1.funcs[u].b = {0.0};
  }
  f0.node_id = 0;
  f0.var_own = 0;
  f0.funcs[2] = {CostFuncType::kLinearOutput, {10.0, 0.0}};
  f1.node_id = 1;
  f1.var_own = 1;
  f1.funcs[2] = {CostFuncType::kLinearOutput, {20.0, 0.0}};
  std::vector<OperatorCostFunctions> funcs = {f0, f1};

  const CostUnits units = UnitTestUnits();
  const VarianceEngine engine(&estimates, &funcs, &units);
  const VarianceBreakdown out = engine.Compute();
  // Var[G_2] = 100 * 0.01 + 400 * 0.04 = 17 (no cross term).
  const double mu_c = 3.0, var_c = 0.09;
  const double e_g = 10.0 * 0.3 + 20.0 * 0.6;
  EXPECT_NEAR(out.variance, e_g * e_g * var_c + (mu_c * mu_c + var_c) * 17.0,
              1e-9);
}

TEST(VarianceEngine, NestedVariablesAddBoundedCovariance) {
  // Operator 1 (descendant, leaf 0..1) and operator 0 (ancestor, 0..2),
  // both sampled: the cross term must be a bounded, positive addition.
  PlanEstimates estimates;
  SelectivityEstimate anc, desc;
  desc.rho = 0.3;
  desc.variance = 0.01;
  desc.leaf_begin = 0;
  desc.leaf_end = 1;
  desc.var_components = {0.01};
  anc.rho = 0.1;
  anc.variance = 0.02;
  anc.leaf_begin = 0;
  anc.leaf_end = 2;
  anc.var_components = {0.015, 0.005};
  estimates.ops = {anc, desc};
  estimates.variable_of_node = {0, 1};
  estimates.leaf_sample_rows = {50.0, 50.0};

  OperatorCostFunctions f0, f1;
  for (int u = 0; u < kNumCostUnits; ++u) {
    f0.funcs[u].type = CostFuncType::kConstant;
    f0.funcs[u].b = {0.0};
    f1.funcs[u].type = CostFuncType::kConstant;
    f1.funcs[u].b = {0.0};
  }
  f0.node_id = 0;
  f0.var_own = 0;
  f0.funcs[2] = {CostFuncType::kLinearOutput, {10.0, 0.0}};
  f1.node_id = 1;
  f1.var_own = 1;
  f1.funcs[2] = {CostFuncType::kLinearOutput, {20.0, 0.0}};
  std::vector<OperatorCostFunctions> funcs = {f0, f1};

  const CostUnits units = UnitTestUnits();
  const VarianceBreakdown with_cov =
      VarianceEngine(&estimates, &funcs, &units, PredictorVariant::kAll).Compute();
  const VarianceBreakdown no_cov =
      VarianceEngine(&estimates, &funcs, &units, PredictorVariant::kNoCov)
          .Compute();
  EXPECT_GT(with_cov.var_cov_bounds, 0.0);
  EXPECT_DOUBLE_EQ(no_cov.var_cov_bounds, 0.0);
  EXPECT_GT(with_cov.variance, no_cov.variance);
  // The bound cannot exceed Cauchy-Schwarz on the two terms.
  const double cs = 2.0 * 3.0 * 3.0 * 10.0 * 20.0 * std::sqrt(0.01 * 0.02);
  EXPECT_LE(with_cov.var_cov_bounds, cs * (1.0 + 0.09 / 9.0) + 1e-9);
}

TEST(VarianceEngine, BoundKindOrdering) {
  PlanEstimates estimates;
  SelectivityEstimate anc, desc;
  desc.rho = 0.3;
  desc.variance = 0.01;
  desc.leaf_begin = 0;
  desc.leaf_end = 1;
  desc.var_components = {0.01};
  anc.rho = 0.1;
  anc.variance = 0.02;
  anc.leaf_begin = 0;
  anc.leaf_end = 2;
  anc.var_components = {0.015, 0.005};
  estimates.ops = {anc, desc};
  estimates.variable_of_node = {0, 1};
  estimates.leaf_sample_rows = {50.0, 50.0};
  OperatorCostFunctions f0, f1;
  for (int u = 0; u < kNumCostUnits; ++u) {
    f0.funcs[u] = {CostFuncType::kConstant, {0.0}};
    f1.funcs[u] = {CostFuncType::kConstant, {0.0}};
  }
  f0.node_id = 0;
  f0.var_own = 0;
  f0.funcs[2] = {CostFuncType::kLinearOutput, {10.0, 0.0}};
  f1.node_id = 1;
  f1.var_own = 1;
  f1.funcs[2] = {CostFuncType::kLinearOutput, {20.0, 0.0}};
  std::vector<OperatorCostFunctions> funcs = {f0, f1};
  const CostUnits units = UnitTestUnits();

  auto bounded_part = [&](CovarianceBoundKind kind) {
    return VarianceEngine(&estimates, &funcs, &units, PredictorVariant::kAll,
                          kind)
        .Compute()
        .var_cov_bounds;
  };
  const double best = bounded_part(CovarianceBoundKind::kBest);
  const double b1 = bounded_part(CovarianceBoundKind::kB1);
  const double b2 = bounded_part(CovarianceBoundKind::kB2);
  const double b3 = bounded_part(CovarianceBoundKind::kB3);
  EXPECT_LE(best, b1 + 1e-15);
  EXPECT_LE(best, b3 + 1e-15);
  EXPECT_LE(b1, b2 + 1e-15);
}

// ---------- Prediction interface ----------

TEST(Prediction, ConfidenceIntervalAndProbBelow) {
  Prediction p;
  p.breakdown.mean = 100.0;
  p.breakdown.variance = 25.0;
  EXPECT_NEAR(p.ProbBelow(100.0), 0.5, 1e-12);
  EXPECT_NEAR(p.ProbBelow(105.0), NormalCdf(1.0), 1e-12);
  double lo = 0.0, hi = 0.0;
  p.ConfidenceInterval(0.7, &lo, &hi);
  EXPECT_NEAR(0.5 * (lo + hi), 100.0, 1e-9);
  // "With probability 70% between lo and hi."
  EXPECT_NEAR(p.ProbBelow(hi) - p.ProbBelow(lo), 0.7, 1e-9);
  double lo95 = 0.0, hi95 = 0.0;
  p.ConfidenceInterval(0.95, &lo95, &hi95);
  EXPECT_LT(lo95, lo);
  EXPECT_GT(hi95, hi);
}

// ---------- Metrics ----------

TEST(Metrics, QueryOutcomeErrors) {
  QueryOutcome q;
  q.predicted_mean = 10.0;
  q.predicted_stddev = 2.0;
  q.actual_time = 14.0;
  EXPECT_DOUBLE_EQ(q.error(), 4.0);
  EXPECT_DOUBLE_EQ(q.normalized_error(), 2.0);
  q.predicted_stddev = 0.0;
  EXPECT_TRUE(std::isinf(q.normalized_error()));
  q.actual_time = 10.0;
  EXPECT_DOUBLE_EQ(q.normalized_error(), 0.0);
}

TEST(Metrics, PerfectRankAgreementGivesSpearmanOne) {
  std::vector<QueryOutcome> outcomes;
  for (int i = 1; i <= 20; ++i) {
    QueryOutcome q;
    q.predicted_mean = 100.0;
    q.predicted_stddev = i;
    q.actual_time = 100.0 + 0.8 * i;  // error grows with sigma
    outcomes.push_back(q);
  }
  const EvaluationSummary s = Evaluate(outcomes);
  EXPECT_DOUBLE_EQ(s.spearman, 1.0);
  EXPECT_NEAR(s.pearson, 1.0, 1e-12);
  EXPECT_EQ(s.num_queries, 20);
}

TEST(Metrics, CalibratedPredictionsHaveSmallDn) {
  Rng rng(9);
  std::vector<QueryOutcome> outcomes;
  for (int i = 0; i < 3000; ++i) {
    QueryOutcome q;
    q.predicted_mean = 100.0;
    q.predicted_stddev = 5.0;
    q.actual_time = 100.0 + rng.NextGaussian(0.0, 5.0);
    outcomes.push_back(q);
  }
  EXPECT_LT(Evaluate(outcomes).dn, 0.03);
}

TEST(Metrics, OutlierProbeTrimsLargestSigma) {
  std::vector<QueryOutcome> outcomes;
  for (int i = 1; i <= 10; ++i) {
    QueryOutcome q;
    q.predicted_mean = 0.0;
    q.predicted_stddev = i;
    q.actual_time = (i % 2 == 0) ? i : 0.5 * i;  // noisy but increasing
    outcomes.push_back(q);
  }
  QueryOutcome outlier;
  outlier.predicted_mean = 0.0;
  outlier.predicted_stddev = 1000.0;
  outlier.actual_time = 2000.0;
  outcomes.push_back(outlier);
  const OutlierProbe probe = ProbeOutlierRobustness(outcomes);
  // Pearson moves more than Spearman when the extreme point disappears.
  EXPECT_GT(std::fabs(probe.pearson_all - probe.pearson_trimmed) + 1e-9,
            std::fabs(probe.spearman_all - probe.spearman_trimmed));
}

TEST(Metrics, VariantNamesAreStable) {
  EXPECT_STREQ(PredictorVariantName(PredictorVariant::kAll), "All");
  EXPECT_STREQ(PredictorVariantName(PredictorVariant::kNoVarC), "NoVar[c]");
  EXPECT_STREQ(PredictorVariantName(PredictorVariant::kNoVarX), "NoVar[X]");
  EXPECT_STREQ(PredictorVariantName(PredictorVariant::kNoCov), "NoCov");
}

}  // namespace
}  // namespace uqp
