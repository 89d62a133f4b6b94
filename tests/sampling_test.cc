// Tests for the sampling-based selectivity estimator (paper §3.2,
// Algorithm 1): sample table construction, unbiasedness, the S²_n variance
// estimator (checked against a brute-force implementation of Eq. 5), the
// partial variances S²(m, n), and the covariance bounds of Theorems 7/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "math/stats.h"
#include "sampling/estimator.h"
#include "sampling/sample_db.h"

namespace uqp {
namespace {

/// Two-relation database with a controllable join:
///   r(a int, x double)   -- 3000 rows, a = i % 100
///   s(b int, y double)   -- 1000 rows, b = i % 100
Database MakeJoinDb(uint64_t seed = 3) {
  Rng rng(seed);
  Database db("sampling-test");
  {
    Table r("r", Schema({{"a", ValueType::kInt64}, {"x", ValueType::kDouble}}));
    for (int i = 0; i < 3000; ++i) {
      r.AppendRow({Value::Int64(i % 100), Value::Double(rng.NextDouble())});
    }
    db.AddTable(std::move(r));
  }
  {
    Table s("s", Schema({{"b", ValueType::kInt64}, {"y", ValueType::kDouble}}));
    for (int i = 0; i < 1000; ++i) {
      s.AppendRow({Value::Int64(i % 100), Value::Double(rng.NextDouble())});
    }
    db.AddTable(std::move(s));
  }
  db.AnalyzeAll(16);
  return db;
}

Plan ScanPlan(const Database& db, double x_max) {
  Plan plan(MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(x_max))));
  EXPECT_TRUE(plan.Finalize(db).ok());
  return plan;
}

Plan JoinPlan(const Database& db) {
  Plan plan(MakeHashJoin(MakeSeqScan("r", nullptr), MakeSeqScan("s", nullptr),
                         {{0, 0}}));
  EXPECT_TRUE(plan.Finalize(db).ok());
  return plan;
}

// ---------- SampleDb ----------

TEST(SampleDb, SizesFollowRatio) {
  Database db = MakeJoinDb();
  SampleOptions options;
  options.sampling_ratio = 0.1;
  const SampleDb samples = SampleDb::Build(db, options);
  EXPECT_EQ(samples.SampleRows("r"), 300);
  EXPECT_EQ(samples.SampleRows("s"), 100);
  EXPECT_EQ(samples.BaseRows("r"), 3000);
  EXPECT_EQ(samples.copies("r"), options.copies_per_relation);
  EXPECT_GT(samples.TotalSamplePages(), 0);
}

TEST(SampleDb, MinimumSampleRowsEnforced) {
  Database db = MakeJoinDb();
  SampleOptions options;
  options.sampling_ratio = 0.0001;
  options.min_sample_rows = 4;
  const SampleDb samples = SampleDb::Build(db, options);
  EXPECT_GE(samples.SampleRows("r"), 4);
}

TEST(SampleDb, CopiesAreIndependentSamples) {
  Database db = MakeJoinDb();
  SampleOptions options;
  options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, options);
  const Table& c0 = samples.Get("r", 0);
  const Table& c1 = samples.Get("r", 1);
  ASSERT_EQ(c0.num_rows(), c1.num_rows());
  bool differs = false;
  for (int64_t i = 0; i < c0.num_rows() && !differs; ++i) {
    if (!c0.at(i, 1).Equals(c1.at(i, 1))) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SampleDb, CopyIndexWrapsAround) {
  Database db = MakeJoinDb();
  SampleOptions options;
  options.copies_per_relation = 2;
  const SampleDb samples = SampleDb::Build(db, options);
  // Copy 2 wraps to copy 0.
  EXPECT_EQ(&samples.Get("r", 2), &samples.Get("r", 0));
}

TEST(SampleDb, RejectsBadRatio) {
  Database db = MakeJoinDb();
  SampleOptions options;
  options.sampling_ratio = 0.0;
  EXPECT_DEATH(SampleDb::Build(db, options), "sampling ratio");
}

// ---------- Scan estimates ----------

class ScanEstimate : public ::testing::TestWithParam<double> {};

TEST_P(ScanEstimate, RhoCloseToTruthAndVarianceIsBinomial) {
  const double x_max = GetParam();
  Database db = MakeJoinDb();
  SampleOptions options;
  options.sampling_ratio = 0.2;
  const SampleDb samples = SampleDb::Build(db, options);
  const Plan plan = ScanPlan(db, x_max);
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  const SelectivityEstimate& est = estimates->ops[0];
  EXPECT_FALSE(est.from_optimizer);
  // x ~ U(0,1) so the true selectivity is ~x_max.
  EXPECT_NEAR(est.rho, x_max, 0.08);
  // Algorithm 1 line 8: S² = rho(1-rho); Var = S²/n with n = 600.
  const double n = static_cast<double>(samples.SampleRows("r"));
  EXPECT_NEAR(est.variance, est.rho * (1.0 - est.rho) / n, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, ScanEstimate,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8, 0.95));

TEST(ScanEstimate, FullScanHasZeroVariance) {
  Database db = MakeJoinDb();
  const SampleDb samples = SampleDb::Build(db, SampleOptions{});
  Plan plan(MakeSeqScan("r", nullptr));
  ASSERT_TRUE(plan.Finalize(db).ok());
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  EXPECT_DOUBLE_EQ(estimates->ops[0].rho, 1.0);
  EXPECT_DOUBLE_EQ(estimates->ops[0].variance, 0.0);
}

// ---------- Join estimates ----------

TEST(JoinEstimate, RhoIsApproximatelyUnbiased) {
  Database db = MakeJoinDb();
  // True join selectivity: each r row matches 10 s rows ->
  // |r join s| = 30000; rho = 30000 / (3000 * 1000) = 1e-2.
  const Plan plan = JoinPlan(db);
  Executor executor(&db);
  auto full = executor.Execute(plan, ExecOptions{});
  ASSERT_TRUE(full.ok());
  const double truth = full->ops[0].selectivity();
  EXPECT_NEAR(truth, 0.01, 1e-9);

  RunningStats rho_hat;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SampleOptions options;
    options.sampling_ratio = 0.1;
    options.seed = seed;
    const SampleDb samples = SampleDb::Build(db, options);
    SamplingEstimator estimator(&db, &samples);
    auto estimates = estimator.Estimate(plan);
    ASSERT_TRUE(estimates.ok());
    rho_hat.Add(estimates->ops[0].rho);
  }
  // Mean over 40 independent sample sets within 3 standard errors.
  const double se = rho_hat.stddev() / std::sqrt(40.0);
  EXPECT_NEAR(rho_hat.mean(), truth, 3.0 * se + 1e-4);
}

/// Brute-force implementation of Eq. (5)/(6) for a two-way join over
/// specific sample tables, generalized to per-relation sample sizes:
/// V_k = (1/(n_k - 1)) sum_j (Q_{k,j} / D_k - rho)², Var = sum_k V_k / n_k.
double BruteForceJoinVariance(const Table& rs, const Table& ss, int rkey,
                              int skey, double* rho_out) {
  const int64_t nr = rs.num_rows();
  const int64_t ns = ss.num_rows();
  std::unordered_map<int64_t, double> q_r, q_s;
  double matches = 0.0;
  for (int64_t i = 0; i < nr; ++i) {
    for (int64_t j = 0; j < ns; ++j) {
      if (rs.at(i, rkey).Equals(ss.at(j, skey))) {
        matches += 1.0;
        q_r[i] += 1.0;
        q_s[j] += 1.0;
      }
    }
  }
  const double rho = matches / (static_cast<double>(nr) * ns);
  *rho_out = rho;
  auto component = [rho](const std::unordered_map<int64_t, double>& q,
                         int64_t n, double d) {
    double acc = 0.0;
    for (const auto& [j, count] : q) {
      const double diff = count / d - rho;
      acc += diff * diff;
    }
    acc += (static_cast<double>(n) - static_cast<double>(q.size())) * rho * rho;
    return acc / (static_cast<double>(n) - 1.0);
  };
  const double vr = component(q_r, nr, static_cast<double>(ns));
  const double vs = component(q_s, ns, static_cast<double>(nr));
  return vr / static_cast<double>(nr) + vs / static_cast<double>(ns);
}

TEST(JoinEstimate, VarianceMatchesBruteForceEq5) {
  Database db = MakeJoinDb();
  SampleOptions options;
  options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, options);
  const Plan plan = JoinPlan(db);
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());

  double rho_bf = 0.0;
  const double var_bf = BruteForceJoinVariance(samples.Get("r", 0),
                                               samples.Get("s", 0), 0, 0, &rho_bf);
  EXPECT_NEAR(estimates->ops[0].rho, rho_bf, 1e-12);
  EXPECT_NEAR(estimates->ops[0].variance, var_bf, 1e-12 + 1e-9 * var_bf);
}

TEST(JoinEstimate, VarianceShrinksWithSampleSize) {
  Database db = MakeJoinDb();
  const Plan plan = JoinPlan(db);
  double prev = 1e9;
  for (double sr : {0.02, 0.1, 0.5}) {
    SampleOptions options;
    options.sampling_ratio = sr;
    const SampleDb samples = SampleDb::Build(db, options);
    SamplingEstimator estimator(&db, &samples);
    auto estimates = estimator.Estimate(plan);
    ASSERT_TRUE(estimates.ok());
    EXPECT_LT(estimates->ops[0].variance, prev);
    prev = estimates->ops[0].variance;
  }
}

TEST(JoinEstimate, EmptyJoinResultGivesZeroRhoAndVariance) {
  Database db("empty-join");
  Table r("r", Schema({{"a", ValueType::kInt64}}));
  Table s("s", Schema({{"b", ValueType::kInt64}}));
  for (int i = 0; i < 100; ++i) {
    r.AppendRow({Value::Int64(i)});
    s.AppendRow({Value::Int64(i + 1000)});  // disjoint key spaces
  }
  db.AddTable(std::move(r));
  db.AddTable(std::move(s));
  db.AnalyzeAll(8);
  Plan plan(MakeHashJoin(MakeSeqScan("r", nullptr), MakeSeqScan("s", nullptr),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  const SampleDb samples = SampleDb::Build(db, SampleOptions{});
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  EXPECT_DOUBLE_EQ(estimates->ops[0].rho, 0.0);
  EXPECT_DOUBLE_EQ(estimates->ops[0].variance, 0.0);
}

/// Tables of 1, 63, 64, 65 and 129 rows, so sample tuple ids land on the
/// edges of 64-bit words; column k is a join key, i % modulus + offset with
/// each table's own modulus and offset, so every table holds keys that
/// find no partner in the multi-way joins below.
Database MakeEdgeSizeDb() {
  Database db("q-counts");
  struct Shape {
    int rows, modulus, offset;
  };
  const Shape shapes[] = {{1, 1, 0}, {63, 10, 0}, {64, 10, 1}, {65, 13, 0}, {129, 11, 0}};
  for (const auto& [rows, modulus, offset] : shapes) {
    Table t("t" + std::to_string(rows),
            Schema({{"k", ValueType::kInt64}, {"i", ValueType::kInt64}}));
    for (int i = 0; i < rows; ++i) {
      t.AppendRow({Value::Int64(i % modulus + offset), Value::Int64(i)});
    }
    db.AddTable(std::move(t));
  }
  {
    Table t("far", Schema({{"k", ValueType::kInt64}, {"i", ValueType::kInt64}}));
    for (int i = 0; i < 70; ++i) t.AppendRow({Value::Int64(1000 + i), Value::Int64(i)});
    db.AddTable(std::move(t));
  }
  db.AnalyzeAll(8);
  return db;
}

/// Hash-joins `tables` left-deep on column 0 of the first table.
Plan LeftDeepJoin(const Database& db, const std::vector<std::string>& tables) {
  std::unique_ptr<PlanNode> root = MakeSeqScan(tables[0], nullptr);
  for (size_t t = 1; t < tables.size(); ++t) {
    root = MakeHashJoin(std::move(root), MakeSeqScan(tables[t], nullptr), {{0, 0}});
  }
  Plan plan(std::move(root));
  EXPECT_TRUE(plan.Finalize(db).ok());
  return plan;
}

/// The estimator's former Q-counting, kept as the reference: one dense
/// count per sample tuple per leaf, summed over every tuple id in order.
/// With `check_edges`, also checks that every leaf's ids 0 and n_k - 1
/// are in the root join's output and some id is not.
void ExpectDenseReference(const Database& db, const SampleDb& samples, const Plan& plan,
                          const PlanEstimates& est, bool check_edges) {
  const std::vector<const PlanNode*> leaves = plan.Leaves();
  std::vector<const Table*> overrides;
  std::unordered_map<std::string, int> occurrence;
  for (const PlanNode* leaf : leaves) {
    overrides.push_back(&samples.Get(leaf->table_name, occurrence[leaf->table_name]++));
  }
  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  options.leaf_overrides = &overrides;
  Executor executor(&db);
  auto run = executor.Execute(plan, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const PlanNode* node : plan.NodesPreorder()) {
    if (!IsJoin(node->type)) continue;
    SCOPED_TRACE("join node " + std::to_string(node->id));
    const SelectivityEstimate& e = est.ops[static_cast<size_t>(node->id)];
    const double rho =
        std::clamp(run->ops[static_cast<size_t>(node->id)].selectivity(), 0.0, 1.0);
    ASSERT_EQ(e.rho, rho);
    const RowBlock& block = run->blocks[static_cast<size_t>(node->id)];
    const int span = node->leaf_end - node->leaf_begin;
    double product = 1.0;
    for (int k = 0; k < span; ++k) {
      product *= est.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
    }
    double total = 0.0;
    for (int k = 0; k < span; ++k) {
      const double nk = est.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
      double vk = 0.0;
      if (nk >= 2.0) {
        std::vector<double> q(static_cast<size_t>(nk), 0.0);
        for (int64_t r = 0; r < block.num_rows(); ++r) q[block.prov_row(r)[k]] += 1.0;
        if (check_edges && node->id == 0) {
          EXPECT_GT(q.front(), 0.0) << "leaf " << k << ": id 0 not in the output";
          EXPECT_GT(q.back(), 0.0) << "leaf " << k << ": id n_k - 1 not in the output";
          EXPECT_NE(std::count(q.begin(), q.end(), 0.0), 0) << "leaf " << k;
        }
        const double dk = product / nk;
        double acc = 0.0;
        int64_t present = 0;
        for (const double count : q) {
          if (count == 0.0) continue;
          ++present;
          const double diff = count / dk - rho;
          acc += diff * diff;
        }
        acc += (nk - static_cast<double>(present)) * rho * rho;
        vk = acc / (nk - 1.0) / nk;
      }
      EXPECT_EQ(e.var_components[static_cast<size_t>(k)], vk) << "leaf " << k;
      total += vk;
    }
    EXPECT_EQ(e.variance, total);
  }
}

/// Every field the Q counters feed, compared for bit equality.
void ExpectSameEstimates(const PlanEstimates& a, const PlanEstimates& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].rho, b.ops[i].rho) << "node " << i;
    EXPECT_EQ(a.ops[i].variance, b.ops[i].variance) << "node " << i;
    EXPECT_EQ(a.ops[i].var_components, b.ops[i].var_components) << "node " << i;
  }
}

TEST(JoinEstimate, SparseQCountsMatchDenseReference) {
  const Database db = MakeEdgeSizeDb();
  SampleOptions options;
  options.sampling_ratio = 1.0;  // n_k = table rows: 1, 63, 64, 65, 129
  options.min_sample_rows = 1;
  // A seed whose samples put ids 0 and n_k - 1 of every leaf in the
  // 3- and 4-way joins' outputs.
  options.seed = 8;
  const SampleDb samples = SampleDb::Build(db, options);
  MorselPool pool(3);
  struct Case {
    std::vector<std::string> tables;
    bool check_edges;  // ids 0 and n_k - 1 present, some id absent
  };
  const Case cases[] = {
      {{"t63", "t64", "t65"}, true},           // 3-way
      {{"t63", "t64", "t65", "t129"}, true},   // 4-way
      {{"t64", "t64", "t63"}, false},          // a repeated relation
      {{"t1", "t65"}, false},                  // a leaf with n_k = 1
      {{"t63", "far"}, false},                 // empty join output
  };
  for (const Case& c : cases) {
    std::string what;
    for (const std::string& t : c.tables) what += t + " ";
    SCOPED_TRACE(what);
    const Plan plan = LeftDeepJoin(db, c.tables);
    SamplingEstimator inline_estimator(&db, &samples);
    auto inline_est = inline_estimator.Estimate(plan);
    ASSERT_TRUE(inline_est.ok()) << inline_est.status().ToString();
    ExpectDenseReference(db, samples, plan, *inline_est, c.check_edges);
    SamplingEstimator pooled_estimator(&db, &samples, AggregateEstimateMode::kOptimizer,
                                       ScanEstimateMode::kSampling, 3, &pool);
    auto pooled_est = pooled_estimator.Estimate(plan);
    ASSERT_TRUE(pooled_est.ok()) << pooled_est.status().ToString();
    ExpectSameEstimates(*pooled_est, *inline_est);
  }
}

// ---------- Pass-through and aggregates ----------

TEST(Estimator, PassThroughSharesChildVariable) {
  Database db = MakeJoinDb();
  Plan plan(MakeSort(MakeSeqScan("r", Expr::Cmp(1, CmpOp::kLe, Value::Double(0.3))),
                     {0}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  const SampleDb samples = SampleDb::Build(db, SampleOptions{});
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  // Node 0 = sort, node 1 = scan; sort maps to the scan's variable.
  EXPECT_EQ(estimates->variable_of_node[0], 1);
  EXPECT_EQ(estimates->variable_of_node[1], 1);
  EXPECT_DOUBLE_EQ(estimates->ops[0].rho, estimates->ops[1].rho);
  EXPECT_DOUBLE_EQ(estimates->ops[0].variance, estimates->ops[1].variance);
}

TEST(Estimator, AggregateAndAboveUseOptimizer) {
  Database db = MakeJoinDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  // join(agg(scan r), s) — the join sits above an aggregate.
  auto agg = MakeAggregate(MakeSeqScan("r", nullptr), {0}, aggs);
  Plan plan(MakeHashJoin(std::move(agg), MakeSeqScan("s", nullptr), {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  const SampleDb samples = SampleDb::Build(db, SampleOptions{});
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  // Node 0 = join (above aggregate), node 1 = aggregate: both optimizer-
  // derived with zero variance. Node 2 = scan below aggregate: sampled.
  EXPECT_TRUE(estimates->ops[0].from_optimizer);
  EXPECT_TRUE(estimates->ops[1].from_optimizer);
  EXPECT_DOUBLE_EQ(estimates->ops[0].variance, 0.0);
  EXPECT_FALSE(estimates->ops[2].from_optimizer);
}

// ---------- Partial variances and covariance bounds ----------

TEST(CovBounds, PartialVarianceIsMonotoneInSubset) {
  Database db = MakeJoinDb();
  const Plan plan = JoinPlan(db);
  SampleOptions options;
  options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, options);
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  const SelectivityEstimate& join = estimates->ops[0];
  const double partial0 = SamplingEstimator::PartialVariance(join, 0, 1);
  const double partial1 = SamplingEstimator::PartialVariance(join, 1, 2);
  const double total = SamplingEstimator::PartialVariance(join, 0, 2);
  EXPECT_GE(partial0, 0.0);
  EXPECT_GE(partial1, 0.0);
  EXPECT_NEAR(partial0 + partial1, total, 1e-15);
  EXPECT_NEAR(total, join.variance, 1e-15);
  EXPECT_LE(partial0, total);
}

TEST(CovBounds, OrderingB1LeB2) {
  Database db = MakeJoinDb();
  const Plan plan = JoinPlan(db);
  const SampleDb samples = SampleDb::Build(db, SampleOptions{});
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  const SelectivityEstimate& scan = estimates->ops[1];  // r scan (descendant)
  const SelectivityEstimate& join = estimates->ops[0];  // ancestor
  const CovarianceBounds bounds = SamplingEstimator::CovarianceBoundsFor(
      scan, join, estimates->leaf_sample_rows);
  EXPECT_GE(bounds.b1, 0.0);
  EXPECT_GE(bounds.b3, 0.0);
  EXPECT_LE(bounds.b1, bounds.b2 + 1e-15);
  EXPECT_LE(bounds.best(), bounds.b1 + 1e-15);
  EXPECT_LE(bounds.best(), bounds.b3 + 1e-15);
}

TEST(CovBounds, ZeroForOptimizerEstimates) {
  SelectivityEstimate a, b;
  a.from_optimizer = true;
  b.rho = 0.5;
  b.variance = 0.01;
  const CovarianceBounds bounds =
      SamplingEstimator::CovarianceBoundsFor(a, b, {100.0});
  EXPECT_DOUBLE_EQ(bounds.b1, 0.0);
  EXPECT_DOUBLE_EQ(bounds.b2, 0.0);
  EXPECT_DOUBLE_EQ(bounds.b3, 0.0);
}

TEST(CovBounds, B3MatchesTheorem8Formula) {
  SelectivityEstimate desc, anc;
  desc.rho = 0.5;
  desc.variance = 0.01;
  desc.leaf_begin = 0;
  desc.leaf_end = 1;
  desc.var_components = {0.01};
  anc.rho = 0.2;
  anc.variance = 0.02;
  anc.leaf_begin = 0;
  anc.leaf_end = 2;
  anc.var_components = {0.015, 0.005};
  const std::vector<double> n = {50.0, 80.0};
  const CovarianceBounds bounds =
      SamplingEstimator::CovarianceBoundsFor(desc, anc, n);
  // f = 1 - (1 - 1/50) over the shared leaf; g(0.5) g(0.2).
  const double f = 1.0 - (1.0 - 1.0 / 50.0);
  const double expected_b3 =
      f * std::sqrt(0.5 * 0.5) * std::sqrt(0.2 * 0.8);
  EXPECT_NEAR(bounds.b3, expected_b3, 1e-12);
  // B1 = sqrt(full desc variance * anc partial over leaf 0).
  EXPECT_NEAR(bounds.b1, std::sqrt(0.01 * 0.015), 1e-12);
}

// ---------- Sampled resource counters ----------

TEST(Estimator, SampleRunCountersAreMuchSmallerThanFullRun) {
  Database db = MakeJoinDb();
  const Plan plan = JoinPlan(db);
  SampleOptions options;
  options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, options);
  SamplingEstimator estimator(&db, &samples);
  auto estimates = estimator.Estimate(plan);
  ASSERT_TRUE(estimates.ok());
  Executor executor(&db);
  auto full = executor.Execute(plan, ExecOptions{});
  ASSERT_TRUE(full.ok());
  double sample_nt = 0.0, full_nt = 0.0;
  for (const OpStats& st : estimates->sample_ops) sample_nt += st.actual.nt;
  for (const OpStats& st : full->ops) full_nt += st.actual.nt;
  EXPECT_LT(sample_nt, 0.2 * full_nt);
}

}  // namespace
}  // namespace uqp
