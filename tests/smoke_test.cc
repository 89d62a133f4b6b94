// End-to-end smoke test: tiny database, full prediction pipeline.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "exp/harness.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

namespace uqp {
namespace {

TEST(Smoke, TinyDatabaseBuilds) {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  EXPECT_GT(db.GetTable("lineitem").num_rows(), 1000);
  EXPECT_EQ(db.GetTable("region").num_rows(), 5);
  EXPECT_TRUE(db.catalog().Has("lineitem"));
}

TEST(Smoke, EndToEndPrediction) {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));

  SampleOptions sample_options;
  sample_options.sampling_ratio = 0.1;
  SampleDb samples = SampleDb::Build(db, sample_options);

  SimulatedMachine machine(MachineProfile::PC1(), 99);
  Calibrator calibrator(&machine);
  CostUnits units = calibrator.Calibrate();
  EXPECT_GT(units.Get(kCostSeqPage).mean, 0.0);
  EXPECT_GT(units.Get(kCostRandPage).mean, units.Get(kCostSeqPage).mean);

  // A three-way join with filters.
  JoinChainBuilder chain(&db);
  Rng rng(5);
  ConstantPicker pick(&db, &rng);
  chain
      .Start("lineitem", pick.LessEqAtFraction("lineitem", "l_shipdate", 0.5))
      .Join("orders", pick.LessEqAtFraction("orders", "o_totalprice", 0.7),
            {{"lineitem.l_orderkey", "o_orderkey"}})
      .Join("customer", nullptr, {{"orders.o_custkey", "c_custkey"}});

  auto plan_or = OptimizePlan(chain.Finish(), db);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  Plan plan = std::move(plan_or).value();

  PredictionPipeline predictor(&db, &samples, units);
  auto pred_or = predictor.Predict(plan);
  ASSERT_TRUE(pred_or.ok()) << pred_or.status().ToString();
  const Prediction& pred = *pred_or;

  EXPECT_GT(pred.mean(), 0.0);
  EXPECT_GT(pred.stddev(), 0.0);
  double lo = 0.0, hi = 0.0;
  pred.ConfidenceInterval(0.7, &lo, &hi);
  EXPECT_LT(lo, pred.mean());
  EXPECT_GT(hi, pred.mean());

  // The actual run should land within a broad band of the prediction.
  Executor executor(&db);
  auto full_or = executor.Execute(plan, ExecOptions{});
  ASSERT_TRUE(full_or.ok());
  const double actual = machine.ExecuteAveraged(*full_or, 5);
  EXPECT_GT(actual, 0.0);
  // Not a tight assertion — just catch order-of-magnitude breakage.
  EXPECT_LT(pred.mean() / actual, 50.0);
  EXPECT_LT(actual / pred.mean(), 50.0);
}

TEST(Smoke, HarnessMicroEvaluation) {
  HarnessOptions options;
  options.profile = "tiny";
  ExperimentHarness harness(options);
  ASSERT_TRUE(harness.LoadWorkload("micro", 16).ok());
  auto result_or = harness.Evaluate("micro", "PC1", 0.1);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  const EvaluationResult& result = *result_or;
  // Grid layout may round the requested size down a little.
  EXPECT_GE(result.records.size(), 10u);
  EXPECT_LE(result.records.size(), 16u);
  for (const QueryRecord& r : result.records) {
    EXPECT_GT(r.outcome.predicted_mean, 0.0) << r.name;
    EXPECT_GE(r.outcome.predicted_stddev, 0.0) << r.name;
    EXPECT_GT(r.outcome.actual_time, 0.0) << r.name;
    EXPECT_GT(r.overhead_ratio, 0.0) << r.name;
    EXPECT_LT(r.overhead_ratio, 1.0) << r.name;
  }
}

}  // namespace
}  // namespace uqp
