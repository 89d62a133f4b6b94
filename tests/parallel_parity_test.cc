// The determinism contract of intra-query parallel sample execution: for
// every workload plan, the parallel run must be BIT-IDENTICAL to the
// sequential run — same rows, provenance, resource counters,
// selectivities and final N(μ, σ²) — at every thread count. The harness
// asserts byte-equal SampleRunOutput serializations (doubles compared by
// bit pattern, via SampleRunOutputBytes) and exact Prediction equality
// against the num_threads = 1 baseline, plus seed-determinism: two runs
// at the same thread count are identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "cost/snapshot.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "service/prediction_service.h"
#include "workload/common.h"

namespace uqp {
namespace {

/// Thread counts every parity check runs at, against the sequential
/// baseline. hardware_concurrency is appended at runtime.
std::vector<int> ParityThreadCounts() {
  std::vector<int> counts = {2, 5};
  const int hw = ResolveNumThreads(0);
  counts.push_back(hw);
  return counts;
}

/// Shared fixture: one tiny TPC-H database, sample tables, calibrated
/// units, and optimized plans from all three workloads (micro, seljoin,
/// TPC-H), capped per workload to keep the suite fast under TSan.
class ParallelParityTest : public ::testing::Test {
 protected:
  struct WorkloadPlans {
    std::string kind;
    std::vector<Plan> plans;
  };

  static void SetUpTestSuite() {
    db_ = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
    // Full-ratio samples: the tiny profile's 5%-samples all fit in a
    // single 1024-row batch, which would leave the chunk-sharded executor
    // paths untested. At ratio 1.0 the big relations span several batches,
    // so scans, builds and probes genuinely fan out.
    SampleOptions sample_options;
    sample_options.sampling_ratio = 1.0;
    samples_ = new SampleDb(SampleDb::Build(*db_, sample_options));
    SimulatedMachine machine(MachineProfile::PC1(), 17);
    Calibrator calibrator(&machine);
    units_ = new CostUnits(calibrator.Calibrate());

    workloads_ = new std::vector<WorkloadPlans>();
    const size_t kPlansPerWorkload = 6;
    for (const char* kind : {"micro", "seljoin", "tpch"}) {
      WorkloadPlans wp;
      wp.kind = kind;
      auto queries = MakeWorkload(*db_, kind, /*seed=*/29, /*size_hint=*/8);
      for (auto& q : queries) {
        if (wp.plans.size() >= kPlansPerWorkload) break;
        auto plan_or = OptimizePlan(std::move(q.logical), *db_);
        if (plan_or.ok()) wp.plans.push_back(std::move(plan_or).value());
      }
      ASSERT_GE(wp.plans.size(), 2u) << kind;
      workloads_->push_back(std::move(wp));
    }
  }

  static void TearDownTestSuite() {
    delete workloads_;
    delete units_;
    delete samples_;
    delete db_;
    workloads_ = nullptr;
    units_ = nullptr;
    samples_ = nullptr;
    db_ = nullptr;
  }

  static SampleRunOutput RunStage(const Plan& plan, int num_threads,
                                  const SampleDb* samples = nullptr,
                                  int64_t max_batch_size = 1024) {
    SampleRunStage stage(db_, samples != nullptr ? samples : samples_,
                         AggregateEstimateMode::kOptimizer,
                         ScanEstimateMode::kSampling, num_threads,
                         /*task_runner=*/nullptr, max_batch_size);
    SampleRunInput in;
    in.plan = &plan;
    auto out = stage.Run(in);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  }

  /// Hand-built plans whose cost concentrates in the operators that were
  /// sequential until this PR: a big sort, a wide aggregation, a merge
  /// join with equal-group cross products, and an ORDER BY + GROUP BY
  /// stack over a merge join. (The planner never emits MergeJoin, so the
  /// workload plans above cannot cover its emission path.)
  static std::vector<Plan> MakeOperatorTailPlans() {
    std::vector<Plan> plans;
    const auto finalize = [&](std::unique_ptr<PlanNode> root) {
      Plan plan(std::move(root));
      ASSERT_TRUE(plan.Finalize(*db_).ok()) << plan.ToString();
      plans.push_back(std::move(plan));
    };
    // Sort-heavy: full lineitem (~6k sample rows at ratio 1.0) ordered by
    // (l_shipdate, l_orderkey).
    finalize(MakeSort(MakeSeqScan("lineitem", nullptr), {10, 0}));
    // Aggregate-heavy: one group per order (~1.5k groups) with the full
    // set of aggregate kinds.
    finalize(MakeAggregate(
        MakeSeqScan("lineitem", nullptr), {0},
        {{AggSpec::Kind::kCount, -1, "cnt"},
         {AggSpec::Kind::kSum, 5, "sum_price"},
         {AggSpec::Kind::kMin, 4, "min_qty"},
         {AggSpec::Kind::kMax, 6, "max_disc"},
         {AggSpec::Kind::kAvg, 7, "avg_tax"}}));
    // Merge-join-heavy: orders x lineitem on orderkey (1-to-many equal
    // groups), both sides sorted.
    finalize(MakeMergeJoin(MakeSort(MakeSeqScan("orders", nullptr), {0}),
                           MakeSort(MakeSeqScan("lineitem", nullptr), {0}),
                           {{0, 0}}));
    // The full tail stacked: ORDER BY revenue over GROUP BY customer over
    // the merge join.
    auto join =
        MakeMergeJoin(MakeSort(MakeSeqScan("orders", nullptr), {0}),
                      MakeSort(MakeSeqScan("lineitem", nullptr), {0}), {{0, 0}});
    auto agg = MakeAggregate(std::move(join), {1},
                             {{AggSpec::Kind::kSum, 12, "revenue"}});
    finalize(MakeSort(std::move(agg), {1}));
    return plans;
  }

  static Database* db_;
  static SampleDb* samples_;
  static CostUnits* units_;
  static std::vector<WorkloadPlans>* workloads_;
};

Database* ParallelParityTest::db_ = nullptr;
SampleDb* ParallelParityTest::samples_ = nullptr;
CostUnits* ParallelParityTest::units_ = nullptr;
std::vector<ParallelParityTest::WorkloadPlans>* ParallelParityTest::workloads_ =
    nullptr;

// The headline contract: every workload plan's SampleRunOutput — rows,
// counters, selectivities, variance components — serializes to the same
// bytes at num_threads ∈ {2, 5, hardware_concurrency} as at 1.
TEST_F(ParallelParityTest, SampleRunBitIdenticalAcrossThreadCounts) {
  for (const auto& wp : *workloads_) {
    for (size_t p = 0; p < wp.plans.size(); ++p) {
      const std::string baseline =
          SampleRunOutputBytes(RunStage(wp.plans[p], 1));
      for (int t : ParityThreadCounts()) {
        EXPECT_EQ(SampleRunOutputBytes(RunStage(wp.plans[p], t)), baseline)
            << wp.kind << " plan " << p << " at num_threads=" << t;
      }
    }
  }
}

// End to end: the full pipeline's N(μ, σ²) — and every variance term in
// the breakdown — is exactly equal under intra-query parallelism.
TEST_F(ParallelParityTest, PredictionBitIdenticalAcrossThreadCounts) {
  PredictorOptions sequential;
  PredictionPipeline baseline(db_, samples_, *units_, sequential);
  for (const auto& wp : *workloads_) {
    for (size_t p = 0; p < wp.plans.size(); ++p) {
      auto ref = baseline.Predict(wp.plans[p]);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (int t : ParityThreadCounts()) {
        PredictorOptions opts;
        opts.num_threads = t;
        PredictionPipeline parallel(db_, samples_, *units_, opts);
        auto got = parallel.Predict(wp.plans[p]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->mean(), ref->mean())
            << wp.kind << " plan " << p << " at num_threads=" << t;
        EXPECT_EQ(got->breakdown.variance, ref->breakdown.variance);
        EXPECT_EQ(got->breakdown.var_cost_units, ref->breakdown.var_cost_units);
        EXPECT_EQ(got->breakdown.var_selectivity,
                  ref->breakdown.var_selectivity);
        EXPECT_EQ(got->breakdown.var_cov_bounds, ref->breakdown.var_cov_bounds);
      }
    }
  }
}

// Seed-determinism: two parallel runs at the SAME thread count are
// identical — shard scheduling (which thread claims which morsel, in what
// order) must never leak into the result.
TEST_F(ParallelParityTest, SameThreadCountRunsIdentical) {
  const int threads = 3;
  for (const auto& wp : *workloads_) {
    const Plan& plan = wp.plans[0];
    const std::string first = SampleRunOutputBytes(RunStage(plan, threads));
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(SampleRunOutputBytes(RunStage(plan, threads)), first)
          << wp.kind << " rep " << rep;
    }
  }
}

// The estimator's alternative modes run through the same sharded executor
// and Q-counting: GEE aggregate estimation and histogram scan estimation
// must obey the same contract.
TEST_F(ParallelParityTest, AlternativeEstimatorModesBitIdentical) {
  for (const auto mode :
       {AggregateEstimateMode::kOptimizer, AggregateEstimateMode::kGee}) {
    for (const auto scan :
         {ScanEstimateMode::kSampling, ScanEstimateMode::kHistogram}) {
      for (const auto& wp : *workloads_) {
        const Plan& plan = wp.plans[1];
        SampleRunInput in;
        in.plan = &plan;
        SampleRunStage sequential(db_, samples_, mode, scan, 1);
        auto ref = sequential.Run(in);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        SampleRunStage parallel(db_, samples_, mode, scan, 4);
        auto got = parallel.Run(in);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(SampleRunOutputBytes(got.value()),
                  SampleRunOutputBytes(ref.value()))
            << wp.kind;
      }
    }
  }
}

// Sample construction is seed-stable at any thread count too: each
// (relation, copy) permutation comes from an Rng substream keyed by its
// stable index, so a pool-built SampleDb equals the sequential one.
TEST_F(ParallelParityTest, SampleDbBuildThreadCountInvariant) {
  SampleOptions opts;
  opts.sampling_ratio = 0.05;
  opts.num_threads = 1;
  const SampleDb sequential = SampleDb::Build(*db_, opts);
  opts.num_threads = 4;
  const SampleDb pooled = SampleDb::Build(*db_, opts);
  // Compare through a sample run: identical samples produce identical
  // selectivity estimates for every plan.
  const Plan& plan = (*workloads_)[1].plans[0];
  EXPECT_EQ(SampleRunOutputBytes(RunStage(plan, 1, &pooled)),
            SampleRunOutputBytes(RunStage(plan, 1, &sequential)));
  // And cell by cell, for one relation's copies.
  for (const std::string& name : db_->TableNames()) {
    ASSERT_EQ(sequential.copies(name), pooled.copies(name));
    for (int c = 0; c < sequential.copies(name); ++c) {
      const Table& a = sequential.Get(name, c);
      const Table& b = pooled.Get(name, c);
      ASSERT_EQ(a.num_rows(), b.num_rows()) << name << " copy " << c;
      for (int64_t r = 0; r < a.num_rows(); ++r) {
        for (int col = 0; col < a.schema().num_columns(); ++col) {
          ASSERT_TRUE(a.at(r, col).Equals(b.at(r, col)))
              << name << " copy " << c << " row " << r << " col " << col;
        }
      }
    }
  }
}

// Executor-level contract, checked at maximum resolution: everything an
// ExecResult carries — output rows, provenance ids, retained per-operator
// blocks and every resource counter — is equal under parallelism, across
// batch sizes small enough that every operator spans many morsels.
void ExpectBlocksEqual(const RowBlock& a, const RowBlock& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.schema.num_columns(), b.schema.num_columns()) << what;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema.num_columns(); ++c) {
      const Value x = a.at(r, c);
      const Value y = b.at(r, c);
      ASSERT_EQ(x.type, y.type) << what << " row " << r << " col " << c;
      ASSERT_TRUE(x.Equals(y)) << what << " row " << r << " col " << c;
    }
  }
  ASSERT_EQ(a.prov_width, b.prov_width) << what;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int k = 0; k < a.prov_width; ++k) {
      ASSERT_EQ(a.prov_row(r)[k], b.prov_row(r)[k]) << what << " row " << r;
    }
  }
}

void ExpectExecResultsEqual(const ExecResult& a, const ExecResult& b,
                            const std::string& what) {
  ExpectBlocksEqual(a.output, b.output, what + " output");
  ASSERT_EQ(a.ops.size(), b.ops.size()) << what;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const OpStats& x = a.ops[i];
    const OpStats& y = b.ops[i];
    EXPECT_EQ(x.actual.ns, y.actual.ns) << what << " op " << i;
    EXPECT_EQ(x.actual.nr, y.actual.nr) << what << " op " << i;
    EXPECT_EQ(x.actual.nt, y.actual.nt) << what << " op " << i;
    EXPECT_EQ(x.actual.ni, y.actual.ni) << what << " op " << i;
    EXPECT_EQ(x.actual.no, y.actual.no) << what << " op " << i;
    EXPECT_EQ(x.left_rows, y.left_rows) << what << " op " << i;
    EXPECT_EQ(x.right_rows, y.right_rows) << what << " op " << i;
    EXPECT_EQ(x.out_rows, y.out_rows) << what << " op " << i;
    EXPECT_EQ(x.leaf_row_product, y.leaf_row_product) << what << " op " << i;
  }
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << what;
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    ExpectBlocksEqual(a.blocks[i], b.blocks[i],
                      what + " block " + std::to_string(i));
  }
}

TEST_F(ParallelParityTest, ExecutorResultsBitIdenticalAtSmallMorsels) {
  Executor executor(db_);
  // Two plans per workload keeps the {batch} x {threads} grid affordable
  // under TSan.
  for (const auto& wp : *workloads_) {
    for (size_t p = 0; p < 2 && p < wp.plans.size(); ++p) {
      for (int64_t batch : {int64_t{7}, int64_t{64}, int64_t{1024}}) {
        ExecOptions sequential;
        sequential.collect_provenance = true;
        sequential.retain_intermediates = true;
        sequential.max_batch_size = batch;
        auto ref = executor.Execute(wp.plans[p], sequential);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        for (int t : ParityThreadCounts()) {
          MorselPool pool(t);
          ExecOptions parallel = sequential;
          parallel.task_runner = &pool;
          auto got = executor.Execute(wp.plans[p], parallel);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectExecResultsEqual(
              got.value(), ref.value(),
              wp.kind + " plan " + std::to_string(p) + " batch " +
                  std::to_string(batch) + " threads " + std::to_string(t));
        }
      }
    }
  }
}

// A caller-owned pool shared across runs (the service-layer shape) gives
// the same bytes as per-run ephemeral pools.
TEST_F(ParallelParityTest, SharedPoolMatchesEphemeralPools) {
  MorselPool pool(4);
  const Plan& plan = (*workloads_)[0].plans[0];
  SampleRunInput in;
  in.plan = &plan;
  SampleRunStage shared(db_, samples_, AggregateEstimateMode::kOptimizer,
                        ScanEstimateMode::kSampling, 4, &pool);
  SampleRunStage ephemeral(db_, samples_, AggregateEstimateMode::kOptimizer,
                           ScanEstimateMode::kSampling, 4);
  for (int rep = 0; rep < 2; ++rep) {
    auto a = shared.Run(in);
    auto b = ephemeral.Run(in);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(SampleRunOutputBytes(a.value()), SampleRunOutputBytes(b.value()));
  }
}

// The 0 = auto morsel derivation: its output depends only on the bound
// sample cardinalities, so an auto run must equal an explicit run at the
// derived size — and stay bit-identical across thread counts, i.e. auto
// mode joins the determinism contract rather than weakening it.
TEST_F(ParallelParityTest, AutoBatchSizeMatchesDerivedExplicitSize) {
  for (const auto& wp : *workloads_) {
    const Plan& plan = wp.plans[0];
    // Re-derive the expected size exactly as the estimator binds samples:
    // one copy per occurrence, max rows across the bound tables.
    int64_t max_rows = 0;
    std::unordered_map<std::string, int> occurrence;
    for (const PlanNode* leaf : plan.Leaves()) {
      const int occ = occurrence[leaf->table_name]++;
      max_rows = std::max(max_rows,
                          samples_->Get(leaf->table_name, occ).num_rows());
    }
    const int64_t derived = AutoSampleBatchSize(max_rows);
    const std::string explicit_bytes = SampleRunOutputBytes(
        RunStage(plan, 1, /*samples=*/nullptr, derived));
    EXPECT_EQ(SampleRunOutputBytes(RunStage(plan, 1, /*samples=*/nullptr,
                                            /*max_batch_size=*/0)),
              explicit_bytes)
        << wp.kind;
    for (int t : ParityThreadCounts()) {
      EXPECT_EQ(SampleRunOutputBytes(RunStage(plan, t, /*samples=*/nullptr,
                                              /*max_batch_size=*/0)),
                explicit_bytes)
          << wp.kind << " auto batch at num_threads=" << t;
    }
  }
}

// End to end through PredictorOptions: 0 = auto produces a valid, exact
// prediction equal to the derived explicit size at any thread count.
TEST_F(ParallelParityTest, AutoBatchSizePredictionsExact) {
  const Plan& plan = (*workloads_)[0].plans[0];
  PredictorOptions auto_opts;
  auto_opts.max_batch_size = 0;
  PredictionPipeline auto_seq(db_, samples_, *units_, auto_opts);
  auto ref = auto_seq.Predict(plan);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (int t : ParityThreadCounts()) {
    PredictorOptions opts = auto_opts;
    opts.num_threads = t;
    PredictionPipeline parallel(db_, samples_, *units_, opts);
    auto got = parallel.Predict(plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->mean(), ref->mean()) << "auto batch at num_threads=" << t;
    EXPECT_EQ(got->breakdown.variance, ref->breakdown.variance);
  }
}

// The derivation itself: one morsel for single-block samples, ~64 morsels
// clamped to a vectorization-friendly range beyond that.
TEST(AutoSampleBatchSizeTest, DerivationShape) {
  EXPECT_EQ(AutoSampleBatchSize(0), 1);
  EXPECT_EQ(AutoSampleBatchSize(512), 512);
  EXPECT_EQ(AutoSampleBatchSize(4096), 4096);
  EXPECT_EQ(AutoSampleBatchSize(8192), 1024);    // 8192/64 clamped up
  EXPECT_EQ(AutoSampleBatchSize(65536), 1024);   // exactly 64 morsels
  EXPECT_EQ(AutoSampleBatchSize(int64_t{1} << 20), 16384);  // clamped down
}

// ---------------------------------------------------------------------------
// The operator tail (PR 5): sort, aggregation and merge-join emission used
// to be sequential; they now shard onto the same pool under the same
// contract. Sort's comparison counter is defined by the fixed-shape
// blocked merge tree and aggregation's output order by first appearance —
// both functions of (input, max_batch_size) only, so the parity grid
// sweeps batch sizes as well as thread counts.
// ---------------------------------------------------------------------------

TEST_F(ParallelParityTest, OperatorTailSampleRunsBitIdentical) {
  const std::vector<Plan> plans = MakeOperatorTailPlans();
  ASSERT_EQ(plans.size(), 4u);
  for (size_t p = 0; p < plans.size(); ++p) {
    for (int64_t batch : {int64_t{7}, int64_t{64}, int64_t{1024}}) {
      const std::string baseline = SampleRunOutputBytes(
          RunStage(plans[p], 1, /*samples=*/nullptr, batch));
      for (int t : ParityThreadCounts()) {
        EXPECT_EQ(SampleRunOutputBytes(
                      RunStage(plans[p], t, /*samples=*/nullptr, batch)),
                  baseline)
            << "tail plan " << p << " batch " << batch << " threads " << t;
      }
    }
  }
}

TEST_F(ParallelParityTest, OperatorTailPredictionsExact) {
  const std::vector<Plan> plans = MakeOperatorTailPlans();
  for (size_t p = 0; p < plans.size(); ++p) {
    for (int64_t batch : {int64_t{7}, int64_t{64}, int64_t{1024}}) {
      PredictorOptions sequential;
      sequential.max_batch_size = batch;
      PredictionPipeline baseline(db_, samples_, *units_, sequential);
      auto ref = baseline.Predict(plans[p]);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (int t : ParityThreadCounts()) {
        PredictorOptions opts = sequential;
        opts.num_threads = t;
        PredictionPipeline parallel(db_, samples_, *units_, opts);
        auto got = parallel.Predict(plans[p]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->mean(), ref->mean())
            << "tail plan " << p << " batch " << batch << " threads " << t;
        EXPECT_EQ(got->breakdown.variance, ref->breakdown.variance);
        EXPECT_EQ(got->breakdown.var_cost_units, ref->breakdown.var_cost_units);
        EXPECT_EQ(got->breakdown.var_selectivity,
                  ref->breakdown.var_selectivity);
        EXPECT_EQ(got->breakdown.var_cov_bounds, ref->breakdown.var_cov_bounds);
      }
    }
  }
}

// Maximum resolution for the tail operators: output rows (including
// chunk-merged aggregate sums), provenance through sorts and merge joins,
// retained blocks and every counter — equal at every (batch, threads)
// point of the grid.
TEST_F(ParallelParityTest, OperatorTailExecutorResultsBitIdentical) {
  Executor executor(db_);
  const std::vector<Plan> plans = MakeOperatorTailPlans();
  for (size_t p = 0; p < plans.size(); ++p) {
    for (int64_t batch : {int64_t{7}, int64_t{64}, int64_t{1024}}) {
      ExecOptions sequential;
      sequential.collect_provenance = true;
      sequential.retain_intermediates = true;
      sequential.max_batch_size = batch;
      auto ref = executor.Execute(plans[p], sequential);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (int t : ParityThreadCounts()) {
        MorselPool pool(t);
        ExecOptions parallel = sequential;
        parallel.task_runner = &pool;
        auto got = executor.Execute(plans[p], parallel);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectExecResultsEqual(
            got.value(), ref.value(),
            "tail plan " + std::to_string(p) + " batch " +
                std::to_string(batch) + " threads " + std::to_string(t));
      }
    }
  }
}

// The aggregation chunk-merge is now a width-doubling pairwise tree
// rather than a sequential left fold (PR 10). Near-unique grouping keys
// are the tree's worst case: grouping lineitem by its primary key
// (l_orderkey, l_linenumber) makes every row its own group, so almost no
// chunk-table entry collapses before the final table and every merge
// level carries the full key set. Any order dependence in the tree —
// first-appearance ordering, sum accumulation order, provenance
// attribution — shows up here first. The grid sweeps the same
// {batch} x {threads} points as the rest of the tail suite.
TEST_F(ParallelParityTest, AggregationTreeMergeParityAtNearUniqueKeys) {
  Plan plan(MakeAggregate(MakeSeqScan("lineitem", nullptr), {0, 3},
                          {{AggSpec::Kind::kCount, -1, "cnt"},
                           {AggSpec::Kind::kSum, 5, "sum_price"},
                           {AggSpec::Kind::kAvg, 6, "avg_disc"}}));
  ASSERT_TRUE(plan.Finalize(*db_).ok());

  Executor executor(db_);
  const int64_t input_rows = db_->GetTable("lineitem").num_rows();
  for (int64_t batch : {int64_t{7}, int64_t{64}, int64_t{1024}}) {
    ExecOptions sequential;
    sequential.collect_provenance = true;
    sequential.retain_intermediates = true;
    sequential.max_batch_size = batch;
    auto ref = executor.Execute(plan, sequential);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    // The worst case is real: the primary key makes one group per row, so
    // the merge tree collapses nothing.
    ASSERT_EQ(ref->output.num_rows(), input_rows) << "batch " << batch;
    for (int t : ParityThreadCounts()) {
      MorselPool pool(t);
      ExecOptions parallel = sequential;
      parallel.task_runner = &pool;
      auto got = executor.Execute(plan, parallel);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectExecResultsEqual(got.value(), ref.value(),
                             "unique-key agg batch " + std::to_string(batch) +
                                 " threads " + std::to_string(t));
    }
  }

  // And through the full pipeline: the sample-run bytes (counters,
  // selectivities, variance inputs) obey the same contract over the
  // full-ratio sample.
  for (int64_t batch : {int64_t{7}, int64_t{64}, int64_t{1024}}) {
    const std::string baseline =
        SampleRunOutputBytes(RunStage(plan, 1, /*samples=*/nullptr, batch));
    for (int t : ParityThreadCounts()) {
      EXPECT_EQ(SampleRunOutputBytes(
                    RunStage(plan, t, /*samples=*/nullptr, batch)),
                baseline)
          << "unique-key agg sample run batch " << batch << " threads " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// The feedback loop (PR 7) joins the determinism contract: replaying a
// fixed observed-runtime trace must produce bit-identical error windows,
// convergence decisions, recalibration counts and recalibrated snapshots
// at every thread count — online learning must not erode reproducibility.
// ---------------------------------------------------------------------------

TEST_F(ParallelParityTest, FeedbackTrajectoryBitIdenticalAcrossThreadCounts) {
  const std::vector<Plan>& plans = (*workloads_)[1].plans;  // seljoin
  ASSERT_GE(plans.size(), 2u);

  // Synthesize the trace from the sequential reference predictions: four
  // accurate rounds (families converge), then six rounds at 2.2x (the
  // machine drifted; the detector must fire exactly once).
  PredictionPipeline reference(db_, samples_, *units_);
  std::vector<double> base_means;
  for (const Plan& plan : plans) {
    auto ref = reference.Predict(plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    base_means.push_back(ref->mean());
  }
  std::vector<std::pair<size_t, double>> trace;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < plans.size(); ++i) {
      trace.emplace_back(i, base_means[i]);
    }
  }
  for (int round = 0; round < 6; ++round) {
    for (size_t i = 0; i < plans.size(); ++i) {
      trace.emplace_back(i, base_means[i] * 2.2);
    }
  }

  struct Trajectory {
    std::vector<FamilyFeedback> families;
    ServiceStats stats;
    std::string snapshot_bytes;
    uint64_t epoch = 0;
  };
  const auto replay = [&](int num_threads) {
    ServiceOptions options;
    options.num_workers = std::max(1, num_threads);
    options.predictor.num_threads = num_threads;
    options.feedback.enabled = true;
    options.feedback.window_size = 4;
    options.feedback.converge_threshold = 0.01;
    options.feedback.drift_threshold = 0.30;
    options.feedback.cooldown_reports = 16;
    options.feedback.probe_interval = 3;
    // Deterministic re-derivation: a fresh fixed-seed machine matching the
    // drifted truth, run through the standard calibrator. The seed depends
    // only on the call index, so the Nth recalibration of every replay
    // produces the same fit.
    int recal_calls = 0;
    options.feedback.recalibrate = [&recal_calls]() {
      SimulatedMachine machine(
          MachineProfile::PC1().WithUnitMeansScaled(2.2),
          static_cast<uint64_t>(1000 + recal_calls));
      ++recal_calls;
      Calibrator calibrator(&machine);
      return calibrator.Calibrate();
    };
    PredictionService service(db_, samples_, *units_, options);
    std::vector<const Plan*> batch_plans;
    for (const Plan& plan : plans) batch_plans.push_back(&plan);
    const auto batch = service.PredictBatch(batch_plans);
    for (const auto& r : batch) EXPECT_TRUE(r.ok());
    for (const auto& step : trace) {
      service.ReportObserved(plans[step.first], step.second);
    }
    Trajectory out;
    out.families = service.FeedbackSnapshot();
    out.stats = service.stats();
    out.snapshot_bytes = CalibrationSnapshotBytes(*service.calibration());
    out.epoch = service.calibration()->epoch;
    return out;
  };

  const Trajectory ref_run = replay(1);
  // The trace is built to actually exercise the loop: families converge in
  // the accurate phase, the drift phase triggers exactly one recalibration
  // (cooldown suppresses the rest of the round), and the post-publish
  // reports re-combine under the new epoch.
  EXPECT_EQ(ref_run.stats.recalibrations, 1u);
  EXPECT_EQ(ref_run.epoch, 2u);
  EXPECT_GT(ref_run.stats.recombines, 0u);
  EXPECT_EQ(ref_run.stats.feedback_reports, trace.size());
  ASSERT_EQ(ref_run.families.size(), plans.size());

  for (int t : ParityThreadCounts()) {
    const Trajectory run = replay(t);
    EXPECT_EQ(run.epoch, ref_run.epoch) << "num_threads=" << t;
    EXPECT_EQ(run.snapshot_bytes, ref_run.snapshot_bytes)
        << "recalibrated snapshot differs at num_threads=" << t;
    EXPECT_EQ(run.stats.recalibrations, ref_run.stats.recalibrations);
    EXPECT_EQ(run.stats.feedback_reports, ref_run.stats.feedback_reports);
    EXPECT_EQ(run.stats.feedback_dropped, ref_run.stats.feedback_dropped);
    EXPECT_EQ(run.stats.converged_families, ref_run.stats.converged_families);
    EXPECT_EQ(run.stats.feedback_families, ref_run.stats.feedback_families);
    ASSERT_EQ(run.families.size(), ref_run.families.size());
    for (size_t i = 0; i < ref_run.families.size(); ++i) {
      const FamilyFeedback& a = ref_run.families[i];
      const FamilyFeedback& b = run.families[i];
      EXPECT_EQ(b.fingerprint, a.fingerprint) << "family " << i;
      EXPECT_EQ(b.reports, a.reports) << "family " << i;
      EXPECT_EQ(b.window_updates, a.window_updates) << "family " << i;
      EXPECT_EQ(b.converged, a.converged) << "family " << i;
      ASSERT_EQ(b.window.size(), a.window.size()) << "family " << i;
      for (size_t w = 0; w < a.window.size(); ++w) {
        EXPECT_EQ(b.window[w], a.window[w])
            << "family " << i << " window slot " << w
            << " at num_threads=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace uqp
