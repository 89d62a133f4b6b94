// Scheduling scenario suite: policy unit tests on hand-constructed
// Gaussians (the documented admission eps boundary, the risky-query
// ordering flip), the exact-vs-naive "both meet" tail probability, and
// the simulator determinism contract — same seed + policy must produce a
// byte-identical event log at every service thread count and on reruns
// (the scheduling analogue of parallel_parity_test; the no-real-clock /
// no-unseeded-randomness source rules are enforced on src/schedule/ by
// tools/determinism_lint.py, which runs as its own ctest entry).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "hw/machine.h"
#include "math/gaussian.h"
#include "sampling/sample_db.h"
#include "schedule/policy.h"
#include "schedule/simulator.h"

namespace uqp {
namespace {

// ---------------------------------------------------------------------------
// Policy unit tests (pure, hand-constructed inputs).
// ---------------------------------------------------------------------------

ScheduledJob MakeJob(uint64_t id, double mean, double stddev, double arrival,
                     double deadline, double cost = 0.0) {
  ScheduledJob j;
  j.id = id;
  j.arrival_ms = arrival;
  j.deadline_ms = deadline;
  j.predicted_ms = Gaussian(mean, stddev * stddev);
  j.optimizer_cost = cost;
  return j;
}

TEST(AdmissionPolicy, DistributionFlipsAtEpsBoundary) {
  // Documented boundary: admit iff P(t <= budget) >= 1 - eps. With
  // t ~ N(100, 10^2) and eps = 0.1 the boundary budget is
  // 100 + z_0.9 * 10; nudging the budget one part in 10^6 of a stddev
  // across the boundary must flip the decision.
  AdmissionPolicy policy{AdmissionPolicyKind::kDistribution, 0.1, 1.0};
  const ScheduledJob job = MakeJob(0, 100.0, 10.0, 0.0, 0.0);
  const double boundary = 100.0 + NormalQuantile(0.9) * 10.0;
  EXPECT_TRUE(policy.Admits(job, boundary + 1e-6 * 10.0));
  EXPECT_FALSE(policy.Admits(job, boundary - 1e-6 * 10.0));

  // Tightening eps at a fixed budget flips the same job: the budget that
  // satisfies eps = 0.1 fails eps = 0.05.
  AdmissionPolicy tighter{AdmissionPolicyKind::kDistribution, 0.05, 1.0};
  EXPECT_FALSE(tighter.Admits(job, boundary + 1e-6 * 10.0));
}

TEST(AdmissionPolicy, MeanOnlyIgnoresVariance) {
  AdmissionPolicy policy{AdmissionPolicyKind::kMeanOnly, 0.1, 1.0};
  // A coin-flip query (mean right at the budget, huge variance) is
  // admitted by the mean-only rule no matter the risk...
  const ScheduledJob risky = MakeJob(0, 100.0, 80.0, 0.0, 0.0);
  EXPECT_TRUE(policy.Admits(risky, 100.0));
  EXPECT_FALSE(policy.Admits(risky, 99.9999));
  // ...while the distribution policy rejects it at any meaningful eps.
  AdmissionPolicy dist{AdmissionPolicyKind::kDistribution, 0.1, 1.0};
  EXPECT_FALSE(dist.Admits(risky, 100.0));
}

TEST(AdmissionPolicy, CostOnlyUsesScaledCost) {
  AdmissionPolicy policy{AdmissionPolicyKind::kCostOnly, 0.1, 2.0};
  ScheduledJob job = MakeJob(0, 1.0, 0.0, 0.0, 0.0, /*cost=*/50.0);
  // 50 cost units * 2 ms/unit = 100 ms demand; the prediction (1 ms) is
  // deliberately ignored by this baseline.
  EXPECT_TRUE(policy.Admits(job, 100.0));
  EXPECT_FALSE(policy.Admits(job, 99.9));
}

TEST(OrderingPolicy, RiskAdjustedFlipsVsExpectedSlackOnRiskyJob) {
  // The paper's risky-query case (query_scheduler example): job a has
  // LESS expected slack but is nearly deterministic; job b has more
  // expected slack but is so noisy that its risk-adjusted slack is
  // negative. Expected-slack runs a first; risk-adjusted runs b first.
  const ScheduledJob a = MakeJob(0, 80.0, 1.0, 0.0, 100.0);   // slack 20
  const ScheduledJob b = MakeJob(1, 70.0, 30.0, 1.0, 100.0);  // slack 30
  const std::vector<ScheduledJob> queue = {a, b};

  OrderingPolicy expected{OrderingPolicyKind::kExpectedSlack, 0.05};
  EXPECT_EQ(PickNext(expected, queue, 0.0), 0u);

  OrderingPolicy risk{OrderingPolicyKind::kRiskAdjustedSlack, 0.05};
  // a: 20 - 1.645 * 1 ~ 18.4;  b: 30 - 1.645 * 30 ~ -19.3  -> b first.
  EXPECT_EQ(PickNext(risk, queue, 0.0), 1u);

  OrderingPolicy fifo{OrderingPolicyKind::kFifo, 0.05};
  EXPECT_EQ(PickNext(fifo, queue, 0.0), 0u);
}

TEST(OrderingPolicy, PickNextBreaksTiesById) {
  // Identical keys: the lower id wins regardless of queue layout, so
  // dispatch order is a total order (the determinism contract's
  // tie-break rule).
  const ScheduledJob a = MakeJob(7, 50.0, 5.0, 0.0, 100.0);
  const ScheduledJob b = MakeJob(3, 50.0, 5.0, 0.0, 100.0);
  OrderingPolicy risk{OrderingPolicyKind::kRiskAdjustedSlack, 0.1};
  const std::vector<ScheduledJob> ab = {a, b};
  const std::vector<ScheduledJob> ba = {b, a};
  EXPECT_EQ(ab[PickNext(risk, ab, 0.0)].id, 3u);
  EXPECT_EQ(ba[PickNext(risk, ba, 0.0)].id, 3u);
}

// ---------------------------------------------------------------------------
// Ordered-sum tail probability: exact quadrature vs closed-form limits and
// the documented bias of the naive product approximation. (The Monte-Carlo
// oracle comparison lives in property_test.)
// ---------------------------------------------------------------------------

TEST(BothMeetProb, MatchesClosedFormWhenFirstDeadlineIsSlack) {
  // If a's deadline is far beyond its support, conditioning on {A <= da}
  // is vacuous and P(both) collapses to P(A + B <= db).
  const Gaussian a(100.0, 400.0), b(50.0, 100.0);
  const double da = 100.0 + 10.0 * 20.0;  // +10 sigma
  const double db = 160.0;
  const double exact = PairBothMeetProb(a, da, b, db);
  const double closed = NormalCdf(db, 150.0, 500.0);
  EXPECT_NEAR(exact, closed, 1e-6);
}

TEST(BothMeetProb, NaiveProductUnderestimates) {
  // With a's deadline binding, {A <= da} and {A + B <= db} are positively
  // correlated through A and the product is a strict underestimate.
  const Gaussian a(100.0, 400.0), b(50.0, 100.0);
  const double da = 110.0, db = 160.0;
  const double exact = PairBothMeetProb(a, da, b, db);
  const double naive = NaiveBothMeetProb(a, da, b, db);
  EXPECT_GT(exact, naive + 1e-3);
  EXPECT_GT(exact, 0.0);
  EXPECT_LT(exact, 1.0);
}

TEST(BothMeetProb, HandlesDegenerateVariances) {
  // Point-mass A: either fits its deadline (then P = Phi_B) or not (0).
  const Gaussian a(100.0, 0.0), b(50.0, 100.0);
  EXPECT_NEAR(PairBothMeetProb(a, 100.0, b, 160.0),
              NormalCdf(160.0, 150.0, 100.0), 1e-12);
  EXPECT_EQ(PairBothMeetProb(a, 99.0, b, 1e9), 0.0);
  // Point-mass B inside the integrand (step cdf).
  const Gaussian pb(50.0, 0.0);
  const double p = PairBothMeetProb(Gaussian(100.0, 400.0), 110.0, pb, 160.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

// ---------------------------------------------------------------------------
// Simulator determinism: byte-identical event logs across service thread
// counts and reruns, on a real scenario driving the real service.
// ---------------------------------------------------------------------------

class ScheduleSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
    SampleOptions sample_options;
    sample_options.sampling_ratio = 0.05;
    samples_ = new SampleDb(SampleDb::Build(*db_, sample_options));
    SimulatedMachine machine(MachineProfile::PC1(), 17);
    Calibrator calibrator(&machine);
    units_ = new CostUnits(calibrator.Calibrate());

    SimulatedMachine scenario_machine(MachineProfile::PC1(), 29);
    ScenarioOptions opts;
    opts.workload = "seljoin";
    opts.trace = "poisson";
    opts.mix = "zipf";
    opts.zipf_z = 1.0;
    opts.num_jobs = 48;
    opts.servers = 2;
    opts.load = 0.9;
    opts.seed = 5;
    scenario_ = new ScheduleScenario(
        BuildScenario(*db_, *samples_, *units_, &scenario_machine, opts));
  }

  static void TearDownTestSuite() {
    delete scenario_;
    delete units_;
    delete samples_;
    delete db_;
    scenario_ = nullptr;
    units_ = nullptr;
    samples_ = nullptr;
    db_ = nullptr;
  }

  static ServiceOptions Options(int threads) {
    ServiceOptions o;
    o.predictor.num_threads = threads;
    o.predictor.max_batch_size = 0;
    o.feedback.enabled = true;
    return o;
  }

  /// A copy of the fixture scenario for a test to edit (plans are
  /// move-only, so the pool is cloned).
  static ScheduleScenario ScenarioCopy() {
    const ScheduleScenario& s = *scenario_;
    ScheduleScenario copy;
    for (const Plan& plan : s.pool) copy.pool.push_back(plan.Clone());
    copy.pool_cost = s.pool_cost;
    copy.pool_fingerprint = s.pool_fingerprint;
    copy.pool_ref_mean_ms = s.pool_ref_mean_ms;
    copy.job_plan = s.job_plan;
    copy.arrival_ms = s.arrival_ms;
    copy.deadline_ms = s.deadline_ms;
    copy.true_ms = s.true_ms;
    copy.cost_scale_ms = s.cost_scale_ms;
    copy.rate_qps = s.rate_qps;
    copy.servers = s.servers;
    return copy;
  }

  static SimPolicy DistPolicy() {
    SimPolicy p;
    p.admission = {AdmissionPolicyKind::kDistribution, 0.15, 1.0};
    p.ordering = {OrderingPolicyKind::kRiskAdjustedSlack, 0.15};
    return p;
  }

  static Database* db_;
  static SampleDb* samples_;
  static CostUnits* units_;
  static ScheduleScenario* scenario_;
};

Database* ScheduleSimTest::db_ = nullptr;
SampleDb* ScheduleSimTest::samples_ = nullptr;
CostUnits* ScheduleSimTest::units_ = nullptr;
ScheduleScenario* ScheduleSimTest::scenario_ = nullptr;

TEST_F(ScheduleSimTest, EventLogByteIdenticalAtEveryThreadCount) {
  // The virtual clock advances only on scenario events and the service's
  // predictions are bit-identical at any thread count, so the full
  // decision trace must be byte-equal — one worker, four workers, and a
  // rerun of the same simulator. A real-time read or an
  // iteration-order dependence anywhere in the loop would diverge here.
  const SimPolicy policy = DistPolicy();
  std::vector<std::vector<uint8_t>> logs;
  for (int threads : {1, 2, 4}) {
    Simulator sim(db_, samples_, *units_, Options(threads));
    logs.push_back(sim.Run(*scenario_, policy).event_log);
  }
  ASSERT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);

  Simulator again(db_, samples_, *units_, Options(1));
  const SimResult r1 = again.Run(*scenario_, policy);
  const SimResult r2 = again.Run(*scenario_, policy);
  EXPECT_EQ(r1.event_log, r2.event_log);
  EXPECT_EQ(EventLogHash(r1.event_log), EventLogHash(r2.event_log));
}

TEST_F(ScheduleSimTest, MetricsAreConsistentAndFeedbackFlows) {
  Simulator sim(db_, samples_, *units_, Options(2));
  const SimResult r = sim.Run(*scenario_, DistPolicy());
  const SimMetrics& m = r.metrics;
  EXPECT_EQ(m.arrivals, scenario_->arrival_ms.size());
  EXPECT_EQ(m.admitted + m.rejected, m.arrivals);
  EXPECT_EQ(m.completed, m.admitted);
  EXPECT_LE(m.violations, m.admitted);
  EXPECT_EQ(m.admission_checks, m.arrivals);
  EXPECT_EQ(m.dispatch_decisions, m.admitted);
  // Every admitted job's observed runtime was reported against its
  // decision-time prediction (none dropped: observations are positive
  // and the comparison point is caller-supplied).
  EXPECT_EQ(r.service_stats.feedback_reports, m.admitted);
  EXPECT_EQ(r.service_stats.feedback_dropped, 0u);
  // The recurring zipf mix must hit the cache: far fewer sample runs
  // than predictions.
  EXPECT_EQ(r.service_stats.predictions, m.arrivals);
  EXPECT_LT(r.service_stats.sample_runs, m.arrivals / 2);
}

TEST_F(ScheduleSimTest, PoliciesDivergeOnTheSameScenario) {
  // Sanity that the policy axis matters at all: on a contended scenario
  // the three admission controllers must not make identical decisions.
  Simulator sim(db_, samples_, *units_, Options(2));
  SimPolicy mean;
  mean.admission = {AdmissionPolicyKind::kMeanOnly, 0.15, 1.0};
  mean.ordering = {OrderingPolicyKind::kExpectedSlack, 0.15};
  const SimResult rd = sim.Run(*scenario_, DistPolicy());
  const SimResult rm = sim.Run(*scenario_, mean);
  // Which jobs each policy admits (and in what order it dispatches them)
  // must differ — byte-equal traces would mean the distribution changed
  // nothing. Exact counts are scenario-dependent (queue composition
  // feeds back into later budgets), so only divergence is asserted.
  EXPECT_NE(rd.event_log, rm.event_log);
  EXPECT_GT(rd.metrics.admitted, 0u);
  EXPECT_GT(rm.metrics.admitted, 0u);
}

TEST_F(ScheduleSimTest, DriftMidReplayRecalibratesDeterministically) {
  // The machine runs 4x slower than the service's calibration: every
  // observed runtime diverges from its prediction, so the feedback loop
  // publishes a new calibration part-way through the replay. Every
  // admitted job still reports against the prediction its admission was
  // decided with, and the replay stays byte-identical at every thread
  // count and on reruns. The window is 4 reports because only 8 of the
  // 48 jobs are admitted under the slowdown.
  ScheduleScenario drifted = ScenarioCopy();
  for (double& t : drifted.true_ms) t *= 4.0;
  CostUnits slowed = *units_;
  for (int u = 0; u < kNumCostUnits; ++u) slowed.units[u].mean *= 4.0;
  auto options = [&slowed](int threads) {
    ServiceOptions o = Options(threads);
    o.feedback.window_size = 4;
    o.feedback.recalibrate = [slowed]() { return slowed; };
    return o;
  };

  const SimPolicy policy = DistPolicy();
  std::vector<std::vector<uint8_t>> logs;
  for (int threads : {1, 2, 4}) {
    Simulator sim(db_, samples_, *units_, options(threads));
    const SimResult r = sim.Run(drifted, policy);
    EXPECT_GE(r.service_stats.recalibrations, 1u) << threads << " threads";
    EXPECT_EQ(r.service_stats.feedback_reports, r.metrics.admitted)
        << threads << " threads";
    logs.push_back(r.event_log);
  }
  ASSERT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);

  Simulator again(db_, samples_, *units_, options(1));
  EXPECT_EQ(again.Run(drifted, policy).event_log, logs[0]);
  EXPECT_EQ(again.Run(drifted, policy).event_log, logs[0]);

  // The new calibration landed before the replay ended: later arrivals
  // were predicted under it, so the log differs from a detect-only run.
  Simulator detect_only(db_, samples_, *units_, Options(1));
  EXPECT_NE(detect_only.Run(drifted, policy).event_log, logs[0]);
}

TEST_F(ScheduleSimTest, EventLogHoldsOneFixedWidthRecordPerEvent) {
  // Arrival records are 42 bytes, start 17 and finish 18, and every
  // admitted job starts and finishes exactly once.
  auto expect_size = [](const SimResult& r) {
    EXPECT_EQ(r.event_log.size(),
              42 * r.metrics.arrivals + (17 + 18) * r.metrics.admitted);
  };
  Simulator sim(db_, samples_, *units_, Options(2));
  const SimResult fixture = sim.Run(*scenario_, DistPolicy());
  expect_size(fixture);
  EXPECT_GT(fixture.metrics.admitted, 0u);
  EXPECT_GT(fixture.metrics.rejected, 0u);

  // Deadline at arrival: no policy has a budget, so only arrival records.
  ScheduleScenario hopeless = ScenarioCopy();
  hopeless.deadline_ms = hopeless.arrival_ms;
  const SimResult none = sim.Run(hopeless, DistPolicy());
  expect_size(none);
  EXPECT_EQ(none.metrics.admitted, 0u);
  EXPECT_EQ(none.event_log.size(), 42 * none.metrics.arrivals);
  EXPECT_EQ(none.service_stats.feedback_reports, 0u);

  // Deadlines far beyond any backlog: every arrival is admitted.
  ScheduleScenario relaxed = ScenarioCopy();
  for (double& d : relaxed.deadline_ms) d += 1e12;
  const SimResult all = sim.Run(relaxed, DistPolicy());
  expect_size(all);
  EXPECT_EQ(all.metrics.admitted, all.metrics.arrivals);
  EXPECT_EQ(all.service_stats.feedback_reports, all.metrics.arrivals);
}

}  // namespace
}  // namespace uqp
