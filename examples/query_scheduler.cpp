// Distribution-based query scheduling (paper §6.5.3, the motivation from
// Chi et al., "Distribution-based query scheduling", PVLDB 2013) — now a
// thin wrapper over the policy library in src/schedule/.
//
// Two queries compete for one server and each has a deadline. With only
// point estimates the scheduler orders by expected slack; with
// distributions it can order by the probability of meeting both deadlines
// under either order — which flips the decision when one query is risky.
//
// The joint probability comes from PairBothMeetProb (exact 1-d quadrature
// of the ordered-sum tail). This example's previous local helper
// multiplied P(A <= da) * P(A+B <= db), silently assuming the two events
// are independent and ignoring that conditioning on {A <= da} truncates
// A's contribution to the sum — a systematic underestimate that can flip
// close calls. That approximation now lives, documented and tested
// against a Monte-Carlo oracle, as NaiveBothMeetProb in the policy
// library; the difference is printed here.
//
//   build/examples/query_scheduler

#include <algorithm>
#include <cstdio>
#include <vector>

#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "schedule/policy.h"
#include "service/prediction_service.h"
#include "workload/common.h"

using namespace uqp;

namespace {

struct Job {
  std::string name;
  Gaussian time;     // predicted distribution (ms)
  double deadline;   // ms from now
  double actual;     // ms, one simulated run
};

}  // namespace

int main() {
  Database db = MakeTpchDatabase(TpchConfig::Profile("1gb"));
  SimulatedMachine machine(MachineProfile::PC1(), 23);
  Calibrator calibrator(&machine);
  const CostUnits units = calibrator.Calibrate();
  SampleOptions sample_options;
  sample_options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, sample_options);
  // A queued PredictAsync request owns a copy of its plan, so the plans
  // vector may reallocate while the worker pool predicts; repeated plans
  // share one sample run through the in-flight dedup table, and
  // predictions are bit-identical to a sequential run at any thread count.
  ServiceOptions service_options;
  service_options.predictor.num_threads = 0;
  service_options.predictor.max_batch_size = 0;
  PredictionService service(&db, &samples, units, service_options);
  Executor executor(&db);

  // Build a pool of candidate jobs from the SELJOIN workload.
  SelJoinOptions wopts;
  wopts.instances_per_template = 3;
  auto queries = MakeSelJoinWorkload(db, wopts);
  std::vector<Plan> plans;
  std::vector<std::string> names;
  std::vector<PredictionFuture> pending;
  for (auto& q : queries) {
    auto plan_or = OptimizePlan(std::move(q.logical), db);
    if (!plan_or.ok()) continue;
    pending.push_back(service.PredictAsync(plan_or.value()));
    plans.push_back(std::move(plan_or).value());
    names.push_back(q.name);
  }

  std::vector<Job> jobs;
  Rng rng(5);
  for (size_t i = 0; i < plans.size(); ++i) {
    auto pred_or = pending[i].get();
    if (!pred_or.ok()) continue;
    auto full = executor.Execute(plans[i], ExecOptions{});
    if (!full.ok()) continue;
    Job job;
    job.name = names[i];
    job.time = pred_or->distribution();
    job.actual = machine.ExecuteOnce(*full);
    jobs.push_back(job);
  }

  // Pair the riskiest job with the safest, second riskiest with second
  // safest, and so on — the mix where distributional information matters.
  std::sort(jobs.begin(), jobs.end(), [](const Job& x, const Job& y) {
    return x.time.stddev() / x.time.mean > y.time.stddev() / y.time.mean;
  });
  std::vector<Job> paired;
  for (size_t i = 0, j = jobs.size(); i + 1 < j--; ++i) {
    paired.push_back(jobs[i]);
    paired.push_back(jobs[j]);
  }
  jobs = std::move(paired);

  // Deadlines are "time from now", so whichever job runs second must also
  // absorb its partner's running time — that is where order matters.
  for (size_t i = 0; i + 1 < jobs.size(); i += 2) {
    Job& a = jobs[i];
    Job& b = jobs[i + 1];
    a.deadline = a.time.mean * 1.3 + b.time.mean * (0.9 * rng.NextDouble());
    b.deadline = b.time.mean * 1.3 + a.time.mean * (0.9 * rng.NextDouble());
  }

  // Compare scheduling policies pair by pair.
  int decisions = 0, flips = 0, naive_flips = 0;
  int mean_meets = 0, dist_meets = 0;
  std::printf("%-34s %10s %10s  %s\n", "pair", "P(mean order)",
              "P(best order)", "decision");
  for (size_t i = 0; i + 1 < jobs.size(); i += 2) {
    Job a = jobs[i];
    Job b = jobs[i + 1];
    ++decisions;

    // Point-estimate policy: earliest-expected-slack first.
    const bool mean_a_first =
        (a.deadline - a.time.mean) <= (b.deadline - b.time.mean);
    const Job& m1 = mean_a_first ? a : b;
    const Job& m2 = mean_a_first ? b : a;

    // Distribution policy: maximize the exact P(both meet).
    const double p_ab =
        PairBothMeetProb(a.time, a.deadline, b.time, b.deadline);
    const double p_ba =
        PairBothMeetProb(b.time, b.deadline, a.time, a.deadline);
    const bool dist_a_first = p_ab >= p_ba;
    const Job& d1 = dist_a_first ? a : b;
    const Job& d2 = dist_a_first ? b : a;

    // The historical product approximation, for contrast: does its bias
    // flip this pair's decision?
    const bool naive_a_first =
        NaiveBothMeetProb(a.time, a.deadline, b.time, b.deadline) >=
        NaiveBothMeetProb(b.time, b.deadline, a.time, a.deadline);
    if (naive_a_first != dist_a_first) ++naive_flips;

    if (mean_a_first != dist_a_first) ++flips;

    // Outcome under each order (actual times).
    auto meets = [](const Job& x, const Job& y) {
      return (x.actual <= x.deadline ? 1 : 0) +
             (x.actual + y.actual <= y.deadline ? 1 : 0);
    };
    mean_meets += meets(m1, m2);
    dist_meets += meets(d1, d2);

    std::printf("%-34s %10.3f %10.3f  %s\n",
                (a.name + "+" + b.name).c_str(),
                mean_a_first ? p_ab : p_ba, std::max(p_ab, p_ba),
                mean_a_first == dist_a_first ? "same order" : "ORDER FLIPPED");
  }

  std::printf("\n%d scheduling decisions, %d flipped by distributional "
              "information\n", decisions, flips);
  std::printf("deadlines met: point-estimate order %d, distribution order %d "
              "(of %d)\n", mean_meets, dist_meets, 2 * decisions);
  std::printf("naive product approximation would have flipped %d of %d "
              "decisions vs the exact tail probability\n",
              naive_flips, decisions);
  return 0;
}
