// Least-expected-cost (LEC) plan selection (paper §6.5.1, after Chu,
// Halpern, Seshadri: "Least expected cost query optimization: an exercise
// in utility", PODS 1999): choose plans by EXPECTED UTILITY under the
// predicted running-time distribution instead of by the utility of the
// point estimate.
//
// Utility model: an SLA that charges the running time plus a penalty if
// the query misses its deadline,
//     cost(t) = t + P * 1[t > D].
// A point-estimate optimizer scores a plan as  mu + P * 1[mu > D]  — it
// sees no risk as long as the mean sneaks under the deadline. The LEC
// optimizer scores  mu + P * Pr(T > D)  using the predicted distribution,
// and walks away from high-variance plans whose mean looks fine.
//
//   build/examples/lec_optimizer

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

using namespace uqp;

int main() {
  Database db = MakeTpchDatabase(TpchConfig::Profile("1gb"));
  SimulatedMachine machine(MachineProfile::PC1(), 17);
  Calibrator calibrator(&machine);
  const CostUnits units = calibrator.Calibrate();
  // A small sample: wide selectivity distributions make risky plans risky.
  SampleOptions so;
  so.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, so);
  PredictionPipeline predictor(&db, &samples, units);
  Executor executor(&db);

  Rng rng(29);
  ConstantPicker pick(&db, &rng);

  double point_utility = 0.0, lec_utility = 0.0, oracle_utility = 0.0;
  int decisions = 0, flips = 0;
  std::printf("%-9s %22s %22s %10s %6s   (flipped rows only)\n", "sel",
              "seq mu/sd (ms)", "index mu/sd (ms)", "choice p/l", "flip");
  for (int i = 0; i < 60; ++i) {
    // Random targets concentrated around the seq/index crossover, where
    // the choice is genuinely uncertain.
    const double frac = pick.LogUniform(0.001, 0.02);
    ExprPtr pred = pick.LessEqAtFraction("lineitem", "l_shipdate", frac);

    struct Candidate {
      std::string name;
      Plan plan;
      Gaussian time;
      std::vector<double> runs;  // repeated actual executions
    };
    std::vector<Candidate> candidates;
    {
      Candidate seq;
      seq.name = "seq";
      seq.plan = Plan(MakeSeqScan("lineitem", pred));
      Candidate idx;
      idx.name = "index";
      idx.plan = Plan(MakeIndexScan("lineitem", 10 /* l_shipdate */, pred));
      candidates.push_back(std::move(seq));
      candidates.push_back(std::move(idx));
    }
    bool ok = true;
    for (Candidate& c : candidates) {
      if (!c.plan.Finalize(db).ok()) {
        ok = false;
        break;
      }
      auto prediction = predictor.Predict(c.plan);
      auto full = executor.Execute(c.plan, ExecOptions{});
      if (!prediction.ok() || !full.ok()) {
        ok = false;
        break;
      }
      c.time = prediction->distribution();
      for (int run = 0; run < 25; ++run) {
        c.runs.push_back(machine.ExecuteOnce(*full));
      }
    }
    if (!ok) continue;

    // SLA: deadline anchored on the predictable sequential plan (a tenant
    // SLA negotiated against known full-scan behaviour); miss penalty 10x.
    const double deadline = 1.2 * candidates[0].time.mean;
    const double penalty = 10.0 * deadline;

    auto point_score = [&](const Candidate& c) {
      return c.time.mean + (c.time.mean > deadline ? penalty : 0.0);
    };
    auto lec_score = [&](const Candidate& c) {
      const double p_miss =
          1.0 - NormalCdf(deadline, c.time.mean, c.time.variance);
      return c.time.mean + penalty * p_miss;
    };
    // Realized SLA cost averaged over repeated executions, so the penalty
    // probability materializes instead of being a single coin flip.
    auto realized = [&](const Candidate& c) {
      double acc = 0.0;
      for (double t : c.runs) acc += t + (t > deadline ? penalty : 0.0);
      return acc / static_cast<double>(c.runs.size());
    };

    const Candidate& point_pick =
        point_score(candidates[0]) <= point_score(candidates[1]) ? candidates[0]
                                                                 : candidates[1];
    const Candidate& lec_pick =
        lec_score(candidates[0]) <= lec_score(candidates[1]) ? candidates[0]
                                                             : candidates[1];
    const Candidate& oracle_pick =
        realized(candidates[0]) <= realized(candidates[1]) ? candidates[0]
                                                           : candidates[1];
    point_utility += realized(point_pick);
    lec_utility += realized(lec_pick);
    oracle_utility += realized(oracle_pick);
    ++decisions;
    const bool flip = point_pick.name != lec_pick.name;
    if (flip) ++flips;
    char seq_buf[32], idx_buf[32];
    std::snprintf(seq_buf, sizeof(seq_buf), "%.0f/%.0f", candidates[0].time.mean,
                  candidates[0].time.stddev());
    std::snprintf(idx_buf, sizeof(idx_buf), "%.0f/%.0f", candidates[1].time.mean,
                  candidates[1].time.stddev());
    if (flip) {
      std::printf("%-9.4f %22s %22s %5s/%-5s %6s\n", frac, seq_buf, idx_buf,
                  point_pick.name.c_str(), lec_pick.name.c_str(), "FLIP");
    }
  }

  std::printf("\n%d plan choices, %d flipped by pricing in the distribution\n",
              decisions, flips);
  std::printf("realized SLA cost: point-estimate %.0f, LEC %.0f, oracle %.0f\n",
              point_utility, lec_utility, oracle_utility);
  std::printf(
      "\nLEC scores a plan by mu + penalty * Pr(T > deadline) — the utility-"
      "based optimization the paper's distributions enable (S6.5.1). The "
      "flipped rows are risk-averse choices: LEC pays a small premium (the "
      "safe plan's extra mean cost) to buy out of the penalty tail. Whether "
      "that insurance is worth it depends on how heavy the tail really is "
      "relative to the predictor's calibration; compare the three totals "
      "above, and try a larger penalty or a smaller sampling ratio to make "
      "the insurance pay.\n");
  return 0;
}
