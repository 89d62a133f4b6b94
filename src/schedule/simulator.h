#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/units.h"
#include "core/pipeline.h"
#include "engine/plan.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "schedule/policy.h"
#include "service/prediction_service.h"
#include "storage/database.h"

namespace uqp {

/// Deterministic discrete-event SLO simulator (ROADMAP item 3): a seeded
/// query stream with deadlines is replayed against K server slots, with a
/// pluggable admission controller and queue-ordering policy driving the
/// real PredictionService — caching, in-flight artifacts, calibration
/// epochs and the feedback loop all shape the decisions, and every
/// completed job's observed runtime flows back through
/// ReportObservedAgainst.
///
/// Determinism contract (enforced by schedule_test and the determinism
/// linter): the simulator reads no real clock and draws no randomness of
/// its own — all stochastic inputs are pre-drawn into the scenario at
/// build time — and service predictions are bit-identical at every thread
/// count, so the same (scenario, policy) pair produces a byte-identical
/// event log no matter how many threads the service runs.

/// Knobs for building one scenario. Everything downstream is a pure
/// function of these (plus the database/sample/units inputs).
struct ScenarioOptions {
  /// Plan pool source: "micro", "seljoin", "tpch", or "mixed" (all three).
  std::string workload = "seljoin";
  int workload_size = 2;  ///< size hint per workload family

  /// Arrival process (workload/arrivals.h): "uniform" | "poisson" |
  /// "randwalk". The rate is derived, not given: offered load is
  /// `load` * servers, measured in reference predicted work.
  std::string trace = "poisson";
  double load = 0.85;  ///< target utilization of the K servers

  /// Plan choice per arrival: "roundrobin" or "zipf" (skewed recurring
  /// mix; a few plans carry most traffic).
  std::string mix = "roundrobin";
  double zipf_z = 1.0;

  size_t num_jobs = 200;
  int servers = 2;

  /// Deadline = arrival + factor * reference predicted mean, factor drawn
  /// uniformly per job from [deadline_lo, deadline_hi]. Tight factors make
  /// the outcome hinge on prediction uncertainty (SLAs are priced tight).
  double deadline_lo = 1.05;
  double deadline_hi = 2.0;

  uint64_t seed = 1;
};

/// A fully materialized scenario. Every policy run replays exactly this —
/// same arrivals, same deadlines, same pre-drawn true runtimes — so policy
/// comparisons differ only in their decisions.
struct ScheduleScenario {
  std::vector<Plan> pool;                 ///< optimized distinct plans
  std::vector<double> pool_cost;          ///< optimizer cost per pool plan
  std::vector<uint64_t> pool_fingerprint; ///< service feedback family key
  std::vector<double> pool_ref_mean_ms;   ///< reference predicted mean

  std::vector<size_t> job_plan;    ///< arrival i runs pool[job_plan[i]]
  std::vector<double> arrival_ms;  ///< absolute virtual arrival times
  std::vector<double> deadline_ms; ///< absolute virtual SLO deadlines
  std::vector<double> true_ms;     ///< pre-drawn actual runtimes

  double cost_scale_ms = 1.0;  ///< least-squares cost-units -> ms map
  double rate_qps = 0.0;       ///< derived arrival rate (diagnostic)
  int servers = 1;
};

/// Builds a scenario: optimizes the plan pool, derives reference
/// predictions (a private single-threaded service), calibrates the
/// cost-only baseline's cost_scale_ms by least squares through the origin
/// over the pool, draws the arrival/mix/deadline/true-runtime streams.
/// Deterministic in (db, samples, units, machine seed, options).
ScheduleScenario BuildScenario(const Database& db, const SampleDb& samples,
                               const CostUnits& units,
                               SimulatedMachine* machine,
                               const ScenarioOptions& options);

/// One policy pair under test.
struct SimPolicy {
  AdmissionPolicy admission;
  OrderingPolicy ordering;
};

struct SimMetrics {
  uint64_t arrivals = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;   ///< == admitted (every admitted job runs)
  uint64_t violations = 0;  ///< admitted jobs that missed their deadline
  uint64_t admission_checks = 0;
  uint64_t dispatch_decisions = 0;

  double makespan_ms = 0.0;  ///< last completion time (0 if none admitted)
  double busy_ms = 0.0;      ///< total server time consumed
  double wasted_ms = 0.0;    ///< server time burnt on SLO-violating jobs
  double violation_rate = 0.0;  ///< violations / admitted (0 if none)
  /// SLO-met admitted completions per second of makespan. This is the
  /// "admitted throughput" the acceptance gate compares: a policy that
  /// rejects everything scores 0, one that admits everything pays for its
  /// violations — useful work is what counts.
  double goodput_per_s = 0.0;
};

struct SimResult {
  SimMetrics metrics;
  /// Byte-exact trace of every arrival/start/finish event (ids, raw
  /// IEEE-754 bit patterns of times and predictions). Two runs of the
  /// same (scenario, policy) must produce identical bytes at any service
  /// thread count — the scheduling analogue of parallel_parity_test.
  std::vector<uint8_t> event_log;
  ServiceStats service_stats;
};

/// HashBytes64 (FNV-1a 64) over the event log (compact identity for gates
/// and JSON).
uint64_t EventLogHash(const std::vector<uint8_t>& log);

/// The simulator. Each Run constructs a fresh PredictionService from the
/// stored options (cold cache: policies are compared from the same start),
/// then replays the scenario: admission is decided at arrival against the
/// remaining deadline budget minus a backlog estimate (queued + running
/// predicted work over K slots, measured in the policy's own signal), and
/// a freed slot dispatches by the ordering policy's (key, id) minimum.
///
/// A replay's state is bounded by the jobs in flight: each admitted job
/// carries its as-decided Prediction from the queue to its slot and into
/// ReportObservedAgainst at completion, so only queue + K predictions are
/// alive at once. The event log is reserved up front to its bound (every
/// job admitted) and each record goes in with one append; capacity that
/// rejected jobs leave unwritten is never touched.
class Simulator {
 public:
  Simulator(const Database* db, const SampleDb* samples, CostUnits units,
            ServiceOptions service_options);

  SimResult Run(const ScheduleScenario& scenario, const SimPolicy& policy);

 private:
  const Database* db_;
  const SampleDb* samples_;
  CostUnits units_;
  ServiceOptions service_options_;
};

}  // namespace uqp
