#include "schedule/simulator.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "math/rng.h"
#include "storage/value.h"
#include "workload/arrivals.h"
#include "workload/common.h"

namespace uqp {

namespace {

// Event-log encoding: fixed-width little-endian records, doubles as raw
// IEEE-754 bit patterns. Any nondeterminism — a reordered dispatch, a
// prediction that differs in the last ulp — changes the bytes.
enum EventTag : uint8_t {
  kEvArrival = 1,  // [tag][id][t][admitted][pred mean][pred var][deadline]
  kEvStart = 2,    // [tag][id][t]
  kEvFinish = 3,   // [tag][id][t][met]
};

constexpr size_t kArrivalBytes = 42;
constexpr size_t kStartBytes = 17;
constexpr size_t kFinishBytes = 18;

/// One event record, assembled on the stack and appended to the log in
/// one insert.
template <size_t N>
class Record {
 public:
  explicit Record(EventTag tag) { U8(tag); }

  void U8(uint8_t v) { bytes_[size_++] = v; }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(uint8_t(v >> (8 * i)));
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void AppendTo(std::vector<uint8_t>* log) const {
    UQP_CHECK(size_ == N) << "event record is " << size_ << " bytes, not "
                          << N;
    log->insert(log->end(), bytes_, bytes_ + N);
  }

 private:
  uint8_t bytes_[N] = {};
  size_t size_ = 0;
};

/// A job occupying a server slot, with the prediction its admission was
/// decided with (reported against at completion).
struct RunningJob {
  ScheduledJob job;
  Prediction as_decided;
  double start_ms = 0.0;
  double finish_ms = 0.0;  // start + true runtime (unknown to policies)
};

/// Index of the next slot to free: minimal (finish, id) — the total order
/// that keeps completion processing deterministic.
size_t NextCompletion(const std::vector<RunningJob>& running) {
  size_t best = 0;
  for (size_t i = 1; i < running.size(); ++i) {
    if (running[i].finish_ms < running[best].finish_ms ||
        (running[i].finish_ms == running[best].finish_ms &&
         running[i].job.id < running[best].job.id)) {
      best = i;
    }
  }
  return best;
}

/// The policy's own view of one job's service demand in ms: the predicted
/// mean, except the cost-only controller — which never sampled — sees
/// only its scaled optimizer cost.
double SignalMs(const AdmissionPolicy& admission, const ScheduledJob& job) {
  if (admission.kind == AdmissionPolicyKind::kCostOnly) {
    return job.optimizer_cost * admission.cost_scale_ms;
  }
  return job.predicted_ms.mean;
}

/// Backlog estimate at admission time: predicted work still in front of a
/// new arrival (remaining running work plus the whole queue), spread over
/// the K slots. Every policy pays the same charge, measured in its own
/// signal — the comparison stays apples-to-apples.
double BacklogMs(const AdmissionPolicy& admission,
                 const std::vector<RunningJob>& running,
                 const std::vector<ScheduledJob>& queue, double now_ms,
                 int servers) {
  double total = 0.0;
  for (const RunningJob& r : running) {
    const double remaining = r.start_ms + SignalMs(admission, r.job) - now_ms;
    if (remaining > 0.0) total += remaining;
  }
  for (const ScheduledJob& j : queue) total += SignalMs(admission, j);
  return total / servers;
}

}  // namespace

ScheduleScenario BuildScenario(const Database& db, const SampleDb& samples,
                               const CostUnits& units,
                               SimulatedMachine* machine,
                               const ScenarioOptions& options) {
  ScheduleScenario s;
  s.servers = options.servers;

  // 1. Plan pool.
  std::vector<WorkloadQuery> queries;
  if (options.workload == "mixed") {
    for (const char* kind : {"micro", "seljoin", "tpch"}) {
      auto part =
          MakeWorkload(db, kind, options.seed, options.workload_size);
      for (auto& q : part) queries.push_back(std::move(q));
    }
  } else {
    queries =
        MakeWorkload(db, options.workload, options.seed, options.workload_size);
  }
  for (auto& q : queries) {
    auto plan_or = OptimizePlan(std::move(q.logical), db);
    if (!plan_or.ok()) continue;
    s.pool.push_back(std::move(plan_or).value());
  }
  UQP_CHECK(!s.pool.empty()) << "scenario needs a non-empty plan pool";

  // 2. Reference predictions (single-threaded private service; these pin
  // deadlines and the offered load, independent of the service options the
  // policies later run under).
  ServiceOptions ref_options;
  ref_options.predictor.num_threads = 1;
  PredictionService ref(&db, &samples, units, ref_options);
  for (const Plan& plan : s.pool) {
    auto pred_or = ref.Predict(plan);
    UQP_CHECK(pred_or.ok()) << "reference prediction failed";
    s.pool_ref_mean_ms.push_back(pred_or->mean());
    s.pool_fingerprint.push_back(PlanFingerprint(plan));
    s.pool_cost.push_back(OptimizerScalarCost(plan, db));
  }

  // 3. Cost-only baseline calibration: least squares through the origin,
  // ms-per-cost-unit over the pool. (The baseline gets a fair shot: the
  // best single linear map from scalar cost to running time.)
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < s.pool.size(); ++i) {
    num += s.pool_cost[i] * s.pool_ref_mean_ms[i];
    den += s.pool_cost[i] * s.pool_cost[i];
  }
  s.cost_scale_ms = den > 0.0 ? num / den : 1.0;

  // 4. Plan mix, arrivals, deadlines, true runtimes — all pre-drawn from
  // disjoint seeded streams so every policy replays identical inputs.
  s.job_plan = MakePlanIndices(options.mix, s.pool.size(), options.num_jobs,
                               options.zipf_z, options.seed + 101);

  double avg_ref_ms = 0.0;
  for (size_t p : s.job_plan) avg_ref_ms += s.pool_ref_mean_ms[p];
  avg_ref_ms /= double(options.num_jobs);
  s.rate_qps = options.load * options.servers / (avg_ref_ms / 1000.0);
  const auto arrival_s = MakeArrivalSeconds(options.trace, s.rate_qps,
                                            options.num_jobs,
                                            options.seed + 202);
  s.arrival_ms.reserve(options.num_jobs);
  for (double t : arrival_s) s.arrival_ms.push_back(t * 1000.0);

  Rng deadline_rng(options.seed + 303);
  for (size_t i = 0; i < options.num_jobs; ++i) {
    const double factor =
        options.deadline_lo +
        (options.deadline_hi - options.deadline_lo) * deadline_rng.NextDouble();
    s.deadline_ms.push_back(s.arrival_ms[i] +
                            factor * s.pool_ref_mean_ms[s.job_plan[i]]);
  }

  Executor executor(&db);
  std::vector<ExecResult> executed;
  executed.reserve(s.pool.size());
  for (const Plan& plan : s.pool) {
    auto full = executor.Execute(plan, ExecOptions{});
    UQP_CHECK(full.ok()) << "scenario plan failed to execute";
    executed.push_back(std::move(full).value());
  }
  // True runtimes drawn in arrival order from the machine's sequential
  // stream: per-job noise is independent of which policy later runs it.
  // Executions run at the scenario's multiprogramming level — K slots
  // share one machine, so latent cost units inflate and spread (the
  // paper's §8 interference view). Predictions are calibrated at
  // concurrency 1, so every policy faces the same optimistic bias; only
  // margins absorb it.
  for (size_t i = 0; i < options.num_jobs; ++i) {
    s.true_ms.push_back(
        machine->ExecuteOnce(executed[s.job_plan[i]], options.servers));
  }
  return s;
}

uint64_t EventLogHash(const std::vector<uint8_t>& log) {
  return HashBytes64(log.data(), log.size());
}

Simulator::Simulator(const Database* db, const SampleDb* samples,
                     CostUnits units, ServiceOptions service_options)
    : db_(db),
      samples_(samples),
      units_(units),
      service_options_(std::move(service_options)) {}

SimResult Simulator::Run(const ScheduleScenario& scenario,
                         const SimPolicy& policy) {
  // Fresh service per run: every policy starts from the same cold cache
  // and empty feedback state, then lives with the consequences of its own
  // decisions (what it admits is what it later reports observations for).
  PredictionService service(db_, samples_, units_, service_options_);

  AdmissionPolicy admission = policy.admission;
  admission.cost_scale_ms = scenario.cost_scale_ms;

  SimResult result;
  SimMetrics& m = result.metrics;
  std::vector<uint8_t>& log = result.event_log;

  const size_t n = scenario.arrival_ms.size();
  m.arrivals = n;

  // Only the jobs in flight are held: the admitted queue (with each
  // job's as-decided prediction at the same index) and the K slots.
  std::vector<ScheduledJob> queue;
  std::vector<Prediction> queue_pred;
  std::vector<RunningJob> running;
  // Every arrival writes one record and every admitted job a start and a
  // finish, so this never reallocates; pages past the last record are
  // never touched.
  log.reserve(n * (kArrivalBytes + kStartBytes + kFinishBytes));

  size_t next_arrival = 0;
  double now = 0.0;

  while (next_arrival < n || !running.empty()) {
    // Next event: earliest of (next arrival, next completion); ties go to
    // the completion so freed slots are visible to the arriving query's
    // backlog estimate.
    bool take_arrival = false;
    size_t completion = 0;
    if (!running.empty()) completion = NextCompletion(running);
    if (next_arrival < n &&
        (running.empty() ||
         scenario.arrival_ms[next_arrival] < running[completion].finish_ms)) {
      take_arrival = true;
    }

    if (take_arrival) {
      const size_t id = next_arrival++;
      now = scenario.arrival_ms[id];
      ScheduledJob job;
      job.id = id;
      job.arrival_ms = now;
      job.deadline_ms = scenario.deadline_ms[id];
      job.optimizer_cost = scenario.pool_cost[scenario.job_plan[id]];
      auto pred_or = service.Predict(scenario.pool[scenario.job_plan[id]]);
      UQP_CHECK(pred_or.ok()) << "simulated prediction failed";
      Prediction pred = std::move(pred_or).value();
      job.predicted_ms = pred.distribution();

      ++m.admission_checks;
      const double backlog =
          BacklogMs(admission, running, queue, now, scenario.servers);
      const double budget = job.deadline_ms - now - backlog;
      const bool admits = admission.Admits(job, budget);

      Record<kArrivalBytes> rec(kEvArrival);
      rec.U64(id);
      rec.F64(now);
      rec.U8(admits ? 1 : 0);
      rec.F64(job.predicted_ms.mean);
      rec.F64(job.predicted_ms.variance);
      rec.F64(job.deadline_ms);
      rec.AppendTo(&log);

      if (admits) {
        ++m.admitted;
        queue.push_back(job);
        queue_pred.push_back(std::move(pred));
      } else {
        ++m.rejected;
      }
    } else {
      // Completion.
      const RunningJob done = std::move(running[completion]);
      running.erase(running.begin() + ptrdiff_t(completion));
      now = done.finish_ms;
      const size_t id = done.job.id;
      const double true_ms = scenario.true_ms[id];
      const bool met = now <= done.job.deadline_ms;
      ++m.completed;
      m.busy_ms += true_ms;
      if (!met) {
        ++m.violations;
        m.wasted_ms += true_ms;
      }
      if (now > m.makespan_ms) m.makespan_ms = now;
      // Close the loop: the observation lands against the prediction the
      // admission decision was made with.
      service.ReportObservedAgainst(
          scenario.pool_fingerprint[scenario.job_plan[id]], done.as_decided,
          true_ms);

      Record<kFinishBytes> rec(kEvFinish);
      rec.U64(id);
      rec.F64(now);
      rec.U8(met ? 1 : 0);
      rec.AppendTo(&log);
    }

    // Fill freed slots from the queue by the ordering policy.
    while (int(running.size()) < scenario.servers && !queue.empty()) {
      ++m.dispatch_decisions;
      const size_t pick = PickNext(policy.ordering, queue, now);
      RunningJob r;
      r.job = queue[pick];
      r.as_decided = std::move(queue_pred[pick]);
      r.start_ms = now;
      r.finish_ms = now + scenario.true_ms[r.job.id];
      queue.erase(queue.begin() + ptrdiff_t(pick));
      queue_pred.erase(queue_pred.begin() + ptrdiff_t(pick));

      Record<kStartBytes> rec(kEvStart);
      rec.U64(r.job.id);
      rec.F64(now);
      rec.AppendTo(&log);
      running.push_back(std::move(r));
    }
  }

  if (m.admitted > 0) {
    m.violation_rate = double(m.violations) / double(m.admitted);
  }
  if (m.makespan_ms > 0.0) {
    m.goodput_per_s =
        double(m.admitted - m.violations) / (m.makespan_ms / 1000.0);
  }
  result.service_stats = service.stats();
  return result;
}

}  // namespace uqp
