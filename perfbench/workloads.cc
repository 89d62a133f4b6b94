// The three benchmark workloads. Each one builds its inputs from the seed,
// sets up several times (setup_s is the median), measures a closed loop for
// the configured seconds, checks the outputs, and reports either the
// end-to-end metrics (untraced) or the per-layer metrics (traced). The
// traced run repeats the untraced measurement first, so the tracing
// overhead is measured against it in the same process.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <pthread.h>
#include <sched.h>

#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "math/rng.h"
#include "sampling/sample_db.h"
#include "schedule/simulator.h"
#include "service/prediction_service.h"
#include "stats.h"
#include "trace.h"
#include "workload/arrivals.h"
#include "workload/common.h"

namespace perfbench {

using namespace uqp;

namespace {

constexpr const char* kFamilies[] = {"micro", "seljoin", "tpch"};
constexpr double kSamplingRatio = 0.05;
constexpr double kEps = 0.15;                 // distribution policy risk
constexpr int kScenarioWorkloadSize = 28;     // ~74 plans in the pool
constexpr int kGuardWorkloadSize = 8;         // ~30 plans: cheap at 10gb
constexpr uint64_t kScenarioSeed = 1;         // pool, mix, arrivals, deadlines
constexpr size_t kSloJobs = 500000;           // slo_schedule scenario
constexpr size_t kGuardJobs = 200000;         // SLO guard of the other two
constexpr size_t kEngineSubset = 8;           // plans executed on base tables
constexpr size_t kStageProbeSamples = 1000;   // p99 with 10 samples beyond
constexpr size_t kProbeRequests = 50000;      // traced service hits
constexpr size_t kColdWarmup = 100;           // untimed cold requests

double NsToUs(double ns) { return ns / 1e3; }
double NsToMs(double ns) { return ns / 1e6; }

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Durations (ns) of every span called `name`.
std::vector<double> Durations(const Tracer& tr, const char* name) {
  std::vector<double> out;
  for (const Span& s : tr.spans()) {
    if (std::strcmp(s.name, name) == 0) out.push_back(double(s.duration()));
  }
  return out;
}

double MedianMs(const Tracer& tr, const char* name) {
  return NsToMs(Median(Durations(tr, name)));
}

// ------------------------------------------------------------------ set-up

/// The inputs every workload predicts against.
struct Env {
  std::unique_ptr<Database> db;
  CostUnits units;
  std::unique_ptr<SampleDb> samples;
  std::vector<Plan> plans;
  std::vector<int> family;  ///< index into kFamilies, per plan
};

/// A seeded stream of `target` distinct plans (by PlanFingerprint):
/// round-robin over the three generator families, each re-drawn with fresh
/// derived seeds until it stops yielding new plans, then shuffled.
void MakeDistinctPlans(const Database& db, size_t target, uint64_t seed,
                       Env* env) {
  struct Source {
    std::vector<Plan> buf;
    size_t next = 0;
    uint64_t round = 0;
    int dry_rounds = 0;
  };
  Source src[3];
  std::unordered_set<uint64_t> seen;
  auto refill = [&](int f) {
    Source& s = src[f];
    while (s.next >= s.buf.size()) {
      if (s.dry_rounds >= 2) return false;  // the family ignores its seed
      s.buf.clear();
      s.next = 0;
      auto queries = MakeWorkload(db, kFamilies[f],
                                  seed * 1000003ULL + s.round++, 0);
      for (auto& q : queries) {
        auto plan = OptimizePlan(std::move(q.logical), db);
        if (!plan.ok() || !seen.insert(PlanFingerprint(*plan)).second) continue;
        s.buf.push_back(std::move(plan).value());
      }
      s.dry_rounds = s.buf.empty() ? s.dry_rounds + 1 : 0;
    }
    return true;
  };
  while (env->plans.size() < target) {
    bool any = false;
    for (int f = 0; f < 3 && env->plans.size() < target; ++f) {
      if (!refill(f)) continue;
      env->plans.push_back(std::move(src[f].buf[src[f].next++]));
      env->family.push_back(f);
      any = true;
    }
    if (!any) break;
  }
  Rng rng(seed ^ 0x5bd1e995ULL);
  for (size_t i = env->plans.size(); i > 1; --i) {
    const size_t j = rng.NextBelow(i);
    std::swap(env->plans[i - 1], env->plans[j]);
    std::swap(env->family[i - 1], env->family[j]);
  }
}

Env BuildEnv(const std::string& profile, size_t num_plans, uint64_t seed,
             Tracer* tr, int64_t parent) {
  Env env;
  int64_t s = tr->Begin("datagen.build", parent);
  env.db = std::make_unique<Database>(
      MakeTpchDatabase(TpchConfig::Profile(profile)));
  tr->End(s);

  s = tr->Begin("cost.calibrate", parent);
  SimulatedMachine machine(MachineProfile::PC1(), 23);
  Calibrator calibrator(&machine);
  env.units = calibrator.Calibrate();
  tr->End(s);

  s = tr->Begin("sampling.sampledb_build", parent);
  SampleOptions sample_options;
  sample_options.sampling_ratio = kSamplingRatio;
  env.samples =
      std::make_unique<SampleDb>(SampleDb::Build(*env.db, sample_options));
  tr->End(s);

  if (num_plans > 0) {
    s = tr->Begin("workload.plans", parent);
    MakeDistinctPlans(*env.db, num_plans, seed, &env);
    tr->End(s);
  }
  return env;
}

/// Runs `build` `reps` times under a "setup" span each, dropping the
/// previous result first; returns the last one and the median duration.
template <class T>
T RepeatedSetup(int reps, Tracer* tr,
                const std::function<T(Tracer*, int64_t)>& build,
                double* median_s) {
  std::vector<double> secs;
  T last;
  for (int r = 0; r < reps; ++r) {
    last = T();
    const int64_t root = tr->Begin("setup");
    last = build(tr, root);
    tr->End(root);
    secs.push_back(double(tr->spans()[size_t(root)].duration()) / 1e9);
  }
  *median_s = Median(secs);
  return last;
}

// ------------------------------------------------------- shared pieces

/// Stage 1 runs on the requesting thread (num_threads = 1). Fanned out
/// over every CPU, one slow CPU stalls every request: on a shared machine
/// cold_admission throughput then swung by half between runs, against a
/// tenth with one thread per request, at about the same median.
ServiceOptions AdmissionServiceOptions(int workers) {
  ServiceOptions o;
  o.num_workers = workers;
  o.predictor.num_threads = 1;
  o.predictor.max_batch_size = 0;
  return o;
}

ServiceOptions SimServiceOptions(int workers) {
  ServiceOptions o = AdmissionServiceOptions(workers);
  o.feedback.enabled = true;
  return o;
}

SimPolicy DistributionPolicy() {
  SimPolicy p;
  p.admission = {AdmissionPolicyKind::kDistribution, kEps, 1.0};
  p.ordering = {OrderingPolicyKind::kRiskAdjustedSlack, kEps};
  return p;
}

/// The SLO scenario. Its plan pool, mix, arrivals and deadlines come from a
/// fixed scenario seed and its true runtimes from the run seed: a handful
/// of heavy pool plans set the scenario's time scale, so a seeded pool
/// would move goodput by a sixth between seeds and hide quality changes.
ScheduleScenario BuildSloScenario(const Env& env, int workload_size,
                                  size_t jobs, uint64_t seed, Tracer* tr,
                                  int64_t parent) {
  ScenarioOptions o;
  o.workload = "mixed";
  o.workload_size = workload_size;
  o.trace = "poisson";
  o.mix = "zipf";
  o.zipf_z = 1.0;
  o.load = 0.9;
  o.servers = 2;
  o.num_jobs = jobs;
  o.seed = kScenarioSeed;
  SimulatedMachine truth(MachineProfile::PC1(), 1000 + seed);
  const int64_t s = tr->Begin("schedule.build_scenario", parent);
  ScheduleScenario scenario =
      BuildScenario(*env.db, *env.samples, env.units, &truth, o);
  tr->End(s);
  return scenario;
}

/// Virtual response time (finish - arrival, in us) of every completed job,
/// read from the simulator's event log. The record layout is the one
/// schedule/simulator.cc writes; any other byte stream fails the parse.
bool ResponseTimesUs(const ScheduleScenario& s, const std::vector<uint8_t>& log,
                     std::vector<double>* out) {
  constexpr size_t kLen[] = {0, 42, 17, 18};  // by tag: arrival/start/finish
  size_t p = 0;
  while (p < log.size()) {
    const uint8_t tag = log[p];
    if (tag < 1 || tag > 3 || p + kLen[tag] > log.size()) return false;
    if (tag == 3) {
      uint64_t id = 0;
      double t = 0.0;
      std::memcpy(&id, &log[p + 1], 8);
      std::memcpy(&t, &log[p + 9], 8);
      if (id >= s.arrival_ms.size()) return false;
      out->push_back((t - s.arrival_ms[id]) * 1e3);
    }
    p += kLen[tag];
  }
  return true;
}

/// Generator family of every scenario pool plan, found by regenerating the
/// pool's queries the way BuildScenario does and matching fingerprints.
std::vector<int> PoolFamilies(const Database& db, const ScheduleScenario& s) {
  std::unordered_map<uint64_t, int> by_fingerprint;
  for (int f = 0; f < 3; ++f) {
    for (auto& q : MakeWorkload(db, kFamilies[f], kScenarioSeed,
                                kScenarioWorkloadSize)) {
      auto plan = OptimizePlan(std::move(q.logical), db);
      if (plan.ok()) by_fingerprint.emplace(PlanFingerprint(*plan), f);
    }
  }
  std::vector<int> out;
  for (uint64_t fp : s.pool_fingerprint) {
    const auto it = by_fingerprint.find(fp);
    out.push_back(it == by_fingerprint.end() ? -1 : it->second);
  }
  return out;
}

uint64_t FailedOf(const ServiceStats& s) {
  return s.failed + s.deadline_exceeded + s.degraded_served;
}

/// SLO outcome of one scenario replay, with the per-layer schedule numbers.
struct SloReplay {
  SimMetrics metrics;
  ServiceStats stats;
  uint64_t log_hash = 0;
  std::vector<double> response_us;
};

SloReplay Replay(Simulator* sim, const ScheduleScenario& scenario,
                 Tracer* tr, const char* span_name, bool keep_responses,
                 RunResult* res) {
  const int64_t s = tr->Begin(span_name);
  SimResult r = sim->Run(scenario, DistributionPolicy());
  tr->End(s);
  SloReplay out;
  out.metrics = r.metrics;
  out.stats = r.service_stats;
  out.log_hash = EventLogHash(r.event_log);
  res->Check(r.metrics.admitted + r.metrics.rejected == r.metrics.arrivals,
             "slo: admitted + rejected != arrivals");
  res->Check(r.metrics.completed == r.metrics.admitted,
             "slo: completed != admitted");
  res->Check(FailedOf(r.service_stats) == 0, "slo: service requests failed");
  if (keep_responses) {
    res->Check(ResponseTimesUs(scenario, r.event_log, &out.response_us) &&
                   out.response_us.size() == r.metrics.completed,
               "slo: event log did not parse into one finish per job");
  }
  return out;
}

void AddSloMetrics(const SimMetrics& m, RunResult* res) {
  res->Add("slo_violation_rate", m.violation_rate, "ratio");
  res->Add("slo_goodput_per_s", m.goodput_per_s, "1/s");
}

/// The schedule-layer numbers of one traced replay set.
void AddScheduleLayer(const Tracer& tr, const char* run_span,
                      const SimMetrics& m, RunResult* res) {
  const double run_ns = Median(Durations(tr, run_span));
  const double decisions = double(m.admission_checks + m.dispatch_decisions);
  res->Add("schedule.run_ms", NsToMs(run_ns), "ms");
  res->Add("schedule.decisions", decisions, "count");
  res->Add("schedule.ns_per_decision", Ratio(run_ns, decisions), "ns");
  res->Add("schedule.build_scenario_ms",
           MedianMs(tr, "schedule.build_scenario"), "ms");
}

/// Prediction-quality guard of the admission workloads: one replay of a
/// 200k-job SLO scenario with a smaller pool, built on the workload's own
/// database.
/// Untimed; it supplies the slo_* metrics and the schedule-layer numbers.
SloReplay RunSloGuard(const Env& env, uint64_t seed, Tracer* tr,
                      RunResult* res) {
  const ScheduleScenario scenario =
      BuildSloScenario(env, kGuardWorkloadSize, kGuardJobs, seed, tr, -1);
  Simulator sim(env.db.get(), env.samples.get(), env.units,
                SimServiceOptions(3));
  return Replay(&sim, scenario, tr, "schedule.run", false, res);
}

/// Rows through the operators of one stage-1 run (inputs of each operator).
double SampleRows(const PlanEstimates& e) {
  double rows = 0.0;
  for (const OpStats& op : e.sample_ops) rows += op.left_rows + op.right_rows;
  return rows;
}

/// Runs the three stages of `pipeline` on `plan`, one span each under
/// `parent`. Returns the stage-1 row count, or -1 on a stage failure.
double TraceStages(const PredictionPipeline& pipeline, const Plan& plan,
                   int family, Tracer* tr, int64_t parent, int64_t request) {
  static const char* kRunSpan[] = {"sampling.run.micro", "sampling.run.seljoin",
                                   "sampling.run.tpch"};
  int64_t s = tr->Begin(kRunSpan[family], parent, request);
  auto run = pipeline.sample_run_stage().Run(SampleRunInput{&plan, nullptr});
  tr->End(s);
  if (!run.ok()) return -1.0;
  s = tr->Begin("costfunc.fit", parent, request);
  auto fit = pipeline.cost_fit_stage().Run(CostFitInput{&plan, &*run});
  tr->End(s);
  if (!fit.ok()) return -1.0;
  const CostUnits units = pipeline.units();
  s = tr->Begin("core.combine", parent, request);
  const VarianceCombineOutput out = pipeline.variance_combine_stage().Run(
      VarianceCombineInput{&*run, &*fit, &units, pipeline.options().variant,
                           pipeline.options().bound});
  tr->End(s);
  if (!std::isfinite(out.breakdown.mean)) return -1.0;
  return SampleRows(run->estimates);
}

/// Stage-1 durations of every family together, and per family.
std::vector<double> StageRunNs(const Tracer& tr, int family) {
  std::vector<double> out;
  for (int f = 0; f < 3; ++f) {
    if (family >= 0 && f != family) continue;
    const std::string name = std::string("sampling.run.") + kFamilies[f];
    for (double d : Durations(tr, name.c_str())) out.push_back(d);
  }
  return out;
}

/// Stage metrics (sampling, costfunc, core timings) from the stage spans in
/// `tr`; `rows` is the summed stage-1 row count over the same runs.
void AddStageLayer(const Tracer& tr, double rows, RunResult* res) {
  std::vector<double> all = StageRunNs(tr, -1);
  double total_ns = 0.0;
  for (double d : all) total_ns += d;
  res->Check(TailIsSupported(all.size(), 0.99),
             "trace: too few stage-1 runs for sampling.run_us_p99");
  res->Add("engine.sample_rows", Ratio(rows, double(all.size())), "count");
  res->Add("sampling.run_us_p50", NsToUs(Percentile(&all, 0.5)), "us");
  res->Add("sampling.run_us_p99", NsToUs(Percentile(&all, 0.99)), "us");
  for (int f = 0; f < 3; ++f) {
    res->Add(std::string("sampling.run_us.") + kFamilies[f],
             NsToUs(Median(StageRunNs(tr, f))), "us");
  }
  res->Add("sampling.ns_per_row", Ratio(total_ns, rows), "ns");
  res->Add("costfunc.fit_us_p50", NsToUs(Median(Durations(tr, "costfunc.fit"))),
           "us");
  res->Add("core.combine_us_p50", NsToUs(Median(Durations(tr, "core.combine"))),
           "us");
}

/// Passes over `plans` through the stages until kStageProbeSamples stage-1
/// runs are recorded. For workloads whose timed requests run no stages.
double ProbeStages(const PredictionPipeline& pipeline,
                   const std::vector<Plan>& plans,
                   const std::vector<int>& family, Tracer* tr,
                   RunResult* res) {
  double rows = 0.0;
  for (size_t k = 0; k < kStageProbeSamples || k % plans.size() != 0; ++k) {
    const size_t i = k % plans.size();
    const double r =
        TraceStages(pipeline, plans[i], family[i], tr, -1, int64_t(k));
    res->Check(r >= 0.0, "trace: stage probe failed");
    rows += std::max(r, 0.0);
  }
  return rows;
}

/// engine.exec_ms_p50 and the Fig 9 overhead ratio on the first
/// kEngineSubset plans: Executor::Execute on base tables against a
/// single-threaded stage-1 run, both sequential so the ratio's base is one
/// thread's execution time.
void AddEngineLayer(const Env& env, const std::vector<Plan>& plans,
                    Tracer* tr, RunResult* res) {
  PredictorOptions st;
  st.num_threads = 1;
  st.max_batch_size = 0;
  const PredictionPipeline sequential(env.db.get(), env.samples.get(),
                                      env.units, st);
  const Executor executor(env.db.get());
  double exec_ns = 0.0, sample_ns = 0.0;
  const size_t n = std::min(kEngineSubset, plans.size());
  for (size_t k = 0; k < n; ++k) {
    const size_t i = k * plans.size() / n;  // evenly spread over the list
    int64_t s = tr->Begin("engine.execute", -1, int64_t(i));
    auto full = executor.Execute(plans[i], ExecOptions{});
    tr->End(s);
    exec_ns += double(tr->spans()[size_t(s)].duration());
    res->Check(full.ok(), "engine: base-table execution failed");
    s = tr->Begin("sampling.run_sequential", -1, int64_t(i));
    auto run =
        sequential.sample_run_stage().Run(SampleRunInput{&plans[i], nullptr});
    tr->End(s);
    sample_ns += double(tr->spans()[size_t(s)].duration());
    res->Check(run.ok(), "engine: sequential stage-1 run failed");
  }
  res->Add("engine.exec_ms_p50", MedianMs(*tr, "engine.execute"), "ms");
  res->Add("engine.overhead_ratio", Ratio(sample_ns, exec_ns), "ratio");
}

void AddSetupLayer(const Tracer& tr, RunResult* res) {
  res->Add("datagen.build_ms", MedianMs(tr, "datagen.build"), "ms");
  res->Add("cost.calibrate_ms", MedianMs(tr, "cost.calibrate"), "ms");
  res->Add("sampling.sampledb_build_ms",
           MedianMs(tr, "sampling.sampledb_build"), "ms");
  res->Add("workload.plans_ms", MedianMs(tr, "workload.plans"), "ms");
}

/// Service counters over one measured phase.
void AddServiceCounters(const ServiceStats& d, RunResult* res) {
  res->Add("service.hit_ratio",
           Ratio(double(d.cache_hits), double(d.predictions)), "ratio");
  res->Add("service.lockfree_ratio",
           Ratio(double(d.lockfree_hits), double(d.cache_hits)), "ratio");
  res->Add("service.sample_runs", double(d.sample_runs), "count");
  res->Add("service.inflight_joins", double(d.inflight_joins), "count");
  res->Add("service.failed", double(FailedOf(d)), "count");
  res->Add("service.feedback_reports", double(d.feedback_reports), "count");
  res->Add("service.recalibrations", double(d.recalibrations), "count");
}

ServiceStats Delta(const ServiceStats& a, const ServiceStats& b) {
  ServiceStats d;
  d.predictions = b.predictions - a.predictions;
  d.sample_runs = b.sample_runs - a.sample_runs;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.lockfree_hits = b.lockfree_hits - a.lockfree_hits;
  d.inflight_joins = b.inflight_joins - a.inflight_joins;
  d.failed = b.failed - a.failed;
  d.deadline_exceeded = b.deadline_exceeded - a.deadline_exceeded;
  d.degraded_served = b.degraded_served - a.degraded_served;
  d.feedback_reports = b.feedback_reports - a.feedback_reports;
  d.recalibrations = b.recalibrations - a.recalibrations;
  return d;
}

/// Writes latency samples as "<value_us> <count>" lines (see
/// RunConfig::samples_out).
void WriteSamples(const std::string& path,
                  const std::vector<std::pair<double, uint64_t>>& samples,
                  RunResult* res) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  for (size_t i = 0; ok && i < samples.size(); ++i) {
    ok = std::fprintf(f, "%.17g %llu\n", samples[i].first,
                      static_cast<unsigned long long>(samples[i].second)) > 0;
  }
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  res->Check(ok, "could not write the latency samples to " + path);
}

void AddLatency(const RunConfig& cfg, std::vector<double>* lat_us,
                RunResult* res) {
  // With samples_out set the caller pools the samples and checks the tail.
  res->Check(!cfg.samples_out.empty() || TailIsSupported(lat_us->size(), 0.99),
             "too few requests for latency_p99_us");
  res->Add("latency_p50_us", Percentile(lat_us, 0.5), "us");
  res->Add("latency_p99_us", Percentile(lat_us, 0.99), "us");
  std::vector<std::pair<double, uint64_t>> samples;
  for (double v : *lat_us) samples.emplace_back(v, 1);
  WriteSamples(cfg.samples_out, samples, res);
}

}  // namespace

// ========================================================= cold_admission

RunResult RunColdAdmission(const RunConfig& cfg) {
  RunResult res;
  Tracer tr;
  struct Setup {
    Env env;
    std::unique_ptr<PredictionService> service;
  };
  double setup_s = 0.0;
  Setup setup = RepeatedSetup<Setup>(
      1, &tr,
      [&](Tracer* t, int64_t root) {
        Setup s;
        s.env = BuildEnv("10gb", 5000, cfg.seed, t, root);
        s.service = std::make_unique<PredictionService>(
            s.env.db.get(), s.env.samples.get(), s.env.units,
            AdmissionServiceOptions(3));
        return s;
      },
      &setup_s);
  const Env& env = setup.env;
  PredictionService& svc = *setup.service;
  const std::vector<Plan>& plans = env.plans;
  res.Check(plans.size() > 256, "cold: fewer distinct plans than the cache");

  // Timed closed loop: one client, one synchronous Predict per plan. Each
  // process of a run starts the stream at its own seeded offset, so the
  // parts together cover more of it.
  const size_t start = Rng(cfg.seed * 131 + uint64_t(cfg.part) + 1)
                           .NextBelow(plans.size());
  auto plan_of = [&](size_t request) -> const Plan& {
    return plans[(start + request) % plans.size()];
  };
  // Untimed warm-up on the plans just before the timed stretch, so the
  // process's first requests (page faults, cold allocator) are not timed.
  for (size_t k = kColdWarmup; k > 0; --k) {
    res.Check(svc.Predict(plan_of(plans.size() - k)).ok(),
              "cold: warm-up prediction failed");
  }
  std::vector<double> lat_us, means, variances;
  const ServiceStats before = svc.stats();
  const uint64_t combines_before = svc.pipeline().combine_count();
  const int64_t begin = NowNs();
  const int64_t deadline = begin + int64_t(cfg.seconds * 1e9);
  int64_t end = begin;
  size_t requests = 0;
  while (end < deadline) {
    const int64_t a = NowNs();
    auto r = svc.Predict(plan_of(requests));
    end = NowNs();
    lat_us.push_back(NsToUs(double(end - a)));
    means.push_back(r.ok() ? r->breakdown.mean : std::nan(""));
    variances.push_back(r.ok() ? r->breakdown.variance : std::nan(""));
    ++requests;
  }
  const ServiceStats timed = Delta(before, svc.stats());
  const uint64_t combines = svc.pipeline().combine_count() - combines_before;
  res.attempted = timed.predictions;
  res.failed = FailedOf(timed);
  res.Check(timed.predictions == requests, "cold: predictions != requests");
  res.Check(timed.sample_runs == requests, "cold: sample_runs != requests");

  // Bit-identity of the service's cached, deduplicated path against a
  // standalone single-threaded pipeline, on a seeded subset.
  {
    const PredictionPipeline reference(env.db.get(), env.samples.get(),
                                       env.units, svc.pipeline().options());
    Rng pick(cfg.seed * 7 + 3);
    const size_t first_pass = std::min(requests, plans.size());
    for (int k = 0; k < 32; ++k) {
      const size_t i = pick.NextBelow(first_pass);
      auto ref = reference.Predict(plan_of(i));
      res.Check(ref.ok() && Bits(ref->breakdown.mean) == Bits(means[i]) &&
                    Bits(ref->breakdown.variance) == Bits(variances[i]),
                "cold: service prediction differs from the single-threaded "
                "pipeline");
    }
  }

  const double untraced_p50 = Median(lat_us);
  if (!cfg.trace) {
    const double peak_rss_mb = PeakRssMb();  // before the untimed guard
    AddLatency(cfg, &lat_us, &res);
    res.Add("throughput_ops_s", double(requests) / (double(end - begin) / 1e9),
            "1/s");
    if (cfg.part == 0) {
      AddSloMetrics(RunSloGuard(env, cfg.seed, &tr, &res).metrics, &res);
    }
    res.Add("setup_s", setup_s, "s");
    res.Add("peak_rss_mb", peak_rss_mb, "MB");
    return res;
  }

  // Traced phase: the stream continues with plans the cache no longer
  // holds. Each request runs the service call and the same plan's three
  // stage calls (the service's own stage objects), alternating which goes
  // first so neither always finds the other's data in the CPU caches.
  std::vector<double> predict_ns, self_ns;
  double rows = 0.0;
  const int64_t traced_deadline = NowNs() + int64_t(cfg.seconds * 1e9);
  for (size_t j = 0; j < kStageProbeSamples || NowNs() < traced_deadline;
       ++j) {
    const size_t i = (start + requests + j) % plans.size();
    const int64_t req = int64_t(j);
    const int64_t root = tr.Begin("bench.request", -1, req);
    auto run_predict = [&] {
      const int64_t s = tr.Begin("service.predict", root, req);
      auto r = svc.Predict(plans[i]);
      tr.End(s);
      res.Check(r.ok(), "cold: traced prediction failed");
    };
    if (j % 2 == 0) run_predict();
    const double r = TraceStages(svc.pipeline(), plans[i], env.family[i], &tr,
                                 root, req);
    res.Check(r >= 0.0, "cold: traced stage call failed");
    rows += std::max(r, 0.0);
    if (j % 2 == 1) run_predict();
    tr.End(root);
    // service self time: the request minus the stage work it contains,
    // measured on the same plan by the root's other children.
    double p = 0.0, stage_ns = 0.0;
    for (size_t k = size_t(root) + 1; k < tr.spans().size(); ++k) {
      const Span& c = tr.spans()[k];
      (std::strcmp(c.name, "service.predict") == 0 ? p : stage_ns) +=
          double(c.duration());
    }
    predict_ns.push_back(p);
    self_ns.push_back(p - stage_ns);
  }

  AddEngineLayer(env, plans, &tr, &res);
  AddStageLayer(tr, rows, &res);
  res.Add("core.combines", double(combines), "count");
  res.Add("service.self_us_p50", NsToUs(Median(self_ns)), "us");
  AddServiceCounters(timed, &res);
  const SloReplay guard = RunSloGuard(env, cfg.seed, &tr, &res);
  AddScheduleLayer(tr, "schedule.run", guard.metrics, &res);
  AddSetupLayer(tr, &res);
  res.Add("trace.overhead_pct",
          PercentOver(NsToUs(Median(predict_ns)), untraced_p50), "%");
  if (!cfg.trace_out.empty()) tr.WriteJsonLines(cfg.trace_out);
  return res;
}

// ========================================================== hot_recurring

namespace {

constexpr size_t kHotPlans = 200;
constexpr int kHotClients = 2;
constexpr size_t kHotStream = size_t(1) << 22;  // requests per client stream
constexpr size_t kHotSegment = size_t(1) << 16;  // requests per permutation

struct HotClient {
  LatencyHistogram latency;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  int64_t last_ns = 0;
  Tracer tracer;
};

/// One closed-loop client: PredictAsync(...).get() over its zipf index
/// stream until `stop` (or `cap` requests when non-zero), checking every
/// result bit-equal to the warm-up prediction of the same plan.
void HotClientLoop(PredictionService* svc, const std::vector<Plan>& plans,
                   const std::vector<uint16_t>& stream,
                   const std::vector<std::pair<uint64_t, uint64_t>>& warm,
                   const std::atomic<bool>& go, const std::atomic<bool>& stop,
                   size_t cap, bool traced, HotClient* out) {
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    if (cap != 0 && k >= cap) break;
    const size_t p = stream[k % stream.size()];
    const int64_t a = NowNs();
    auto r = svc->PredictAsync(plans[p]).get();
    const int64_t b = NowNs();
    out->latency.Add(b - a);
    out->last_ns = b;
    if (traced) {
      out->tracer.Record(Span{"service.request", a, b, -1, int64_t(k)});
    }
    if (!r.ok()) {
      ++out->errors;
    } else if (Bits(r->breakdown.mean) != warm[p].first ||
               Bits(r->breakdown.variance) != warm[p].second) {
      ++out->mismatches;
    }
  }
}

/// Pins each client to its own CPU of the allowed set. Left to the
/// scheduler, the two clients sometimes share one CPU for a whole run and
/// stop contending for the service's shared cache lines, which moves
/// latency by a third between otherwise identical runs.
void PinClients(std::vector<std::thread>* threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < threads->size()) return;
  for (size_t i = 0; i < threads->size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    pthread_setaffinity_np((*threads)[i].native_handle(), sizeof one, &one);
  }
}

struct HotPhase {
  LatencyHistogram latency;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  double elapsed_s = 0.0;
  Tracer tracer;
};

HotPhase RunHotPhase(PredictionService* svc, const std::vector<Plan>& plans,
                     const std::vector<std::vector<uint16_t>>& streams,
                     const std::vector<std::pair<uint64_t, uint64_t>>& warm,
                     double seconds, size_t cap, bool traced) {
  std::atomic<bool> go{false}, stop{false};
  std::vector<HotClient> clients(kHotClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kHotClients; ++c) {
    threads.emplace_back(HotClientLoop, svc, std::cref(plans),
                         std::cref(streams[size_t(c)]), std::cref(warm),
                         std::cref(go), std::cref(stop), cap, traced,
                         &clients[size_t(c)]);
  }
  PinClients(&threads);
  const int64_t begin = NowNs();
  go.store(true, std::memory_order_release);
  if (cap == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : threads) t.join();
  HotPhase out;
  int64_t last = begin;
  for (HotClient& c : clients) {
    out.latency.Merge(c.latency);
    out.mismatches += c.mismatches;
    out.errors += c.errors;
    last = std::max(last, c.last_ns);
    out.tracer.Append(std::move(c.tracer));
  }
  out.elapsed_s = double(last - begin) / 1e9;
  return out;
}

}  // namespace

RunResult RunHotRecurring(const RunConfig& cfg) {
  RunResult res;
  Tracer tr;
  struct Setup {
    Env env;
    std::unique_ptr<PredictionService> service;
    std::vector<std::pair<uint64_t, uint64_t>> warm;  ///< (mean, var) bits
  };
  double setup_s = 0.0;
  Setup setup = RepeatedSetup<Setup>(
      2, &tr,
      [&](Tracer* t, int64_t root) {
        Setup s;
        s.env = BuildEnv("1gb", kHotPlans, cfg.seed, t, root);
        // Capacity well above the pool: the cache is sharded and enforces
        // ceil(capacity / shards) per shard, so 256 could evict a plan on
        // an unlucky fingerprint spread.
        ServiceOptions o = AdmissionServiceOptions(2);
        o.cache_capacity = 512;
        s.service = std::make_unique<PredictionService>(
            s.env.db.get(), s.env.samples.get(), s.env.units, o);
        const int64_t w = t->Begin("service.warmup", root);
        for (const Plan& plan : s.env.plans) {
          auto r = s.service->PredictAsync(plan).get();
          s.warm.emplace_back(r.ok() ? Bits(r->breakdown.mean) : 0,
                              r.ok() ? Bits(r->breakdown.variance) : 0);
        }
        t->End(w);
        return s;
      },
      &setup_s);
  const Env& env = setup.env;
  PredictionService& svc = *setup.service;
  res.Check(env.plans.size() == kHotPlans, "hot: plan pool is short");
  res.Check(svc.cache_size() == env.plans.size(),
            "hot: warm-up did not cache every plan");

  // zipf(1.0) ranks, mapped to plans through a fresh seeded permutation
  // every kHotSegment requests: popularity stays skewed at any moment, and
  // the run's cost averages over the whole pool instead of hinging on which
  // few plans one permutation made hot.
  std::vector<std::vector<uint16_t>> streams;
  for (int c = 0; c < kHotClients; ++c) {
    const uint64_t seed = cfg.seed * 31 + uint64_t(c);
    const std::vector<size_t> ranks = MakePlanIndices(
        "zipf", env.plans.size(), kHotStream, 1.0, seed);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<uint16_t> perm(env.plans.size()), stream(ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
      if (i % kHotSegment == 0) {
        for (size_t k = 0; k < perm.size(); ++k) perm[k] = uint16_t(k);
        for (size_t k = perm.size(); k > 1; --k) {
          std::swap(perm[k - 1], perm[rng.NextBelow(k)]);
        }
      }
      stream[i] = perm[ranks[i]];
    }
    streams.push_back(std::move(stream));
  }
  // Untimed loop so branch predictors, slots and allocator are warm too.
  RunHotPhase(&svc, env.plans, streams, setup.warm, 0.0, 100000, false);

  const ServiceStats before = svc.stats();
  const uint64_t combines_before = svc.pipeline().combine_count();
  HotPhase timed =
      RunHotPhase(&svc, env.plans, streams, setup.warm, cfg.seconds, 0, false);
  const ServiceStats delta = Delta(before, svc.stats());
  const uint64_t combines = svc.pipeline().combine_count() - combines_before;
  res.attempted = delta.predictions;
  res.failed = FailedOf(delta);
  res.Check(delta.predictions == timed.latency.count(),
            "hot: predictions != requests");
  res.Check(delta.sample_runs == 0, "hot: sample_runs changed while timing");
  res.Check(timed.mismatches == 0 && timed.errors == 0,
            "hot: a timed prediction differs from its warm-up prediction");

  const double untraced_p50 = NsToUs(timed.latency.PercentileNs(0.5));
  if (!cfg.trace) {
    res.Check(!cfg.samples_out.empty() ||
                  TailIsSupported(timed.latency.count(), 0.99),
              "too few requests for latency_p99_us");
    res.Add("latency_p50_us", untraced_p50, "us");
    res.Add("latency_p99_us", NsToUs(timed.latency.PercentileNs(0.99)), "us");
    std::vector<std::pair<double, uint64_t>> samples;
    timed.latency.ForEach(
        [&](double ns, uint64_t n) { samples.emplace_back(NsToUs(ns), n); });
    WriteSamples(cfg.samples_out, samples, &res);
    res.Add("throughput_ops_s", double(timed.latency.count()) / timed.elapsed_s,
            "1/s");
    const double peak_rss_mb = PeakRssMb();  // before the untimed guard
    if (cfg.part == 0) {
      AddSloMetrics(RunSloGuard(env, cfg.seed, &tr, &res).metrics, &res);
    }
    res.Add("setup_s", setup_s, "s");
    res.Add("peak_rss_mb", peak_rss_mb, "MB");
    return res;
  }

  HotPhase traced = RunHotPhase(&svc, env.plans, streams, setup.warm, 0.0,
                                kProbeRequests / kHotClients, true);
  res.Check(traced.mismatches == 0 && traced.errors == 0,
            "hot: a traced prediction differs from its warm-up prediction");
  tr.Append(std::move(traced.tracer));
  // A hit request has no child spans: its self time is all service.
  std::vector<double> self_ns;
  for (const Span& s : tr.spans()) {
    if (std::strcmp(s.name, "service.request") == 0) {
      self_ns.push_back(double(SelfTimeNs(s, {})));
    }
  }
  AddEngineLayer(env, env.plans, &tr, &res);
  AddStageLayer(
      tr, ProbeStages(svc.pipeline(), env.plans, env.family, &tr, &res), &res);
  res.Add("core.combines", double(combines), "count");
  res.Add("service.self_us_p50", NsToUs(Median(self_ns)), "us");
  AddServiceCounters(delta, &res);
  const SloReplay guard = RunSloGuard(env, cfg.seed, &tr, &res);
  AddScheduleLayer(tr, "schedule.run", guard.metrics, &res);
  AddSetupLayer(tr, &res);
  res.Add("trace.overhead_pct",
          PercentOver(NsToUs(Median(self_ns)), untraced_p50), "%");
  if (!cfg.trace_out.empty()) tr.WriteJsonLines(cfg.trace_out);
  return res;
}

// =========================================================== slo_schedule

RunResult RunSloSchedule(const RunConfig& cfg) {
  RunResult res;
  Tracer tr;
  struct Setup {
    Env env;
    ScheduleScenario scenario;
  };
  double setup_s = 0.0;
  Setup setup = RepeatedSetup<Setup>(
      1, &tr,
      [&](Tracer* t, int64_t root) {
        Setup s;
        s.env = BuildEnv("1gb", 0, cfg.seed, t, root);
        s.scenario = BuildSloScenario(s.env, kScenarioWorkloadSize, kSloJobs,
                                      cfg.seed, t, root);
        return s;
      },
      &setup_s);
  const Env& env = setup.env;
  const ScheduleScenario& scenario = setup.scenario;

  // Timed: replay the scenario until the time is up (at least three).
  Simulator sim(env.db.get(), env.samples.get(), env.units,
                SimServiceOptions(3));
  std::vector<SloReplay> replays;
  const int64_t deadline = NowNs() + int64_t(cfg.seconds * 1e9);
  while (replays.size() < 3 || NowNs() < deadline) {
    replays.push_back(Replay(&sim, scenario, &tr, "schedule.replay",
                             replays.empty(), &res));
  }
  std::vector<double> jobs_per_s;
  for (double ns : Durations(tr, "schedule.replay")) {
    jobs_per_s.push_back(double(scenario.arrival_ms.size()) / (ns / 1e9));
  }
  for (const SloReplay& r : replays) {
    res.attempted += r.stats.predictions;
    res.failed += FailedOf(r.stats);
    res.Check(r.log_hash == replays[0].log_hash,
              "slo: event log differs between replays");
  }
  // The decision trace must not depend on the service's thread count.
  if (cfg.part == 0) {
    Simulator single(env.db.get(), env.samples.get(), env.units,
                     SimServiceOptions(1));
    const SloReplay one =
        Replay(&single, scenario, &tr, "schedule.replay_1worker", false, &res);
    res.Check(one.log_hash == replays[0].log_hash,
              "slo: event log differs between 1 and 3 service workers");
  }

  const SloReplay& first = replays[0];
  if (!cfg.trace) {
    std::vector<double> response_us = first.response_us;
    AddLatency(cfg, &response_us, &res);
    res.Add("throughput_ops_s", Median(jobs_per_s), "1/s");
    AddSloMetrics(first.metrics, &res);
    res.Add("setup_s", setup_s, "s");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
    return res;
  }

  // Traced: three replays under a span each, then probes of the layers the
  // simulator calls internally, on the scenario's own plan pool.
  for (int k = 0; k < 3; ++k) {
    Replay(&sim, scenario, &tr, "schedule.run", false, &res);
  }
  PredictionService probe(env.db.get(), env.samples.get(), env.units,
                          SimServiceOptions(3));
  for (const Plan& plan : scenario.pool) {
    res.Check(probe.Predict(plan).ok(), "slo: probe warm-up failed");
  }
  // Single-threaded sync hits in arrival order, as the simulator issues them.
  const uint64_t combines_before = probe.pipeline().combine_count();
  std::vector<double> self_ns;
  for (size_t i = 0;
       i < std::min<size_t>(kProbeRequests, scenario.job_plan.size()); ++i) {
    const int64_t s = tr.Begin("service.request", -1, int64_t(i));
    res.Check(probe.Predict(scenario.pool[scenario.job_plan[i]]).ok(),
              "slo: probe request failed");
    tr.End(s);
    self_ns.push_back(double(tr.spans()[size_t(s)].duration()));
  }
  const uint64_t combines = probe.pipeline().combine_count() - combines_before;

  AddEngineLayer(env, scenario.pool, &tr, &res);
  const int64_t g = tr.Begin("workload.plans");
  const std::vector<int> family = PoolFamilies(*env.db, scenario);
  tr.End(g);
  res.Check(std::count(family.begin(), family.end(), -1) == 0,
            "slo: a pool plan matches no generator family");
  AddStageLayer(
      tr, ProbeStages(probe.pipeline(), scenario.pool, family, &tr, &res),
      &res);
  res.Add("core.combines", double(combines), "count");
  res.Add("service.self_us_p50", NsToUs(Median(self_ns)), "us");
  AddServiceCounters(first.stats, &res);
  AddScheduleLayer(tr, "schedule.run", first.metrics, &res);
  AddSetupLayer(tr, &res);
  res.Add("trace.overhead_pct",
          PercentOver(Median(Durations(tr, "schedule.run")),
                      Median(Durations(tr, "schedule.replay"))),
          "%");
  if (!cfg.trace_out.empty()) tr.WriteJsonLines(cfg.trace_out);
  return res;
}

}  // namespace perfbench
