#include "exp/harness.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sampling/estimator.h"

namespace uqp {

namespace {

/// Actual running time of a query: the average of 5 runs (the paper's
/// protocol).
constexpr int kRunsPerQuery = 5;

}  // namespace

std::vector<QueryOutcome> EvaluationResult::outcomes() const {
  std::vector<QueryOutcome> out;
  out.reserve(records.size());
  for (const QueryRecord& r : records) out.push_back(r.outcome);
  return out;
}

ExperimentHarness::ExperimentHarness(HarnessOptions options)
    : options_(std::move(options)) {
  TpchConfig config = TpchConfig::Profile(options_.profile, options_.zipf,
                                          options_.seed);
  db_ = MakeTpchDatabase(config);
}

std::string ExperimentHarness::db_label() const {
  return (options_.zipf > 0.0 ? std::string("skewed-") : std::string("uniform-")) +
         options_.profile;
}

std::vector<ExperimentHarness::Setting> ExperimentHarness::PaperSettings() {
  return {{"uniform-1gb", "1gb", 0.0},
          {"skewed-1gb", "1gb", 1.0},
          {"uniform-10gb", "10gb", 0.0},
          {"skewed-10gb", "10gb", 1.0}};
}

Status ExperimentHarness::LoadWorkload(const std::string& kind, int size_hint) {
  if (workloads_.count(kind) > 0) return Status::OK();
  std::vector<WorkloadQuery> queries =
      MakeWorkload(db_, kind, options_.seed * 31 + 17, size_hint);
  std::vector<PreparedQuery> prepared;
  prepared.reserve(queries.size());
  Executor executor(&db_);
  for (WorkloadQuery& q : queries) {
    UQP_ASSIGN_OR_RETURN(Plan plan,
                         OptimizePlan(std::move(q.logical), db_));
    UQP_ASSIGN_OR_RETURN(ExecResult full, executor.Execute(plan, ExecOptions()));
    PreparedQuery pq;
    pq.name = std::move(q.name);
    pq.plan = std::move(plan);
    pq.full = std::move(full);
    prepared.push_back(std::move(pq));
  }
  workloads_.emplace(kind, std::move(prepared));
  return Status::OK();
}

double ExperimentHarness::BufferHitRateFor(const std::string& machine) const {
  const bool big_db = options_.profile == "10gb";
  if (machine == "PC1") return big_db ? 0.12 : 0.35;
  return big_db ? 0.30 : 0.60;  // PC2: 4x the memory
}

ExperimentHarness::MachineState& ExperimentHarness::MachineFor(
    const std::string& name) {
  auto it = machines_.find(name);
  if (it != machines_.end()) return it->second;
  UQP_CHECK(name == "PC1" || name == "PC2") << "unknown machine " << name;
  MachineProfile profile =
      name == "PC1" ? MachineProfile::PC1() : MachineProfile::PC2();
  profile.buffer_hit_rate = BufferHitRateFor(name);
  uint64_t seed = options_.seed * 1000003 + (name == "PC1" ? 1 : 2);
  MachineState state;
  state.machine = std::make_unique<SimulatedMachine>(profile, seed);
  Calibrator calibrator(state.machine.get());
  state.units = calibrator.Calibrate();
  auto [pos, _] = machines_.emplace(name, std::move(state));
  return pos->second;
}

const CostUnits& ExperimentHarness::UnitsFor(const std::string& machine) {
  return MachineFor(machine).units;
}

StatusOr<ExperimentHarness::SrState*> ExperimentHarness::SrFor(double ratio) {
  auto it = srs_.find(ratio);
  if (it != srs_.end()) return &it->second;
  SampleOptions sample_options;
  sample_options.sampling_ratio = ratio;
  sample_options.seed = options_.seed * 7919 + static_cast<uint64_t>(ratio * 1e6);
  SrState state;
  state.samples = std::make_unique<SampleDb>(SampleDb::Build(db_, sample_options));
  auto [pos, _] = srs_.emplace(ratio, std::move(state));
  return &pos->second;
}

Status ExperimentHarness::EnsureArtifacts(SrState* sr,
                                          const std::string& workload) {
  if (sr->artifacts.count(workload) > 0) return Status::OK();
  const auto& prepared = workloads_.at(workload);
  SamplingEstimator estimator(&db_, sr->samples.get());
  CostFunctionFitter fitter(&db_);
  std::vector<QueryArtifacts> artifacts;
  artifacts.reserve(prepared.size());
  for (const PreparedQuery& pq : prepared) {
    QueryArtifacts qa;
    UQP_ASSIGN_OR_RETURN(qa.estimates, estimator.Estimate(pq.plan));
    UQP_ASSIGN_OR_RETURN(qa.cost_functions,
                         fitter.FitPlan(pq.plan, qa.estimates));
    artifacts.push_back(std::move(qa));
  }
  sr->artifacts.emplace(workload, std::move(artifacts));
  return Status::OK();
}

const std::vector<double>& ExperimentHarness::ActualTimesFor(
    MachineState* ms, const std::string& workload) {
  auto it = ms->actual_times.find(workload);
  if (it != ms->actual_times.end()) return it->second;
  const auto& prepared = workloads_.at(workload);
  std::vector<double> times;
  times.reserve(prepared.size());
  for (const PreparedQuery& pq : prepared) {
    times.push_back(ms->machine->ExecuteAveraged(pq.full, kRunsPerQuery));
  }
  auto [pos, _] = ms->actual_times.emplace(workload, std::move(times));
  return pos->second;
}

StatusOr<EvaluationResult> ExperimentHarness::Evaluate(
    const std::string& workload, const std::string& machine,
    double sampling_ratio, PredictorVariant variant, CovarianceBoundKind bound) {
  UQP_RETURN_IF_ERROR(LoadWorkload(workload));
  MachineState& ms = MachineFor(machine);
  UQP_ASSIGN_OR_RETURN(SrState * sr, SrFor(sampling_ratio));
  UQP_RETURN_IF_ERROR(EnsureArtifacts(sr, workload));

  const auto& prepared = workloads_.at(workload);
  const auto& artifacts = sr->artifacts.at(workload);
  const std::vector<double>& actual = ActualTimesFor(&ms, workload);

  EvaluationResult result;
  result.workload = workload;
  result.machine = machine;
  result.db_label = db_label();
  result.sampling_ratio = sampling_ratio;
  result.variant = variant;
  result.records.reserve(prepared.size());

  double overhead_acc = 0.0;
  for (size_t i = 0; i < prepared.size(); ++i) {
    const PreparedQuery& pq = prepared[i];
    const QueryArtifacts& qa = artifacts[i];
    const VarianceEngine engine(&qa.estimates, &qa.cost_functions, &ms.units,
                                variant, bound);
    QueryRecord record;
    record.name = pq.name;
    record.breakdown = engine.Compute();
    record.outcome.predicted_mean = record.breakdown.mean;
    record.outcome.predicted_stddev =
        std::sqrt(std::max(0.0, record.breakdown.variance));
    record.outcome.actual_time = actual[i];

    // Relative sampling overhead under this machine's cost units.
    double full_cost = 0.0, sample_cost = 0.0;
    for (const OpStats& st : pq.full.ops) {
      full_cost += st.actual.Dot(ms.units.Get(0).mean, ms.units.Get(1).mean,
                                 ms.units.Get(2).mean, ms.units.Get(3).mean,
                                 ms.units.Get(4).mean);
    }
    for (const OpStats& st : qa.estimates.sample_ops) {
      sample_cost += st.actual.Dot(ms.units.Get(0).mean, ms.units.Get(1).mean,
                                   ms.units.Get(2).mean, ms.units.Get(3).mean,
                                   ms.units.Get(4).mean);
    }
    record.overhead_ratio = full_cost > 0.0 ? sample_cost / full_cost : 0.0;
    overhead_acc += record.overhead_ratio;

    // Per selective-operator selectivity diagnostics (Tables 6-9).
    for (const PlanNode* node : pq.plan.NodesPreorder()) {
      const bool selective =
          (IsScan(node->type) && node->predicate != nullptr) || IsJoin(node->type);
      if (!selective) continue;
      const SelectivityEstimate& est =
          qa.estimates.ops[static_cast<size_t>(node->id)];
      if (est.from_optimizer) continue;
      record.op_sel_est.push_back(est.rho);
      record.op_sel_sigma.push_back(std::sqrt(std::max(0.0, est.variance)));
      record.op_sel_true.push_back(
          pq.full.ops[static_cast<size_t>(node->id)].selectivity());
    }
    result.records.push_back(std::move(record));
  }
  result.summary = ::uqp::Evaluate(result.outcomes());
  result.mean_overhead =
      prepared.empty() ? 0.0 : overhead_acc / static_cast<double>(prepared.size());
  return result;
}

}  // namespace uqp
