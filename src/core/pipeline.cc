#include "core/pipeline.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "engine/expr.h"
#include "math/gaussian.h"

namespace uqp {

namespace {

void AppendBytesDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendKeyU64(out, bits);
}

void AppendBytesCounters(std::string* out, const OpStats& st) {
  AppendKeyU64(out, static_cast<uint64_t>(st.id));
  AppendKeyU64(out, static_cast<uint64_t>(st.type));
  AppendBytesDouble(out, st.actual.ns);
  AppendBytesDouble(out, st.actual.nr);
  AppendBytesDouble(out, st.actual.nt);
  AppendBytesDouble(out, st.actual.ni);
  AppendBytesDouble(out, st.actual.no);
  AppendBytesDouble(out, st.left_rows);
  AppendBytesDouble(out, st.right_rows);
  AppendBytesDouble(out, st.out_rows);
  AppendBytesDouble(out, st.leaf_row_product);
}

}  // namespace

std::string SampleRunOutputBytes(const SampleRunOutput& out) {
  const PlanEstimates& e = out.estimates;
  std::string bytes;
  AppendKeyU64(&bytes, e.ops.size());
  for (const SelectivityEstimate& est : e.ops) {
    AppendBytesDouble(&bytes, est.rho);
    AppendBytesDouble(&bytes, est.variance);
    AppendKeyU64(&bytes, est.var_components.size());
    for (double v : est.var_components) AppendBytesDouble(&bytes, v);
    AppendKeyU64(&bytes, static_cast<uint64_t>(est.leaf_begin));
    AppendKeyU64(&bytes, static_cast<uint64_t>(est.leaf_end));
    AppendKeyU64(&bytes, est.from_optimizer ? 1 : 0);
  }
  AppendKeyU64(&bytes, e.variable_of_node.size());
  for (int v : e.variable_of_node) {
    AppendKeyU64(&bytes, static_cast<uint64_t>(v));
  }
  AppendKeyU64(&bytes, e.leaf_sample_rows.size());
  for (double v : e.leaf_sample_rows) AppendBytesDouble(&bytes, v);
  AppendKeyU64(&bytes, e.sample_ops.size());
  for (const OpStats& st : e.sample_ops) AppendBytesCounters(&bytes, st);
  return bytes;
}

const PlanEstimates& Prediction::estimates() const {
  return sample_run->estimates;
}

const std::vector<OperatorCostFunctions>& Prediction::cost_functions() const {
  return cost_fit->cost_functions;
}

double Prediction::ProbBelow(double t) const {
  return NormalCdf(t, breakdown.mean, breakdown.variance);
}

void Prediction::ConfidenceInterval(double level, double* lo, double* hi) const {
  const double alpha = NormalQuantile(0.5 + 0.5 * level);
  const double sd = stddev();
  *lo = breakdown.mean - alpha * sd;
  *hi = breakdown.mean + alpha * sd;
}

StatusOr<SampleRunOutput> SampleRunStage::Run(const SampleRunInput& input) const {
  if (input.plan == nullptr) return Status::InvalidArgument("null plan");
  SampleRunOutput out;
  UQP_ASSIGN_OR_RETURN(out.estimates,
                       estimator_.Estimate(*input.plan, input.cancelled));
  return out;
}

StatusOr<CostFitOutput> CostFitStage::Run(const CostFitInput& input) const {
  if (input.plan == nullptr || input.sample_run == nullptr) {
    return Status::InvalidArgument("cost-fit stage needs a plan and a sample run");
  }
  CostFitOutput out;
  UQP_ASSIGN_OR_RETURN(
      out.cost_functions,
      fitter_.FitPlan(*input.plan, input.sample_run->estimates));
  return out;
}

VarianceCombineOutput VarianceCombineStage::Run(
    const VarianceCombineInput& input) const {
  const VarianceEngine engine(&input.sample_run->estimates,
                              &input.cost_fit->cost_functions, input.units,
                              input.variant, input.bound);
  VarianceCombineOutput out;
  out.breakdown = engine.Compute();
  return out;
}

StatusOr<Prediction> PredictionPipeline::Predict(const Plan& plan) const {
  SampleRunInput run_in;
  run_in.plan = &plan;
  UQP_ASSIGN_OR_RETURN(SampleRunOutput sample_run, sample_run_.Run(run_in));
  StageArtifacts artifacts;
  artifacts.run =
      std::make_shared<const SampleRunOutput>(std::move(sample_run));
  CostFitInput fit_in;
  fit_in.plan = &plan;
  fit_in.sample_run = artifacts.run.get();
  UQP_ASSIGN_OR_RETURN(CostFitOutput cost_fit, cost_fit_.Run(fit_in));
  artifacts.fit = std::make_shared<const CostFitOutput>(std::move(cost_fit));
  return PredictFromArtifacts(artifacts, calibration());
}

Prediction PredictionPipeline::PredictFromArtifacts(
    const StageArtifacts& artifacts, const CalibrationPtr& snapshot) const {
  VarianceCombineInput var_in;
  var_in.sample_run = artifacts.run.get();
  var_in.cost_fit = artifacts.fit.get();
  var_in.units = &snapshot->units;
  var_in.variant = options_.variant;
  var_in.bound = options_.bound;
  const VarianceCombineOutput combined = variance_combine_.Run(var_in);
  combine_count_.fetch_add(1, std::memory_order_relaxed);

  Prediction out;
  out.breakdown = combined.breakdown;
  out.sample_run = artifacts.run;
  out.cost_fit = artifacts.fit;
  out.calibration = snapshot;
  return out;
}

VarianceBreakdown PredictionPipeline::Recompute(const Prediction& prediction,
                                                PredictorVariant variant,
                                                CovarianceBoundKind bound) const {
  // Recompute under the snapshot the prediction was made with: the
  // ablation/variant re-derivation of an existing prediction must not
  // silently change epoch because someone published in between.
  const CalibrationPtr snapshot =
      prediction.calibration != nullptr ? prediction.calibration
                                        : calibration();
  return variance_combine_
      .Run(VarianceCombineInput{prediction.sample_run.get(),
                                prediction.cost_fit.get(), &snapshot->units,
                                variant, bound})
      .breakdown;
}

}  // namespace uqp
