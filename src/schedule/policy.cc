#include "schedule/policy.h"

#include "common/logging.h"

namespace uqp {

const char* ToString(AdmissionPolicyKind kind) {
  switch (kind) {
    case AdmissionPolicyKind::kDistribution: return "distribution";
    case AdmissionPolicyKind::kMeanOnly: return "mean_only";
    case AdmissionPolicyKind::kCostOnly: return "cost_only";
  }
  return "?";
}

const char* ToString(OrderingPolicyKind kind) {
  switch (kind) {
    case OrderingPolicyKind::kRiskAdjustedSlack: return "risk_adjusted_slack";
    case OrderingPolicyKind::kExpectedSlack: return "expected_slack";
    case OrderingPolicyKind::kFifo: return "fifo";
  }
  return "?";
}

bool AdmissionPolicy::Admits(const ScheduledJob& job, double budget_ms) const {
  switch (kind) {
    case AdmissionPolicyKind::kDistribution: {
      // P(t <= budget) >= 1 - eps. NormalCdf handles a degenerate
      // variance as a step function, so a point-mass prediction reduces
      // to the mean-only rule.
      const double p = NormalCdf(budget_ms, job.predicted_ms.mean,
                                 job.predicted_ms.variance);
      return p >= 1.0 - eps;
    }
    case AdmissionPolicyKind::kMeanOnly:
      return job.predicted_ms.mean <= budget_ms;
    case AdmissionPolicyKind::kCostOnly:
      return job.optimizer_cost * cost_scale_ms <= budget_ms;
  }
  return false;
}

namespace {

/// z_eps of the risk-adjusted ordering (unused by the other kinds).
double RiskZ(const OrderingPolicy& policy) {
  return policy.kind == OrderingPolicyKind::kRiskAdjustedSlack
             ? NormalQuantile(1.0 - policy.eps)
             : 0.0;
}

/// OrderingPolicy::Key with z_eps supplied, so PickNext computes the
/// quantile once per call instead of once per queued job.
double KeyWithZ(const OrderingPolicy& policy, const ScheduledJob& job,
                double now_ms, double z) {
  switch (policy.kind) {
    case OrderingPolicyKind::kRiskAdjustedSlack:
      return job.deadline_ms - now_ms -
             (job.predicted_ms.mean + z * job.predicted_ms.stddev());
    case OrderingPolicyKind::kExpectedSlack:
      return job.deadline_ms - now_ms - job.predicted_ms.mean;
    case OrderingPolicyKind::kFifo:
      return job.arrival_ms;
  }
  return 0.0;
}

}  // namespace

double OrderingPolicy::Key(const ScheduledJob& job, double now_ms) const {
  return KeyWithZ(*this, job, now_ms, RiskZ(*this));
}

size_t PickNext(const OrderingPolicy& policy,
                const std::vector<ScheduledJob>& queue, double now_ms) {
  UQP_CHECK(!queue.empty());
  const double z = RiskZ(policy);
  size_t best = 0;
  double best_key = KeyWithZ(policy, queue[0], now_ms, z);
  for (size_t i = 1; i < queue.size(); ++i) {
    const double key = KeyWithZ(policy, queue[i], now_ms, z);
    // Strict (key, id) lexicographic order: ids are unique, so the
    // minimum is unique and independent of the queue's layout history.
    if (key < best_key ||
        (key == best_key && queue[i].id < queue[best].id)) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

double PairBothMeetProb(const Gaussian& a_ms, double deadline_a_ms,
                        const Gaussian& b_ms, double deadline_b_ms) {
  return ProbBothMeetSequential(a_ms.mean, a_ms.variance, deadline_a_ms,
                                b_ms.mean, b_ms.variance, deadline_b_ms);
}

double NaiveBothMeetProb(const Gaussian& a_ms, double deadline_a_ms,
                         const Gaussian& b_ms, double deadline_b_ms) {
  const double p_a = NormalCdf(deadline_a_ms, a_ms.mean, a_ms.variance);
  const Gaussian sum = a_ms + b_ms;
  const double p_b = NormalCdf(deadline_b_ms, sum.mean, sum.variance);
  return p_a * p_b;
}

}  // namespace uqp
