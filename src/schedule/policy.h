#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/gaussian.h"

namespace uqp {

/// Pluggable decision policies for the SLO scheduling scenario suite
/// (paper §6.5.3 and ROADMAP item 3, the Kleerekoper et al. question: does
/// the predicted *distribution* buy anything over a mean-only or
/// optimizer-cost-only signal?).
///
/// Everything here is pure decision logic over decision-time predictions —
/// no clocks, no randomness, no shared state — so the simulator can replay
/// the same scenario under every policy and the determinism linter can
/// hold the directory to the contract rules with zero waivers.

/// How the admission controller decides whether a query may enter the
/// system at all.
enum class AdmissionPolicyKind {
  kDistribution,  ///< admit iff P(t <= budget) >= 1 - eps (paper policy)
  kMeanOnly,      ///< admit iff E[t] <= budget (point-estimate baseline)
  kCostOnly,      ///< admit iff cost * cost_scale_ms <= budget (optimizer
                  ///< scalar cost, no sampling at all)
};

/// How the dispatcher orders the admitted queue when a slot frees up.
enum class OrderingPolicyKind {
  kRiskAdjustedSlack,  ///< min slack after charging z_eps standard
                       ///< deviations of headroom (distribution-aware)
  kExpectedSlack,      ///< min slack under the mean (point-estimate)
  kFifo,               ///< arrival order
};

const char* ToString(AdmissionPolicyKind kind);
const char* ToString(OrderingPolicyKind kind);

/// One query as the scheduler sees it. Times are virtual milliseconds on
/// the simulator clock; the prediction is pinned at decision time (the
/// service may recalibrate later — the decision was made under this one).
struct ScheduledJob {
  uint64_t id = 0;            ///< arrival sequence number; total tie-break
  double arrival_ms = 0.0;    ///< absolute virtual arrival time
  double deadline_ms = 0.0;   ///< absolute virtual SLO deadline
  Gaussian predicted_ms;      ///< decision-time predicted running time
  double optimizer_cost = 0;  ///< scalar plan cost in abstract cost units
};

/// Admission decision. `budget_ms` is the running-time budget the query
/// would have if started now (deadline - now).
///
/// Boundary semantics, pinned and tested: the distribution policy admits
/// iff P(t <= budget) >= 1 - eps — a query sitting exactly at the
/// tolerated risk is admitted, one epsilon beyond is rejected. The
/// baselines use the analogous closed conditions (mean <= budget,
/// scaled cost <= budget).
struct AdmissionPolicy {
  AdmissionPolicyKind kind = AdmissionPolicyKind::kDistribution;
  double eps = 0.1;            ///< tolerated violation probability
  double cost_scale_ms = 1.0;  ///< cost units -> ms (cost-only baseline)

  bool Admits(const ScheduledJob& job, double budget_ms) const;
};

/// Queue ordering. Key(job, now) is the policy's priority key — smaller
/// runs first:
///   kRiskAdjustedSlack: deadline - now - (mean + z_eps * stddev), with
///     z_eps = NormalQuantile(1 - eps). A high-variance query loses its
///     apparent slack and is pulled forward before its deadline becomes a
///     coin flip.
///   kExpectedSlack:     deadline - now - mean.
///   kFifo:              arrival time.
struct OrderingPolicy {
  OrderingPolicyKind kind = OrderingPolicyKind::kFifo;
  double eps = 0.1;  ///< risk level for kRiskAdjustedSlack

  double Key(const ScheduledJob& job, double now_ms) const;
};

/// The queue position to dispatch next under `policy`: the job with the
/// minimal (Key, id) pair. The id tie-break makes the choice a total
/// order, so dispatch is deterministic for any queue permutation.
/// Precondition: queue is non-empty.
size_t PickNext(const OrderingPolicy& policy,
                const std::vector<ScheduledJob>& queue, double now_ms);

/// Exact P(both meet their deadlines | run a then b) for independent
/// normal predicted times and *relative* deadlines (ms from now):
/// a must finish by deadline_a_ms, and a + b by deadline_b_ms. Thin
/// wrapper over ProbBothMeetSequential (1-d quadrature; see gaussian.h).
double PairBothMeetProb(const Gaussian& a_ms, double deadline_a_ms,
                        const Gaussian& b_ms, double deadline_b_ms);

/// The historical approximation from examples/query_scheduler.cpp:
/// P(A <= da) * P(A + B <= db). It assumes the two events are independent
/// when they are positively correlated through A, and it ignores that
/// conditioning on {A <= da} truncates A's contribution to the sum — so
/// it systematically UNDERESTIMATES the joint probability (proved against
/// the Monte-Carlo oracle in property_test; the gap can flip close
/// ordering decisions). Kept only as a documented, tested approximation;
/// new code should call PairBothMeetProb.
double NaiveBothMeetProb(const Gaussian& a_ms, double deadline_a_ms,
                         const Gaussian& b_ms, double deadline_b_ms);

}  // namespace uqp
