#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/cardinality.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "math/gaussian.h"
#include "sampling/sample_db.h"

namespace uqp {

/// Estimated selectivity distribution of one operator (paper §3.2):
/// rho ~ N(rho_n, Var̂[rho_n]), with the per-relation variance
/// decomposition kept so covariances between estimates that share sample
/// relations can be bounded (paper §5.3.2 / Appendix A.7).
struct SelectivityEstimate {
  double rho = 0.0;       ///< ρ_n
  double variance = 0.0;  ///< Var̂[ρ_n] = Σ_k V_k / n_k  (≈ S²_n / n)
  /// Per-leaf variance contributions V_k/n_k, aligned to absolute leaf
  /// positions [leaf_begin, leaf_end) of the operator's subtree. Partial
  /// sums over a leaf subset realize the S²_ρ(m, n) estimator used in the
  /// refined covariance bound (B1).
  std::vector<double> var_components;
  int leaf_begin = 0;
  int leaf_end = 0;
  /// True for aggregates and operators above them: ρ comes from the
  /// optimizer's cardinality estimate and the variance is 0 (Algorithm 1,
  /// lines 2-5).
  bool from_optimizer = false;

  Gaussian AsGaussian() const { return Gaussian(rho, variance); }
};

/// All selectivity information extracted from one run of the plan over the
/// sample tables.
struct PlanEstimates {
  /// Per node id.
  std::vector<SelectivityEstimate> ops;
  /// Node id -> node id owning that node's selectivity variable.
  /// Pass-through operators (sort, materialize) share their child's
  /// variable; every other operator owns its own.
  std::vector<int> variable_of_node;
  /// Sample-table row count n_k per absolute leaf position.
  std::vector<double> leaf_sample_rows;
  /// Resource counters observed while running the plan over the samples
  /// (the prediction-time overhead of paper §6.4).
  std::vector<OpStats> sample_ops;
};

/// Covariance upper bounds of paper §5.3.2 between two correlated
/// selectivity estimates (descendant/ancestor pair sharing the
/// descendant's sample relations):
///   B1 = sqrt(S²_ρ(m,n) S²_ρ'(m,n))        (Theorem 7, tighter)
///   B2 = sqrt(Var[ρ] Var[ρ'])              (Cauchy–Schwarz)
///   B3 = f(n,m) g(ρ) g(ρ')                 (Theorem 8)
struct CovarianceBounds {
  double b1 = 0.0;
  double b2 = 0.0;
  double b3 = 0.0;
  /// The bound Algorithm 3 adds: min(B1, B3) (both are valid upper
  /// bounds; B1 ≤ B2 always holds).
  double best() const { return b1 < b3 ? b1 : b3; }
};

/// How scan (selection) selectivities are estimated.
enum class ScanEstimateMode {
  /// The paper's sampling estimator: ρ_n over the sample table with the
  /// binomial S²_n = ρ(1-ρ) variance (Algorithm 1 lines 6-8).
  kSampling,
  /// The §3.2 alternative the paper leaves as future work: the optimizer's
  /// histogram estimate. Its variance is a resolution heuristic — the
  /// equi-depth histogram quantizes the CDF into B buckets, so a single
  /// range predicate's selectivity carries ~U(-w/2, w/2) quantization
  /// error with w = 1/B (variance w²/12), inflated by the number of
  /// conjuncts whose independence the optimizer assumes. Joins always use
  /// sampling (histogram join estimation would need join synopses, which
  /// the paper points out are restricted to foreign-key joins).
  kHistogram,
};

/// How aggregate output cardinalities are estimated.
enum class AggregateEstimateMode {
  /// Algorithm 1 lines 2-5: the optimizer's estimate, variance 0.
  kOptimizer,
  /// The extension the paper names as future work (§3.2.2): the GEE
  /// distinct-value estimator over the aggregate's sampled input, with a
  /// half-sample variance probe. Only applies to aggregates whose input
  /// subtree is itself sampled (no aggregate below); operators above an
  /// aggregate still fall back to the optimizer.
  kGee,
};

/// The auto-derived executor chunk size for a sample run whose largest
/// bound sample table has `max_leaf_sample_rows` rows (the 0 = auto mode
/// of max_batch_size). Deterministic in the sample cardinalities alone —
/// never thread count — so it is part of the determinism contract's
/// *shape*, like any explicitly chosen batch size: a tiny sample runs as
/// one morsel per operator instead of paying full dispatch overhead, and
/// a large one gets enough morsels (~64 per scan) to shard across a pool.
int64_t AutoSampleBatchSize(int64_t max_leaf_sample_rows);

/// Runs a finalized plan over the sample tables and produces the
/// selectivity distributions (Algorithm 1 embedded in the bottom-up
/// refinement of Algorithm 2).
///
/// With num_threads > 1 the sample run fans out: the executor shards its
/// chunked loops and join subtrees across a task pool, and its output is
/// bit-identical at any thread count. The Q_{k,j,n} counters are then read
/// on the calling thread, one pass over each join's output per leaf: a
/// count array and a seen-bitmap, sized once to the largest leaf sample
/// and reused by every join and leaf, so a join costs its output's size,
/// not its samples'. The variance pass visits the touched tuple ids in
/// ascending order (untouched ones all contribute ρ²), so every ρ_n and
/// S²_n is bit-identical to the sequential (num_threads == 1) run.
class SamplingEstimator {
 public:
  SamplingEstimator(const Database* db, const SampleDb* samples,
                    AggregateEstimateMode aggregate_mode =
                        AggregateEstimateMode::kOptimizer,
                    ScanEstimateMode scan_mode = ScanEstimateMode::kSampling,
                    int num_threads = 1, MorselPool* task_runner = nullptr,
                    int64_t max_batch_size = 1024)
      : db_(db),
        samples_(samples),
        aggregate_mode_(aggregate_mode),
        scan_mode_(scan_mode),
        num_threads_(num_threads),
        task_runner_(task_runner),
        max_batch_size_(max_batch_size) {}

  /// `cancelled` (optional) is a cooperative cancellation probe forwarded
  /// to ExecOptions::cancelled: the sample run stops consuming pool time
  /// at the next morsel boundary once it returns true, and Estimate
  /// resolves with Status::DeadlineExceeded. Null = never cancelled.
  StatusOr<PlanEstimates> Estimate(
      const Plan& plan,
      const std::function<bool()>* cancelled = nullptr) const;

  /// Partial variance of `e` restricted to absolute leaf positions
  /// [begin, end): the S²_ρ(m, n)/n estimator.
  static double PartialVariance(const SelectivityEstimate& e, int begin, int end);

  /// Bounds for |Cov(ρ_desc, ρ_anc)| where desc's subtree is contained in
  /// anc's. Both zero if either estimate is optimizer-derived.
  static CovarianceBounds CovarianceBoundsFor(
      const SelectivityEstimate& desc, const SelectivityEstimate& anc,
      const std::vector<double>& leaf_sample_rows);

 private:
  const Database* db_;
  const SampleDb* samples_;
  AggregateEstimateMode aggregate_mode_;
  ScanEstimateMode scan_mode_;
  /// Intra-query parallelism for the sample run (1 = sequential, <= 0 =
  /// hardware concurrency). Results are bit-identical at every value.
  int num_threads_ = 1;
  /// Shared pool for the fan-out; when null and num_threads > 1 an
  /// ephemeral MorselPool covers one Estimate call.
  MorselPool* task_runner_ = nullptr;
  /// Executor chunk granularity for the sample run (see
  /// ExecOptions::max_batch_size). <= 0 = auto: derived per plan from the
  /// bound sample-table cardinalities via AutoSampleBatchSize.
  int64_t max_batch_size_ = 1024;
};

}  // namespace uqp
