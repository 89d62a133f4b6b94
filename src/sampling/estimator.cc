#include "sampling/estimator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "sampling/gee.h"

namespace uqp {

namespace {

double SafeSel(double rho) { return std::clamp(rho, 0.0, 1.0); }

/// Scratch for the Q_{k,j,n} counters of one leaf at a time: a count per
/// sample tuple id and a bitmap of the ids the join output touched. Both
/// are all-zero between uses — the variance pass resets exactly the
/// entries the counting pass set — so one allocation, sized to the
/// largest leaf sample, serves every join node and leaf of an estimate,
/// and a leaf costs its join output's size, not its sample's.
class SparseCounts {
 public:
  explicit SparseCounts(int64_t max_ids)
      : counts_(static_cast<size_t>(max_ids), 0),
        seen_(static_cast<size_t>((max_ids + 63) / 64), 0) {}

  void Add(uint32_t id) {
    ++counts_[id];
    seen_[id >> 6] |= uint64_t{1} << (id & 63);
  }

  /// Calls fn(count) for every touched id below `n_ids`, in ascending id
  /// order, and clears it.
  template <typename Fn>
  void Drain(int64_t n_ids, Fn&& fn) {
    const size_t words = static_cast<size_t>((n_ids + 63) / 64);
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = seen_[w];
      if (bits == 0) continue;
      seen_[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const size_t id = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        fn(counts_[id]);
        counts_[id] = 0;
      }
    }
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<uint64_t> seen_;
};

}  // namespace

int64_t AutoSampleBatchSize(int64_t max_leaf_sample_rows) {
  // Samples small enough to be one cache-friendly block run as a single
  // morsel per operator: dispatch/merge overhead would dominate any
  // sharding gain at this size.
  if (max_leaf_sample_rows <= 4096) return std::max<int64_t>(1, max_leaf_sample_rows);
  // Larger samples target ~64 morsels over the widest scan so a pool has
  // work to steal, clamped to keep chunks in a vectorization-friendly
  // range. Depends only on sample cardinality, never on thread count.
  return std::clamp<int64_t>(max_leaf_sample_rows / 64, 1024, 16384);
}

StatusOr<PlanEstimates> SamplingEstimator::Estimate(
    const Plan& plan, const std::function<bool()>* cancelled) const {
  if (plan.root() == nullptr || plan.root()->id != 0) {
    return Status::FailedPrecondition("plan must be finalized");
  }

  // Bind one sample table per leaf occurrence; repeated appearances of the
  // same relation get distinct copies so their estimates stay independent
  // (paper §5.1.2).
  const std::vector<const PlanNode*> leaves = plan.Leaves();
  std::vector<const Table*> overrides(leaves.size(), nullptr);
  std::unordered_map<std::string, int> occurrence;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const int occ = occurrence[leaves[i]->table_name]++;
    overrides[i] = &samples_->Get(leaves[i]->table_name, occ);
  }

  // One pool covers the sample run's intra-query shards. When the caller
  // supplied a runner (the service layer sharing its worker pool), use it;
  // otherwise an ephemeral pool lives for this call.
  const int threads = ResolveNumThreads(num_threads_);
  MorselPool* runner = threads > 1 ? task_runner_ : nullptr;
  std::unique_ptr<MorselPool> owned_pool;
  if (threads > 1 && runner == nullptr) {
    owned_pool = std::make_unique<MorselPool>(threads);
    runner = owned_pool.get();
  }

  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  options.leaf_overrides = &overrides;
  options.task_runner = runner;
  int64_t batch = max_batch_size_;
  if (batch <= 0) {
    int64_t max_rows = 0;
    for (const Table* t : overrides) {
      max_rows = std::max(max_rows, t->num_rows());
    }
    batch = AutoSampleBatchSize(max_rows);
  }
  options.max_batch_size = batch;
  if (cancelled != nullptr && *cancelled) {
    options.cancelled = *cancelled;
  }
  Executor executor(db_);
  UQP_ASSIGN_OR_RETURN(ExecResult run, executor.Execute(plan, options));

  PlanEstimates out;
  out.ops.resize(static_cast<size_t>(plan.num_operators()));
  out.variable_of_node.assign(static_cast<size_t>(plan.num_operators()), -1);
  out.leaf_sample_rows.resize(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    out.leaf_sample_rows[i] = static_cast<double>(overrides[i]->num_rows());
  }
  out.sample_ops = run.ops;

  // Q-counter scratch, allocated at the first join: scan-only plans take
  // none.
  std::unique_ptr<SparseCounts> q;

  // Optimizer cardinalities, estimated on the first optimizer fallback
  // (an aggregate, or an operator above one): most plans take none.
  CardinalityEstimator cards(db_);
  std::vector<double> opt_rows;

  // Process children before parents: in preorder ids, every child id is
  // greater than its parent's, so reverse id order works.
  const std::vector<const PlanNode*> nodes = plan.NodesPreorder();
  std::vector<const PlanNode*> by_id(nodes.size());
  for (const PlanNode* n : nodes) by_id[static_cast<size_t>(n->id)] = n;

  for (int id = plan.num_operators() - 1; id >= 0; --id) {
    const PlanNode* node = by_id[static_cast<size_t>(id)];
    SelectivityEstimate& est = out.ops[static_cast<size_t>(id)];
    est.leaf_begin = node->leaf_begin;
    est.leaf_end = node->leaf_end;
    const int span = node->leaf_end - node->leaf_begin;
    est.var_components.assign(static_cast<size_t>(span), 0.0);

    if (IsPassThrough(node->type)) {
      // Sort / materialize emit exactly their input: same variable.
      const int child_id = node->left->id;
      out.variable_of_node[static_cast<size_t>(id)] =
          out.variable_of_node[static_cast<size_t>(child_id)];
      est = out.ops[static_cast<size_t>(child_id)];
      continue;
    }
    out.variable_of_node[static_cast<size_t>(id)] = id;

    if (node->type == OpType::kAggregate || node->has_aggregate_below) {
      // GEE extension (§3.2.2 future work): an aggregate whose input
      // subtree is itself sampled can estimate its group count from the
      // sampled input via the GEE distinct-value estimator.
      const bool gee_applicable =
          aggregate_mode_ == AggregateEstimateMode::kGee &&
          node->type == OpType::kAggregate && !node->has_aggregate_below;
      if (gee_applicable) {
        const RowBlock& input = run.blocks[static_cast<size_t>(node->left->id)];
        const SelectivityEstimate& child =
            out.ops[static_cast<size_t>(node->left->id)];
        const double full_input_rows =
            std::max(1.0, child.rho * node->left->leaf_row_product);
        double distinct = 1.0, distinct_var = 0.0;
        if (!node->group_columns.empty() && input.num_rows() > 0) {
          std::vector<uint64_t> hashes(static_cast<size_t>(input.num_rows()));
          HashRowKeys(input, node->group_columns, 0, input.num_rows(), hashes.data());
          GeeDistinctCounter counter;
          for (const uint64_t h : hashes) counter.Add(h);
          const GeeResult gee = counter.Estimate(full_input_rows);
          distinct = std::max(1.0, gee.distinct);
          distinct_var = gee.variance;
        }
        const double denom = std::max(1.0, node->leaf_row_product);
        est.rho = SafeSel(distinct / denom);
        est.variance = distinct_var / (denom * denom);
        // Spread the variance across the leaf span so the partial-variance
        // machinery (covariance bounds vs descendants) sees it.
        if (span > 0) {
          const double per_leaf = est.variance / span;
          for (int k = 0; k < span; ++k) {
            est.var_components[static_cast<size_t>(k)] = per_leaf;
          }
        }
        continue;
      }
      // Algorithm 1 lines 2-5: optimizer estimate, zero variance.
      if (opt_rows.empty()) opt_rows = cards.EstimatePlan(plan);
      est.from_optimizer = true;
      est.rho = SafeSel(opt_rows[static_cast<size_t>(id)] /
                        std::max(1.0, node->leaf_row_product));
      est.variance = 0.0;
      continue;
    }

    const OpStats& sample_stats = run.ops[static_cast<size_t>(id)];
    est.rho = SafeSel(sample_stats.selectivity());

    if (IsScan(node->type)) {
      if (scan_mode_ == ScanEstimateMode::kHistogram &&
          node->predicate != nullptr) {
        // §3.2 alternative: histogram estimate + resolution-based variance.
        est.rho = SafeSel(cards.PredicateSelectivity(node->predicate.get(),
                                                     node->table_name));
        int buckets = 64;
        const TableStats& stats = db_->catalog().Get(node->table_name);
        for (const ColumnStats& cs : stats.columns) {
          if (cs.numeric && !cs.histogram.empty()) {
            buckets = std::max(1, cs.histogram.num_buckets());
            break;
          }
        }
        const double w = 1.0 / static_cast<double>(buckets);
        const double conjuncts =
            std::max(1, PredicateOpCount(node->predicate.get()));
        const double vk = conjuncts * w * w / 12.0;
        est.var_components[0] = vk;
        est.variance = vk;
        continue;
      }
      // Algorithm 1 lines 6-8: S²_n = ρ_n (1 - ρ_n); Var ≈ S²_n / n.
      const double n = out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin)];
      const double vk = n > 0.0 ? est.rho * (1.0 - est.rho) / n : 0.0;
      est.var_components[0] = vk;
      est.variance = vk;
      continue;
    }

    UQP_CHECK(IsJoin(node->type)) << "unexpected operator in estimation";
    // Algorithm 1 lines 9-14: scan the join result once, incrementing the
    // Q_{k, i_k, n} counters via the provenance annotations.
    const RowBlock& block = run.blocks[static_cast<size_t>(id)];
    UQP_CHECK(block.prov_width == span)
        << "provenance width mismatch: " << block.prov_width << " vs " << span;

    if (q == nullptr) {
      double max_rows = 0.0;
      for (const double n : out.leaf_sample_rows) max_rows = std::max(max_rows, n);
      q = std::make_unique<SparseCounts>(static_cast<int64_t>(max_rows));
    }

    // Product of sample sizes over the span.
    double sample_product = 1.0;
    for (int k = 0; k < span; ++k) {
      sample_product *=
          out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
    }

    // Per relative leaf k: count Q_{k,j,n} for every sample tuple id j the
    // join output touched (provenance ids index the leaf's sample table
    // directly, so j < n_k), then fold (Q / D_k - ρ)² over the touched ids
    // in ascending id order; every untouched tuple contributes (0 - ρ)².
    const int64_t block_rows = block.num_rows();
    double total_var = 0.0;
    for (int k = 0; k < span; ++k) {
      const double nk =
          out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
      if (nk < 2.0) continue;  // S²_1 = 0 by convention
      for (int64_t r = 0; r < block_rows; ++r) q->Add(block.prov_row(r)[k]);
      const double dk = sample_product / nk;  // Π_{k' != k} n_k'
      double acc = 0.0;
      int64_t present = 0;
      q->Drain(static_cast<int64_t>(nk), [&](uint32_t count) {
        ++present;
        const double diff = static_cast<double>(count) / dk - est.rho;
        acc += diff * diff;
      });
      const double absent = nk - static_cast<double>(present);
      acc += absent * est.rho * est.rho;
      const double vk = acc / (nk - 1.0);  // per-relation S² component
      est.var_components[static_cast<size_t>(k)] = vk / nk;
      total_var += vk / nk;
    }
    est.variance = total_var;
  }

  return out;
}

double SamplingEstimator::PartialVariance(const SelectivityEstimate& e,
                                          int begin, int end) {
  double acc = 0.0;
  const int lo = std::max(begin, e.leaf_begin);
  const int hi = std::min(end, e.leaf_end);
  for (int k = lo; k < hi; ++k) {
    acc += e.var_components[static_cast<size_t>(k - e.leaf_begin)];
  }
  return acc;
}

CovarianceBounds SamplingEstimator::CovarianceBoundsFor(
    const SelectivityEstimate& desc, const SelectivityEstimate& anc,
    const std::vector<double>& leaf_sample_rows) {
  CovarianceBounds bounds;
  if (desc.from_optimizer || anc.from_optimizer) return bounds;

  const int begin = desc.leaf_begin;
  const int end = desc.leaf_end;
  // B2: Cauchy–Schwarz on the full variances.
  bounds.b2 = std::sqrt(desc.variance * anc.variance);
  // B1: partial variances restricted to the shared relations (Theorem 7).
  bounds.b1 = std::sqrt(PartialVariance(desc, begin, end) *
                        PartialVariance(anc, begin, end));
  // B3: f(n, m) g(ρ) g(ρ') (Theorem 8), with f generalized to per-relation
  // sample sizes: f = 1 - Π_{k shared} (1 - 1/n_k).
  double keep = 1.0;
  for (int k = begin; k < end; ++k) {
    const double nk = leaf_sample_rows[static_cast<size_t>(k)];
    if (nk > 0.0) keep *= 1.0 - 1.0 / nk;
  }
  const double f = 1.0 - keep;
  auto g = [](double rho) { return std::sqrt(std::max(0.0, rho * (1.0 - rho))); };
  bounds.b3 = f * g(desc.rho) * g(anc.rho);
  return bounds;
}

}  // namespace uqp
