#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "cost/units.h"
#include "service/fault.h"

namespace uqp {

/// Configuration of the online feedback loop (AQO-style
/// learn-until-converged: maintain per-plan-family relative-error windows,
/// stop tracking families whose predictions converged, recalibrate the
/// cost units when a family's windowed error diverges).
struct FeedbackOptions {
  /// Master switch. When false, ReportObserved is a no-op, and the
  /// service keeps no per-family state unless the breaker is on.
  bool enabled = false;
  /// Relative-error window per plan family (ring buffer). The convergence
  /// and drift tests both require a full window, so decisions are made on
  /// `window_size` observations, never one noisy report.
  size_t window_size = 8;
  /// A full window whose mean |relative error| is <= this converges the
  /// family: it stops paying the tracking overhead (no predicted-mean
  /// combination, no window update) except for the periodic probe below.
  double converge_threshold = 0.15;
  /// A full window whose mean |relative error| is >= this declares drift:
  /// the service re-derives the cost units (FeedbackOptions::recalibrate)
  /// and publishes a new calibration snapshot. Must exceed
  /// converge_threshold.
  double drift_threshold = 0.5;
  /// A converged family re-checks one observation every Nth report (0 =
  /// never). A probe whose |relative error| exceeds drift_threshold
  /// un-converges the family: the window restarts and the family is
  /// tracked again — this is how a converged family still notices a
  /// hardware change without paying per-report overhead.
  uint64_t probe_interval = 16;
  /// Minimum feedback reports between two drift-triggered
  /// recalibrations (counted across all families), so one machine-wide
  /// drift produces one recalibration, not one per drifting family.
  uint64_t cooldown_reports = 16;
  /// Re-derives the cost units when drift is detected — typically wired
  /// to Calibrator::Calibrate against the deployment's harness/machine.
  /// Null = detect-only (drift never publishes).
  std::function<CostUnits()> recalibrate;
};

/// The family's last successfully computed prediction, kept so a report
/// arriving after the plan was evicted from the artifact cache (or flushed
/// by InvalidateCache) still yields an error instead of being dropped.
/// Written by the service's error callback on every cache-backed error
/// computation; read as the fallback when the cache lookup misses.
struct PredictionStash {
  double mean_ms = 0.0;  ///< predicted mean of the family's last prediction
  uint64_t epoch = 0;    ///< calibration epoch that prediction combined under
  bool valid = false;
};

/// Introspection snapshot of one plan family's record (tests, the
/// drift_storm and chaos_storm benches, monitoring).
struct FamilyFeedback {
  uint64_t fingerprint = 0;
  uint64_t reports = 0;         ///< observations reported for this family
  uint64_t window_updates = 0;  ///< times the error window actually changed
  bool converged = false;
  /// Window contents, oldest first (shorter than window_size while
  /// filling; frozen while converged).
  std::vector<double> window;
  /// Mean |relative error| over the current window (0 when empty).
  double windowed_mean_abs_error = 0.0;
  /// Last-prediction stash (see PredictionStash).
  PredictionStash stash;
  /// Circuit-breaker state for this family: "closed" with zero counters
  /// when the breaker is off or the family never failed.
  const char* breaker_state = "closed";
  int breaker_consecutive_failures = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_shed = 0;
};

/// The service's one per-plan-family table: a sharded, thread-safe map
/// from fingerprint to one record holding the family's feedback state
/// (relative-error window, convergence flag, last-prediction stash) and
/// its circuit-breaker state (see BreakerOptions). Pure bookkeeping: the
/// registry never computes predictions or publishes snapshots itself —
/// the service wires those through Observe's lazy error callback and the
/// Action it returns, and counts the breaker's opens, sheds and probes
/// from Admit's and OnStageResult's results.
///
/// A record exists once the family was reported (feedback on) or had a
/// stage result (breaker on); each half stays at its zero value while its
/// feature is off.
///
/// Determinism contract: for a fixed sequence of (fingerprint, error)
/// observations, the full feedback trajectory — window contents,
/// convergence flips, drift decisions — is bit-identical regardless of
/// how many threads the *predictions* used (extended
/// parallel_parity_test); the breaker is count-based, so its states are
/// a pure function of the admit/result sequence per family.
class FamilyRegistry {
 public:
  enum class Action {
    kDisabled,         ///< feedback off; nothing recorded
    kDropped,          ///< error not computable (plan not cached AND no
                       ///< last-prediction stash to fall back on); no update
    kTracked,          ///< error recorded, no decision yet
    kConverged,        ///< this report completed a converging window
    kSkippedConverged, ///< family converged: no combine, no window update
    kProbed,           ///< converged-family probe passed; still converged
    kResumed,          ///< probe failed: family un-converged, tracking again
    kDrift,            ///< windowed error diverged; caller should recalibrate
  };

  FamilyRegistry(FeedbackOptions feedback, BreakerOptions breaker,
                 size_t shard_count);

  bool feedback_enabled() const {
    return feedback_.enabled && feedback_.window_size > 0;
  }
  bool breaker_enabled() const { return breaker_.failure_threshold > 0; }

  // ----- feedback -----

  /// Computes the signed relative error of one observation, lazily. The
  /// callback receives the family's last-prediction stash: on a cache hit
  /// it should refresh the stash with the prediction it compared against;
  /// on a cache miss (evicted/flushed plan) it may fall back to the
  /// stashed mean so the report still lands instead of dropping. Returns
  /// false only when no prediction exists anywhere to compare against.
  using ErrorFn = std::function<bool(PredictionStash* stash, double* error)>;

  /// Records one observation for the family. `error_fn` is invoked only
  /// when the family is actually tracked (or probed), which is exactly the
  /// overhead a converged family stops paying; it runs under the family
  /// shard's mutex, so stash reads/updates are serialized per family.
  /// Returns what happened.
  Action Observe(uint64_t fingerprint, const ErrorFn& error_fn);

  /// Serializes drift handling: returns true for exactly one caller per
  /// cooldown window (checked against total reports). The winner should
  /// recalibrate and publish; losers skip.
  bool ClaimDrift();

  /// Called after a calibration snapshot is published: tracked families'
  /// windows reset (their errors were measured against the old epoch's
  /// predictions), converged families stay converged — their predictions
  /// follow the new units automatically through lazy re-combination.
  void OnPublish();

  uint64_t total_reports() const {
    return total_reports_.load(std::memory_order_relaxed);
  }

  /// The family's current windowed mean |relative error|, if it has one.
  /// Returns false (leaving *error untouched) when feedback is off or the
  /// family has an empty window. The degraded-mode predictor uses this to
  /// inflate its variance from the family's observed error history.
  bool WindowedError(uint64_t fingerprint, double* error) const;

  // ----- circuit breaker -----

  /// Routes one incoming request for `fingerprint`. Never blocks beyond
  /// the family's shard mutex; at most one probe is in flight per family.
  /// Admits everything while the breaker is off.
  BreakerDecision Admit(uint64_t fingerprint);

  /// Reports a stage-1 outcome (including injected faults and deadline
  /// cancellations — a run that could not complete is a failure). Returns
  /// true iff this result OPENED the breaker (closed/half-open -> open).
  /// No-op returning false while the breaker is off.
  bool OnStageResult(uint64_t fingerprint, bool ok);

  // ----- introspection -----

  /// Both family gauges from one sweep over the shards.
  struct Counts {
    size_t reported = 0;   ///< families with at least one report
    size_t converged = 0;  ///< families currently converged
  };
  Counts CountFamilies() const;

  /// Every family record, sorted by fingerprint (deterministic order).
  std::vector<FamilyFeedback> Snapshot() const;

 private:
  struct Family {
    // --- feedback ---
    std::vector<double> window;  ///< ring buffer of signed relative errors
    size_t next = 0;
    size_t filled = 0;
    uint64_t reports = 0;
    uint64_t window_updates = 0;
    bool converged = false;
    /// Last successfully computed prediction (see PredictionStash): the
    /// fallback comparison point for evicted-but-reported plans.
    PredictionStash stash;
    // --- circuit breaker ---
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int sheds_since_open = 0;
    bool probe_inflight = false;
    uint64_t opens = 0;  ///< times this family transitioned to open
    uint64_t shed = 0;   ///< requests this family shed while open
  };
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, Family> families UQP_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t fingerprint) const {
    return shards_[static_cast<size_t>(fingerprint) & mask_];
  }
  void Push(Family* family, double error) const;
  double WindowMeanAbs(const Family& family) const;

  const FeedbackOptions feedback_;
  const BreakerOptions breaker_;
  std::unique_ptr<Shard[]> shards_;
  size_t shard_count_ = 0;
  size_t mask_ = 0;

  std::atomic<uint64_t> total_reports_{0};
  /// Guards the drift cooldown bookkeeping (claims + publish watermark).
  mutable Mutex drift_mu_;
  bool any_claim_ UQP_GUARDED_BY(drift_mu_) = false;
  uint64_t reports_at_last_claim_ UQP_GUARDED_BY(drift_mu_) = 0;
};

}  // namespace uqp
