#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/pipeline.h"
#include "cost/snapshot.h"
#include "engine/plan.h"
#include "service/fault.h"
#include "service/feedback.h"

namespace uqp {

/// Cost-only degradation knobs: when stage 1 fails (or is quarantined by
/// the circuit breaker) and the request opted in with
/// RequestOptions::allow_degraded, the service serves a fallback built
/// from the optimizer's scalar cost alone — no sampling, no fitted cost
/// functions — flagged Prediction::degraded.
struct DegradedOptions {
  /// Milliseconds per optimizer cost unit (OptimizerScalarCost — the same
  /// PostgreSQL-weight scalar the cost-only scheduling baseline ranks by).
  /// Fit it like the simulator does (least squares through the origin
  /// against observed runtimes); the default 1.0 keeps the fallback
  /// monotone in cost even uncalibrated.
  double cost_scale_ms = 1.0;
  /// Relative error assumed for a family with no feedback history. The
  /// family's windowed mean |relative error| (FeedbackRegistry) replaces
  /// it when larger — a family we already know we mispredict gets a wider
  /// degraded interval.
  double default_rel_error = 0.5;
  /// Variance inflation: sigma = mean * rel_error * inflation. >1 because
  /// a cost-only guess is strictly less informed than the sampling
  /// pipeline it stands in for.
  double inflation = 2.0;
};

/// Per-request resilience knobs. The zero value (no deadline, no
/// degradation) reproduces the historical behavior exactly.
struct RequestOptions {
  /// Wall-clock budget for this request, in milliseconds. <= 0, NaN, +inf
  /// and any budget past the end of the steady_clock range mean none.
  /// A request past its deadline stops consuming pool time at the next
  /// operator/morsel boundary (cooperative cancellation through
  /// ExecOptions::cancelled) and resolves with Status::DeadlineExceeded —
  /// or a degraded prediction, see below. Deadlines bound WORK, not
  /// delivery: a result that is already free (cache hit, or a joined
  /// winner that finished anyway) is still served. A sync or batch request
  /// parked on another request's run stops waiting at its deadline; an
  /// async one parked on such a run is resolved by that run.
  double deadline_ms = 0.0;
  /// When true, a stage failure / deadline expiry / breaker shed resolves
  /// with a cost-only degraded prediction (Prediction::degraded == true)
  /// instead of the error status. See DegradedOptions.
  bool allow_degraded = false;
};

/// Configuration of the prediction service.
struct ServiceOptions {
  /// Worker threads for PredictAsync and PredictBatch sharding. 0 sizes
  /// the pool to the hardware concurrency, capped at 4 — prediction sits
  /// on the admission path and must not monopolize the machine it gates.
  ///
  /// The same pool also backs intra-plan parallelism when
  /// predictor.num_threads != 1: a lone cold request fans its sample run
  /// out across idle workers — every operator shards, including sort
  /// (fixed-shape blocked merge tree), aggregation (per-chunk tables
  /// merged in chunk order) and merge-join group emission — while a
  /// saturated service degrades gracefully: shard tasks queue behind
  /// plan-level work and the thread running the prediction executes its
  /// own shards, i.e. one-thread-per-plan behavior. Results are
  /// bit-identical either way.
  int num_workers = 0;
  /// Capacity of the sample-run cache (distinct plan fingerprints held);
  /// 0 disables caching entirely. The capacity is enforced per shard
  /// (ceil(capacity / shards) entries each), so a shard under churn
  /// evicts locally instead of taking a global lock.
  size_t cache_capacity = 256;
  /// Number of independent cache/in-flight shards (rounded up to a power
  /// of two). 0 sizes to the hardware concurrency, clamped to [1, 64].
  /// 1 degenerates to the historical single-mutex layout — the bench's
  /// contention baseline.
  int cache_shards = 0;
  /// When true (default), cache entries are additionally published into a
  /// per-shard, 2-way tagged slot array read with
  /// std::atomic_load(acquire): a hot-cache hit costs a couple of atomic
  /// loads, a key memcmp and a relaxed recency-tick store — no shard
  /// mutex, no global mutex. Two hot plans whose fingerprints collide on
  /// one slot index each keep a way, so both stay lock-free instead of
  /// perpetually displacing each other. When false, every hit goes
  /// through the shard mutex (the pre-sharding behavior, kept as the
  /// bench baseline and a differential-testing seam).
  bool lock_free_hits = true;
  /// Test seam: replaces PlanFingerprint as the cache/dedup hash when
  /// non-null. The structural-key confirmation still applies, so tests can
  /// force every plan onto one fingerprint to exercise collision handling.
  uint64_t (*fingerprint_fn)(const Plan&) = nullptr;
  /// Test seam: called after stages 1-2 of a cache miss run, before the
  /// artifacts are published to the cache. Lets tests interleave
  /// InvalidateCache deterministically with an in-flight prediction, and
  /// gate an in-flight winner while async losers park continuations.
  std::function<void()> post_stages_hook;
  /// Online feedback loop (ReportObserved): per-plan-family error
  /// tracking, convergence detection, and drift-triggered recalibration.
  /// Disabled by default — the service then keeps zero feedback state.
  FeedbackOptions feedback;
  /// Test/bench seam: deterministic fault injection (see service/fault.h).
  /// Consulted once per stage-1 attempt (injected latency, injected
  /// failure) and once per pool enqueue (spurious wakeups). Null — the
  /// production default — costs exactly one pointer test per site. Not
  /// owned; must outlive the service.
  FaultInjector* fault_injector = nullptr;
  /// Per-family circuit breaker: failure_threshold consecutive stage-1
  /// failures quarantine the family (requests shed without touching
  /// stage 1) until a half-open probe succeeds. failure_threshold == 0
  /// (default) disables the breaker entirely.
  BreakerOptions breaker;
  /// Cost-only fallback served when a request sets
  /// RequestOptions::allow_degraded and its stage work failed.
  DegradedOptions degraded;
  PredictorOptions predictor;
};

/// Monotonic counters exposed for tests and monitoring. Every prediction
/// request bumps exactly ONE cell of a per-stripe 2x4 resolution matrix
/// (hit/miss x ok/failed/degraded/deadline_exceeded) at the moment its
/// caller-visible result is decided — no global stats lock on the hot
/// path. `cache_hits`/`cache_misses` are the matrix row sums, the outcome
/// counters its column sums, and `predictions` the total, so BOTH
/// conservation invariants
///   cache_hits + cache_misses == predictions
///   ok_served + failed + degraded_served + deadline_exceeded == predictions
/// hold at every observable instant by construction — even sampled
/// mid-storm from another thread. A request that ran (or would have run —
/// breaker sheds included) stages 1-2 itself is a miss; a request served
/// from the cache or another request's in-flight execution is a hit.
struct ServiceStats {
  uint64_t predictions = 0;     ///< predictions served (single + batched + async)
  uint64_t sample_runs = 0;     ///< SampleRunStage executions (stage 1)
  uint64_t fit_runs = 0;        ///< CostFitStage executions (stage 2)
  uint64_t cache_hits = 0;      ///< predictions that ran no stage-1/2 work
  uint64_t cache_misses = 0;    ///< predictions that ran stages themselves
  // --- per-request resolution outcomes (matrix column sums) ---
  uint64_t ok_served = 0;          ///< full-pipeline predictions delivered
  uint64_t failed = 0;             ///< requests resolved with a non-deadline
                                   ///< error status (stage failure, shed
                                   ///< without degradation)
  uint64_t degraded_served = 0;    ///< cost-only fallbacks delivered
                                   ///< (Prediction::degraded == true)
  uint64_t deadline_exceeded = 0;  ///< requests resolved DeadlineExceeded
  uint64_t lockfree_hits = 0;   ///< hits served by the mutex-free published
                                ///< slot path (subset of cache_hits)
  uint64_t inflight_joins = 0;  ///< requests that parked a continuation on
                                ///< an in-flight miss, counted when they
                                ///< park — observable mid-run
  uint64_t stale_drops = 0;     ///< cache inserts dropped by InvalidateCache generation
  uint64_t async_rejects = 0;   ///< PredictAsync calls refused after Shutdown
  // --- calibration-epoch lifecycle + feedback loop ---
  uint64_t recombines = 0;        ///< cached entries lazily re-combined after a
                                  ///< calibration swap invalidated their
                                  ///< stage-3 memo (stage-1/2 untouched)
  uint64_t recalibrations = 0;    ///< drift-triggered snapshot publishes
  uint64_t feedback_reports = 0;  ///< ReportObserved calls accepted
  uint64_t feedback_dropped = 0;  ///< reports with no usable error (plan never
                                  ///< predicted, observation not finite and
                                  ///< positive)
  uint64_t feedback_stash_hits = 0;  ///< reports for evicted/flushed plans
                                     ///< served from the family's
                                     ///< last-prediction stash instead of
                                     ///< being dropped
  uint64_t converged_families = 0;  ///< gauge: plan families currently
                                    ///< converged (no longer tracked)
  uint64_t feedback_families = 0;   ///< gauge: plan families ever reported
  // --- fault injection + circuit breaker ---
  uint64_t faults_injected = 0;    ///< stage-1 attempts replaced by an
                                   ///< injected failure (test seam)
  uint64_t spurious_wakeups = 0;   ///< injected no-op pool NotifyAll calls
  uint64_t breaker_opens = 0;      ///< family transitions to open
  uint64_t breaker_shed = 0;       ///< requests shed while a family was open
  uint64_t breaker_probes = 0;     ///< half-open probe runs admitted
};

/// Thread-safe, concurrent front end to the prediction pipeline — the
/// piece that lets the predictor sit on the admission path of a
/// multi-user system instead of being re-instantiated per query.
///
///   - Predict(plan): one prediction, awaited on the calling thread.
///   - PredictAsync(plan): one prediction returned as a future; a cold
///     plan runs on the worker pool. Fire-and-forget safe: the caller may
///     destroy the plan the moment the call returns.
///   - PredictBatch(plans): one request per distinct plan, owned runs
///     sharded across the worker pool.
///
/// All three share one request path. A request's lookup-and-route step
/// ends in one of three ways: served from the artifact cache, parked as a
/// continuation on the run already in flight for its plan, or registered
/// as the owner of a new run. The owner runs stages 1-2 and then drains
/// every parked continuation with the cheap stage-3 combination; a
/// continuation is resolved exactly once, by that drain or by its own
/// caller's deadline, whichever comes first. So a same-fingerprint storm
/// occupies one thread, never the pool: no pool worker ever blocks on
/// another request's run.
///
/// The cache and the in-flight table are sharded by fingerprint: N
/// independent shards, each with its own mutex, entry map and recency
/// ticks, so requests for different plans never serialize on a global
/// lock. Within a shard, hot hits do not take the shard mutex either:
/// resident entries are published as immutable shared_ptr bundles into a
/// per-shard, 2-way tagged slot array read via std::atomic_load(acquire);
/// recency is a relaxed per-entry tick (approximate LRU — eviction order
/// is not part of the determinism contract). Each entry stores the plan's
/// interned canonical structural key (PlanIdentity, serialized once per
/// distinct plan object and shared by reference), confirmed on every hit,
/// so a 64-bit fingerprint collision degrades to a miss instead of
/// serving another plan's artifacts.
///
/// Calibration is a versioned runtime artifact, not construction-time
/// state: the service owns an epoch-stamped, atomically swappable
/// CalibrationSnapshot (the construction units become epoch 1).
/// PublishCalibration installs a new epoch WITHOUT touching the cache —
/// stage-1/2 artifacts are unit-independent, so a swap invalidates only
/// each entry's memoized stage-3 combination: entries re-combine lazily
/// against the new epoch on their next hit (counted in
/// stats().recombines) instead of paying a full InvalidateCache.
/// ReportObserved feeds actual runtimes back in; per-plan-family error
/// windows converge (and stop paying tracking overhead) or drift (and
/// trigger a recalibration through FeedbackOptions::recalibrate).
///
/// Served predictions alias the immutable cached artifacts via shared_ptr
/// (zero-copy), so a hot-cache prediction costs at most one variance
/// combination — and exactly zero when the entry's memoized combination
/// matches the current calibration epoch. Every stage is deterministic:
/// cached, batched, async and sequential predictions are bit-identical.
class PredictionService {
 public:
  PredictionService(const Database* db, const SampleDb* samples,
                    CostUnits units, ServiceOptions options = ServiceOptions());
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  const PredictionPipeline& pipeline() const { return pipeline_; }
  const ServiceOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Full prediction of one plan: submit, then wait on the calling thread.
  /// A request that owns its plan's run executes the stages inline. Safe
  /// to call concurrently from any number of threads; the plan is only
  /// read for the duration of the call. `opts` adds a deadline
  /// (cooperatively cancelled at the next operator/morsel boundary; a
  /// request parked on another request's run stops waiting at its
  /// deadline, and that run completes and caches normally) and/or opts
  /// into cost-only degradation.
  StatusOr<Prediction> Predict(const Plan& plan,
                               const RequestOptions& opts = RequestOptions());

  /// Full prediction of one plan, returned as a future; returns at once.
  /// The caller can overlap queueing/scheduling work with the prediction
  /// and collect the result when the admission decision is due.
  ///
  /// Ownership contract: the caller may destroy (or move) the plan
  /// immediately after this call; the future stays valid and will be
  /// satisfied. A cache hit returns an already-ready future (on a hot
  /// cache without touching any service mutex), and a plan already in
  /// flight parks a continuation that holds no plan. Only a cold miss
  /// deep-copies the plan and queues it for the pool; the worker that
  /// dequeues it registers as its run's owner. A request whose deadline
  /// expired in the queue never registers, so it cannot fail anyone else's
  /// join: it resolves DeadlineExceeded (or degraded) unless a run or
  /// cache entry for its plan already exists.
  ///
  /// After Shutdown() the returned future is never left unsatisfied: cache
  /// hits and parked continuations are served as usual; a cold miss is
  /// immediately ready with Status::Unavailable.
  std::future<StatusOr<Prediction>> PredictAsync(
      const Plan& plan, const RequestOptions& opts = RequestOptions());

  /// Predicts every plan in the vector. Results are positional; each plan
  /// gets its own Status. Bit-identical to calling Predict sequentially.
  /// Plans that share a fingerprint and structure share one request; the
  /// runs this batch owns are sharded across the worker pool (the calling
  /// thread participates), and the calling thread then waits on the
  /// requests parked on other requests' runs. `opts` applies to every
  /// plan. Every slot resolves to its own terminal status: a failed run
  /// propagates its failure (or a degraded fallback) to each of its slots.
  std::vector<StatusOr<Prediction>> PredictBatch(
      const std::vector<const Plan*>& plans,
      const RequestOptions& opts = RequestOptions());

  /// Re-derives the distribution of an existing prediction under a
  /// different variant/bound without re-running any stage (the ablation /
  /// variant re-derivation path). Combines under the prediction's own
  /// calibration snapshot, so the result is stable across epoch swaps.
  VarianceBreakdown Recompute(const Prediction& prediction,
                              PredictorVariant variant,
                              CovarianceBoundKind bound) const;

  // ----- calibration-epoch lifecycle -----

  /// The current calibration snapshot (atomic load; never null). Every
  /// prediction records the snapshot it combined under in
  /// Prediction::calibration.
  CalibrationPtr calibration() const { return pipeline_.calibration(); }
  uint64_t calibration_epoch() const { return calibration()->epoch; }

  /// Atomically installs new cost units as the next calibration epoch and
  /// returns that epoch. Deliberately does NOT flush the artifact cache:
  /// stage-1/2 artifacts are unit-independent, so each cached entry only
  /// re-runs its (cheap) stage-3 combination lazily, on its next hit —
  /// see stats().recombines. In-flight predictions that already resolved
  /// the old snapshot finish under it, bit-identical to a pre-swap
  /// prediction. Tracked (non-converged) feedback windows reset: their
  /// errors were measured against the old epoch's predictions.
  uint64_t PublishCalibration(CostUnits units, std::string source = "manual");

  // ----- online feedback loop -----

  /// Reports the observed runtime of one executed plan, closing the loop
  /// between prediction and execution. Maintains a windowed relative-error
  /// series per plan family (keyed by fingerprint): a family whose window
  /// converges stops paying tracking overhead (no error computation, no
  /// window update — only a periodic probe); a family whose window drifts
  /// past FeedbackOptions::drift_threshold triggers one recalibration
  /// (FeedbackOptions::recalibrate → PublishCalibration) per cooldown.
  /// The error is computed against the family's cached prediction under
  /// the CURRENT epoch; a report for a plan that fell out of the cache
  /// (evicted or flushed) falls back to the family's last-prediction
  /// stash (counted in stats().feedback_stash_hits), so an
  /// evicted-but-reported family still tracks instead of dropping.
  /// Only a family that was never predicted at all drops its reports
  /// (stats().feedback_dropped), as does an observation that is not a
  /// finite positive number of milliseconds. No-op unless
  /// ServiceOptions::feedback.enabled.
  void ReportObserved(const Plan& plan, double observed_ms);
  void ReportObserved(uint64_t fingerprint, double observed_ms);

  /// Same feedback path, but the error is computed against a
  /// caller-supplied decision-time prediction instead of the family's
  /// current cached one. This is the injection hook for simulated
  /// execution (the scheduling scenario suite): the simulator admits a
  /// query under prediction P, runs it, and reports the observed runtime
  /// against P even if the service has since recalibrated — the feedback
  /// series then measures the error of the predictions the *decisions*
  /// were actually made with. Refreshes the family's last-prediction
  /// stash like the cache-backed path.
  void ReportObservedAgainst(uint64_t fingerprint, const Prediction& as_decided,
                             double observed_ms);

  /// Per-family feedback state (tests, benches, monitoring): window
  /// contents, update counters, convergence flags — with the family's
  /// circuit-breaker state merged in when a breaker is configured
  /// (breaker-only families appear as rows with empty windows). Sorted by
  /// fingerprint. Empty when both feedback and the breaker are disabled.
  std::vector<FamilyFeedback> FeedbackSnapshot() const;

  /// Stops the worker pool: drains every task already enqueued (so every
  /// previously returned future is satisfied), joins the workers, and
  /// makes later cold PredictAsync calls fail fast with
  /// Status::Unavailable instead of leaving their futures unsatisfied
  /// forever. Synchronous
  /// Predict/PredictBatch keep working (inline on the calling thread).
  /// Idempotent; called by the destructor.
  void Shutdown();

  /// Snapshot of the service counters, summed over the per-shard stripes.
  /// Internally consistent: the hit/miss split always sums to
  /// `predictions` (each stripe keeps its local split exact, and
  /// `predictions` is their sum by definition).
  ServiceStats stats() const;

  /// Number of distinct fingerprints currently cached (summed over shards).
  size_t cache_size() const;

  /// Drops every cached sample run (e.g. after samples are rebuilt) and
  /// advances the cache generation: in-flight predictions that started
  /// before the flush still complete, but their artifacts are not
  /// re-inserted into the cache. One global (atomic) generation counter;
  /// the flush itself sweeps shard by shard. Lock-free hits validate the
  /// entry's insert generation against the global counter, so a hit that
  /// begins after the bump never serves a pre-flush artifact.
  ///
  /// This is the heavyweight invalidation — for a calibration change use
  /// PublishCalibration, which keeps every stage-1/2 artifact and costs
  /// one lazy stage-3 re-combination per cached entry instead.
  void InvalidateCache();

 private:
  /// The cached (shared, immutable) stage 1-2 artifacts of one plan.
  using Artifacts = StageArtifacts;
  using IdentityPtr = std::shared_ptr<const PlanIdentity>;

  /// Ways per published-slot index. Two, so a pair of hot plans whose
  /// fingerprints map to the same slot index coexist on the lock-free
  /// path instead of evicting each other on every publish.
  static constexpr size_t kSlotWays = 2;

  /// Resolved deadline/degradation state of one request, derived from its
  /// RequestOptions at submit time (so the budget is measured from
  /// submission, not from whenever a worker dequeues the request).
  struct RequestContext {
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    bool allow_degraded = false;
    bool Expired() const {
      return has_deadline && std::chrono::steady_clock::now() >= deadline;
    }
  };
  static RequestContext MakeContext(const RequestOptions& opts);

  /// How one request resolved — the second axis of the stats stripe's
  /// resolution matrix (see ServiceStats).
  enum class Outcome { kOk = 0, kFailed = 1, kDegraded = 2, kDeadline = 3 };
  static constexpr size_t kNumOutcomes = 4;

  /// The identity of one request and its resolved options.
  struct Request {
    uint64_t fingerprint = 0;
    IdentityPtr identity;  ///< interned canonical structure (shared, not copied)
    RequestContext ctx;
  };
  Request MakeRequest(const Plan& plan, const RequestContext& ctx) const;

  /// A request parked on an in-flight run, or an async request queued for
  /// the pool. Holds no plan except the queued one's deep copy: whoever
  /// resolves a parked continuation supplies its own plan (structurally
  /// identical, the key was confirmed when it parked) for a degraded
  /// fallback.
  struct Continuation {
    explicit Continuation(Request r)
        : req(std::move(r)), future(promise.get_future()) {}
    /// True for exactly one caller: the owner draining the waiter list or
    /// the parked caller's own deadline, whichever comes first. Only the
    /// claimant sets the promise and records the request's outcome.
    bool Claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }

    Request req;
    std::shared_ptr<const Plan> plan;  ///< queued async owner only
    std::promise<StatusOr<Prediction>> promise;
    /// Used only by the submitting caller (moved out, or waited on); a
    /// resolver touches only `promise` and `claimed`, so they never race.
    std::future<StatusOr<Prediction>> future;
    std::atomic<bool> claimed{false};
  };
  using ContinuationPtr = std::shared_ptr<Continuation>;

  /// One in-flight stage-1/2 execution: its owner runs the stages and then
  /// drains `waiters`, so no joiner pins a thread of the pool.
  struct Inflight {
    explicit Inflight(IdentityPtr identity_in)
        : identity(std::move(identity_in)) {}
    IdentityPtr identity;  ///< structure of the plan being computed
    /// Parked continuations, guarded by the owning shard's mutex — a
    /// capability that is not a member of this struct, so the invariant
    /// is not expressible as a GUARDED_BY annotation (thread-safety
    /// analysis can only name capabilities reachable from the declaration).
    /// The discipline is structural instead: `waiters` is only mutated
    /// while this entry is reachable from the shard's in-flight map (Route
    /// parks under shard.mu), and the completing thread detaches the whole
    /// list under the same lock (CompleteRun), so no continuation is ever
    /// lost.
    std::vector<ContinuationPtr> waiters;
  };

  /// Memoized stage-3 combination of one cache entry, stamped with the
  /// calibration epoch it was combined under. Epochs are unique
  /// (PublishCalibration serializes them), so an epoch match proves the
  /// breakdown is valid under the current units — serving it runs zero
  /// combination work. Immutable once published.
  struct CombineMemo {
    uint64_t epoch = 0;
    VarianceBreakdown breakdown;
  };
  using MemoPtr = std::shared_ptr<const CombineMemo>;

  /// One resident cache entry. Immutable after construction except for
  /// the recency tick and the stage-3 memo, so concurrent lock-free
  /// readers may copy the artifact bundle without synchronization beyond
  /// the acquire load that reached the entry.
  struct CacheEntry {
    uint64_t fingerprint = 0;
    IdentityPtr identity;  ///< interned key, confirmed on every hit
    Artifacts artifacts;
    uint64_t generation = 0;  ///< global generation at insert time
    /// Last-use tick from the shard's ticket counter; relaxed stores from
    /// hit paths, read under the shard mutex for (approximate-LRU)
    /// eviction. Approximation is fine: eviction order is not part of the
    /// determinism contract.
    mutable std::atomic<uint64_t> last_used{0};
    /// Epoch-stamped stage-3 memo; accessed only via std::atomic_load /
    /// atomic_store free functions (see CombineCached). A calibration
    /// swap makes it stale — never wrong — and the next hit lazily
    /// re-combines.
    mutable MemoPtr combined;
  };
  using EntryPtr = std::shared_ptr<const CacheEntry>;

  /// Per-shard stats stripe: monotone relaxed atomics, padded to a cache
  /// line so neighbouring stripes don't false-share. Neither
  /// `predictions` nor the hit/miss/outcome splits are stored separately —
  /// all are sums over the resolution matrix by definition, which is what
  /// makes BOTH snapshot invariants un-tearable.
  struct alignas(64) StatsStripe {
    /// The resolution matrix: [miss=0 / hit=1][Outcome]. Every request
    /// bumps exactly one cell, exactly once, at the moment its
    /// caller-visible result is decided.
    std::atomic<uint64_t> outcome[2][kNumOutcomes] = {};
    std::atomic<uint64_t> sample_runs{0};
    std::atomic<uint64_t> fit_runs{0};
    std::atomic<uint64_t> lockfree_hits{0};
    std::atomic<uint64_t> inflight_joins{0};
    std::atomic<uint64_t> stale_drops{0};
    std::atomic<uint64_t> async_rejects{0};
    std::atomic<uint64_t> recombines{0};
    std::atomic<uint64_t> recalibrations{0};
    std::atomic<uint64_t> feedback_reports{0};
    std::atomic<uint64_t> feedback_dropped{0};
    std::atomic<uint64_t> feedback_stash_hits{0};
    std::atomic<uint64_t> faults_injected{0};
    std::atomic<uint64_t> spurious_wakeups{0};
  };

  /// One cache + in-flight shard. `slots` is the lock-free publication
  /// layer: a fixed direct-mapped array of kSlotWays-way shared_ptr slot
  /// groups accessed only through std::atomic_load/atomic_store — outside
  /// the mutex capability model by design (the published-slot read path is
  /// the one that must never take `mu`), so the slot protocol is covered
  /// by TSan and the generation check rather than GUARDED_BY; `entries`
  /// (under `mu`) is the authority for residency and capacity.
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, EntryPtr> entries UQP_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::shared_ptr<Inflight>> inflight
        UQP_GUARDED_BY(mu);
    /// Published entries; size is (power of two) * kSlotWays, fixed at
    /// construction. Never resized, so concurrent element access is safe.
    std::vector<EntryPtr> slots;
    /// Monotone recency ticket; fetch_add(relaxed) per hit.
    std::atomic<uint64_t> ticket{0};
  };

  Shard& ShardFor(uint64_t fingerprint) const {
    return shards_[static_cast<size_t>(fingerprint) & shard_mask_];
  }
  StatsStripe& StripeFor(uint64_t fingerprint) const {
    return stripes_[static_cast<size_t>(fingerprint) & shard_mask_];
  }
  size_t SlotBase(uint64_t fingerprint) const {
    // The low bits picked the shard; the next bits pick the slot index;
    // each index owns kSlotWays consecutive ways.
    return (static_cast<size_t>(fingerprint >> shard_bits_) & slot_mask_) *
           kSlotWays;
  }

  uint64_t Fingerprint(const Plan& plan, const PlanIdentity& identity) const;

  /// Where Route sent one request: at most one of {entry, waiter, owner};
  /// none when a miss was not allowed to register.
  struct Ticket {
    EntryPtr entry;          ///< served from the cache
    bool lock_free = false;  ///< ... off the published slots
    ContinuationPtr waiter;  ///< parked on the run in flight for its plan
    bool owner = false;      ///< runs the stages itself
    /// The in-flight record it owns; null for a solo run beside another
    /// plan's run on the same fingerprint (a hash collision).
    std::shared_ptr<Inflight> owned;
    uint64_t generation = 0;  ///< cache generation the run started under
  };

  /// The mutex-free fast path: probes the shard's published slot ways for
  /// a current-generation entry with this fingerprint and a confirmed
  /// structural key. On a hit, returns the entry (artifacts + epoch memo)
  /// and bumps its recency tick (relaxed) — no mutex anywhere. Does NOT
  /// classify the request: the caller records the resolution (hit, ok,
  /// lock_free) when it actually serves. Returns false on any mismatch
  /// (empty ways, displaced entry, stale generation, collision).
  bool TryLockFreeHit(uint64_t fingerprint, const PlanIdentity& identity,
                      EntryPtr* out);

  /// The lookup-and-route step of every request path, so the collision
  /// and generation rules live in exactly one place: the lock-free slot
  /// probe, then, under the shard mutex, the cache (structural key
  /// confirmed, recency bumped, slot republished) and the in-flight
  /// table. A run in flight for the same structure gets the request parked
  /// on it as `waiter` (created here unless passed in) — atomic with the
  /// lookup, so the owner cannot complete in between and lose it, and
  /// counted as an in-flight join at once. On a full miss the request
  /// becomes the owner when `register_owned`; otherwise the ticket is
  /// empty. Does NOT classify the request: the path that resolves it
  /// records its resolution-matrix cell.
  Ticket Route(const Request& req, ContinuationPtr waiter, bool register_owned);

  /// Serves a prediction from a resident entry through its epoch memo:
  /// if the memoized stage-3 result matches the current calibration
  /// epoch, zero combination work runs; otherwise the entry re-combines
  /// under the current snapshot and republishes the memo (counted in
  /// stats().recombines when a stale memo existed — i.e. on the first hit
  /// after a calibration swap). Does NOT classify the request — callers
  /// already did.
  Prediction CombineCached(const EntryPtr& entry);

  /// Locked cache probe by fingerprint only (no identity confirmation) —
  /// the feedback path's "what do we currently predict for this family"
  /// lookup. Returns null when absent or stale.
  EntryPtr FindEntry(uint64_t fingerprint) const;

  /// Publishes `entry` into its slot group (shard mutex held): reuses the
  /// way already holding this fingerprint, else an empty way, else
  /// displaces the way with the older recency tick.
  void PublishSlotLocked(Shard& shard, const EntryPtr& entry)
      UQP_REQUIRES(shard.mu);
  /// Clears any way still pointing at `entry` (shard mutex held).
  void UnpublishSlotLocked(Shard& shard, const EntryPtr& entry)
      UQP_REQUIRES(shard.mu);

  /// Runs the stages a ticket owns: breaker admission (a quarantined
  /// family is shed without touching stage 1), the stage run, the breaker
  /// verdict, then CompleteRun — so every parked continuation resolves,
  /// shed or not.
  StatusOr<Artifacts> RunOwnedStages(const Plan& plan, const Request& req,
                                     const Ticket& ticket);

  /// Publishes a finished run: removes the in-flight entry, inserts into
  /// the cache (unless the generation moved) and resolves every parked
  /// continuation it still can claim, with the same result — the owner's
  /// error is the group's error, never a placeholder.
  void CompleteRun(const Plan& plan, const Request& req, const Ticket& ticket,
                   const StatusOr<Artifacts>& result);

  /// Waits on a parked sync or batch request. At its deadline the caller
  /// claims it and resolves it DeadlineExceeded (or degraded) itself; the
  /// run it left completes, caches and drains the others normally.
  StatusOr<Prediction> Await(Continuation& c, const Plan& plan);

  /// Body of one queued PredictAsync: routes again (the cache may have
  /// warmed), registering as owner only while the deadline holds.
  void RunQueued(const ContinuationPtr& c);

  /// Stage 3 from shared artifacts; a failed result becomes a degraded
  /// fallback built from `plan` when the request opted in. Records the
  /// request's resolution cell exactly once.
  StatusOr<Prediction> Serve(const Request& req,
                             const StatusOr<Artifacts>& artifacts, bool hit,
                             const Plan& plan);
  /// Same, served from a resident entry through its epoch memo.
  Prediction ServeEntry(const Request& req, const EntryPtr& entry,
                        bool lock_free);
  /// Resolves a continuation with Serve's result.
  void Deliver(Continuation& c, const StatusOr<Artifacts>& artifacts, bool hit,
               const Plan& plan) {
    c.promise.set_value(Serve(c.req, artifacts, hit, plan));
  }

  /// Runs stages 1-2 for the plan, outside any lock. Consults the fault
  /// injector first (injected latency is slept here; an injected failure
  /// returns without running stage 1), then pre-checks the deadline, then
  /// runs the real stages with a cooperative cancellation probe derived
  /// from the deadline (checked at operator and morsel-shard boundaries).
  StatusOr<Artifacts> RunStages(const Plan& plan, uint64_t fingerprint,
                                const RequestContext& ctx);

  /// The single resolution point of a request: bumps exactly one cell of
  /// the stripe's [hit][outcome] matrix (every stats invariant is a sum
  /// over those cells).
  void RecordOutcome(uint64_t fingerprint, bool hit, Outcome outcome,
                     bool lock_free = false);

  /// The Outcome a terminal result maps to.
  static Outcome OutcomeOf(const StatusOr<Prediction>& result) {
    if (result.ok()) {
      return result->degraded ? Outcome::kDegraded : Outcome::kOk;
    }
    return result.status().code() == StatusCode::kDeadlineExceeded
               ? Outcome::kDeadline
               : Outcome::kFailed;
  }

  /// Cost-only degraded fallback (Prediction::degraded == true): mean =
  /// OptimizerScalarCost * DegradedOptions::cost_scale_ms; sigma inflated
  /// from the family's windowed feedback error (or the configured default
  /// when the family has no history). Carries NO stage-1/2 artifacts.
  Prediction MakeDegraded(uint64_t fingerprint, const Plan& plan);

  /// Injected spurious wakeup after a pool enqueue (test seam): an extra
  /// NotifyAll with nothing new to do, exercising the explicit predicate
  /// loops around every CondVar wait.
  void MaybeSpuriousWakeup();

  /// Inserts into the shard (shard mutex held) and publishes the slot. On
  /// a lost race the incumbent wins; on a fingerprint collision the
  /// newcomer replaces it. Evicts the least-recently-ticked entry when
  /// the shard exceeds its capacity share.
  void CachePutLocked(Shard& shard, uint64_t fingerprint,
                      const IdentityPtr& identity, Artifacts artifacts,
                      uint64_t generation) UQP_REQUIRES(shard.mu);

  /// Drift handler: at most one caller per cooldown re-derives the cost
  /// units (FeedbackOptions::recalibrate, run outside every lock) and
  /// publishes them as the next epoch. No-op in detect-only mode.
  void HandleDrift(uint64_t fingerprint);

  /// The one feedback path behind both ReportObserved forms: drops an
  /// observation that is not a finite positive number, else records the
  /// relative error against the mean `mean_fn` yields (it may refresh or
  /// fall back to the family's stash; false = nothing to compare to), and
  /// handles a drift verdict.
  void Report(uint64_t fingerprint, double observed_ms,
              const FeedbackRegistry::ErrorFn& mean_fn);

  /// Runs `fn(i)` for i in [0, n) across the worker pool, the calling
  /// thread included; returns when all indexes are done.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  void WorkerLoop();

  /// Adapter handing the worker pool to the executor as a TaskRunner, so
  /// intra-plan shard tasks and plan-level prediction tasks share one set
  /// of threads (see ServiceOptions::num_workers).
  class PoolRunner : public TaskRunner {
   public:
    explicit PoolRunner(PredictionService* service) : service_(service) {}
    void RunTasks(int64_t n, const std::function<void(int64_t)>& fn) override {
      service_->ParallelFor(static_cast<size_t>(n), [&fn](size_t i) {
        fn(static_cast<int64_t>(i));
      });
    }

   private:
    PredictionService* service_;
  };

  PoolRunner pool_runner_{this};  ///< must outlive (so precede) pipeline_
  PredictionPipeline pipeline_;
  ServiceOptions options_;
  /// The database the pipeline predicts against, kept for the degraded
  /// fallback's optimizer scalar cost (the pipeline owns its own copy of
  /// this pointer but does not expose it).
  const Database* db_ = nullptr;
  /// Per-family quarantine; null when BreakerOptions::failure_threshold
  /// is 0 (zero overhead).
  std::unique_ptr<CircuitBreakerRegistry> breaker_;

  // ----- sharded stage-artifact cache + in-flight dedup tables -----
  mutable std::unique_ptr<Shard[]> shard_storage_;
  /// Span view of shard_storage_ (mutable access from const snapshots).
  struct ShardSpan {
    Shard* data = nullptr;
    size_t count = 0;
    Shard& operator[](size_t i) const { return data[i]; }
    size_t size() const { return count; }
    Shard* begin() const { return data; }
    Shard* end() const { return data + count; }
  } shards_;
  size_t shard_mask_ = 0;   ///< shards - 1 (shard count is a power of two)
  unsigned shard_bits_ = 0; ///< log2(shard count)
  size_t slot_mask_ = 0;    ///< per-shard published slot indexes - 1
  size_t shard_capacity_ = 0;  ///< resident entries allowed per shard
  /// Global cache generation, bumped by InvalidateCache before the
  /// per-shard sweep. Lock-free hits and publish paths validate against
  /// it, so the counter — not any one shard's state — is the authority.
  std::atomic<uint64_t> generation_{0};

  // ----- versioned calibration + feedback loop -----
  /// Serializes epoch assignment (PublishCalibration): the snapshot
  /// pointer itself is lock-free (an atomic shared_ptr swap inside the
  /// pipeline, deliberately outside the mutex capability model — see
  /// PredictionPipeline::calibration_); this mutex only guarantees epochs
  /// are unique and monotone, so it guards no fields, just the
  /// read-increment-publish sequence.
  Mutex calibration_mu_;
  /// Per-plan-family windowed error tracking; null when feedback is
  /// disabled (zero overhead).
  std::unique_ptr<FeedbackRegistry> feedback_;

  // ----- striped counters (one stripe per shard + classification rules
  // that make hits + misses == predictions hold by construction) -----
  mutable std::unique_ptr<StatsStripe[]> stripes_storage_;
  StatsStripe* stripes_ = nullptr;

  // ----- worker pool -----
  Mutex pool_mu_;
  CondVar pool_cv_;
  /// Written only by the constructor, joined by Shutdown; never otherwise
  /// mutated, so concurrent readers (ParallelFor, num_workers) race with
  /// nothing and no capability is needed.
  std::vector<std::thread> workers_;
  /// FIFO: workers pop the front, enqueuers push the back, so the oldest
  /// PredictAsync request is always served next (no starvation under
  /// sustained load).
  std::deque<std::function<void()>> pool_queue_ UQP_GUARDED_BY(pool_mu_);
  bool shutdown_ UQP_GUARDED_BY(pool_mu_) = false;
};

}  // namespace uqp
