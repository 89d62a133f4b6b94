#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/shared_cell.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/pipeline.h"
#include "cost/snapshot.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "service/fault.h"
#include "service/feedback.h"

namespace uqp {

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
  /// instead of the error status: the optimizer's estimated resource
  /// counters alone — no sampling, no fitted cost functions — priced in
  /// milliseconds by the current calibration's unit means. A plan that
  /// was never finalized is not degraded: it has nothing to price.
  bool allow_degraded = false;
};

/// Configuration of the prediction service.
struct ServiceOptions {
  /// Worker threads for PredictAsync and PredictBatch sharding. 0 sizes
  /// the pool to the hardware concurrency, capped at 4 — prediction sits
  /// on the admission path and must not monopolize the machine it gates.
  /// The service owns one MorselPool of num_workers + 1 threads (the
  /// workers plus the caller, who also pulls).
  ///
  /// The same pool also backs intra-plan parallelism when
  /// predictor.num_threads != 1: a lone cold request fans its sample run
  /// out across idle workers — every operator shards, including sort
  /// (fixed-shape blocked merge tree), aggregation (per-chunk tables
  /// merged up a fixed-shape tree) and merge-join group emission — while a
  /// saturated service degrades gracefully: shard helpers queue FIFO
  /// behind plan-level work and the thread running the prediction
  /// executes its own shards, i.e. one-thread-per-plan behavior. Results
  /// are bit-identical either way.
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
  /// per-shard, 2-way tagged slot array of SharedCells: a hot-cache hit
  /// checks its slot way under that cell's own lock byte, compares the
  /// interned key by pointer and, before releasing the byte, copies its
  /// prediction's pointers, which alias the entry. So it writes only the
  /// slot group's line and the entry's reference count, which only hits
  /// on the same plan (or its slot-index neighbour) write — no shard
  /// mutex, no process-wide lock. Two hot plans whose fingerprints collide
  /// on one slot index each keep a way, so both stay lock-free instead of
  /// perpetually displacing each other.
  /// When false, every hit goes through the shard mutex (the pre-sharding
  /// behavior, kept as the bench baseline and a differential-testing
  /// seam).
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
  /// failure) and once per PredictAsync enqueue or PredictBatch fan-out
  /// (spurious wakeups). Null — the production default — costs exactly one
  /// pointer test per site. Not owned; must outlive the service.
  ScheduledFaultInjector* fault_injector = nullptr;
  /// Per-family circuit breaker: failure_threshold consecutive stage-1
  /// failures quarantine the family (requests shed without touching
  /// stage 1) until a half-open probe succeeds. failure_threshold == 0
  /// (default) disables the breaker entirely.
  BreakerOptions breaker;
  PredictorOptions predictor;
};

/// Monotonic counters exposed for tests and monitoring. Every prediction
/// request bumps exactly ONE cell of a per-stripe 3x4 resolution matrix
/// (miss/locked hit/lock-free hit x ok/failed/degraded/deadline_exceeded)
/// at the moment its caller-visible result is decided — one relaxed
/// increment, no global stats lock on the hot path. `cache_misses` is the
/// first row's sum, `cache_hits` the other two rows', `lockfree_hits` the
/// last row's, the outcome counters the column sums, and `predictions`
/// the total, so BOTH
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
                                ///< slot path (subset of cache_hits; the
                                ///< matrix's lock-free row)
  uint64_t inflight_joins = 0;  ///< requests that parked a continuation on
                                ///< an in-flight miss (repeated cold plans
                                ///< in one PredictBatch included), counted
                                ///< when they park — observable mid-run
  uint64_t stale_drops = 0;     ///< cache inserts dropped by InvalidateCache generation
  uint64_t async_rejects = 0;   ///< PredictAsync calls refused after Shutdown
  // --- calibration-epoch lifecycle + feedback loop ---
  uint64_t recombines = 0;        ///< cached entries lazily re-combined after a
                                  ///< calibration swap made their stage-3
                                  ///< result stale (stage-1/2 untouched);
                                  ///< the run itself combines once
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

class PredictionFuture;

/// Thread-safe, concurrent front end to the prediction pipeline — the
/// piece that lets the predictor sit on the admission path of a
/// multi-user system instead of being re-instantiated per query.
///
///   - Predict(plan): one prediction, awaited on the calling thread.
///   - PredictAsync(plan): one prediction returned as a PredictionFuture
///     (ready at once on a hit); a cold plan runs on the worker pool.
///     Fire-and-forget safe: the caller may destroy the plan the moment
///     the call returns.
///   - PredictBatch(plans): one request per plan, owned runs sharded
///     across the worker pool.
///
/// All three share one request path, and all three take finalized plans:
/// a request for a plan without an identity (Plan::Identity) resolves
/// FailedPrecondition at once, as one failed miss. A request's
/// lookup-and-route step ends in one of three ways: served from the
/// artifact cache, parked as a continuation on the run already in flight
/// for its plan, or registered as the owner of a new run. The owner runs
/// stages 1-2 into a cache entry, caches it, and hands that same entry to
/// every parked continuation; a continuation is resolved exactly once, by
/// that hand-off or by its own caller's deadline, whichever comes first.
/// So a same-fingerprint storm occupies one thread, never the pool: no
/// pool worker ever blocks on another request's run. The owner combines
/// stage 3 once, into the entry, before caching it; its joiners and the
/// entry's later hits serve that one result.
///
/// The cache and the in-flight table are sharded by fingerprint: N
/// independent shards, each with its own mutex, entry map and CLOCK ring,
/// so requests for different plans never serialize on a global lock.
/// Within a shard, hot hits do not take the shard mutex either: resident
/// entries are published as immutable shared_ptrs into a per-shard, 2-way
/// tagged slot array of SharedCells, one cache line per slot index;
/// recency is a per-entry CLOCK reference bit that a hit writes only when
/// it is clear (eviction order is not part of the determinism contract).
/// A steady-state hit reads the plan's identity through a plain pointer
/// and the pipeline's plain-atomic calibration epoch. Holding its slot
/// way's lock byte, it checks the entry's fingerprint, generation, epoch
/// and key, and copies its prediction's three pointers, each aliasing the
/// entry. So it writes the slot group's lock byte and the entry's one
/// reference count — lines that only hits on the same plan (or its
/// slot-index neighbour) write — plus one cell of its own thread's stats
/// stripe; the caller's destruction of the prediction writes the
/// reference count again. It leaves a set reference bit alone. Each
/// entry stores the plan's interned canonical structural key
/// (PlanIdentity, serialized once per Plan::Finalize and shared by
/// reference), confirmed on every hit, so a 64-bit fingerprint collision
/// degrades to a miss instead of serving another plan's artifacts.
///
/// Calibration is a versioned runtime artifact, not construction-time
/// state: the service owns an epoch-stamped, atomically swappable
/// CalibrationSnapshot (the construction units become epoch 1).
/// PublishCalibration installs a new epoch WITHOUT touching the cache —
/// stage-1/2 artifacts are unit-independent, so a swap only makes each
/// entry's stage-3 result stale: the first hit on a stale entry builds,
/// under the shard mutex, a new entry over the same artifacts combined
/// under the new epoch and puts it in the stale one's place (counted in
/// stats().recombines) instead of paying a full InvalidateCache.
/// ReportObserved feeds actual runtimes back in; per-plan-family error
/// windows converge (and stop paying tracking overhead) or drift (and
/// trigger a recalibration through FeedbackOptions::recalibrate).
///
/// Served predictions alias the immutable cache entry via shared_ptr
/// (zero-copy): sample_run, cost_fit and calibration share the entry's
/// one reference count, and their get() values are the artifacts and the
/// snapshot themselves. A hot-cache prediction costs at most one variance
/// combination — and exactly zero when the entry was combined under the
/// current calibration epoch. Every stage is deterministic:
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
  int num_workers() const { return pool_.num_threads() - 1; }
  int num_shards() const { return static_cast<int>(shard_count_); }

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

  /// Full prediction of one plan, returned as a PredictionFuture; returns
  /// at once. The caller can overlap queueing/scheduling work with the
  /// prediction and collect the result when the admission decision is due.
  ///
  /// Ownership contract: the caller may destroy (or move) the plan
  /// immediately after this call; the future stays valid and will be
  /// satisfied. A cache hit returns a ready future that holds its
  /// prediction inline (on a hot cache without touching any service
  /// mutex; the future adds no allocation or syscall), and a plan already in
  /// flight parks a continuation that holds no plan. Only a cold miss
  /// deep-copies the plan and queues it for the pool; the worker that
  /// dequeues it registers as its run's owner. A request whose deadline
  /// expired in the queue never registers, so it cannot fail anyone else's
  /// join: it resolves DeadlineExceeded (or degraded) unless a run or
  /// cache entry for its plan already exists.
  ///
  /// After Shutdown() the returned future is never left unsatisfied: cache
  /// hits and parked continuations are served as usual; a cold miss is
  /// ready at once with Status::Unavailable.
  PredictionFuture PredictAsync(const Plan& plan,
                                const RequestOptions& opts = RequestOptions());

  /// Predicts every plan in the vector. Results are positional; each plan
  /// gets its own Status. Bit-identical to calling Predict sequentially.
  /// Every slot is one request, routed in order: a slot that repeats an
  /// earlier slot's cold plan joins that slot's run like any concurrent
  /// request. The runs this batch owns and its hits are sharded across the
  /// worker pool (the calling thread participates), and the calling thread
  /// then waits on the parked slots. `opts` applies to every plan. Every
  /// slot resolves to its own terminal status: a failed run propagates its
  /// failure (or a degraded fallback) to each of its joiners.
  std::vector<StatusOr<Prediction>> PredictBatch(
      const std::vector<const Plan*>& plans,
      const RequestOptions& opts = RequestOptions());

  // ----- calibration-epoch lifecycle -----

  /// The current calibration snapshot (atomic load; never null). Every
  /// prediction records the snapshot it combined under in
  /// Prediction::calibration.
  CalibrationPtr calibration() const { return pipeline_.calibration(); }
  uint64_t calibration_epoch() const { return pipeline_.calibration_epoch(); }

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
  /// (stats().feedback_dropped), as do an observation that is not a
  /// finite positive number of milliseconds and a plan never finalized.
  /// No-op unless ServiceOptions::feedback.enabled.
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
  /// stash like the cache-backed path. A degraded P is the optimizer's
  /// cost-only guess, not the pipeline's, so its report is counted in
  /// stats().feedback_dropped and leaves the window and stash alone.
  void ReportObservedAgainst(uint64_t fingerprint, const Prediction& as_decided,
                             double observed_ms);

  /// Per-family state (tests, benches, monitoring): one row per family
  /// record — window contents, update counters, convergence flags and
  /// circuit-breaker state (breaker-only families appear as rows with
  /// empty windows). Sorted by fingerprint. Empty when both feedback and
  /// the breaker are disabled.
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
  friend class PredictionFuture;

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

  /// Where one request's result came from — the first axis of the stats
  /// stripe's resolution matrix (see ServiceStats): its own run, or a hit
  /// through the shard mutex (cache or another request's run), or a hit
  /// off the published slots.
  enum class Source { kMiss = 0, kHit = 1, kLockFreeHit = 2 };
  static constexpr size_t kNumSources = 3;
  /// How one request resolved — the matrix's second axis.
  enum class Outcome { kOk = 0, kFailed = 1, kDegraded = 2, kDeadline = 3 };
  static constexpr size_t kNumOutcomes = 4;

  /// The identity of one request and its resolved options. `identity`
  /// points at the finalized plan's own IdentityPtr (Plan::Identity), so
  /// building a request takes no reference count; whatever outlives the
  /// caller's plan (a cache entry, an in-flight record, a parked or queued
  /// continuation) copies the shared_ptr it points at.
  struct Request {
    uint64_t fingerprint = 0;
    const IdentityPtr* identity = nullptr;  ///< never null, nor its target
    RequestContext ctx;
    const PlanIdentity& id() const { return **identity; }
  };
  Request MakeRequest(const Plan& plan, const RequestContext& ctx) const;

  /// A request parked on an in-flight run, or an async request queued for
  /// the pool, with the one-shot slot its result is delivered through. Its
  /// resolver fills the slot once (Resolve); its one consumer — a pending
  /// PredictionFuture, or a sync or batch caller in Await — waits on it and
  /// moves the result out (Take). Holds no plan except the queued one's
  /// deep copy: whoever resolves a parked continuation supplies its own
  /// plan (structurally identical, the key was confirmed when it parked)
  /// for a degraded fallback.
  struct Continuation {
    /// Owns a copy of the request's identity and re-points `req` at it:
    /// the caller's plan may be gone before the continuation resolves.
    explicit Continuation(const Request& r) : identity(*r.identity), req(r) {
      req.identity = &identity;
    }
    /// True for exactly one caller: the owner draining the waiter list or
    /// the parked caller's own deadline, whichever comes first. Only the
    /// claimant resolves the request and records its outcome. (A queued
    /// request that never parked is resolved by its pool worker alone.)
    bool Claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }

    /// Fills the slot and wakes its consumer. At most once.
    void Resolve(StatusOr<Prediction> value) UQP_EXCLUDES(mu) {
      {
        MutexLock lock(&mu);
        result.emplace(std::move(value));
      }
      ready.NotifyAll();
    }
    /// Waits for the slot until `deadline`; true once it is filled.
    template <class Clock, class Duration>
    bool WaitUntil(const std::chrono::time_point<Clock, Duration>& deadline)
        UQP_EXCLUDES(mu) {
      MutexLock lock(&mu);
      while (!result.has_value()) {
        if (!ready.WaitUntil(mu, deadline)) return result.has_value();
      }
      return true;
    }
    void Wait() UQP_EXCLUDES(mu) {
      MutexLock lock(&mu);
      while (!result.has_value()) ready.Wait(mu);
    }
    /// Waits for the slot, then moves the result out. Once.
    StatusOr<Prediction> Take() UQP_EXCLUDES(mu) {
      MutexLock lock(&mu);
      while (!result.has_value()) ready.Wait(mu);
      return std::move(*result);
    }

    IdentityPtr identity;
    Request req;
    std::shared_ptr<const Plan> plan;  ///< queued async owner only
    std::atomic<bool> claimed{false};
    Mutex mu;
    CondVar ready;
    std::optional<StatusOr<Prediction>> result UQP_GUARDED_BY(mu);
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

  /// The result of one run, and the cache entry it becomes: the plan's
  /// stage 1-2 artifacts and their stage-3 combination under one
  /// calibration snapshot (MakeEntry). Immutable after construction except
  /// for the reference bit, so a reader needs no synchronization beyond
  /// the slot lock byte or shard mutex through which it reached the entry.
  /// Epochs are unique and increasing (PublishCalibration serializes
  /// them), so an `epoch` no older than the pipeline's current one proves
  /// the breakdown is valid under the current units. A calibration swap
  /// makes an entry stale, never wrong: its first hit replaces it
  /// (RecombineLocked).
  struct CacheEntry {
    uint64_t fingerprint = 0;
    IdentityPtr identity;  ///< interned key, confirmed on every hit
    Artifacts artifacts;
    uint64_t generation = 0;  ///< global generation the run started under
    /// calibration->epoch, copied so a hit's check reads this entry's line
    /// and not the snapshot's.
    uint64_t epoch = 0;
    CalibrationPtr calibration;  ///< the snapshot `breakdown` combined under
    VarianceBreakdown breakdown;
    /// CLOCK reference bit: set by a hit, cleared by the shard's hand
    /// sweeping past on an overflowing insert (CachePutLocked). Touch
    /// stores only when the bit is clear, so the hits on a hot entry read
    /// it and write nothing. Relaxed: eviction order is not part of the
    /// determinism contract.
    mutable std::atomic<bool> referenced{false};
    void Touch() const {
      if (!referenced.load(std::memory_order_relaxed)) {
        referenced.store(true, std::memory_order_relaxed);
      }
    }
  };
  using EntryPtr = std::shared_ptr<const CacheEntry>;

  /// Stats stripe: monotone relaxed atomics, padded to a cache line so
  /// neighbouring stripes don't false-share. A thread bumps only its own
  /// stripe (Stripe()), picked by the order in which threads first
  /// recorded anything, so two clients hitting the cache write different
  /// lines whatever plans they ask for. Neither
  /// `predictions` nor the hit/miss/lock-free/outcome splits are stored
  /// separately — all are sums over the resolution matrix by definition,
  /// which is what makes BOTH snapshot invariants un-tearable.
  struct alignas(64) StatsStripe {
    /// The resolution matrix: [Source][Outcome]. Every request bumps
    /// exactly one cell, exactly once, at the moment its caller-visible
    /// result is decided.
    std::atomic<uint64_t> outcome[kNumSources][kNumOutcomes] = {};
    std::atomic<uint64_t> sample_runs{0};
    std::atomic<uint64_t> fit_runs{0};
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
    std::atomic<uint64_t> breaker_opens{0};
    std::atomic<uint64_t> breaker_shed{0};
    std::atomic<uint64_t> breaker_probes{0};
  };

  /// The kSlotWays ways of one published-slot index, on a cache line of
  /// their own so that hits on neighbouring indexes do not false-share.
  struct alignas(64) SlotGroup {
    SharedCell<const CacheEntry> ways[kSlotWays];
  };

  /// One cache + in-flight shard. `slots` is the lock-free publication
  /// layer: a fixed direct-mapped array of SlotGroups whose cells only
  /// `mu`'s holder stores and any thread loads — outside the mutex
  /// capability model by design (the published-slot read path is the one
  /// that must never take `mu`), so the slot protocol is covered by TSan
  /// and the generation check rather than GUARDED_BY; `ring` and
  /// `entries` (under `mu`) are the authority for residency and capacity.
  struct alignas(64) Shard {
    mutable Mutex mu;
    /// Resident entries in CLOCK order, at most the shard's capacity share.
    std::vector<EntryPtr> ring UQP_GUARDED_BY(mu);
    /// The next eviction candidate in `ring`.
    size_t hand UQP_GUARDED_BY(mu) = 0;
    /// Fingerprint -> position in `ring`.
    std::unordered_map<uint64_t, size_t> entries UQP_GUARDED_BY(mu);
    /// Fingerprint -> the runs in flight: one per structure, so plans whose
    /// fingerprints collide each get a run their duplicates can join.
    std::unordered_multimap<uint64_t, std::shared_ptr<Inflight>> inflight
        UQP_GUARDED_BY(mu);
    /// Published entries; (power of two) groups, fixed at construction.
    /// Never resized, so concurrent element access is safe.
    std::unique_ptr<SlotGroup[]> slots;
  };

  Shard& ShardFor(uint64_t fingerprint) const {
    return shards_[static_cast<size_t>(fingerprint) & shard_mask_];
  }
  /// The calling thread's stats stripe.
  StatsStripe& Stripe() const;
  SlotGroup& SlotsFor(const Shard& shard, uint64_t fingerprint) const {
    // The low bits picked the shard; the next bits pick the slot index.
    return shard.slots[static_cast<size_t>(fingerprint >> shard_bits_) &
                       slot_mask_];
  }

  uint64_t Fingerprint(const Plan& plan, const PlanIdentity& identity) const;

  /// Where Route sent one request: a hit (source != kMiss, carrying its
  /// prediction), else at most one of {waiter, owned}; none when a miss
  /// was not allowed to register.
  struct Ticket {
    Source source = Source::kMiss;
    Prediction hit;          ///< served from the cache
    ContinuationPtr waiter;  ///< parked on the run in flight for its plan
    /// The in-flight record it owns: non-null iff it runs the stages.
    std::shared_ptr<Inflight> owned;
    uint64_t generation = 0;  ///< cache generation the run started under
  };

  /// Route's mutex-free probe: checks the shard's published slot ways for
  /// an entry with this fingerprint, the current generation and epoch, and
  /// a confirmed structural key. On a hit it touches the entry's reference
  /// bit and copies the entry's prediction into `out` while it still holds
  /// the way's lock byte, so it takes no reference on the entry itself —
  /// no mutex anywhere. Returns false on any mismatch (empty ways,
  /// displaced entry, stale generation or epoch, collision).
  bool TryLockFreeHit(const Request& req, Prediction* out);

  /// The lookup-and-route step of every request path, so the collision,
  /// generation and epoch rules live in exactly one place: the lock-free
  /// slot probe, then, under the shard mutex, the cache (structural key
  /// confirmed, a stale entry re-combined, reference bit touched, slot
  /// republished) and the in-flight table. A hit carries its prediction
  /// to Serve. A run in flight for the same structure gets the request
  /// parked on it as `waiter` (created here unless passed in) — atomic
  /// with the lookup, so the owner cannot complete in between and lose
  /// it, and counted as an in-flight join at once. On a full miss the
  /// request becomes the owner when `register_owned`; otherwise the ticket
  /// is empty. Does NOT classify the request: the path that resolves it
  /// records its resolution-matrix cell.
  Ticket Route(const Request& req, ContinuationPtr waiter, bool register_owned);

  /// A new entry for `artifacts`, combined under the current calibration
  /// snapshot — the service's only stage-3 call. Loads the snapshot once,
  /// so the entry's epoch is the epoch its breakdown combined under.
  EntryPtr MakeEntry(uint64_t fingerprint, IdentityPtr identity,
                     Artifacts artifacts, uint64_t generation) const;

  /// Writes the prediction `entry` serves into `*out`. Its sample_run,
  /// cost_fit and calibration alias the entry: their get() values are the
  /// artifacts and the snapshot, and all three share the entry's reference
  /// count.
  static void ServeInto(const EntryPtr& entry, Prediction* out);

  /// Replaces the stale-epoch `*entry` (shard mutex held; a ring element,
  /// or a finished run's entry not yet cached) by a new entry over the
  /// same artifacts combined under the current epoch, also in any slot
  /// way still holding it, and counts one stats().recombines.
  void RecombineLocked(Shard& shard, EntryPtr* entry) UQP_REQUIRES(shard.mu);

  /// Locked cache probe by fingerprint only (no identity confirmation) —
  /// the feedback path's "what do we currently predict for this family"
  /// lookup, re-combining a stale entry. False when absent or flushed.
  bool CachedPrediction(uint64_t fingerprint, Prediction* out);

  /// Publishes `entry` into its slot group (shard mutex held): reuses the
  /// way already holding this fingerprint, else an empty way, else
  /// displaces the first way whose reference bit is clear, else way 0.
  void PublishSlotLocked(Shard& shard, const EntryPtr& entry)
      UQP_REQUIRES(shard.mu);
  /// Stores `replacement` (null to unpublish) into any way still pointing
  /// at `entry` (shard mutex held).
  void ReplaceSlotLocked(Shard& shard, const EntryPtr& entry,
                         const EntryPtr& replacement) UQP_REQUIRES(shard.mu);

  /// Runs the stages a ticket owns: breaker admission (a quarantined
  /// family is shed without touching stage 1), stages 1-2, the test hook
  /// and the breaker verdict, the run's one combination into a cache
  /// entry, then CompleteRun — so every parked continuation resolves, shed
  /// or not. Returns the owner's own result.
  StatusOr<Prediction> RunOwnedStages(const Plan& plan, const Request& req,
                                      const Ticket& ticket);

  /// Publishes a finished run: removes the in-flight entry, re-combines
  /// the run's entry if an epoch was published since its combination,
  /// inserts it into the cache (unless the generation moved), then serves
  /// every parked continuation it still can claim, and the owner, the
  /// entry's prediction — or the owner's error, never a placeholder.
  StatusOr<Prediction> CompleteRun(const Plan& plan, const Request& req,
                                   const Ticket& ticket,
                                   StatusOr<EntryPtr> run);

  /// Waits on a parked sync or batch request's slot and takes its result.
  /// At its deadline the caller claims the request and returns
  /// DeadlineExceeded (or degraded) itself, leaving the slot empty; the run
  /// it left completes, caches and drains the others normally.
  StatusOr<Prediction> Await(Continuation& c, const Plan& plan);

  /// Body of one queued PredictAsync: routes again (the cache may have
  /// warmed), registering as owner only while the deadline holds.
  void RunQueued(const ContinuationPtr& c);

  /// The one serve step of every request: `*hit` (moved out), or, when
  /// `hit` is null, `failure` — or the degraded fallback built from `plan`
  /// when the request opted in. Records the request's resolution cell
  /// exactly once.
  StatusOr<Prediction> Serve(const Request& req, const Plan& plan,
                             Prediction* hit, const Status& failure,
                             Source source);

  /// Runs stages 1-2 for the plan, outside any lock.
  /// Consults the fault injector first (injected latency is slept here; an
  /// injected failure returns without running stage 1), then pre-checks
  /// the deadline, then runs the real stages with a cooperative
  /// cancellation probe derived from the deadline (checked at operator and
  /// morsel-shard boundaries).
  StatusOr<Artifacts> RunStages(const Plan& plan, const Request& req);

  /// The single resolution point of a request: bumps exactly one cell of
  /// the calling thread's stripe's [source][outcome] matrix (every stats
  /// invariant is a sum over those cells).
  void RecordOutcome(Source source, Outcome outcome);

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
  /// OptimizerResources dotted with the current calibration's unit means
  /// (ms), stamped with that snapshot; sigma = mean x max(0.5, the
  /// family's windowed feedback error) x 2. Carries NO stage-1/2
  /// artifacts.
  Prediction MakeDegraded(uint64_t fingerprint, const Plan& plan);

  /// The resolution of a request for a plan without an identity (never
  /// finalized, or its last Finalize failed), decided before routing:
  /// FailedPrecondition, recorded as one failed miss, never degraded.
  StatusOr<Prediction> RejectUnfinalized();

  /// Injected spurious wakeup after PredictAsync's enqueue or PredictBatch's
  /// fan-out (test seam): a MorselPool::WakeAll with nothing new to do,
  /// exercising the explicit predicate loops around every CondVar wait.
  void MaybeSpuriousWakeup();

  /// Inserts a run's entry into the shard (shard mutex held) and publishes
  /// the slot. On a lost race the incumbent wins; on a fingerprint
  /// collision the newcomer takes its place in the ring. When the shard is
  /// at its capacity share, the CLOCK hand sweeps from its position,
  /// clearing set reference bits, and the newcomer replaces the first entry
  /// whose bit is clear (after one full turn, the one under the hand).
  void CachePutLocked(Shard& shard, const EntryPtr& entry)
      UQP_REQUIRES(shard.mu);

  /// Drift handler: at most one caller per cooldown re-derives the cost
  /// units (FeedbackOptions::recalibrate, run outside every lock) and
  /// publishes them as the next epoch. No-op in detect-only mode.
  void HandleDrift();

  /// The one feedback path behind both ReportObserved forms: drops an
  /// observation that is not a finite positive number, or that is not
  /// `comparable` (measured against a degraded prediction), else records
  /// the relative error against the mean `mean_fn` yields (it may refresh
  /// or fall back to the family's stash; false = nothing to compare to),
  /// and handles a drift verdict.
  void Report(uint64_t fingerprint, double observed_ms, bool comparable,
              const FamilyRegistry::ErrorFn& mean_fn);

  /// The worker pool: PredictAsync requests and PredictBatch / intra-plan
  /// shard helpers queue FIFO on it (the pipeline's stage-1 runs fan out
  /// on it). Shutdown drains it. Must outlive (so precede) pipeline_.
  MorselPool pool_;
  PredictionPipeline pipeline_;
  ServiceOptions options_;
  /// The database the pipeline predicts against, kept for the degraded
  /// fallback's optimizer scalar cost (the pipeline owns its own copy of
  /// this pointer but does not expose it).
  const Database* db_ = nullptr;

  // ----- sharded stage-artifact cache + in-flight dedup tables -----
  std::unique_ptr<Shard[]> shards_;
  size_t shard_count_ = 0;  ///< a power of two
  size_t shard_mask_ = 0;   ///< shard_count_ - 1
  unsigned shard_bits_ = 0; ///< log2(shard count)
  size_t slot_mask_ = 0;    ///< per-shard published slot indexes - 1
  size_t shard_capacity_ = 0;  ///< resident entries allowed per shard
  /// Global cache generation, bumped by InvalidateCache before the
  /// per-shard sweep. Lock-free hits and publish paths validate against
  /// it, so the counter — not any one shard's state — is the authority.
  std::atomic<uint64_t> generation_{0};

  // ----- versioned calibration + feedback loop -----
  /// Serializes epoch assignment (PublishCalibration): the snapshot
  /// pointer itself is swapped without this mutex (a SharedCell inside the
  /// pipeline, deliberately outside the mutex capability model — see
  /// PredictionPipeline::calibration_); this mutex only guarantees epochs
  /// are unique and monotone, so it guards no fields, just the
  /// read-increment-publish sequence.
  Mutex calibration_mu_;
  /// The per-plan-family table (feedback windows, stashes, breaker
  /// state); null when both feedback and the breaker are disabled (zero
  /// overhead).
  std::unique_ptr<FamilyRegistry> families_;

  // ----- striped counters (one stripe per thread, modulo the stripe
  // count, + classification rules that make hits + misses == predictions
  // hold by construction) -----
  std::unique_ptr<StatsStripe[]> stripes_;
  size_t stripe_mask_ = 0;  ///< stripes - 1 (stripe count is a power of two)
};

/// The result of PredictionService::PredictAsync: a move-only future of
/// one prediction, with std::future's get, valid, wait, wait_for and
/// wait_until. A request resolved on the submitting thread — a cache hit,
/// an unfinalized plan, a refusal after Shutdown — returns a ready future
/// that holds its result inline, so the future itself adds no allocation,
/// lock or syscall. Any other request returns a pending future that holds the
/// request's continuation, which the run's owner or the pool worker
/// resolves once. Either kind stays valid after the service is destroyed.
class PredictionFuture {
 public:
  /// No result (valid() is false), like a default std::future.
  PredictionFuture() = default;
  /// Takes `other`'s result, leaving `other` invalid (a defaulted move
  /// would leave a moved-from result behind in its optional).
  PredictionFuture(PredictionFuture&& other) noexcept
      : ready_(std::move(other.ready_)), pending_(std::move(other.pending_)) {
    other.ready_.reset();
  }
  PredictionFuture& operator=(PredictionFuture&& other) noexcept {
    PredictionFuture taken(std::move(other));
    std::swap(ready_, taken.ready_);
    std::swap(pending_, taken.pending_);
    return *this;
  }
  PredictionFuture(const PredictionFuture&) = delete;
  PredictionFuture& operator=(const PredictionFuture&) = delete;

  /// True until get() moves the result out.
  bool valid() const { return ready_.has_value() || pending_ != nullptr; }

  /// Waits for the result and moves it out; valid() is false afterwards.
  StatusOr<Prediction> get() {
    UQP_CHECK(valid()) << "PredictionFuture::get on an invalid future";
    if (pending_ != nullptr) {
      const PredictionService::ContinuationPtr c = std::move(pending_);
      return c->Take();
    }
    StatusOr<Prediction> out = std::move(*ready_);
    ready_.reset();
    return out;
  }

  /// Wait calls require valid(), like std::future's.
  void wait() const {
    if (pending_ != nullptr) pending_->Wait();
  }
  template <class Rep, class Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) const {
    if (pending_ == nullptr) return std::future_status::ready;
    using Clock = std::chrono::steady_clock;
    using Ms = std::chrono::duration<double, std::milli>;
    const auto now = Clock::now();
    if (timeout <= timeout.zero()) return wait_until(now);
    // A timeout past the end of the clock's range (any duration's max()
    // included) is no deadline, as in MakeContext: `now + timeout` would
    // overflow. The 1 ms margin absorbs the double rounding of `room`.
    const Ms room = Clock::time_point::max() - now;
    if (!(Ms(timeout) < room - Ms(1.0))) {
      wait();
      return std::future_status::ready;
    }
    return wait_until(now + timeout);
  }
  template <class Clock, class Duration>
  std::future_status wait_until(
      const std::chrono::time_point<Clock, Duration>& deadline) const {
    return pending_ == nullptr || pending_->WaitUntil(deadline)
               ? std::future_status::ready
               : std::future_status::timeout;
  }

 private:
  friend class PredictionService;
  explicit PredictionFuture(StatusOr<Prediction> ready)
      : ready_(std::move(ready)) {}
  explicit PredictionFuture(PredictionService::ContinuationPtr pending)
      : pending_(std::move(pending)) {}

  std::optional<StatusOr<Prediction>> ready_;
  PredictionService::ContinuationPtr pending_;
};

}  // namespace uqp
