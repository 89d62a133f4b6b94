#include "service/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "engine/cost_model.h"
#include "engine/expr.h"

namespace uqp {

namespace {

/// Shared state of one ParallelFor: workers and the calling thread pull
/// indexes from `next` until exhausted; the last finisher wakes the caller.
struct ParallelState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t total = 0;
  const std::function<void(size_t)>* fn = nullptr;
  /// Guards nothing directly (the counters are atomics): taken only so the
  /// completion notify and the caller's wait agree on one lock and the
  /// final wakeup cannot be lost.
  Mutex mu;
  CondVar cv;

  void Pull() {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= total) return;
      (*fn)(i);
      if (done.fetch_add(1) + 1 == total) {
        MutexLock lock(&mu);
        cv.NotifyAll();
      }
    }
  }
};

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

PredictionService::PredictionService(const Database* db, const SampleDb* samples,
                                     CostUnits units, ServiceOptions options)
    : pipeline_(db, samples, units, options.predictor, &pool_runner_),
      options_(std::move(options)),
      db_(db) {
  if (options_.breaker.failure_threshold > 0) {
    breaker_.reset(new CircuitBreakerRegistry(options_.breaker));
  }
  int n = options_.num_workers;
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = static_cast<int>(std::min(4u, std::max(1u, hw)));
  }

  int s = options_.cache_shards;
  if (s <= 0) {
    // One shard per hardware thread is enough to make same-shard mutex
    // collisions rare under a uniform fingerprint mix; cap at 64 so a
    // huge machine doesn't fragment a small cache_capacity into nothing.
    const unsigned hw = std::thread::hardware_concurrency();
    s = static_cast<int>(std::min(64u, std::max(1u, hw)));
  }
  const size_t shard_count = RoundUpPow2(static_cast<size_t>(s));
  shard_storage_.reset(new Shard[shard_count]);
  shards_ = ShardSpan{shard_storage_.get(), shard_count};
  shard_mask_ = shard_count - 1;
  shard_bits_ = 0;
  while ((size_t{1} << shard_bits_) < shard_count) ++shard_bits_;
  // Global capacity enforced per shard: each shard owns an equal share
  // (rounded up, so capacity 1 still caches one entry per shard rather
  // than zero). Transient overshoot of the global count under skew is the
  // price of never taking a global lock to evict.
  shard_capacity_ =
      options_.cache_capacity == 0
          ? 0
          : (options_.cache_capacity + shard_count - 1) / shard_count;
  // Published-slot array: direct-mapped by the fingerprint bits above the
  // shard index, 2x the resident capacity so two live entries rarely fight
  // over one slot group (a displaced entry just costs its readers the
  // locked path — never correctness), and kSlotWays ways per index so the
  // entries that DO share a group coexist instead of thrashing.
  const size_t slot_count = RoundUpPow2(
      std::min<size_t>(4096, std::max<size_t>(16, 2 * shard_capacity_)));
  slot_mask_ = slot_count - 1;
  for (Shard& shard : shards_) shard.slots.resize(slot_count * kSlotWays);
  stripes_storage_.reset(new StatsStripe[shard_count]);
  stripes_ = stripes_storage_.get();

  if (options_.feedback.enabled && options_.feedback.window_size > 0) {
    feedback_.reset(new FeedbackRegistry(options_.feedback, shard_count));
  }

  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&PredictionService::WorkerLoop, this);
  }
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::Shutdown() {
  {
    MutexLock lock(&pool_mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  pool_cv_.NotifyAll();
  // Workers drain the queue before exiting, so every future handed out by
  // PredictAsync before the shutdown flag was set is satisfied. Requests
  // that lose the race (PredictAsync observing shutdown_ == true) are
  // rejected with Status::Unavailable instead of being enqueued into a
  // pool nobody drains. The joined threads stay in workers_ — the vector
  // is never mutated after construction, so concurrent readers
  // (ParallelFor, num_workers) race with nothing.
  for (std::thread& t : workers_) t.join();
}

void PredictionService::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&pool_mu_);
      // Explicit predicate loop (not the wait-with-lambda overload): the
      // guarded reads of shutdown_/pool_queue_ stay in this function,
      // where the thread-safety analysis can prove pool_mu_ is held.
      while (!shutdown_ && pool_queue_.empty()) pool_cv_.Wait(pool_mu_);
      if (pool_queue_.empty()) return;  // shutdown_ set and queue drained
      // FIFO: the oldest request is served next. (A LIFO pop would starve
      // the oldest PredictAsync under sustained load.)
      task = std::move(pool_queue_.front());
      pool_queue_.pop_front();
    }
    task();
  }
}

void PredictionService::ParallelFor(size_t n,
                                    const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ParallelState>();
  state->total = n;
  state->fn = &fn;  // outlives the call: we wait for completion below
  const size_t helpers = std::min(workers_.size(), n - 1);
  bool enqueued = false;
  {
    MutexLock lock(&pool_mu_);
    // After Shutdown nobody pops the queue: don't park helper closures
    // there forever — the calling thread just runs every index itself.
    if (!shutdown_) {
      for (size_t i = 0; i < helpers; ++i) {
        pool_queue_.push_back([state] { state->Pull(); });
      }
      enqueued = true;
    }
  }
  if (enqueued) {
    pool_cv_.NotifyAll();
    MaybeSpuriousWakeup();
  }
  state->Pull();  // the calling thread shards too
  MutexLock lock(&state->mu);
  while (state->done.load() != n) state->cv.Wait(state->mu);
}

uint64_t PredictionService::Fingerprint(const Plan& plan,
                                        const PlanIdentity& identity) const {
  return options_.fingerprint_fn != nullptr ? options_.fingerprint_fn(plan)
                                            : identity.fingerprint;
}

PredictionService::Request PredictionService::MakeRequest(
    const Plan& plan, const RequestContext& ctx) const {
  Request req;
  req.identity = plan.Identity();
  req.fingerprint = Fingerprint(plan, *req.identity);
  req.ctx = ctx;
  return req;
}

void PredictionService::RecordOutcome(uint64_t fingerprint, bool hit,
                                      Outcome outcome, bool lock_free) {
  StatsStripe& stripe = StripeFor(fingerprint);
  // Exactly one matrix cell moves per request, and every reported
  // aggregate (predictions, the hit/miss split, the outcome split) is a
  // sum over cells — neither invariant can tear. (inflight_joins is NOT
  // bumped here: joiners are counted when they park in Route, so tests can
  // observe the join while the owner is still mid-stages.)
  stripe.outcome[hit ? 1 : 0][static_cast<size_t>(outcome)].fetch_add(
      1, std::memory_order_relaxed);
  if (lock_free) {
    stripe.lockfree_hits.fetch_add(1, std::memory_order_relaxed);
  }
}

PredictionService::RequestContext PredictionService::MakeContext(
    const RequestOptions& opts) {
  RequestContext ctx;
  ctx.allow_degraded = opts.allow_degraded;
  if (!(opts.deadline_ms > 0.0)) return ctx;  // NaN included: no deadline
  using Ms = std::chrono::duration<double, std::milli>;
  const auto now = std::chrono::steady_clock::now();
  // A budget past the end of the clock's range (+inf included) is no
  // deadline; the 1 ms margin absorbs the double rounding of `room`.
  const Ms room = std::chrono::steady_clock::time_point::max() - now;
  if (opts.deadline_ms < room.count() - 1.0) {
    ctx.has_deadline = true;
    ctx.deadline = now + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             Ms(opts.deadline_ms));
  }
  return ctx;
}

Prediction PredictionService::MakeDegraded(uint64_t fingerprint,
                                           const Plan& plan) {
  const DegradedOptions& dg = options_.degraded;
  const double mean =
      std::max(0.0, OptimizerScalarCost(plan, *db_)) * dg.cost_scale_ms;
  // The degraded interval is widest where we already know we mispredict:
  // the family's windowed feedback error replaces the configured default
  // when larger, then the whole sigma is inflated — a cost-only guess is
  // strictly less informed than the sampling pipeline it stands in for.
  double rel = dg.default_rel_error;
  if (feedback_ != nullptr) {
    double windowed = 0.0;
    if (feedback_->WindowedError(fingerprint, &windowed)) {
      rel = std::max(rel, windowed);
    }
  }
  const double sigma = mean * rel * dg.inflation;
  Prediction out;
  out.breakdown.mean = mean;
  out.breakdown.variance = sigma * sigma;
  out.degraded = true;
  out.calibration = pipeline_.calibration();
  return out;
}

void PredictionService::MaybeSpuriousWakeup() {
  if (options_.fault_injector == nullptr) return;
  if (!options_.fault_injector->InjectSpuriousWakeup()) return;
  // Nothing new to run: every worker that wakes must fall back asleep
  // through its predicate loop. Fires outside pool_mu_ deliberately — a
  // naked notify is exactly the hostile shape the loops must absorb.
  pool_cv_.NotifyAll();
  stripes_[0].spurious_wakeups.fetch_add(1, std::memory_order_relaxed);
}

bool PredictionService::TryLockFreeHit(uint64_t fingerprint,
                                       const PlanIdentity& identity,
                                       EntryPtr* out) {
  if (!options_.lock_free_hits || options_.cache_capacity == 0) return false;
  Shard& shard = ShardFor(fingerprint);
  const size_t base = SlotBase(fingerprint);
  for (size_t way = 0; way < kSlotWays; ++way) {
    EntryPtr entry = std::atomic_load_explicit(&shard.slots[base + way],
                                               std::memory_order_acquire);
    if (entry == nullptr || entry->fingerprint != fingerprint) continue;
    // An entry inserted before the last InvalidateCache must not be
    // served: validate its insert generation against the global counter,
    // so a stale published slot fails here even before the flush sweep
    // reaches it.
    if (entry->generation != generation_.load(std::memory_order_acquire)) {
      continue;
    }
    // Confirm the canonical structure (64-bit collisions degrade to the
    // locked path, which treats them as misses). The interned identity
    // makes the common case a pointer compare.
    if (entry->identity.get() != &identity &&
        entry->identity->key != identity.key) {
      continue;
    }
    entry->last_used.store(
        shard.ticket.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_relaxed);
    *out = std::move(entry);
    return true;
  }
  return false;
}

void PredictionService::PublishSlotLocked(Shard& shard, const EntryPtr& entry) {
  const size_t base = SlotBase(entry->fingerprint);
  // Way choice: reuse the way already holding this fingerprint, else an
  // empty way, else displace the colder (older recency tick) way. Two hot
  // plans sharing one slot index thus each keep a way and both stay on
  // the lock-free path — a single-way design would let them displace each
  // other on every publish.
  size_t victim = base;
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  bool chosen = false;
  bool victim_empty = false;
  for (size_t way = 0; way < kSlotWays; ++way) {
    const EntryPtr cur = std::atomic_load_explicit(&shard.slots[base + way],
                                                   std::memory_order_relaxed);
    if (cur != nullptr && cur->fingerprint == entry->fingerprint) {
      victim = base + way;
      break;
    }
    if (cur == nullptr) {
      if (!victim_empty) {  // an empty way beats any occupied one
        victim = base + way;
        victim_empty = true;
        chosen = true;
      }
      continue;
    }
    const uint64_t tick = cur->last_used.load(std::memory_order_relaxed);
    if (!chosen || (!victim_empty && tick < oldest)) {
      victim = base + way;
      oldest = tick;
      chosen = true;
    }
  }
  std::atomic_store_explicit(&shard.slots[victim], EntryPtr(entry),
                             std::memory_order_release);
}

void PredictionService::UnpublishSlotLocked(Shard& shard,
                                            const EntryPtr& entry) {
  const size_t base = SlotBase(entry->fingerprint);
  for (size_t way = 0; way < kSlotWays; ++way) {
    auto& slot = shard.slots[base + way];
    // Clear only the way still pointing at this entry; concurrent
    // lock-free readers that already loaded the pointer keep the entry
    // alive through their shared_ptr.
    if (std::atomic_load_explicit(&slot, std::memory_order_relaxed) == entry) {
      std::atomic_store_explicit(&slot, EntryPtr(), std::memory_order_release);
    }
  }
}

void PredictionService::CachePutLocked(Shard& shard, uint64_t fingerprint,
                                       const IdentityPtr& identity,
                                       Artifacts artifacts,
                                       uint64_t generation) {
  const uint64_t tick = shard.ticket.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.entries.find(fingerprint);
  if (it != shard.entries.end()) {
    if (it->second->identity->key == identity->key) {
      // A concurrent miss on the same plan got here first; both artifacts
      // are identical (deterministic stages), keep the incumbent.
      it->second->last_used.store(tick, std::memory_order_relaxed);
      PublishSlotLocked(shard, it->second);
      return;
    }
    // Fingerprint collision with a structurally different plan: the entry
    // goes to the newcomer (the most recent user), like any LRU update.
    UnpublishSlotLocked(shard, it->second);
    shard.entries.erase(it);
  }
  auto entry = std::make_shared<CacheEntry>();
  entry->fingerprint = fingerprint;
  entry->identity = identity;
  entry->artifacts = std::move(artifacts);
  entry->generation = generation;
  entry->last_used.store(tick, std::memory_order_relaxed);
  EntryPtr resident = std::move(entry);
  shard.entries[fingerprint] = resident;
  PublishSlotLocked(shard, resident);
  // Approximate LRU: evict the smallest recency tick. The O(shard
  // capacity) scan runs only on insert-past-capacity, under the shard
  // lock only — eviction order is explicitly not part of the determinism
  // contract.
  while (shard_capacity_ > 0 && shard.entries.size() > shard_capacity_) {
    auto victim = shard.entries.begin();
    uint64_t oldest = victim->second->last_used.load(std::memory_order_relaxed);
    for (auto cand = std::next(shard.entries.begin());
         cand != shard.entries.end(); ++cand) {
      const uint64_t t = cand->second->last_used.load(std::memory_order_relaxed);
      if (t < oldest) {
        oldest = t;
        victim = cand;
      }
    }
    UnpublishSlotLocked(shard, victim->second);
    shard.entries.erase(victim);
  }
}

void PredictionService::InvalidateCache() {
  // Bump the global generation FIRST: from this instant no lock-free hit
  // validates against a pre-flush entry and no in-flight run re-inserts
  // one, even in shards the sweep below hasn't reached yet.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.entries.clear();
    for (auto& slot : shard.slots) {
      std::atomic_store_explicit(&slot, EntryPtr(), std::memory_order_release);
    }
    // Detach in-flight runs: their waiters still get a (pre-flush) result —
    // parked continuations live on the Inflight object, not in this map, so
    // the completing thread still drains them — but new requests must not
    // join the detached run, and the generation bump above keeps its late
    // CachePut out of the flushed cache.
    shard.inflight.clear();
  }
}

size_t PredictionService::cache_size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.entries.size();
  }
  return total;
}

StatusOr<PredictionService::Artifacts> PredictionService::RunStages(
    const Plan& plan, uint64_t fingerprint, const RequestContext& ctx) {
  StatsStripe& stripe = StripeFor(fingerprint);
  if (options_.fault_injector != nullptr) {
    const FaultDecision decision =
        options_.fault_injector->OnSampleRun(fingerprint);
    if (decision.latency_ms > 0.0) {
      // A degraded machine is slow first, broken second: the injected
      // latency lands before the verdict either way, so a delayed attempt
      // can also blow its deadline below.
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(std::llround(decision.latency_ms * 1000.0))));
    }
    if (!decision.status.ok()) {
      // The injected failure replaces the stage run entirely: sample_runs
      // deliberately does not move, so a quarantined family's "stopped
      // consuming stage-1 work" is visible in BOTH counters.
      stripe.faults_injected.fetch_add(1, std::memory_order_relaxed);
      return decision.status;
    }
  }
  if (ctx.Expired()) {
    // Don't start a sample run we already know we won't deliver from —
    // the pool stops spending time on this request here.
    return Status::DeadlineExceeded("deadline expired before stage 1");
  }
  stripe.sample_runs.fetch_add(1, std::memory_order_relaxed);
  SampleRunInput run_in;
  run_in.plan = &plan;
  std::function<bool()> cancel;
  if (ctx.has_deadline) {
    // Cooperative cancellation: the executor polls this at operator and
    // morsel-shard boundaries, so an expired run returns its workers at
    // the next boundary instead of completing a doomed sample run.
    const auto deadline = ctx.deadline;
    cancel = [deadline] {
      return std::chrono::steady_clock::now() >= deadline;
    };
    run_in.cancelled = &cancel;
  }
  UQP_ASSIGN_OR_RETURN(SampleRunOutput run_out,
                       pipeline_.sample_run_stage().Run(run_in));
  Artifacts artifacts;
  artifacts.run = std::make_shared<const SampleRunOutput>(std::move(run_out));
  stripe.fit_runs.fetch_add(1, std::memory_order_relaxed);
  CostFitInput fit_in;
  fit_in.plan = &plan;
  fit_in.sample_run = artifacts.run.get();
  UQP_ASSIGN_OR_RETURN(CostFitOutput fit_out,
                       pipeline_.cost_fit_stage().Run(fit_in));
  artifacts.fit = std::make_shared<const CostFitOutput>(std::move(fit_out));
  return artifacts;
}

StatusOr<PredictionService::Artifacts> PredictionService::RunOwnedStages(
    const Plan& plan, const Request& req, const Ticket& ticket) {
  if (breaker_ != nullptr && breaker_->Admit(req.fingerprint).shed) {
    // Quarantined: stage 1 is not consulted at all (the fault injector
    // included — a shed is invisible to the schedule's attempt count).
    // The run still completes, so every parked continuation resolves with
    // the same quarantine status. (A half-open probe is admitted and runs
    // the stages normally; its verdict below closes or re-opens the
    // family.)
    const StatusOr<Artifacts> shed(
        Status::Unavailable("plan family quarantined by circuit breaker"));
    CompleteRun(plan, req, ticket, shed);
    return shed;
  }
  StatusOr<Artifacts> result = RunStages(plan, req.fingerprint, req.ctx);
  if (options_.post_stages_hook) options_.post_stages_hook();
  if (breaker_ != nullptr) {
    // Injected faults and deadline cancellations count as failures: a run
    // that could not complete is a failure from the family's viewpoint.
    breaker_->OnStageResult(req.fingerprint, result.ok());
  }
  CompleteRun(plan, req, ticket, result);
  return result;
}

Prediction PredictionService::CombineCached(const EntryPtr& entry) {
  const CalibrationPtr snapshot = pipeline_.calibration();
  MemoPtr memo =
      std::atomic_load_explicit(&entry->combined, std::memory_order_acquire);
  if (memo != nullptr && memo->epoch == snapshot->epoch) {
    // Epochs are unique (PublishCalibration serializes them), so an epoch
    // match proves this breakdown was combined under exactly `snapshot` —
    // serve it with zero combination work.
    Prediction out;
    out.breakdown = memo->breakdown;
    out.sample_run = entry->artifacts.run;
    out.cost_fit = entry->artifacts.fit;
    out.calibration = snapshot;
    return out;
  }
  Prediction out = pipeline_.PredictFromArtifacts(entry->artifacts, snapshot);
  if (memo != nullptr) {
    // A stale memo means a calibration swap landed since this entry last
    // served: this lazy per-entry re-combination is the entire
    // invalidation cost of a swap — the stage-1/2 artifacts above were
    // reused untouched.
    StripeFor(entry->fingerprint)
        .recombines.fetch_add(1, std::memory_order_relaxed);
  }
  auto fresh = std::make_shared<CombineMemo>();
  fresh->epoch = snapshot->epoch;
  fresh->breakdown = out.breakdown;
  // Benign race: a concurrent combiner under a newer epoch may be
  // overwritten by this older store; the next hit just re-combines. The
  // memo is a cache of deterministic work — staleness costs time, never
  // correctness (served predictions always use their own `snapshot`).
  std::atomic_store_explicit(&entry->combined, MemoPtr(std::move(fresh)),
                             std::memory_order_release);
  return out;
}

PredictionService::EntryPtr PredictionService::FindEntry(
    uint64_t fingerprint) const {
  if (options_.cache_capacity == 0) return nullptr;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it == shard.entries.end()) return nullptr;
  if (it->second->generation != generation_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return it->second;
}

void PredictionService::CompleteRun(const Plan& plan, const Request& req,
                                    const Ticket& ticket,
                                    const StatusOr<Artifacts>& result) {
  std::vector<ContinuationPtr> waiters;
  Shard& shard = ShardFor(req.fingerprint);
  {
    MutexLock lock(&shard.mu);
    if (ticket.owned != nullptr) {
      auto it = shard.inflight.find(req.fingerprint);
      if (it != shard.inflight.end() && it->second == ticket.owned) {
        shard.inflight.erase(it);
      }
      // Detach the continuation list under the same lock that guards
      // parking: once the entry is unreachable no new waiter can be
      // parked, so none is ever lost. (If InvalidateCache already detached
      // the entry, the waiters parked before the flush are still here.)
      waiters = std::move(ticket.owned->waiters);
    }
    if (options_.cache_capacity > 0 && result.ok()) {
      if (generation_.load(std::memory_order_acquire) == ticket.generation) {
        CachePutLocked(shard, req.fingerprint, req.identity, result.value(),
                       ticket.generation);
      } else {
        // InvalidateCache ran while this prediction was in flight: its
        // artifacts may predate the flush, drop the insert.
        StripeFor(req.fingerprint)
            .stale_drops.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Finish every parked continuation with the cheap stage-3 combination
  // (continuation handoff). A sync or batch caller that already left at
  // its deadline keeps its claim, and is skipped.
  for (const ContinuationPtr& w : waiters) {
    if (w->Claim()) Deliver(*w, result, /*hit=*/true, plan);
  }
}

PredictionService::Ticket PredictionService::Route(const Request& req,
                                                   ContinuationPtr waiter,
                                                   bool register_owned) {
  Ticket t;
  // Hits are served even past the deadline: the result is already free,
  // and deadlines bound work consumption, not delivery.
  if (TryLockFreeHit(req.fingerprint, *req.identity, &t.entry)) {
    t.lock_free = true;
    return t;
  }
  Shard& shard = ShardFor(req.fingerprint);
  MutexLock lock(&shard.mu);
  t.generation = generation_.load(std::memory_order_acquire);
  if (options_.cache_capacity > 0) {
    auto it = shard.entries.find(req.fingerprint);
    // Confirm the canonical structure: a fingerprint collision must be
    // a miss, never another plan's artifacts.
    if (it != shard.entries.end() &&
        it->second->identity->key == req.identity->key) {
      const EntryPtr& entry = it->second;
      entry->last_used.store(shard.ticket.fetch_add(1, std::memory_order_relaxed),
                             std::memory_order_relaxed);
      // Republish: the entry may have been displaced from its slot ways by
      // slot-index neighbours; the most recent user wins a way back.
      PublishSlotLocked(shard, entry);
      t.entry = entry;
      return t;
    }
  }
  auto it = shard.inflight.find(req.fingerprint);
  if (it != shard.inflight.end() &&
      it->second->identity->key == req.identity->key) {
    // The owner finishes the parked request with one cheap stage-3 run;
    // the join is counted NOW, so a gated owner's joiners are observable
    // while it is still mid-stages.
    if (waiter == nullptr) waiter = std::make_shared<Continuation>(req);
    it->second->waiters.push_back(waiter);
    t.waiter = std::move(waiter);
    StripeFor(req.fingerprint)
        .inflight_joins.fetch_add(1, std::memory_order_relaxed);
    return t;
  }
  if (!register_owned) return t;
  t.owner = true;
  // The fingerprint in flight for a structurally different plan (hash
  // collision) leaves `owned` null: run solo, without registering.
  if (it == shard.inflight.end()) {
    t.owned = std::make_shared<Inflight>(req.identity);
    shard.inflight.emplace(req.fingerprint, t.owned);
  }
  return t;
}

StatusOr<Prediction> PredictionService::Serve(
    const Request& req, const StatusOr<Artifacts>& artifacts, bool hit,
    const Plan& plan) {
  StatusOr<Prediction> out = artifacts.status();
  if (artifacts.ok()) {
    out = pipeline_.PredictFromArtifacts(artifacts.value());
  } else if (req.ctx.allow_degraded) {
    out = MakeDegraded(req.fingerprint, plan);
  }
  RecordOutcome(req.fingerprint, hit, OutcomeOf(out));
  return out;
}

Prediction PredictionService::ServeEntry(const Request& req,
                                         const EntryPtr& entry,
                                         bool lock_free) {
  Prediction out = CombineCached(entry);
  RecordOutcome(req.fingerprint, /*hit=*/true, Outcome::kOk, lock_free);
  return out;
}

StatusOr<Prediction> PredictionService::Await(Continuation& c,
                                              const Plan& plan) {
  if (c.req.ctx.has_deadline &&
      c.future.wait_until(c.req.ctx.deadline) == std::future_status::timeout &&
      c.Claim()) {
    Deliver(c, Status::DeadlineExceeded(
                   "deadline expired waiting on the in-flight winner"),
            /*hit=*/true, plan);
  }
  return c.future.get();
}

StatusOr<Prediction> PredictionService::Predict(const Plan& plan,
                                                const RequestOptions& opts) {
  const Request req = MakeRequest(plan, MakeContext(opts));
  const Ticket t = Route(req, nullptr, /*register_owned=*/true);
  if (t.entry != nullptr) return ServeEntry(req, t.entry, t.lock_free);
  if (t.waiter != nullptr) return Await(*t.waiter, plan);
  return Serve(req, RunOwnedStages(plan, req, t), /*hit=*/false, plan);
}

void PredictionService::RunQueued(const ContinuationPtr& c) {
  // A request that expired in the queue never registers as an owner: the
  // pool stops spending time on it, and no joiner can inherit its
  // DeadlineExceeded. A result that is already free (cached, or a run in
  // flight to park on) is still delivered.
  const Ticket t = Route(c->req, c, /*register_owned=*/!c->req.ctx.Expired());
  if (t.waiter != nullptr) return;  // the owner will finish it; worker freed
  if (t.entry != nullptr) {
    c->promise.set_value(ServeEntry(c->req, t.entry, t.lock_free));
    return;
  }
  Deliver(*c,
          t.owner ? RunOwnedStages(*c->plan, c->req, t)
                  : Status::DeadlineExceeded("deadline expired in the pool queue"),
          /*hit=*/false, *c->plan);
}

std::future<StatusOr<Prediction>> PredictionService::PredictAsync(
    const Plan& plan, const RequestOptions& opts) {
  // Resolved on the submitting thread, without a copy of the plan or a
  // queue trip: a hit (on a hot cache through the lock-free probe, no
  // service mutex at all) or a continuation parked on a run already in
  // flight (stage 3 needs only the artifacts).
  const Request req = MakeRequest(plan, MakeContext(opts));
  Ticket t = Route(req, nullptr, /*register_owned=*/false);
  if (t.waiter != nullptr) return std::move(t.waiter->future);
  if (t.entry != nullptr) {
    std::promise<StatusOr<Prediction>> ready;
    ready.set_value(ServeEntry(req, t.entry, t.lock_free));
    return ready.get_future();
  }

  // Cold miss: the queued request owns a deep copy, so the caller's plan
  // is never touched after this call returns.
  auto c = std::make_shared<Continuation>(req);
  c->plan = std::make_shared<const Plan>(plan.Clone());
  std::future<StatusOr<Prediction>> future = std::move(c->future);
  bool rejected = false;
  {
    MutexLock lock(&pool_mu_);
    if (shutdown_) {
      rejected = true;
    } else {
      pool_queue_.push_back([this, c] { RunQueued(c); });
    }
  }
  if (rejected) {
    // The pool is gone; enqueueing would leave the future unsatisfied
    // forever. Fail fast instead.
    StripeFor(req.fingerprint)
        .async_rejects.fetch_add(1, std::memory_order_relaxed);
    c->promise.set_value(Status::Unavailable("PredictionService is shut down"));
    return future;
  }
  pool_cv_.NotifyOne();
  MaybeSpuriousWakeup();
  return future;
}

std::vector<StatusOr<Prediction>> PredictionService::PredictBatch(
    const std::vector<const Plan*>& plans, const RequestOptions& opts) {
  // One request per distinct plan: plans sharing a fingerprint AND the
  // canonical structure share it. Grouping on the structural key too
  // keeps the cache's collision guarantee inside a batch: colliding plans
  // form separate groups instead of silently sharing artifacts.
  struct Group {
    size_t slot;  ///< the first slot with this plan
    Request req;
    Ticket ticket;
    StatusOr<Prediction> result = Status::Internal("batch group unresolved");
  };
  const RequestContext ctx = MakeContext(opts);
  std::vector<Group> groups;
  std::vector<size_t> group_of(plans.size());
  std::unordered_map<std::string, size_t> index;  // fp ‖ key -> group
  for (size_t i = 0; i < plans.size(); ++i) {
    Request req = MakeRequest(*plans[i], ctx);
    std::string key;
    AppendKeyU64(&key, req.fingerprint);
    key += req.identity->key;
    const auto [it, inserted] = index.emplace(std::move(key), groups.size());
    group_of[i] = it->second;
    if (!inserted) continue;
    Ticket ticket = Route(req, nullptr, /*register_owned=*/true);
    groups.push_back(Group{i, std::move(req), std::move(ticket)});
  }

  // The runs this batch owns, sharded across the pool, with the stage 3
  // of cache hits alongside. Parked groups are left to their owners, so no
  // pool worker waits on another request's run.
  ParallelFor(groups.size(), [&](size_t g) {
    Group& gr = groups[g];
    const Plan& plan = *plans[gr.slot];
    if (gr.ticket.entry != nullptr) {
      gr.result = ServeEntry(gr.req, gr.ticket.entry, gr.ticket.lock_free);
    } else if (gr.ticket.owner) {
      gr.result = Serve(gr.req, RunOwnedStages(plan, gr.req, gr.ticket),
                        /*hit=*/false, plan);
    }
  });
  for (Group& gr : groups) {
    if (gr.ticket.waiter != nullptr) {
      gr.result = Await(*gr.ticket.waiter, *plans[gr.slot]);
    }
  }

  // In-batch duplicates are served their group's result without any
  // stage work: cache hits, each counted once.
  std::vector<StatusOr<Prediction>> results;
  results.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const Group& gr = groups[group_of[i]];
    results.push_back(gr.result);
    if (gr.slot != i) {
      RecordOutcome(gr.req.fingerprint, /*hit=*/true, OutcomeOf(gr.result));
    }
  }
  return results;
}

VarianceBreakdown PredictionService::Recompute(const Prediction& prediction,
                                               PredictorVariant variant,
                                               CovarianceBoundKind bound) const {
  return pipeline_.Recompute(prediction, variant, bound);
}

uint64_t PredictionService::PublishCalibration(CostUnits units,
                                               std::string source) {
  MutexLock lock(&calibration_mu_);
  const uint64_t epoch = pipeline_.calibration()->epoch + 1;
  const uint64_t reports =
      feedback_ != nullptr ? feedback_->total_reports() : 0;
  pipeline_.SetCalibration(MakeCalibrationSnapshot(std::move(units), epoch,
                                                   std::move(source), reports));
  // Deliberately NOT InvalidateCache: stage-1/2 artifacts are
  // unit-independent, so every cached entry survives the swap and only
  // its stage-3 memo went stale — the next hit re-combines lazily
  // (stats().recombines) instead of re-running the expensive stages.
  if (feedback_ != nullptr) feedback_->OnPublish();
  return epoch;
}

void PredictionService::ReportObserved(const Plan& plan, double observed_ms) {
  const IdentityPtr identity = plan.Identity();
  ReportObserved(Fingerprint(plan, *identity), observed_ms);
}

void PredictionService::ReportObserved(uint64_t fingerprint,
                                       double observed_ms) {
  // Compared lazily — converged families skip it entirely — against the
  // family's cached prediction under the CURRENT snapshot (through the
  // epoch memo, so a hot family pays zero combination work). Every
  // cache-backed comparison refreshes the family's stash; when the plan
  // was evicted (or flushed) the stashed mean is the fallback comparison
  // point, so late reports still land instead of dropping.
  Report(fingerprint, observed_ms,
         [this, fingerprint](PredictionStash* stash, double* mean_ms) {
           const EntryPtr entry = FindEntry(fingerprint);
           if (entry != nullptr) {
             const Prediction prediction = CombineCached(entry);
             stash->mean_ms = prediction.mean();
             stash->epoch = prediction.calibration->epoch;
             stash->valid = true;
             *mean_ms = prediction.mean();
             return true;
           }
           if (!stash->valid) return false;  // never predicted
           // The stash may predate the current calibration epoch; that
           // slack is bounded by one eviction-to-report gap and beats
           // dropping the report.
           StripeFor(fingerprint)
               .feedback_stash_hits.fetch_add(1, std::memory_order_relaxed);
           *mean_ms = stash->mean_ms;
           return true;
         });
}

void PredictionService::ReportObservedAgainst(uint64_t fingerprint,
                                              const Prediction& as_decided,
                                              double observed_ms) {
  // The comparison point is pinned by the caller (the prediction its
  // admission/ordering decision used), so no cache lookup: the report
  // lands even for plans that were never cached here, and a calibration
  // swap between decision and completion cannot silently shift the error.
  Report(fingerprint, observed_ms,
         [&as_decided](PredictionStash* stash, double* mean_ms) {
           stash->mean_ms = as_decided.mean();
           stash->epoch = as_decided.calibration_epoch();
           stash->valid = true;
           *mean_ms = as_decided.mean();
           return true;
         });
}

void PredictionService::Report(uint64_t fingerprint, double observed_ms,
                               const FeedbackRegistry::ErrorFn& mean_fn) {
  if (feedback_ == nullptr) return;
  StatsStripe& stripe = StripeFor(fingerprint);
  stripe.feedback_reports.fetch_add(1, std::memory_order_relaxed);
  // Only a finite positive runtime has a relative error: +inf would put
  // inf/inf = NaN into the window, and the family could then neither
  // converge nor drift until it left the ring.
  if (!(std::isfinite(observed_ms) && observed_ms > 0.0)) {
    stripe.feedback_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto error_fn = [&mean_fn, observed_ms](PredictionStash* stash,
                                                double* error) {
    double mean_ms = 0.0;
    if (!mean_fn(stash, &mean_ms)) return false;
    *error = (observed_ms - mean_ms) / observed_ms;
    return true;
  };
  switch (feedback_->Observe(fingerprint, error_fn)) {
    case FeedbackRegistry::Action::kDropped:
      stripe.feedback_dropped.fetch_add(1, std::memory_order_relaxed);
      break;
    case FeedbackRegistry::Action::kDrift:
      HandleDrift(fingerprint);
      break;
    default:
      break;
  }
}

void PredictionService::HandleDrift(uint64_t fingerprint) {
  if (!options_.feedback.recalibrate) return;  // detect-only mode
  // At most one recalibration per cooldown window across all families:
  // one machine-wide drift makes many families scream at once.
  if (!feedback_->ClaimDrift()) return;
  // Re-derive the units outside every service lock — calibration runs
  // real (harness) queries and must not stall the prediction hot path.
  CostUnits units = options_.feedback.recalibrate();
  PublishCalibration(std::move(units), "drift");
  StripeFor(fingerprint).recalibrations.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FamilyFeedback> PredictionService::FeedbackSnapshot() const {
  std::vector<FamilyFeedback> rows =
      feedback_ != nullptr ? feedback_->Snapshot() : std::vector<FamilyFeedback>();
  if (breaker_ == nullptr) return rows;
  // Merge breaker state into the feedback rows (both sorted by
  // fingerprint); families the breaker touched but feedback never saw
  // become rows of their own with empty windows.
  const std::vector<BreakerSnapshot> breakers = breaker_->Snapshot();
  size_t r = 0;
  std::vector<FamilyFeedback> extra;
  for (const BreakerSnapshot& b : breakers) {
    while (r < rows.size() && rows[r].fingerprint < b.fingerprint) ++r;
    FamilyFeedback* row;
    if (r < rows.size() && rows[r].fingerprint == b.fingerprint) {
      row = &rows[r];
    } else {
      extra.emplace_back();
      extra.back().fingerprint = b.fingerprint;
      row = &extra.back();
    }
    row->breaker_state = ToString(b.state);
    row->breaker_consecutive_failures = b.consecutive_failures;
    row->breaker_opens = b.opens;
    row->breaker_shed = b.shed;
  }
  if (!extra.empty()) {
    rows.insert(rows.end(), extra.begin(), extra.end());
    std::sort(rows.begin(), rows.end(),
              [](const FamilyFeedback& a, const FamilyFeedback& b) {
                return a.fingerprint < b.fingerprint;
              });
  }
  return rows;
}

ServiceStats PredictionService::stats() const {
  // Sum the per-shard stripes. Each stripe's relaxed counters are
  // monotone and each request touched exactly one resolution-matrix cell
  // in exactly one stripe, so every reported aggregate — the hit/miss
  // split, the outcome split, and `predictions` itself — is a sum over
  // cells BY DEFINITION, which is what makes both conservation
  // invariants hold at every observable instant instead of only at
  // quiescence.
  ServiceStats out;
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; ++i) {
    const StatsStripe& s = stripes_[i];
    for (size_t row = 0; row < 2; ++row) {
      for (size_t col = 0; col < kNumOutcomes; ++col) {
        const uint64_t v = s.outcome[row][col].load(std::memory_order_relaxed);
        (row == 1 ? out.cache_hits : out.cache_misses) += v;
        switch (static_cast<Outcome>(col)) {
          case Outcome::kOk: out.ok_served += v; break;
          case Outcome::kFailed: out.failed += v; break;
          case Outcome::kDegraded: out.degraded_served += v; break;
          case Outcome::kDeadline: out.deadline_exceeded += v; break;
        }
      }
    }
    out.sample_runs += s.sample_runs.load(std::memory_order_relaxed);
    out.fit_runs += s.fit_runs.load(std::memory_order_relaxed);
    out.lockfree_hits += s.lockfree_hits.load(std::memory_order_relaxed);
    out.inflight_joins += s.inflight_joins.load(std::memory_order_relaxed);
    out.stale_drops += s.stale_drops.load(std::memory_order_relaxed);
    out.async_rejects += s.async_rejects.load(std::memory_order_relaxed);
    out.recombines += s.recombines.load(std::memory_order_relaxed);
    out.recalibrations += s.recalibrations.load(std::memory_order_relaxed);
    out.feedback_reports += s.feedback_reports.load(std::memory_order_relaxed);
    out.feedback_dropped += s.feedback_dropped.load(std::memory_order_relaxed);
    out.feedback_stash_hits +=
        s.feedback_stash_hits.load(std::memory_order_relaxed);
    out.faults_injected += s.faults_injected.load(std::memory_order_relaxed);
    out.spurious_wakeups +=
        s.spurious_wakeups.load(std::memory_order_relaxed);
  }
  out.predictions = out.cache_hits + out.cache_misses;
  if (feedback_ != nullptr) {
    out.converged_families = feedback_->converged_count();
    out.feedback_families = feedback_->family_count();
  }
  if (breaker_ != nullptr) {
    out.breaker_opens = breaker_->total_opens();
    out.breaker_shed = breaker_->total_shed();
    out.breaker_probes = breaker_->total_probes();
  }
  return out;
}

}  // namespace uqp
