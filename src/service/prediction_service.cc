#include "service/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "engine/cost_model.h"
#include "engine/expr.h"

namespace uqp {

namespace {

/// ServiceOptions::num_workers resolved: <= 0 means the hardware
/// concurrency, capped at 4.
int ResolveNumWorkers(int num_workers) {
  if (num_workers > 0) return num_workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// The hardware concurrency, clamped to [1, 64].
size_t HardwareSlots() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(64u, std::max(1u, hw));
}

/// The cost-only degraded fallback's sigma = mean x rel x kDegradedInflation,
/// where rel is the family's windowed mean |relative error|
/// (FamilyRegistry) when larger than kDegradedRelError, the error assumed
/// for a family with no feedback history — a family we already know we
/// mispredict gets a wider interval. The inflation is > 1 because a
/// cost-only guess is strictly less informed than the sampling pipeline it
/// stands in for.
constexpr double kDegradedRelError = 0.5;
constexpr double kDegradedInflation = 2.0;

/// A number per thread, handed out in the order threads first ask: the
/// first threads to record stats land on different stripes.
size_t ThisThreadIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

PredictionService::PredictionService(const Database* db, const SampleDb* samples,
                                     CostUnits units, ServiceOptions options)
    : pool_(ResolveNumWorkers(options.num_workers) + 1),
      pipeline_(db, samples, units, options.predictor, &pool_),
      options_(std::move(options)),
      db_(db) {
  // One shard per hardware thread is enough to make same-shard mutex
  // collisions rare under a uniform fingerprint mix; cap at 64 so a huge
  // machine doesn't fragment a small cache_capacity into nothing.
  const size_t shard_count = RoundUpPow2(
      options_.cache_shards > 0 ? static_cast<size_t>(options_.cache_shards)
                                : HardwareSlots());
  shards_.reset(new Shard[shard_count]);
  shard_count_ = shard_count;
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
  for (size_t i = 0; i < shard_count; ++i) {
    shards_[i].slots.reset(new SlotGroup[slot_count]);
  }
  // One stripe per hardware thread, whatever the shard count: a thread
  // writes only its own stripe (Stripe()).
  const size_t stripe_count = RoundUpPow2(HardwareSlots());
  stripes_.reset(new StatsStripe[stripe_count]);
  stripe_mask_ = stripe_count - 1;

  if ((options_.feedback.enabled && options_.feedback.window_size > 0) ||
      options_.breaker.failure_threshold > 0) {
    families_.reset(
        new FamilyRegistry(options_.feedback, options_.breaker, shard_count));
  }
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::Shutdown() {
  // The pool drains its queue before its workers exit, so every future
  // handed out by PredictAsync before the shutdown is satisfied; a later
  // cold PredictAsync is refused by Submit and returns a future that is
  // ready with Status::Unavailable instead of waiting on a pool nobody
  // drains.
  pool_.Shutdown();
}

uint64_t PredictionService::Fingerprint(const Plan& plan,
                                        const PlanIdentity& identity) const {
  return options_.fingerprint_fn != nullptr ? options_.fingerprint_fn(plan)
                                            : identity.fingerprint;
}

PredictionService::Request PredictionService::MakeRequest(
    const Plan& plan, const RequestContext& ctx) const {
  Request req;
  req.identity = &plan.Identity();
  req.fingerprint = Fingerprint(plan, req.id());
  req.ctx = ctx;
  return req;
}

PredictionService::StatsStripe& PredictionService::Stripe() const {
  return stripes_[ThisThreadIndex() & stripe_mask_];
}

void PredictionService::RecordOutcome(Source source, Outcome outcome) {
  // Exactly one matrix cell moves per request, and every reported
  // aggregate (predictions, the hit/miss/lock-free split, the outcome
  // split) is a sum over cells — neither invariant can tear.
  // (inflight_joins is NOT bumped here: joiners are counted when they park
  // in Route, so tests can observe the join while the owner is still
  // mid-stages.)
  Stripe()
      .outcome[static_cast<size_t>(source)][static_cast<size_t>(outcome)]
      .fetch_add(1, std::memory_order_relaxed);
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
  // The optimizer's resource estimate priced by the calibrated unit means
  // is in milliseconds, like the pipeline's own mean; the raw PostgreSQL
  // scalar cost would be cost units.
  const CalibrationPtr snapshot = pipeline_.calibration();
  const ResourceVector r = OptimizerResources(plan, *db_);
  const double mean =
      std::max(0.0, snapshot->units.MeanDot(r.ns, r.nr, r.nt, r.ni, r.no));
  double rel = kDegradedRelError;
  if (families_ != nullptr) {
    double windowed = 0.0;
    if (families_->WindowedError(fingerprint, &windowed)) {
      rel = std::max(rel, windowed);
    }
  }
  const double sigma = mean * rel * kDegradedInflation;
  Prediction out;
  out.breakdown.mean = mean;
  out.breakdown.variance = sigma * sigma;
  out.degraded = true;
  out.calibration = snapshot;
  return out;
}

void PredictionService::MaybeSpuriousWakeup() {
  if (options_.fault_injector == nullptr) return;
  if (!options_.fault_injector->InjectSpuriousWakeup()) return;
  // Nothing new to run: every worker that wakes must fall back asleep
  // through its predicate loop. A naked notify, outside the pool's mutex,
  // is exactly the hostile shape the loops must absorb.
  pool_.WakeAll();
  Stripe().spurious_wakeups.fetch_add(1, std::memory_order_relaxed);
}

bool PredictionService::TryLockFreeHit(const Request& req, Prediction* out) {
  if (!options_.lock_free_hits || options_.cache_capacity == 0) return false;
  // An entry inserted before the last InvalidateCache must not be served:
  // its insert generation is validated against the global counter, so a
  // stale published slot fails here even before the flush sweep reaches
  // it. An entry combined under an older calibration epoch is left to the
  // locked path, which re-combines it.
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  const uint64_t epoch = pipeline_.calibration_epoch();
  const PlanIdentity& identity = req.id();
  for (const SharedCell<const CacheEntry>& way :
       SlotsFor(ShardFor(req.fingerprint), req.fingerprint).ways) {
    const bool hit = way.Read([&](const EntryPtr& entry) {
      if (entry == nullptr || entry->fingerprint != req.fingerprint ||
          entry->generation != generation || entry->epoch < epoch) {
        return false;
      }
      // Confirm the canonical structure (64-bit collisions degrade to the
      // locked path, which treats them as misses). The interned identity
      // makes the common case a pointer compare.
      if (entry->identity.get() != &identity &&
          entry->identity->key != identity.key) {
        return false;
      }
      entry->Touch();
      ServeInto(entry, out);
      return true;
    });
    if (hit) return true;
  }
  return false;
}

void PredictionService::PublishSlotLocked(Shard& shard, const EntryPtr& entry) {
  SlotGroup& group = SlotsFor(shard, entry->fingerprint);
  // Way choice: reuse the way already holding this fingerprint, else an
  // empty way, else displace a way whose entry has not been used since the
  // hand last passed it. Two hot plans sharing one slot index thus each
  // keep a way and both stay on the lock-free path — a single-way design
  // would let them displace each other on every publish.
  constexpr int kSameFingerprint = 3;
  SharedCell<const CacheEntry>* victim = &group.ways[0];
  int best = -1;  // 3 = this fingerprint, 2 = empty, 1 = bit clear, 0 = set
  for (SharedCell<const CacheEntry>& way : group.ways) {
    const int rank = way.Read([&](const EntryPtr& cur) {
      if (cur == nullptr) return 2;
      if (cur->fingerprint == entry->fingerprint) return kSameFingerprint;
      return cur->referenced.load(std::memory_order_relaxed) ? 0 : 1;
    });
    if (rank > best) {
      victim = &way;
      best = rank;
    }
    if (rank == kSameFingerprint) break;
  }
  victim->store(entry);
}

void PredictionService::ReplaceSlotLocked(Shard& shard, const EntryPtr& entry,
                                          const EntryPtr& replacement) {
  for (SharedCell<const CacheEntry>& way :
       SlotsFor(shard, entry->fingerprint).ways) {
    // Only a way still pointing at this entry; a lock-free hit that already
    // copied its prediction keeps the entry alive through those pointers.
    if (way.Read([&](const EntryPtr& cur) { return cur == entry; })) {
      way.store(replacement);
    }
  }
}

void PredictionService::CachePutLocked(Shard& shard, const EntryPtr& entry) {
  const uint64_t fingerprint = entry->fingerprint;
  auto it = shard.entries.find(fingerprint);
  if (it != shard.entries.end() &&
      shard.ring[it->second]->identity->key == entry->identity->key) {
    // A concurrent miss on the same plan got here first; both artifacts
    // are identical (deterministic stages), keep the incumbent.
    const EntryPtr& incumbent = shard.ring[it->second];
    incumbent->Touch();
    PublishSlotLocked(shard, incumbent);
    return;
  }
  size_t pos = 0;
  if (it != shard.entries.end()) {
    // Fingerprint collision with a structurally different plan: the place
    // goes to the newcomer, the most recent user.
    pos = it->second;
    entry->Touch();
    ReplaceSlotLocked(shard, shard.ring[pos], nullptr);
  } else if (shard.ring.size() < shard_capacity_) {
    pos = shard.ring.size();
    shard.ring.emplace_back();
    shard.entries.emplace(fingerprint, pos);
  } else {
    // CLOCK: the hand clears set reference bits until it finds a clear
    // one; an entry touched since the hand last passed it gets one more
    // turn. A hit may set a bit again behind the hand, so the sweep stops
    // after one full turn. O(1) amortized, under the shard lock only —
    // eviction order is not part of the determinism contract.
    const size_t n = shard.ring.size();
    for (size_t step = 0; step < n; ++step) {
      const CacheEntry& cand = *shard.ring[shard.hand];
      if (!cand.referenced.load(std::memory_order_relaxed)) break;
      cand.referenced.store(false, std::memory_order_relaxed);
      if (++shard.hand == n) shard.hand = 0;
    }
    pos = shard.hand;
    if (++shard.hand == n) shard.hand = 0;
    ReplaceSlotLocked(shard, shard.ring[pos], nullptr);
    shard.entries.erase(shard.ring[pos]->fingerprint);
    shard.entries.emplace(fingerprint, pos);
  }
  shard.ring[pos] = entry;
  PublishSlotLocked(shard, entry);
}

void PredictionService::InvalidateCache() {
  // Bump the global generation FIRST: from this instant no lock-free hit
  // validates against a pre-flush entry and no in-flight run re-inserts
  // one, even in shards the sweep below hasn't reached yet.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(&shard.mu);
    shard.entries.clear();
    shard.ring.clear();
    shard.hand = 0;
    for (size_t i = 0; i <= slot_mask_; ++i) {
      for (SharedCell<const CacheEntry>& way : shard.slots[i].ways) {
        way.store(nullptr);
      }
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
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    MutexLock lock(&shard.mu);
    total += shard.entries.size();
  }
  return total;
}

StatusOr<PredictionService::Artifacts> PredictionService::RunStages(
    const Plan& plan, const Request& req) {
  StatsStripe& stripe = Stripe();
  if (options_.fault_injector != nullptr) {
    const FaultDecision decision =
        options_.fault_injector->OnSampleRun(req.fingerprint);
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
  const RequestContext& ctx = req.ctx;
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

StatusOr<Prediction> PredictionService::RunOwnedStages(const Plan& plan,
                                                      const Request& req,
                                                      const Ticket& ticket) {
  // With the breaker off, the miss path makes no registry call.
  const bool breaker = families_ != nullptr && families_->breaker_enabled();
  StatsStripe& stripe = Stripe();
  bool shed = false;
  if (breaker) {
    const BreakerDecision decision = families_->Admit(req.fingerprint);
    if (decision.probe) {
      stripe.breaker_probes.fetch_add(1, std::memory_order_relaxed);
    }
    // Quarantined: stage 1 is not consulted at all (the fault injector
    // included — a shed is invisible to the schedule's attempt count).
    // The run still completes, so every parked continuation resolves with
    // the same quarantine status. (A half-open probe is admitted and runs
    // the stages normally; its verdict below closes or re-opens the
    // family.)
    shed = decision.shed;
    if (shed) stripe.breaker_shed.fetch_add(1, std::memory_order_relaxed);
  }
  StatusOr<Artifacts> artifacts =
      shed ? StatusOr<Artifacts>(Status::Unavailable(
                 "plan family quarantined by circuit breaker"))
           : RunStages(plan, req);
  if (!shed) {
    if (options_.post_stages_hook) options_.post_stages_hook();
    // Injected faults and deadline cancellations count as failures: a run
    // that could not complete is a failure from the family's viewpoint.
    if (breaker && families_->OnStageResult(req.fingerprint, artifacts.ok())) {
      stripe.breaker_opens.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The run's one combination, after the hook and before the entry is
  // cached: the owner, its joiners and the entry's hits all serve it.
  StatusOr<EntryPtr> run = artifacts.status();
  if (artifacts.ok()) {
    run = MakeEntry(req.fingerprint, *req.identity,
                    std::move(artifacts).value(), ticket.generation);
  }
  return CompleteRun(plan, req, ticket, std::move(run));
}

PredictionService::EntryPtr PredictionService::MakeEntry(
    uint64_t fingerprint, IdentityPtr identity, Artifacts artifacts,
    uint64_t generation) const {
  Prediction combined =
      pipeline_.PredictFromArtifacts(artifacts, pipeline_.calibration());
  auto entry = std::make_shared<CacheEntry>();
  entry->fingerprint = fingerprint;
  entry->identity = std::move(identity);
  entry->artifacts = std::move(artifacts);
  entry->generation = generation;
  entry->epoch = combined.calibration->epoch;
  entry->calibration = std::move(combined.calibration);
  entry->breakdown = combined.breakdown;
  return entry;
}

void PredictionService::ServeInto(const EntryPtr& entry, Prediction* out) {
  out->breakdown = entry->breakdown;
  out->sample_run = SampleRunPtr(entry, entry->artifacts.run.get());
  out->cost_fit = CostFitPtr(entry, entry->artifacts.fit.get());
  out->calibration = CalibrationPtr(entry, entry->calibration.get());
}

void PredictionService::RecombineLocked(Shard& shard, EntryPtr* entry) {
  // A calibration swap landed since this entry was combined: this
  // per-entry re-combination is the entire invalidation cost of a swap —
  // the stage-1/2 artifacts are reused untouched. Under the shard mutex,
  // so concurrent hits on the stale entry wait for this one instead of
  // each combining.
  const EntryPtr stale = std::move(*entry);
  *entry = MakeEntry(stale->fingerprint, stale->identity, stale->artifacts,
                     stale->generation);
  ReplaceSlotLocked(shard, stale, *entry);
  Stripe().recombines.fetch_add(1, std::memory_order_relaxed);
}

bool PredictionService::CachedPrediction(uint64_t fingerprint,
                                         Prediction* out) {
  if (options_.cache_capacity == 0) return false;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it == shard.entries.end()) return false;
  EntryPtr& entry = shard.ring[it->second];
  if (entry->generation != generation_.load(std::memory_order_acquire)) {
    return false;
  }
  if (entry->epoch < pipeline_.calibration_epoch()) {
    RecombineLocked(shard, &entry);
  }
  ServeInto(entry, out);
  return true;
}

StatusOr<Prediction> PredictionService::CompleteRun(const Plan& plan,
                                                    const Request& req,
                                                    const Ticket& ticket,
                                                    StatusOr<EntryPtr> run) {
  std::vector<ContinuationPtr> waiters;
  Shard& shard = ShardFor(req.fingerprint);
  {
    MutexLock lock(&shard.mu);
    const auto range = shard.inflight.equal_range(req.fingerprint);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == ticket.owned) {
        shard.inflight.erase(it);
        break;
      }
    }
    // Detach the continuation list under the same lock that guards
    // parking: once the record is unreachable no new waiter can be parked,
    // so none is ever lost. (If InvalidateCache already detached the
    // record, the waiters parked before the flush are still here.)
    waiters = std::move(ticket.owned->waiters);
    // A joiner may have been served a newer epoch than the run combined
    // under before it parked: an epoch published since the combination
    // re-combines the entry here, under the lock every joiner parked
    // under, as the first hit on a stale entry would.
    if (run.ok() && (*run)->epoch < pipeline_.calibration_epoch()) {
      RecombineLocked(shard, &run.value());
    }
    if (options_.cache_capacity > 0 && run.ok()) {
      if (generation_.load(std::memory_order_acquire) == ticket.generation) {
        CachePutLocked(shard, *run);
      } else {
        // InvalidateCache ran while this prediction was in flight: its
        // artifacts may predate the flush, drop the insert.
        Stripe().stale_drops.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Serve the run's own result to every parked continuation (continuation
  // handoff), then to the owner. A sync or batch caller that already left
  // at its deadline keeps its claim, and is skipped.
  const bool ok = run.ok();
  Prediction served;
  if (ok) ServeInto(*run, &served);
  for (const ContinuationPtr& w : waiters) {
    if (!w->Claim()) continue;
    Prediction copy = served;
    w->Resolve(Serve(w->req, plan, ok ? &copy : nullptr, run.status(),
                     Source::kHit));
  }
  return Serve(req, plan, ok ? &served : nullptr, run.status(),
               Source::kMiss);
}

PredictionService::Ticket PredictionService::Route(const Request& req,
                                                   ContinuationPtr waiter,
                                                   bool register_owned) {
  Ticket t;
  // Hits are served even past the deadline: the result is already free,
  // and deadlines bound work consumption, not delivery.
  if (TryLockFreeHit(req, &t.hit)) {
    t.source = Source::kLockFreeHit;
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
        shard.ring[it->second]->identity->key == req.id().key) {
      EntryPtr& entry = shard.ring[it->second];
      if (entry->epoch < pipeline_.calibration_epoch()) {
        RecombineLocked(shard, &entry);
      }
      entry->Touch();
      // Republish: the entry may have been displaced from its slot ways by
      // slot-index neighbours; the most recent user wins a way back.
      PublishSlotLocked(shard, entry);
      t.source = Source::kHit;
      ServeInto(entry, &t.hit);
      return t;
    }
  }
  const auto range = shard.inflight.equal_range(req.fingerprint);
  for (auto it = range.first; it != range.second; ++it) {
    // A run for a structurally different plan (a hash collision) is not
    // this request's run.
    if (it->second->identity->key != req.id().key) continue;
    // The owner serves the parked request from its run's entry; the join
    // is counted NOW, so a gated owner's joiners are observable while it
    // is still mid-stages.
    if (waiter == nullptr) waiter = std::make_shared<Continuation>(req);
    it->second->waiters.push_back(waiter);
    t.waiter = std::move(waiter);
    Stripe().inflight_joins.fetch_add(1, std::memory_order_relaxed);
    return t;
  }
  if (!register_owned) return t;
  t.owned = std::make_shared<Inflight>(*req.identity);
  shard.inflight.emplace(req.fingerprint, t.owned);
  return t;
}

StatusOr<Prediction> PredictionService::Serve(const Request& req,
                                              const Plan& plan, Prediction* hit,
                                              const Status& failure,
                                              Source source) {
  // One named result, built in place, so the return elides every copy.
  StatusOr<Prediction> out =
      hit != nullptr ? StatusOr<Prediction>(std::move(*hit))
      : req.ctx.allow_degraded
          ? StatusOr<Prediction>(MakeDegraded(req.fingerprint, plan))
          : StatusOr<Prediction>(failure);
  RecordOutcome(source, OutcomeOf(out));
  return out;
}

StatusOr<Prediction> PredictionService::Await(Continuation& c,
                                              const Plan& plan) {
  if (c.req.ctx.has_deadline && !c.WaitUntil(c.req.ctx.deadline) &&
      c.Claim()) {
    return Serve(c.req, plan, nullptr,
                 Status::DeadlineExceeded(
                     "deadline expired waiting on the in-flight winner"),
                 Source::kHit);
  }
  return c.Take();
}

StatusOr<Prediction> PredictionService::RejectUnfinalized() {
  RecordOutcome(Source::kMiss, Outcome::kFailed);
  return Status::FailedPrecondition("plan must be finalized");
}

StatusOr<Prediction> PredictionService::Predict(const Plan& plan,
                                                const RequestOptions& opts) {
  if (plan.Identity() == nullptr) return RejectUnfinalized();
  const Request req = MakeRequest(plan, MakeContext(opts));
  Ticket t = Route(req, nullptr, /*register_owned=*/true);
  if (t.source != Source::kMiss) {
    return Serve(req, plan, &t.hit, Status(), t.source);
  }
  if (t.waiter != nullptr) return Await(*t.waiter, plan);
  return RunOwnedStages(plan, req, t);
}

void PredictionService::RunQueued(const ContinuationPtr& c) {
  // A request that expired in the queue never registers as an owner: the
  // pool stops spending time on it, and no joiner can inherit its
  // DeadlineExceeded. A result that is already free (cached, or a run in
  // flight to park on) is still delivered.
  Ticket t = Route(c->req, c, /*register_owned=*/!c->req.ctx.Expired());
  if (t.waiter != nullptr) return;  // the owner will finish it; worker freed
  if (t.owned != nullptr) {
    c->Resolve(RunOwnedStages(*c->plan, c->req, t));
    return;
  }
  const bool hit = t.source != Source::kMiss;
  c->Resolve(Serve(
      c->req, *c->plan, hit ? &t.hit : nullptr,
      hit ? Status() : Status::DeadlineExceeded("deadline expired in the pool queue"),
      t.source));
}

PredictionFuture PredictionService::PredictAsync(const Plan& plan,
                                                const RequestOptions& opts) {
  if (plan.Identity() == nullptr) return PredictionFuture(RejectUnfinalized());
  // Resolved on the submitting thread, without a copy of the plan or a
  // queue trip: a hit (on a hot cache through the lock-free probe, no
  // service mutex at all), served into a ready future, or a continuation
  // parked on a run already in flight (stage 3 needs only the artifacts).
  const Request req = MakeRequest(plan, MakeContext(opts));
  Ticket t = Route(req, nullptr, /*register_owned=*/false);
  if (t.source != Source::kMiss) {
    return PredictionFuture(Serve(req, plan, &t.hit, Status(), t.source));
  }
  if (t.waiter != nullptr) return PredictionFuture(std::move(t.waiter));

  // Cold miss: the queued request owns a deep copy, so the caller's plan
  // is never touched after this call returns.
  auto c = std::make_shared<Continuation>(req);
  c->plan = std::make_shared<const Plan>(plan.Clone());
  if (!pool_.Submit([this, c] { RunQueued(c); })) {
    // The pool is gone; enqueueing would leave the future unsatisfied
    // forever. Fail fast instead.
    Stripe().async_rejects.fetch_add(1, std::memory_order_relaxed);
    return PredictionFuture(Status::Unavailable("PredictionService is shut down"));
  }
  MaybeSpuriousWakeup();
  return PredictionFuture(std::move(c));
}

std::vector<StatusOr<Prediction>> PredictionService::PredictBatch(
    const std::vector<const Plan*>& plans, const RequestOptions& opts) {
  // Every slot is one request, routed in order like concurrent ones: a
  // slot that repeats an earlier slot's cold plan parks on that slot's run
  // (Route confirms the structural key, so colliding plans never share).
  const RequestContext ctx = MakeContext(opts);
  const size_t n = plans.size();
  std::vector<StatusOr<Prediction>> results(n, Status::Internal("unresolved"));
  std::vector<Request> reqs(n);
  std::vector<Ticket> tickets(n);
  std::vector<size_t> served;  // slots with a hit or an owned run
  for (size_t i = 0; i < n; ++i) {
    if (plans[i]->Identity() == nullptr) {
      results[i] = RejectUnfinalized();
      continue;
    }
    reqs[i] = MakeRequest(*plans[i], ctx);
    tickets[i] = Route(reqs[i], nullptr, /*register_owned=*/true);
    if (tickets[i].waiter == nullptr) served.push_back(i);
  }

  // The runs this batch owns, sharded across the pool, with the hits
  // alongside. Parked slots are left to their owners, so no pool worker
  // waits on another request's run; an owner in this batch has completed
  // before its joiners are awaited.
  if (served.size() > 1) MaybeSpuriousWakeup();
  pool_.RunTasks(static_cast<int64_t>(served.size()), [&](int64_t k) {
    const size_t i = served[static_cast<size_t>(k)];
    Ticket& t = tickets[i];
    results[i] = t.owned != nullptr
                     ? RunOwnedStages(*plans[i], reqs[i], t)
                     : Serve(reqs[i], *plans[i], &t.hit, Status(), t.source);
  });
  for (size_t i = 0; i < n; ++i) {
    if (tickets[i].waiter != nullptr) {
      results[i] = Await(*tickets[i].waiter, *plans[i]);
    }
  }
  return results;
}

uint64_t PredictionService::PublishCalibration(CostUnits units,
                                               std::string source) {
  MutexLock lock(&calibration_mu_);
  const uint64_t epoch = pipeline_.calibration_epoch() + 1;
  const uint64_t reports =
      families_ != nullptr ? families_->total_reports() : 0;
  pipeline_.SetCalibration(MakeCalibrationSnapshot(std::move(units), epoch,
                                                   std::move(source), reports));
  // Deliberately NOT InvalidateCache: stage-1/2 artifacts are
  // unit-independent, so every cached entry survives the swap and only
  // its stage-3 result went stale — the next hit re-combines lazily
  // (stats().recombines) instead of re-running the expensive stages.
  if (families_ != nullptr) families_->OnPublish();
  return epoch;
}

void PredictionService::ReportObserved(const Plan& plan, double observed_ms) {
  if (plan.Identity() == nullptr) {
    // An unfinalized plan names no family: the report is dropped.
    Report(0, observed_ms, /*comparable=*/false, {});
    return;
  }
  ReportObserved(Fingerprint(plan, *plan.Identity()), observed_ms);
}

void PredictionService::ReportObserved(uint64_t fingerprint,
                                       double observed_ms) {
  // Compared lazily — converged families skip it entirely — against the
  // family's cached prediction under the CURRENT snapshot (a hot family
  // pays zero combination work; a stale entry re-combines once). Every
  // cache-backed comparison refreshes the family's stash; when the plan
  // was evicted (or flushed) the stashed mean is the fallback comparison
  // point, so late reports still land instead of dropping.
  Report(fingerprint, observed_ms, /*comparable=*/true,
         [this, fingerprint](PredictionStash* stash, double* mean_ms) {
           Prediction prediction;
           if (CachedPrediction(fingerprint, &prediction)) {
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
           Stripe().feedback_stash_hits.fetch_add(1,
                                                  std::memory_order_relaxed);
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
  // A degraded decision never feeds the loop: its error would measure the
  // optimizer's cost-only guess, not the calibrated pipeline.
  Report(fingerprint, observed_ms, /*comparable=*/!as_decided.degraded,
         [&as_decided](PredictionStash* stash, double* mean_ms) {
           stash->mean_ms = as_decided.mean();
           stash->epoch = as_decided.calibration_epoch();
           stash->valid = true;
           *mean_ms = as_decided.mean();
           return true;
         });
}

void PredictionService::Report(uint64_t fingerprint, double observed_ms,
                               bool comparable,
                               const FamilyRegistry::ErrorFn& mean_fn) {
  if (families_ == nullptr || !families_->feedback_enabled()) return;
  StatsStripe& stripe = Stripe();
  stripe.feedback_reports.fetch_add(1, std::memory_order_relaxed);
  // Only a finite positive runtime has a relative error: +inf would put
  // inf/inf = NaN into the window, and the family could then neither
  // converge nor drift until it left the ring.
  if (!comparable || !(std::isfinite(observed_ms) && observed_ms > 0.0)) {
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
  switch (families_->Observe(fingerprint, error_fn)) {
    case FamilyRegistry::Action::kDropped:
      stripe.feedback_dropped.fetch_add(1, std::memory_order_relaxed);
      break;
    case FamilyRegistry::Action::kDrift:
      HandleDrift();
      break;
    default:
      break;
  }
}

void PredictionService::HandleDrift() {
  if (!options_.feedback.recalibrate) return;  // detect-only mode
  // At most one recalibration per cooldown window across all families:
  // one machine-wide drift makes many families scream at once.
  if (!families_->ClaimDrift()) return;
  // Re-derive the units outside every service lock — calibration runs
  // real (harness) queries and must not stall the prediction hot path.
  CostUnits units = options_.feedback.recalibrate();
  PublishCalibration(std::move(units), "drift");
  Stripe().recalibrations.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FamilyFeedback> PredictionService::FeedbackSnapshot() const {
  return families_ != nullptr ? families_->Snapshot()
                              : std::vector<FamilyFeedback>();
}

ServiceStats PredictionService::stats() const {
  // Sum the stripes. Each stripe's relaxed counters are
  // monotone and each request touched exactly one resolution-matrix cell
  // in exactly one stripe, so every reported aggregate — the hit/miss
  // split, the outcome split, and `predictions` itself — is a sum over
  // cells BY DEFINITION, which is what makes both conservation
  // invariants hold at every observable instant instead of only at
  // quiescence.
  ServiceStats out;
  for (size_t i = 0; i <= stripe_mask_; ++i) {
    const StatsStripe& s = stripes_[i];
    for (size_t row = 0; row < kNumSources; ++row) {
      for (size_t col = 0; col < kNumOutcomes; ++col) {
        const uint64_t v = s.outcome[row][col].load(std::memory_order_relaxed);
        const Source source = static_cast<Source>(row);
        (source == Source::kMiss ? out.cache_misses : out.cache_hits) += v;
        if (source == Source::kLockFreeHit) out.lockfree_hits += v;
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
    out.breaker_opens += s.breaker_opens.load(std::memory_order_relaxed);
    out.breaker_shed += s.breaker_shed.load(std::memory_order_relaxed);
    out.breaker_probes += s.breaker_probes.load(std::memory_order_relaxed);
  }
  out.predictions = out.cache_hits + out.cache_misses;
  if (families_ != nullptr && families_->feedback_enabled()) {
    const FamilyRegistry::Counts counts = families_->CountFamilies();
    out.converged_families = counts.converged;
    out.feedback_families = counts.reported;
  }
  return out;
}

}  // namespace uqp
