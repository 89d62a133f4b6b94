// Tests for the service layer: PredictionService must serve batched,
// cached and concurrent predictions that are bit-identical to the
// sequential single-plan path, skip the sample run on fingerprint cache
// hits, and stay race-free under multi-threaded load.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/cost_model.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "service/fault.h"
#include "service/prediction_service.h"
#include "workload/common.h"

namespace uqp {
namespace {

/// Shared fixture: a tiny TPC-H database, samples, calibrated units and a
/// pool of optimized selection-join plans.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
    SampleOptions sample_options;
    sample_options.sampling_ratio = 0.05;
    samples_ = new SampleDb(SampleDb::Build(*db_, sample_options));
    SimulatedMachine machine(MachineProfile::PC1(), 17);
    Calibrator calibrator(&machine);
    units_ = new CostUnits(calibrator.Calibrate());

    plans_ = new std::vector<Plan>();
    SelJoinOptions wopts;
    wopts.instances_per_template = 2;
    auto queries = MakeSelJoinWorkload(*db_, wopts);
    for (auto& q : queries) {
      auto plan_or = OptimizePlan(std::move(q.logical), *db_);
      if (plan_or.ok()) plans_->push_back(std::move(plan_or).value());
    }
    ASSERT_GE(plans_->size(), 4u);
  }

  static void TearDownTestSuite() {
    delete plans_;
    delete units_;
    delete samples_;
    delete db_;
    plans_ = nullptr;
    units_ = nullptr;
    samples_ = nullptr;
    db_ = nullptr;
  }

  /// The whole plan pool as one PredictBatch argument.
  static std::vector<const Plan*> AllPlans() {
    std::vector<const Plan*> out;
    for (const Plan& p : *plans_) out.push_back(&p);
    return out;
  }

  static Database* db_;
  static SampleDb* samples_;
  static CostUnits* units_;
  static std::vector<Plan>* plans_;
};

Database* ServiceTest::db_ = nullptr;
SampleDb* ServiceTest::samples_ = nullptr;
CostUnits* ServiceTest::units_ = nullptr;
std::vector<Plan>* ServiceTest::plans_ = nullptr;

TEST_F(ServiceTest, BatchBitIdenticalToSequential) {
  // Sequential reference through the plain pipeline (no cache, no pool).
  PredictionPipeline predictor(db_, samples_, *units_);
  std::vector<Prediction> reference;
  for (const Plan& plan : *plans_) {
    auto pred_or = predictor.Predict(plan);
    ASSERT_TRUE(pred_or.ok()) << pred_or.status().ToString();
    reference.push_back(std::move(pred_or).value());
  }

  ServiceOptions options;
  options.num_workers = 3;
  PredictionService service(db_, samples_, *units_, options);
  const auto batched = service.PredictBatch(AllPlans());
  ASSERT_EQ(batched.size(), plans_->size());
  for (size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    // Bit-identical, not approximately equal: every stage is
    // deterministic, so batching/sharding must not change a single bit.
    EXPECT_EQ(batched[i]->mean(), reference[i].mean()) << "plan " << i;
    EXPECT_EQ(batched[i]->breakdown.variance, reference[i].breakdown.variance)
        << "plan " << i;
    EXPECT_EQ(batched[i]->breakdown.var_cost_units,
              reference[i].breakdown.var_cost_units);
    EXPECT_EQ(batched[i]->breakdown.var_selectivity,
              reference[i].breakdown.var_selectivity);
  }
}

TEST_F(ServiceTest, CachedRepredictionSkipsSampleRun) {
  PredictionService service(db_, samples_, *units_);
  const Plan& plan = (*plans_)[0];

  auto first = service.Predict(plan);
  ASSERT_TRUE(first.ok());
  const ServiceStats after_first = service.stats();
  EXPECT_EQ(after_first.sample_runs, 1u);
  EXPECT_EQ(after_first.cache_misses, 1u);
  EXPECT_EQ(after_first.cache_hits, 0u);

  auto second = service.Predict(plan);
  ASSERT_TRUE(second.ok());
  const ServiceStats after_second = service.stats();
  EXPECT_EQ(after_second.sample_runs, 1u) << "cache hit must skip stage 1";
  EXPECT_EQ(after_second.cache_hits, 1u);

  // The cached path re-runs only fit/combine: bit-identical output.
  EXPECT_EQ(second->mean(), first->mean());
  EXPECT_EQ(second->breakdown.variance, first->breakdown.variance);
}

TEST_F(ServiceTest, BatchDedupesByFingerprint) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(db_, samples_, *units_, options);

  // The same two plans repeated: 6 predictions, 2 distinct fingerprints.
  std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1], &(*plans_)[0],
                                    &(*plans_)[1], &(*plans_)[0], &(*plans_)[1]};
  const auto results = service.PredictBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_EQ(service.stats().sample_runs, 2u)
      << "repeated fingerprints must share one sample run";
  // Repeats are bit-identical to their first occurrence.
  EXPECT_EQ(results[2]->mean(), results[0]->mean());
  EXPECT_EQ(results[2]->breakdown.variance, results[0]->breakdown.variance);
  EXPECT_EQ(results[5]->mean(), results[1]->mean());
}

TEST_F(ServiceTest, FingerprintDistinguishesPlans) {
  // Sanity on the cache key: distinct plans get distinct fingerprints,
  // and a plan's fingerprint is stable.
  const uint64_t f0 = PlanFingerprint((*plans_)[0]);
  const uint64_t f1 = PlanFingerprint((*plans_)[1]);
  EXPECT_NE(f0, f1);
  EXPECT_EQ(f0, PlanFingerprint((*plans_)[0]));
}

TEST_F(ServiceTest, ConcurrentPredictIsRaceFree) {
  // N threads hammer Predict over a shared service (shared cache, shared
  // pipeline); every result must equal the sequential reference.
  PredictionPipeline predictor(db_, samples_, *units_);
  std::vector<Prediction> reference;
  for (const Plan& plan : *plans_) {
    auto pred_or = predictor.Predict(plan);
    ASSERT_TRUE(pred_or.ok());
    reference.push_back(std::move(pred_or).value());
  }

  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(db_, samples_, *units_, options);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (size_t i = 0; i < plans_->size(); ++i) {
          // Interleave plan order per thread to vary cache contention.
          const size_t idx = (i + static_cast<size_t>(t)) % plans_->size();
          auto pred_or = service.Predict((*plans_)[idx]);
          if (!pred_or.ok()) {
            ++failures[t];
            continue;
          }
          if (pred_or->mean() != reference[idx].mean() ||
              pred_or->breakdown.variance != reference[idx].breakdown.variance) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.predictions,
            static_cast<uint64_t>(kThreads * kRoundsPerThread) * plans_->size());
  // The cache bounds stage-1 work: at most one sample run per distinct
  // plan, plus any lost races on first population (both run, one wins).
  EXPECT_LE(stats.sample_runs, static_cast<uint64_t>(kThreads) * plans_->size());
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST_F(ServiceTest, CacheDisabledStillCorrect) {
  ServiceOptions options;
  options.cache_capacity = 0;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  auto a = service.Predict(plan);
  auto b = service.Predict(plan);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(service.stats().sample_runs, 2u);
  EXPECT_EQ(a->mean(), b->mean());
  EXPECT_EQ(a->breakdown.variance, b->breakdown.variance);
}

TEST_F(ServiceTest, RecomputeMatchesPredictorRecompute) {
  PredictionService service(db_, samples_, *units_);
  PredictionPipeline predictor(db_, samples_, *units_);
  auto pred_or = service.Predict((*plans_)[2]);
  ASSERT_TRUE(pred_or.ok());
  for (const auto variant : {PredictorVariant::kNoVarC, PredictorVariant::kNoVarX,
                             PredictorVariant::kNoCov}) {
    const VarianceBreakdown s = service.pipeline().Recompute(
        *pred_or, variant, CovarianceBoundKind::kBest);
    const VarianceBreakdown p =
        predictor.Recompute(*pred_or, variant, CovarianceBoundKind::kBest);
    EXPECT_EQ(s.mean, p.mean);
    EXPECT_EQ(s.variance, p.variance);
  }
}

TEST_F(ServiceTest, LruEvictionKeepsServing) {
  ServiceOptions options;
  options.cache_capacity = 2;  // smaller than the plan pool
  PredictionService service(db_, samples_, *units_, options);
  for (int round = 0; round < 2; ++round) {
    for (const Plan& plan : *plans_) {
      auto pred_or = service.Predict(plan);
      ASSERT_TRUE(pred_or.ok());
    }
  }
  // With capacity 2 and a round-robin access pattern longer than the
  // cache, every access misses: correctness is unaffected, only reuse.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.predictions, 2u * plans_->size());
  EXPECT_EQ(stats.sample_runs, stats.cache_misses);
}

TEST_F(ServiceTest, EvictionSparesEntryServedLockFree) {
  // One shard holding three entries: a, b, c inserted in that order, then
  // a served off the published slots. The next insert (d) must evict b, the
  // coldest, not a (the oldest insert): a lock-free hit counts as a use.
  // The insert after that (e) evicts c, the coldest left, and neither a nor
  // d, the entry the previous overflow just made room for.
  ASSERT_GE(plans_->size(), 5u);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_shards = 1;
  options.cache_capacity = 3;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& a = (*plans_)[0];
  const Plan& b = (*plans_)[1];
  const Plan& c = (*plans_)[2];
  const Plan& d = (*plans_)[3];
  const Plan& e = (*plans_)[4];
  for (const Plan* plan : {&a, &b, &c}) ASSERT_TRUE(service.Predict(*plan).ok());
  ASSERT_TRUE(service.Predict(a).ok());
  ASSERT_EQ(service.stats().lockfree_hits, 1u)
      << "the recency touch under test must come from the lock-free path";
  ASSERT_TRUE(service.Predict(d).ok());
  ASSERT_TRUE(service.Predict(e).ok());
  ASSERT_EQ(service.stats().sample_runs, 5u);
  EXPECT_EQ(service.cache_size(), 3u);

  // Three residents in a cache of three: a, d and e, so b and c went.
  for (const Plan* plan : {&a, &d, &e}) ASSERT_TRUE(service.Predict(*plan).ok());
  EXPECT_EQ(service.stats().sample_runs, 5u)
      << "a, d or e was evicted instead of the colder b and c";
}

// ---------- Async + in-flight dedup ----------

TEST_F(ServiceTest, AsyncStormSharesOneSampleRun) {
  // A storm of concurrent PredictAsync requests on ONE fingerprint must
  // run stage 1 exactly once: the first request wins the in-flight slot,
  // every other request parks a continuation on it or hits the cache.
  ServiceOptions options;
  options.num_workers = 4;
  // Gate the winner inside the stages so the storm genuinely overlaps:
  // the hook returns only after at least 3 requests joined the in-flight
  // run.
  PredictionService* svc = nullptr;
  options.post_stages_hook = [&svc] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc->stats().inflight_joins < 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  PredictionService service(db_, samples_, *units_, options);
  svc = &service;

  const Plan& plan = (*plans_)[0];
  constexpr int kRequests = 16;
  std::vector<PredictionFuture> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.PredictAsync(plan));
  }

  PredictionPipeline reference(db_, samples_, *units_);
  auto ref = reference.Predict(plan);
  ASSERT_TRUE(ref.ok());
  for (auto& f : futures) {
    auto pred_or = f.get();
    ASSERT_TRUE(pred_or.ok()) << pred_or.status().ToString();
    EXPECT_EQ(pred_or->mean(), ref->mean());
    EXPECT_EQ(pred_or->breakdown.variance, ref->breakdown.variance);
  }

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.sample_runs, 1u) << "concurrent misses must share one stage-1 run";
  EXPECT_EQ(st.fit_runs, 1u);
  EXPECT_EQ(st.predictions, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, static_cast<uint64_t>(kRequests - 1));
  EXPECT_GE(st.inflight_joins, 1u);
  EXPECT_EQ(st.cache_hits + st.cache_misses, st.predictions);
}

TEST_F(ServiceTest, AsyncMatchesSyncBitIdentical) {
  PredictionService service(db_, samples_, *units_);
  PredictionPipeline predictor(db_, samples_, *units_);
  std::vector<PredictionFuture> futures;
  for (const Plan& plan : *plans_) futures.push_back(service.PredictAsync(plan));
  for (size_t i = 0; i < plans_->size(); ++i) {
    auto async_or = futures[i].get();
    auto sync_or = predictor.Predict((*plans_)[i]);
    ASSERT_TRUE(async_or.ok());
    ASSERT_TRUE(sync_or.ok());
    EXPECT_EQ(async_or->mean(), sync_or->mean()) << "plan " << i;
    EXPECT_EQ(async_or->breakdown.variance, sync_or->breakdown.variance);
  }
}

/// True when two predictions carry the same breakdown bit for bit (a
/// memcmp, so -0.0 against 0.0 or two NaN payloads would differ too).
bool SameBreakdownBits(const Prediction& a, const Prediction& b) {
  return std::memcmp(&a.breakdown, &b.breakdown, sizeof(VarianceBreakdown)) ==
         0;
}

TEST_F(ServiceTest, AsyncHitFutureIsReadyAndBitEqual) {
  // A hit is served on the submitting thread: PredictAsync returns a future
  // that is already ready, holding the sync path's prediction bit for bit
  // over the same cached artifacts, and each call is one lock-free hit.
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(db_, samples_, *units_, options);
  for (const Plan& plan : *plans_) {
    const auto sync = service.Predict(plan);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    const uint64_t before = service.stats().lockfree_hits;
    for (uint64_t rep = 1; rep <= 3; ++rep) {
      auto f = service.PredictAsync(plan);
      ASSERT_TRUE(f.valid());
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      auto moved = std::move(f);
      EXPECT_FALSE(f.valid()) << "a moved-from future holds no result";
      ASSERT_TRUE(moved.valid());
      const auto got = moved.get();
      EXPECT_FALSE(moved.valid());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameBreakdownBits(*got, *sync));
      EXPECT_EQ(got->sample_run.get(), sync->sample_run.get());
      EXPECT_EQ(got->cost_fit.get(), sync->cost_fit.get());
      EXPECT_EQ(got->calibration.get(), sync->calibration.get());
      EXPECT_EQ(service.stats().lockfree_hits, before + rep);
    }
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses, st.predictions);
}

TEST_F(ServiceTest, PendingFutureResolvesOnceFromItsContinuation) {
  // A future parked on a gated owner's run times out until the owner
  // resolves its continuation, then reads ready; get() moves the result
  // out once. Futures that were satisfied before the service is destroyed
  // still deliver afterwards, both a ready hit and a resolved miss.
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool armed = true;
  bool gated = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed) return;
    armed = false;
    gated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto service =
      std::make_unique<PredictionService>(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  auto owner = service->PredictAsync(plan);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gated; });
  }
  auto parked = service->PredictAsync(plan);
  ASSERT_TRUE(parked.valid());
  EXPECT_EQ(service->stats().inflight_joins, 1u);
  EXPECT_EQ(parked.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  EXPECT_EQ(parked.wait_until(std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(5)),
            std::future_status::timeout);
  EXPECT_TRUE(parked.valid()) << "a timed-out wait leaves the future pending";
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  ASSERT_EQ(parked.wait_until(std::chrono::steady_clock::now() +
                              std::chrono::seconds(60)),
            std::future_status::ready);
  EXPECT_EQ(parked.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  parked.wait();
  const auto got = parked.get();
  EXPECT_FALSE(parked.valid());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const auto owned = owner.get();
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_TRUE(SameBreakdownBits(*got, *owned));
  EXPECT_EQ(got->sample_run.get(), owned->sample_run.get());

  auto hit = service->PredictAsync(plan);
  auto miss = service->PredictAsync((*plans_)[1]);
  miss.wait();
  service.reset();
  ASSERT_TRUE(hit.valid());
  ASSERT_TRUE(miss.valid());
  const auto hit_result = hit.get();
  ASSERT_TRUE(hit_result.ok()) << hit_result.status().ToString();
  EXPECT_TRUE(SameBreakdownBits(*hit_result, *owned));
  EXPECT_EQ(hit_result->sample_run.get(), owned->sample_run.get());
  const auto miss_result = miss.get();
  ASSERT_TRUE(miss_result.ok()) << miss_result.status().ToString();
  EXPECT_NE(miss_result->sample_run, nullptr);
}

TEST_F(ServiceTest, WaitForPastTheClocksRangeWaitsForTheResult) {
  // A timeout too long to add to now() (any duration's max()) is no
  // deadline: wait_for blocks until the gated owner is released and reads
  // ready. Adding it would overflow and wrap the deadline into the past,
  // so the wait would read timeout at once.
  ServiceOptions options;
  options.num_workers = 1;
  std::mutex mu;
  std::condition_variable cv;
  bool gated = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    gated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);
  // Runs plan i's cold miss up to the gate, releases it from another
  // thread a little later, and waits on its pending future with `timeout`.
  auto wait_on_gated_run = [&](size_t i, auto timeout) {
    {
      std::lock_guard<std::mutex> lock(mu);
      gated = release = false;
    }
    auto f = service.PredictAsync((*plans_)[i]);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return gated; });
    }
    // The far negative end only checks readiness.
    EXPECT_EQ(f.wait_for(std::chrono::hours::min()),
              std::future_status::timeout);
    std::thread releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::lock_guard<std::mutex> lock(mu);
      release = true;
      cv.notify_all();
    });
    const std::future_status status = f.wait_for(timeout);
    releaser.join();
    EXPECT_EQ(status, std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  };
  wait_on_gated_run(0, std::chrono::nanoseconds::max());
  wait_on_gated_run(1, std::chrono::hours::max());
}

// ---------- Zero-copy cached artifacts ----------

TEST_F(ServiceTest, HotCachePredictionsShareArtifacts) {
  // Hot-cache predictions must alias the cached stage 1-2 artifacts, not
  // copy them: pointer identity across repeated predictions of one plan.
  PredictionService service(db_, samples_, *units_);
  const Plan& plan = (*plans_)[0];
  auto first = service.Predict(plan);
  auto second = service.Predict(plan);
  auto third = service.Predict(plan);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  ASSERT_NE(first->sample_run, nullptr);
  ASSERT_NE(first->cost_fit, nullptr);
  EXPECT_EQ(first->sample_run.get(), second->sample_run.get())
      << "hot-cache prediction must share, not copy, the sample run";
  EXPECT_EQ(first->cost_fit.get(), second->cost_fit.get());
  EXPECT_EQ(second->sample_run.get(), third->sample_run.get());
  // The shared artifacts stay valid and readable through the prediction.
  EXPECT_FALSE(first->estimates().ops.empty());
  EXPECT_EQ(&first->estimates(), &second->estimates());
}

TEST_F(ServiceTest, BatchDuplicatesShareArtifacts) {
  PredictionService service(db_, samples_, *units_);
  std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1], &(*plans_)[0]};
  const auto results = service.PredictBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_EQ(results[0]->sample_run.get(), results[2]->sample_run.get());
  EXPECT_EQ(results[0]->cost_fit.get(), results[2]->cost_fit.get());
  EXPECT_NE(results[0]->sample_run.get(), results[1]->sample_run.get());
}

// ---------- Stats consistency ----------

TEST_F(ServiceTest, StatsInvariantHoldsMidFlight) {
  // hits + misses must equal predictions at EVERY instant, including
  // sampled from another thread in the middle of batches, async storms
  // and single predictions.
  ServiceOptions options;
  options.num_workers = 3;
  PredictionService service(db_, samples_, *units_, options);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread poller([&] {
    while (!stop.load()) {
      const ServiceStats st = service.stats();
      if (st.cache_hits + st.cache_misses != st.predictions) {
        violations.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  std::vector<const Plan*> batch;
  for (int r = 0; r < 3; ++r) {
    for (const Plan& p : *plans_) batch.push_back(&p);
  }
  for (int round = 0; round < 3; ++round) {
    auto results = service.PredictBatch(batch);
    for (const auto& r : results) ASSERT_TRUE(r.ok());
    std::vector<PredictionFuture> futures;
    for (const Plan& p : *plans_) futures.push_back(service.PredictAsync(p));
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
    ASSERT_TRUE(service.Predict((*plans_)[0]).ok());
  }
  stop.store(true);
  poller.join();

  EXPECT_EQ(violations.load(), 0)
      << "stats() exposed an inconsistent hit/miss split mid-flight";
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses, st.predictions);
  EXPECT_EQ(st.predictions,
            3u * (batch.size() + plans_->size() + 1));
}

// ---------- Cache invalidation vs in-flight predictions ----------

TEST_F(ServiceTest, InvalidateDuringInflightDropsStaleInsert) {
  // InvalidateCache while a prediction is between "stages done" and
  // "cache insert" must win: the late insert is dropped (generation
  // stamp), so no pre-flush artifact survives the flush.
  ServiceOptions options;
  std::mutex mu;
  std::condition_variable cv;
  bool in_stages = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    in_stages = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];

  std::thread predict_thread([&] {
    auto pred_or = service.Predict(plan);
    EXPECT_TRUE(pred_or.ok());  // the in-flight prediction still completes
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_stages; });
  }
  service.InvalidateCache();  // flush races the pending insert — flush wins
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  predict_thread.join();

  EXPECT_EQ(service.cache_size(), 0u)
      << "a stale artifact was re-inserted after InvalidateCache";
  EXPECT_EQ(service.stats().stale_drops, 1u);

  // The next prediction must re-run stage 1 (nothing stale was kept).
  auto again = service.Predict(plan);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.stats().sample_runs, 2u);
  EXPECT_EQ(service.cache_size(), 1u);
}

// ---------- Fingerprint collisions ----------

TEST_F(ServiceTest, FingerprintCollisionFallsBackToMiss) {
  // Force every plan onto one 64-bit fingerprint: the structural key
  // stored with each cache entry must turn would-be false hits into
  // misses, so predictions stay bit-identical to the reference.
  PredictionPipeline predictor(db_, samples_, *units_);
  ServiceOptions options;
  options.fingerprint_fn = [](const Plan&) -> uint64_t { return 42; };
  PredictionService service(db_, samples_, *units_, options);

  std::vector<Prediction> reference;
  for (const Plan& plan : *plans_) {
    auto pred_or = predictor.Predict(plan);
    ASSERT_TRUE(pred_or.ok());
    reference.push_back(std::move(pred_or).value());
  }
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < plans_->size(); ++i) {
      auto pred_or = service.Predict((*plans_)[i]);
      ASSERT_TRUE(pred_or.ok());
      EXPECT_EQ(pred_or->mean(), reference[i].mean())
          << "colliding fingerprints served another plan's artifacts";
      EXPECT_EQ(pred_or->breakdown.variance, reference[i].breakdown.variance);
    }
  }
  // All plans share the single colliding slot; round-robin access evicts
  // it every time, so every request was a (correct) miss.
  EXPECT_EQ(service.cache_size(), 1u);
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cache_misses, st.predictions);
  EXPECT_EQ(st.sample_runs, st.cache_misses);

  // An immediate repeat of the same plan is still a genuine hit: the
  // structural key matches, the collision guard only rejects impostors.
  auto a = service.Predict((*plans_)[0]);
  auto b = service.Predict((*plans_)[0]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(a->sample_run.get(), b->sample_run.get());
}

TEST_F(ServiceTest, BatchDedupRespectsStructuralKey) {
  // In-batch dedup must group on the structural key, not the bare 64-bit
  // hash: colliding plans in one batch get separate groups (and separate
  // sample runs) instead of silently sharing artifacts.
  ServiceOptions options;
  options.fingerprint_fn = [](const Plan&) -> uint64_t { return 7; };
  PredictionService service(db_, samples_, *units_, options);
  PredictionPipeline predictor(db_, samples_, *units_);

  std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1],
                                    &(*plans_)[0], &(*plans_)[1]};
  const auto results = service.PredictBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    auto ref = predictor.Predict(*batch[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(results[i]->mean(), ref->mean())
        << "colliding in-batch plans shared another plan's artifacts";
    EXPECT_EQ(results[i]->breakdown.variance, ref->breakdown.variance);
  }
  // One sample run per structural group — the collision did not merge
  // them, and true duplicates still share.
  EXPECT_EQ(service.stats().sample_runs, 2u);
  EXPECT_EQ(results[0]->sample_run.get(), results[2]->sample_run.get());
  EXPECT_NE(results[0]->sample_run.get(), results[1]->sample_run.get());
}

TEST_F(ServiceTest, StructuralKeyDistinguishesPlans) {
  const std::string k0 = PlanStructuralKey((*plans_)[0]);
  const std::string k1 = PlanStructuralKey((*plans_)[1]);
  EXPECT_NE(k0, k1);
  EXPECT_EQ(k0, PlanStructuralKey((*plans_)[0]));
}

TEST_F(ServiceTest, StructuralTwinsKeepTheirOwnCacheEntries) {
  // Plans that differ only in a constant's type or sign bit are different
  // plans (their keys differ), so they must not share a fingerprint: two
  // twins alternating through the cache each keep their own entry instead
  // of evicting each other as fingerprint collisions.
  const std::pair<Value, Value> twins[] = {
      {Value::Int64(24), Value::Double(24.0)},
      {Value::Double(0.0), Value::Double(-0.0)},
  };
  for (const auto& [a, b] : twins) {
    Plan pa(MakeSeqScan("lineitem", Expr::Cmp(4, CmpOp::kGe, a)));
    Plan pb(MakeSeqScan("lineitem", Expr::Cmp(4, CmpOp::kGe, b)));
    ASSERT_TRUE(pa.Finalize(*db_).ok());
    ASSERT_TRUE(pb.Finalize(*db_).ok());
    ASSERT_NE(PlanStructuralKey(pa), PlanStructuralKey(pb));
    EXPECT_NE(PlanFingerprint(pa), PlanFingerprint(pb))
        << a.ToString() << " vs " << b.ToString();

    PredictionService service(db_, samples_, *units_);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(service.Predict(i % 2 == 0 ? pa : pb).ok());
    }
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.sample_runs, 2u) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(st.cache_hits, 4u);
    EXPECT_EQ(service.cache_size(), 2u);
  }
}

// ---------- Plan lifetime: fire-and-forget PredictAsync ----------

TEST_F(ServiceTest, AsyncCallerDropsPlanImmediately) {
  // The ownership contract: the caller may destroy its Plan the moment
  // PredictAsync returns — the queued request predicts from its own deep
  // copy. Under AddressSanitizer this test is what proves the old
  // capture-by-raw-pointer use-after-free is gone.
  PredictionService service(db_, samples_, *units_);
  PredictionPipeline reference(db_, samples_, *units_);
  auto ref = reference.Predict((*plans_)[0]);
  ASSERT_TRUE(ref.ok());

  PredictionFuture future;
  {
    Plan doomed = (*plans_)[0].Clone();
    future = service.PredictAsync(doomed);
  }  // doomed destroyed before the worker may even have started

  auto pred_or = future.get();
  ASSERT_TRUE(pred_or.ok()) << pred_or.status().ToString();
  EXPECT_EQ(pred_or->mean(), ref->mean());
  EXPECT_EQ(pred_or->breakdown.variance, ref->breakdown.variance);
}

TEST_F(ServiceTest, AsyncStormWithDroppedPlansSharesOneCloneAndOneRun) {
  // A same-plan async storm where every caller plan dies right after
  // submission: only the queued owner holds a copy of the plan, the
  // in-flight table must collapse them to one stage-1 run, and every
  // future must still be satisfied bit-identically.
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool winner_parked = false;
  bool release = false;
  std::atomic<int> hook_calls{0};
  options.post_stages_hook = [&] {
    if (hook_calls.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      winner_parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  PredictionService service(db_, samples_, *units_, options);
  PredictionPipeline reference(db_, samples_, *units_);
  auto ref = reference.Predict((*plans_)[1]);
  ASSERT_TRUE(ref.ok());

  std::vector<PredictionFuture> futures;
  {
    Plan doomed = (*plans_)[1].Clone();
    futures.push_back(service.PredictAsync(doomed));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return winner_parked; });
  }
  constexpr int kLosers = 6;
  for (int i = 0; i < kLosers; ++i) {
    Plan doomed = (*plans_)[1].Clone();
    futures.push_back(service.PredictAsync(doomed));
  }  // every original destroyed while the winner is still gated
  // Wait until every loser has parked its continuation (none may block a
  // worker, so this drains quickly even with the winner gated).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().inflight_joins < kLosers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(service.stats().inflight_joins, static_cast<uint64_t>(kLosers));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  for (auto& f : futures) {
    auto pred_or = f.get();
    ASSERT_TRUE(pred_or.ok()) << pred_or.status().ToString();
    EXPECT_EQ(pred_or->mean(), ref->mean());
    EXPECT_EQ(pred_or->breakdown.variance, ref->breakdown.variance);
  }
  EXPECT_EQ(service.stats().sample_runs, 1u);
}

TEST_F(ServiceTest, AsyncPlanDroppedWhileBatchOwnsTheInflightRun) {
  // Cross-path dedup with dropped plans: a PredictBatch shard wins the
  // in-flight slot and is gated mid-stages; async clones of the same plan
  // arrive, park continuations, and their caller plans are destroyed. The
  // batch (sync) winner must drain the async waiters on completion.
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> in_stages{0};
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++in_stages;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);

  std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1]};
  std::vector<StatusOr<Prediction>> batch_results;
  std::thread batch_thread(
      [&] { batch_results = service.PredictBatch(batch); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_stages.load() >= 2; });
  }
  std::vector<PredictionFuture> futures;
  constexpr int kAsync = 4;
  for (int i = 0; i < kAsync; ++i) {
    Plan doomed = (*plans_)[0].Clone();
    futures.push_back(service.PredictAsync(doomed));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().inflight_joins < kAsync &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(service.stats().inflight_joins, static_cast<uint64_t>(kAsync));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  batch_thread.join();
  ASSERT_EQ(batch_results.size(), 2u);
  for (const auto& r : batch_results) ASSERT_TRUE(r.ok());
  for (auto& f : futures) {
    auto pred_or = f.get();
    ASSERT_TRUE(pred_or.ok()) << pred_or.status().ToString();
    EXPECT_EQ(pred_or->mean(), batch_results[0]->mean());
  }
  EXPECT_EQ(service.stats().sample_runs, 2u);
}

TEST_F(ServiceTest, EveryJoinerSharesTheRunsOneCombination) {
  // A cold plan's run is gated mid-stages while an async request, a sync
  // Predict and a PredictBatch holding the plan twice all park on it. The
  // run's cache entry serves its owner and every joiner through one
  // stage-3 memo: one sample run, one combination, and every result
  // bit-identical and pointer-identical to the owner's. The first hit
  // after the run reuses the same memo.
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool gated = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    gated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[2];
  auto owner = service.PredictAsync(plan);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gated; });
  }
  const uint64_t combines_before = service.pipeline().combine_count();
  auto parked = service.PredictAsync(plan);
  StatusOr<Prediction> sync = Status::Internal("sync not run");
  std::thread sync_thread([&] { sync = service.Predict(plan); });
  std::vector<StatusOr<Prediction>> batched;
  std::thread batch_thread(
      [&] { batched = service.PredictBatch({&plan, &plan}); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().inflight_joins < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  // Both batch slots park: a repeated slot joins like any other request.
  // (EXPECT, not ASSERT: the gate must open for the threads to join.)
  EXPECT_EQ(service.stats().inflight_joins, 4u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  sync_thread.join();
  batch_thread.join();
  std::vector<StatusOr<Prediction>> results = {owner.get(), parked.get(),
                                               sync};
  results.insert(results.end(), batched.begin(), batched.end());
  ASSERT_EQ(results.size(), 5u);

  PredictionPipeline reference(db_, samples_, *units_);
  auto ref = reference.Predict(plan);
  ASSERT_TRUE(ref.ok());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "result " << i << ": "
                                 << results[i].status().ToString();
    EXPECT_EQ(results[i]->mean(), ref->mean()) << "result " << i;
    EXPECT_EQ(results[i]->breakdown.variance, ref->breakdown.variance)
        << "result " << i;
    EXPECT_EQ(results[i]->sample_run.get(), results[0]->sample_run.get());
    EXPECT_EQ(results[i]->cost_fit.get(), results[0]->cost_fit.get());
    EXPECT_EQ(results[i]->calibration.get(), results[0]->calibration.get());
  }
  EXPECT_EQ(service.stats().sample_runs, 1u);
  EXPECT_EQ(service.pipeline().combine_count(), combines_before + 1)
      << "the owner and its four joiners must share one combination";

  auto hit = service.Predict(plan);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->mean(), ref->mean());
  EXPECT_EQ(service.pipeline().combine_count(), combines_before + 1)
      << "the first hit must reuse the memo the run seeded";
  EXPECT_EQ(service.stats().recombines, 0u);
}

// ---------- Continuation handoff: losers never pin a worker ----------

TEST_F(ServiceTest, DedupLosersLeaveWorkersAvailable) {
  // With the winner gated mid-stages on one of TWO workers, N dedup losers
  // for the same plan must pass through the remaining worker (parking
  // continuations) instead of pinning it in future::get() — proven by
  // unrelated predictions completing while the winner is still gated.
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool winner_parked = false;
  bool release = false;
  std::atomic<int> hook_calls{0};
  options.post_stages_hook = [&] {
    if (hook_calls.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      winner_parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  PredictionService service(db_, samples_, *units_, options);

  auto winner = service.PredictAsync((*plans_)[0]);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return winner_parked; });
  }
  constexpr int kLosers = 5;
  std::vector<PredictionFuture> losers;
  for (int i = 0; i < kLosers; ++i) {
    losers.push_back(service.PredictAsync((*plans_)[0]));
  }

  // Unrelated work must make progress on the remaining worker while the
  // winner is gated. If any loser blocked that worker, these futures
  // would never complete and the waits below would time out.
  for (size_t i = 1; i < 4 && i < plans_->size(); ++i) {
    auto f = service.PredictAsync((*plans_)[i]);
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "a dedup loser starved the pool";
    ASSERT_TRUE(f.get().ok());
  }
  // The losers themselves are parked, not finished: their artifacts only
  // exist once the winner completes.
  for (auto& f : losers) {
    EXPECT_NE(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  ASSERT_TRUE(winner.get().ok());
  for (auto& f : losers) ASSERT_TRUE(f.get().ok());
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.inflight_joins, static_cast<uint64_t>(kLosers));
  EXPECT_EQ(st.sample_runs, 4u);  // winner + the 3 unrelated plans
}

// ---------- Worker pool fairness ----------

TEST_F(ServiceTest, PoolServesRequestsInFifoOrder) {
  // One worker, four distinct queued plans, stage work gated by a permit
  // semaphore: releasing one permit at a time must complete the OLDEST
  // outstanding request next. (The old LIFO pop served the newest first,
  // starving the oldest under sustained load.)
  ServiceOptions options;
  options.num_workers = 1;
  std::mutex mu;
  std::condition_variable cv;
  int permits = 0;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return permits > 0; });
    --permits;
  };
  PredictionService service(db_, samples_, *units_, options);

  const size_t n = std::min<size_t>(4, plans_->size());
  std::vector<PredictionFuture> futures;
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(service.PredictAsync((*plans_)[i]));
  }
  for (size_t expect = 0; expect < n; ++expect) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++permits;
      cv.notify_all();
    }
    ASSERT_EQ(futures[expect].wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "request " << expect << " was starved";
    for (size_t later = expect + 1; later < n; ++later) {
      EXPECT_NE(futures[later].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "request " << later << " served before older request " << expect;
    }
    ASSERT_TRUE(futures[expect].get().ok());
  }
}

// ---------- Shutdown vs PredictAsync ----------

TEST_F(ServiceTest, ShutdownRejectsNewAsyncInsteadOfLosingIt) {
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool gate_next = false;
  bool gated = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!gate_next) return;
    gate_next = false;
    gated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);
  auto before = service.PredictAsync((*plans_)[0]);
  ASSERT_TRUE(before.get().ok());

  service.Shutdown();
  // An enqueue after shutdown must not hand back a future nobody will
  // ever satisfy: it fails fast, already ready, with Unavailable.
  auto after = service.PredictAsync((*plans_)[1]);
  ASSERT_EQ(after.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto result = after.get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().async_rejects, 1u);

  // A plan whose artifacts are already cached needs no pool: it is still
  // served inline, already ready, on the submitting thread.
  auto cached_after = service.PredictAsync((*plans_)[0]);
  ASSERT_EQ(cached_after.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ASSERT_TRUE(cached_after.get().ok());
  EXPECT_EQ(service.stats().async_rejects, 1u);

  // Nor does a plan whose run is in flight: the submit parks on that run,
  // and the run's owner resolves it. The owner is a sync Predict, gated
  // mid-stages on its own thread.
  {
    std::unique_lock<std::mutex> lock(mu);
    gate_next = true;
  }
  StatusOr<Prediction> winner_result = Status::Internal("not run");
  std::thread winner([&] { winner_result = service.Predict((*plans_)[2]); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gated; });
  }
  auto parked = service.PredictAsync((*plans_)[2]);
  EXPECT_EQ(parked.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the latecomer should be parked on the gated run, not resolved";
  EXPECT_EQ(service.stats().inflight_joins, 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  winner.join();
  ASSERT_TRUE(winner_result.ok()) << winner_result.status().ToString();
  auto parked_result = parked.get();
  ASSERT_TRUE(parked_result.ok()) << parked_result.status().ToString();
  EXPECT_EQ(parked_result->mean(), winner_result->mean());
  EXPECT_EQ(parked_result->sample_run.get(), winner_result->sample_run.get());
  EXPECT_EQ(service.stats().async_rejects, 1u);

  // The synchronous paths keep working inline after shutdown.
  ASSERT_TRUE(service.Predict((*plans_)[1]).ok());
  const auto batch = service.PredictBatch(AllPlans());
  for (const auto& r : batch) EXPECT_TRUE(r.ok());

  service.Shutdown();  // idempotent
}

TEST_F(ServiceTest, ShutdownRacingAsyncLeavesNoUnsatisfiedFuture) {
  // Hammer the enqueue/shutdown race: every future handed out must become
  // ready — either with a prediction (enqueued before the flag) or with
  // Unavailable (rejected after it). None may hang.
  for (int round = 0; round < 8; ++round) {
    ServiceOptions options;
    options.num_workers = 2;
    auto service =
        std::make_unique<PredictionService>(db_, samples_, *units_, options);
    std::vector<PredictionFuture> futures;
    std::mutex futures_mu;
    std::atomic<bool> go{false};
    std::thread submitter([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 8; ++i) {
        auto f = service->PredictAsync((*plans_)[i % plans_->size()]);
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
    go.store(true);
    if (round % 2 == 0) std::this_thread::yield();
    service->Shutdown();
    submitter.join();
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "a future was left unsatisfied by the shutdown race";
      auto r = f.get();
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      }
    }
  }
}

// A PredictBatch group whose plan is already being sampled by ANOTHER
// request parks a continuation on that run, and the batch's calling thread
// waits for it after its own runs: batch completion gated on the winner,
// counted as an in-flight join, results bit-identical.
TEST_F(ServiceTest, BatchShardJoiningInflightRunBlocksUntilWinnerFinishes) {
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool winner_gated = false;
  bool release = false;
  std::atomic<int> hook_calls{0};
  options.post_stages_hook = [&] {
    // Gate only the async winner's run (the first to finish stages); the
    // batch's other shard (a distinct plan) must complete unhindered.
    if (hook_calls.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      winner_gated = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  PredictionService service(db_, samples_, *units_, options);

  auto winner = service.PredictAsync((*plans_)[0]);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return winner_gated; });
  }

  std::atomic<bool> batch_done{false};
  std::vector<StatusOr<Prediction>> results;
  std::thread batcher([&] {
    const std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1]};
    results = service.PredictBatch(batch);
    batch_done.store(true);
  });

  // The group for plans_[0] parked on the gated winner's in-flight run,
  // so the batch cannot complete while the gate is closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(batch_done.load())
      << "batch finished while its in-flight dependency was still gated";

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  batcher.join();
  auto winner_result = winner.get();
  ASSERT_TRUE(winner_result.ok());

  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  // The joiner serves the winner's artifacts: bit-identical prediction
  // and pointer-identical sample run.
  EXPECT_EQ(results[0]->mean(), winner_result->mean());
  EXPECT_EQ(results[0]->breakdown.variance, winner_result->breakdown.variance);
  EXPECT_EQ(results[0]->sample_run.get(), winner_result->sample_run.get());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sample_runs, 2u) << "joiner must not re-run stage 1";
  EXPECT_GE(stats.inflight_joins, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
}

// ---------------------------------------------------------------------------
// Sharded lock-free read path (PR 6): hot hits bypass every service mutex
// via the published-slot probe, shard counts are configurable, and the
// striped stats keep the hits+misses==predictions invariant un-tearable.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, LockFreeHitsServeHotCache) {
  ServiceOptions options;  // lock_free_hits defaults to true
  options.num_workers = 1;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];

  auto first = service.Predict(plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = service.Predict(plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // The repeat was served by the mutex-free published-slot probe and
  // aliases the cached artifacts (zero-copy).
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.lockfree_hits, 1u);
  EXPECT_EQ(first->sample_run.get(), second->sample_run.get());
  EXPECT_EQ(second->mean(), first->mean());
  EXPECT_EQ(second->breakdown.variance, first->breakdown.variance);

  // PredictAsync resolves a hot hit inline on the submitting thread —
  // already ready, through the same lock-free probe.
  auto async_hit = service.PredictAsync(plan);
  ASSERT_EQ(async_hit.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ASSERT_TRUE(async_hit.get().ok());
  stats = service.stats();
  EXPECT_EQ(stats.lockfree_hits, 2u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
}

TEST_F(ServiceTest, SingleMutexModeDisablesLockFreeProbe) {
  // The bench baseline configuration: one shard, no published-slot reads.
  // Hits still work — through the shard mutex — and classify identically.
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_shards = 1;
  options.lock_free_hits = false;
  PredictionService service(db_, samples_, *units_, options);
  EXPECT_EQ(service.num_shards(), 1);
  const Plan& plan = (*plans_)[0];
  ASSERT_TRUE(service.Predict(plan).ok());
  ASSERT_TRUE(service.Predict(plan).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.lockfree_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST_F(ServiceTest, ShardCountRoundsUpToPowerOfTwo) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_shards = 5;
  PredictionService service(db_, samples_, *units_, options);
  EXPECT_EQ(service.num_shards(), 8);
  // Behavior is shard-count independent: every plan predicts correctly
  // and classification stays exact.
  for (const Plan& plan : *plans_) ASSERT_TRUE(service.Predict(plan).ok());
  for (const Plan& plan : *plans_) ASSERT_TRUE(service.Predict(plan).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, plans_->size());
  EXPECT_EQ(stats.cache_hits, plans_->size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
}

TEST_F(ServiceTest, StripedStatsInvariantNeverTearsUnderMixedStorm) {
  // A poller thread hammers stats() while a mixed hot/cold async storm —
  // with concurrent InvalidateCache flushes forcing re-misses — runs
  // against a deliberately tiny cache. The striped counters must never
  // expose a snapshot where hits + misses != predictions, and predictions
  // must be monotone across polls.
  PredictionPipeline reference(db_, samples_, *units_);
  std::vector<Prediction> expected;
  for (const Plan& plan : *plans_) {
    auto ref = reference.Predict(plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(std::move(ref).value());
  }

  ServiceOptions options;
  options.num_workers = 3;
  options.cache_capacity = 2;  // smaller than the plan pool: sustained churn
  PredictionService service(db_, samples_, *units_, options);
  // Warm a hot pair so the storm mixes lock-free hits with cold misses.
  ASSERT_TRUE(service.Predict((*plans_)[0]).ok());
  ASSERT_TRUE(service.Predict((*plans_)[1]).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> polls{0};
  std::thread poller([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      const ServiceStats s = service.stats();
      if (s.cache_hits + s.cache_misses != s.predictions) torn.store(true);
      if (s.predictions < last) torn.store(true);
      last = s.predictions;
      polls.fetch_add(1);
    }
  });

  const int kThreads = 3;
  const int kRounds = 24;
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::pair<size_t, PredictionFuture>>>
      futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t idx = static_cast<size_t>(t + r) % plans_->size();
        futures[t].emplace_back(idx, service.PredictAsync((*plans_)[idx]));
        if (r % 8 == 7) service.InvalidateCache();
      }
    });
  }
  for (auto& t : submitters) t.join();
  // Resolve under the poller's nose, then stop it.
  for (auto& per_thread : futures) {
    for (auto& [idx, f] : per_thread) {
      auto got = f.get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->mean(), expected[idx].mean());
      EXPECT_EQ(got->breakdown.variance, expected[idx].breakdown.variance);
    }
  }
  stop.store(true);
  poller.join();

  EXPECT_FALSE(torn.load())
      << "a stats() snapshot tore the hits+misses==predictions invariant";
  EXPECT_GT(polls.load(), 0u);
  const ServiceStats stats = service.stats();
  // Every request classified exactly once: the storm plus the two warmers.
  EXPECT_EQ(stats.predictions,
            static_cast<uint64_t>(kThreads) * kRounds + 2);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Versioned calibration epochs + online feedback loop (PR 7): calibration
// swaps keep every stage-1/2 artifact and re-combine lazily; 2-way slot
// groups keep colliding hot plans lock-free; converged feedback families
// stop paying tracking overhead; drift triggers recalibration.
// ---------------------------------------------------------------------------

CostUnits ScaleUnitMeans(const CostUnits& units, double factor) {
  CostUnits scaled = units;
  for (int u = 0; u < kNumCostUnits; ++u) scaled.units[u].mean *= factor;
  return scaled;
}

TEST_F(ServiceTest, CalibrationSwapRecombinesLazilyWithoutTouchingStage12) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  EXPECT_EQ(service.calibration_epoch(), 1u);
  EXPECT_EQ(service.calibration()->source, "offline");

  auto cold = service.Predict(plan);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = service.Predict(plan);  // publishes the epoch memo
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->calibration_epoch(), 1u);
  const uint64_t combines_warm = service.pipeline().combine_count();
  auto memoed = service.Predict(plan);
  ASSERT_TRUE(memoed.ok());
  EXPECT_EQ(service.pipeline().combine_count(), combines_warm)
      << "an epoch-matched memo must serve with zero combination work";
  EXPECT_EQ(memoed->mean(), warm->mean());

  // Swap calibration (2x unit means). The cache must survive untouched:
  // only each entry's stage-3 memo goes stale.
  const uint64_t epoch =
      service.PublishCalibration(ScaleUnitMeans(*units_, 2.0), "test");
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(service.calibration_epoch(), 2u);
  EXPECT_EQ(service.calibration()->source, "test");
  EXPECT_EQ(service.cache_size(), 1u)
      << "a calibration swap must not flush the cache";
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.recombines, 0u);

  auto post = service.Predict(plan);
  ASSERT_TRUE(post.ok());
  stats = service.stats();
  EXPECT_EQ(stats.sample_runs, 1u) << "stage 1 must survive the swap";
  EXPECT_EQ(stats.fit_runs, 1u) << "stage 2 must survive the swap";
  EXPECT_EQ(stats.recombines, 1u)
      << "the stale memo re-combines exactly once";
  EXPECT_EQ(post->calibration_epoch(), 2u);
  // The epoch-aware invalidation contract, in pointers: the expensive
  // artifacts served after the swap ARE the pre-swap objects.
  EXPECT_EQ(post->sample_run.get(), cold->sample_run.get());
  EXPECT_EQ(post->cost_fit.get(), cold->cost_fit.get());
  EXPECT_GT(post->mean(), warm->mean())
      << "doubled unit means must raise the predicted mean";

  // The re-combined breakdown is memoized under the new epoch.
  const uint64_t combines_post = service.pipeline().combine_count();
  auto post2 = service.Predict(plan);
  ASSERT_TRUE(post2.ok());
  EXPECT_EQ(service.pipeline().combine_count(), combines_post);
  EXPECT_EQ(service.stats().recombines, 1u);
  EXPECT_EQ(post2->mean(), post->mean());
  EXPECT_EQ(post2->breakdown.variance, post->breakdown.variance);

  // Pre-swap predictions recompute under their own pinned snapshot:
  // referentially transparent across the swap.
  const VarianceBreakdown re = service.pipeline().Recompute(
      *warm, service.options().predictor.variant,
      service.options().predictor.bound);
  EXPECT_EQ(re.mean, warm->breakdown.mean);
  EXPECT_EQ(re.variance, warm->breakdown.variance);
}

TEST_F(ServiceTest, MemoHitsCarryTheSnapshotTheyCombinedUnder) {
  // One shard holding one entry, so a second plan evicts the first.
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_shards = 1;
  options.cache_capacity = 1;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  const Plan& other = (*plans_)[1];

  ASSERT_TRUE(service.Predict(plan).ok());  // miss
  ASSERT_TRUE(service.Predict(plan).ok());  // first hit: builds the memo
  const uint64_t combines = service.pipeline().combine_count();
  auto held1 = service.Predict(plan);       // memo hit under epoch 1
  ASSERT_TRUE(held1.ok());
  EXPECT_EQ(service.pipeline().combine_count(), combines);
  EXPECT_EQ(held1->calibration.get(), service.calibration().get());
  EXPECT_EQ(held1->calibration_epoch(), 1u);
  const std::string bytes1 = CalibrationSnapshotBytes(*service.calibration());

  ASSERT_EQ(service.PublishCalibration(ScaleUnitMeans(*units_, 2.0), "test"),
            2u);
  ASSERT_TRUE(service.Predict(plan).ok());  // re-combines under epoch 2
  auto held2 = service.Predict(plan);       // memo hit under epoch 2
  ASSERT_TRUE(held2.ok());
  EXPECT_EQ(service.stats().recombines, 1u);
  EXPECT_EQ(held2->calibration.get(), service.calibration().get());
  EXPECT_EQ(held2->calibration_epoch(), 2u);
  EXPECT_EQ(service.calibration_epoch(), 2u);
  const std::string bytes2 = CalibrationSnapshotBytes(*service.calibration());
  ASSERT_NE(bytes1, bytes2);

  // Drop every other owner of both snapshots and of the entry that held
  // their memos: evict the entry, flush the cache, publish a third epoch.
  ASSERT_TRUE(service.Predict(other).ok());
  ASSERT_EQ(service.stats().sample_runs, 2u);
  service.InvalidateCache();
  ASSERT_EQ(service.PublishCalibration(ScaleUnitMeans(*units_, 3.0), "test"),
            3u);
  EXPECT_EQ(service.cache_size(), 0u);

  // Each held prediction still reads its own snapshot, and recomputes to
  // its own bits under it.
  const std::pair<const StatusOr<Prediction>*, const std::string*> held[] = {
      {&held1, &bytes1}, {&held2, &bytes2}};
  uint64_t epoch = 1;
  for (const auto& [pred, bytes] : held) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const Prediction& p = pred->value();
    EXPECT_EQ(p.calibration_epoch(), epoch);
    EXPECT_EQ(p.calibration->epoch, epoch);
    EXPECT_EQ(CalibrationSnapshotBytes(*p.calibration), *bytes);
    const VarianceBreakdown re = service.pipeline().Recompute(
        p, options.predictor.variant, options.predictor.bound);
    EXPECT_EQ(re.mean, p.breakdown.mean);
    EXPECT_EQ(re.variance, p.breakdown.variance);
    ++epoch;
  }
}

TEST_F(ServiceTest, HitPredictionsShareTheOwnersObjectsAndOutliveTheService) {
  // A hit (lock-free, and locked on a service without the published slots)
  // hands out the very objects the owner's prediction holds: the same
  // sample run, cost fit and calibration snapshot. Each held prediction
  // then stays bit-equal and readable while its entry is evicted, the
  // cache flushed, a new epoch published and the service destroyed.
  ASSERT_GE(plans_->size(), 2u);
  const Plan& plan = (*plans_)[0];
  const Plan& other = (*plans_)[1];
  PredictionPipeline reference(db_, samples_, *units_);
  for (const bool lock_free : {true, false}) {
    SCOPED_TRACE(lock_free ? "lock-free hits" : "locked hits");
    ServiceOptions options;
    options.num_workers = 1;
    options.cache_shards = 1;
    options.cache_capacity = 1;  // `other` evicts `plan`
    options.lock_free_hits = lock_free;
    auto service =
        std::make_unique<PredictionService>(db_, samples_, *units_, options);
    const auto owner = service->Predict(plan);
    ASSERT_TRUE(owner.ok()) << owner.status().ToString();
    std::vector<StatusOr<Prediction>> hits;
    hits.push_back(service->Predict(plan));
    hits.push_back(service->PredictAsync(plan).get());
    ServiceStats stats = service->stats();
    ASSERT_EQ(stats.cache_hits, 2u);
    ASSERT_EQ(stats.lockfree_hits, lock_free ? 2u : 0u);
    const std::string bytes = CalibrationSnapshotBytes(*owner->calibration);
    const auto check_held = [&](const char* when) {
      SCOPED_TRACE(when);
      for (const StatusOr<Prediction>& hit : hits) {
        ASSERT_TRUE(hit.ok()) << hit.status().ToString();
        EXPECT_TRUE(SameBreakdownBits(*hit, *owner));
        EXPECT_EQ(hit->sample_run.get(), owner->sample_run.get());
        EXPECT_EQ(hit->cost_fit.get(), owner->cost_fit.get());
        EXPECT_EQ(hit->calibration.get(), owner->calibration.get());
        EXPECT_EQ(hit->calibration_epoch(), 1u);
        EXPECT_EQ(CalibrationSnapshotBytes(*hit->calibration), bytes);
        EXPECT_FALSE(hit->estimates().ops.empty());
        EXPECT_EQ(hit->cost_functions().size(),
                  owner->cost_functions().size());
        const VarianceBreakdown re = reference.Recompute(
            *hit, options.predictor.variant, options.predictor.bound);
        EXPECT_EQ(re.mean, hit->breakdown.mean);
        EXPECT_EQ(re.variance, hit->breakdown.variance);
      }
    };
    check_held("served");
    ASSERT_TRUE(service->Predict(other).ok());
    ASSERT_EQ(service->stats().sample_runs, 2u);
    check_held("after eviction");
    service->InvalidateCache();
    check_held("after InvalidateCache");
    ASSERT_EQ(service->PublishCalibration(ScaleUnitMeans(*units_, 2.0), "test"),
              2u);
    check_held("after PublishCalibration");
    service.reset();
    check_held("after the service is destroyed");
  }
}

TEST_F(ServiceTest, HitsRacingPublishAndInvalidateNeverMixEpochs) {
  // Clients hammer PredictAsync over a warm cache while the main thread
  // publishes calibrations and flushes the cache. Every served breakdown
  // must recompute to the same bits under the prediction's own snapshot:
  // a hit that paired one epoch's memo with another epoch's snapshot
  // would not. Served epochs never go backwards on one thread.
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(db_, samples_, *units_, options);
  for (const Plan& plan : *plans_) ASSERT_TRUE(service.Predict(plan).ok());

  constexpr int kClients = 3;
  constexpr int kRequests = 1000;
  std::atomic<int> done{0};
  std::atomic<uint64_t> mismatches{0}, regressions{0}, errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t last_epoch = 0;
      for (int i = 0; i < kRequests; ++i) {
        const Plan& plan = (*plans_)[static_cast<size_t>(i + c) % plans_->size()];
        auto pred = service.PredictAsync(plan).get();
        if (!pred.ok()) {
          errors.fetch_add(1);
          continue;
        }
        const VarianceBreakdown re = service.pipeline().Recompute(
            *pred, options.predictor.variant, options.predictor.bound);
        if (re.mean != pred->breakdown.mean ||
            re.variance != pred->breakdown.variance) {
          mismatches.fetch_add(1);
        }
        if (pred->calibration_epoch() < last_epoch) regressions.fetch_add(1);
        last_epoch = pred->calibration_epoch();
      }
      done.fetch_add(1);
    });
  }
  uint64_t publishes = 0;
  while (done.load() < kClients) {
    ++publishes;
    service.PublishCalibration(
        ScaleUnitMeans(*units_, 1.0 + 0.25 * static_cast<double>(publishes % 4)),
        "race");
    if (publishes % 3 == 0) service.InvalidateCache();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_GT(publishes, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
  EXPECT_EQ(stats.predictions,
            plans_->size() + static_cast<uint64_t>(kClients) * kRequests);
}

uint64_t SameSlotFingerprint(const Plan& plan) {
  // Distinct per plan structure, but identical low bits: with one shard
  // every plan maps to slot index 0 — the worst-case slot collision.
  return plan.Identity()->fingerprint << 18;
}

TEST_F(ServiceTest, TwoWaySlotsKeepCollidingHotPlansLockFree) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_shards = 1;
  options.fingerprint_fn = SameSlotFingerprint;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& a = (*plans_)[0];
  const Plan& b = (*plans_)[1];
  ASSERT_TRUE(service.Predict(a).ok());
  ASSERT_TRUE(service.Predict(b).ok());
  ASSERT_EQ(service.stats().cache_misses, 2u);

  const uint64_t kRounds = 8;
  for (uint64_t r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(service.Predict(a).ok());
    ASSERT_TRUE(service.Predict(b).ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 2 * kRounds);
  // With a single way the two plans would displace each other from the
  // slot on every publish and alternate through the locked path; the
  // tagged 2-way group keeps BOTH on the lock-free path.
  EXPECT_EQ(stats.lockfree_hits, 2 * kRounds)
      << "two hot plans sharing a slot group must both stay lock-free";
  EXPECT_EQ(stats.sample_runs, 2u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
}

TEST_F(ServiceTest, ConvergedFamilyStopsPayingTrackingOverhead) {
  ServiceOptions options;
  options.num_workers = 1;
  options.feedback.enabled = true;
  options.feedback.window_size = 4;
  options.feedback.converge_threshold = 0.10;
  options.feedback.drift_threshold = 0.60;
  options.feedback.probe_interval = 0;  // never probe: isolate the freeze
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  auto pred = service.Predict(plan);
  ASSERT_TRUE(pred.ok());
  const double observed = pred->mean();  // perfect predictions: error 0

  for (int i = 0; i < 4; ++i) service.ReportObserved(plan, observed);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.feedback_reports, 4u);
  EXPECT_EQ(stats.converged_families, 1u);
  auto families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_TRUE(families[0].converged);
  EXPECT_EQ(families[0].window_updates, 4u);
  EXPECT_EQ(families[0].reports, 4u);

  // Converged: further reports stop updating the window — and stop
  // computing the error at all (the AQO-style overhead cut). Even wildly
  // wrong observations change nothing without a probe.
  const uint64_t combines = service.pipeline().combine_count();
  for (int i = 0; i < 6; ++i) service.ReportObserved(plan, observed * 100.0);
  families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_TRUE(families[0].converged);
  EXPECT_EQ(families[0].window_updates, 4u) << "converged windows must freeze";
  EXPECT_EQ(families[0].reports, 10u);
  EXPECT_EQ(service.pipeline().combine_count(), combines)
      << "converged families must not even compute the error";
  EXPECT_EQ(service.stats().recalibrations, 0u);
  EXPECT_EQ(service.calibration_epoch(), 1u);

  // Reports for a plan that was never predicted have no cached prediction
  // to compare against: dropped, never fabricated.
  service.ReportObserved((*plans_)[2], 5.0);
  stats = service.stats();
  EXPECT_EQ(stats.feedback_dropped, 1u);
  EXPECT_EQ(stats.feedback_families, 2u);
  EXPECT_EQ(stats.converged_families, 1u);
}

TEST_F(ServiceTest, EvictedPlanReportsLandViaLastPredictionStash) {
  ServiceOptions options;
  options.num_workers = 1;
  options.feedback.enabled = true;
  options.feedback.window_size = 16;       // stay un-converged throughout
  options.feedback.converge_threshold = 0.0;
  options.feedback.drift_threshold = 1e9;  // never drift: isolate the stash
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  auto pred = service.Predict(plan);
  ASSERT_TRUE(pred.ok());
  const double observed = pred->mean() * 1.25;

  // Cache-backed report: computes the error against the cached prediction
  // and stashes that prediction as the family's fallback comparison point.
  service.ReportObserved(plan, observed);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.feedback_reports, 1u);
  EXPECT_EQ(stats.feedback_dropped, 0u);
  EXPECT_EQ(stats.feedback_stash_hits, 0u);
  auto families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_TRUE(families[0].stash.valid);
  EXPECT_DOUBLE_EQ(families[0].stash.mean_ms, pred->mean());
  EXPECT_EQ(families[0].stash.epoch, 1u);

  // Evict everything. Before the stash, a report on an evicted plan had no
  // prediction to compare against and bumped feedback_dropped; now the
  // stashed mean keeps the error series alive across the eviction.
  service.InvalidateCache();
  service.ReportObserved(plan, observed);
  service.ReportObserved(plan, observed);
  stats = service.stats();
  EXPECT_EQ(stats.feedback_reports, 3u);
  EXPECT_EQ(stats.feedback_dropped, 0u)
      << "evicted-but-stashed reports must not drop";
  EXPECT_EQ(stats.feedback_stash_hits, 2u);
  families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].window_updates, 3u)
      << "the error window must keep filling from the stash";

  // Re-predicting refreshes the family through the cache path again — no
  // further stash hits once the entry is back.
  ASSERT_TRUE(service.Predict(plan).ok());
  service.ReportObserved(plan, observed);
  stats = service.stats();
  EXPECT_EQ(stats.feedback_stash_hits, 2u);
  EXPECT_EQ(stats.feedback_dropped, 0u);

  // A family that was NEVER predicted has nothing stashed: still drops —
  // the stash must not fabricate a comparison point.
  service.ReportObserved((*plans_)[2], 5.0);
  stats = service.stats();
  EXPECT_EQ(stats.feedback_dropped, 1u);
}

TEST_F(ServiceTest, NonFiniteObservationsAreDroppedOnBothReportPaths) {
  // An observed runtime that is not a finite positive number has no
  // relative error: it must be counted as dropped, never enter the window
  // (+inf would put inf/inf = NaN there), on both report entry points.
  ServiceOptions options;
  options.num_workers = 1;
  options.feedback.enabled = true;
  options.feedback.window_size = 4;
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  auto pred = service.Predict(plan);
  ASSERT_TRUE(pred.ok());
  const uint64_t fp = PlanFingerprint(plan);

  const double bad[] = {std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0};
  for (const double observed : bad) {
    service.ReportObserved(plan, observed);
    service.ReportObservedAgainst(fp, *pred, observed);
  }
  ServiceStats st = service.stats();
  EXPECT_EQ(st.feedback_reports, 10u);
  EXPECT_EQ(st.feedback_dropped, 10u);
  EXPECT_TRUE(service.FeedbackSnapshot().empty())
      << "a dropped observation must not even open the family's window";

  // Finite observations still land, with a finite error, on both paths.
  service.ReportObserved(plan, 2.0 * pred->mean());
  service.ReportObservedAgainst(fp, *pred, 2.0 * pred->mean());
  st = service.stats();
  EXPECT_EQ(st.feedback_dropped, 10u);
  const auto families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].window.size(), 2u);
  for (const double e : families[0].window) EXPECT_TRUE(std::isfinite(e));
  EXPECT_DOUBLE_EQ(families[0].windowed_mean_abs_error, 0.5);
}

TEST_F(ServiceTest, DriftTriggersRecalibrationAndErrorRecovery) {
  ServiceOptions options;
  options.num_workers = 1;
  options.feedback.enabled = true;
  options.feedback.window_size = 3;
  options.feedback.converge_threshold = 0.05;
  options.feedback.drift_threshold = 0.40;
  options.feedback.cooldown_reports = 0;
  const CostUnits drifted_truth = ScaleUnitMeans(*units_, 2.0);
  int recal_calls = 0;
  options.feedback.recalibrate = [&recal_calls, &drifted_truth]() {
    ++recal_calls;
    return drifted_truth;
  };
  PredictionService service(db_, samples_, *units_, options);
  const Plan& plan = (*plans_)[0];
  auto before = service.Predict(plan);
  ASSERT_TRUE(before.ok());

  // The machine drifted 2x: observations land at twice the prediction
  // (relative error 0.5 >= drift_threshold once the window fills).
  const double observed = before->mean() * 2.0;
  for (int i = 0; i < 3; ++i) service.ReportObserved(plan, observed);

  ServiceStats stats = service.stats();
  EXPECT_EQ(recal_calls, 1);
  EXPECT_EQ(stats.recalibrations, 1u);
  EXPECT_EQ(service.calibration_epoch(), 2u);
  EXPECT_EQ(service.calibration()->source, "drift");
  EXPECT_EQ(stats.sample_runs, 1u)
      << "recalibration must not flush stage-1 artifacts";

  auto after = service.Predict(plan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->calibration_epoch(), 2u);
  EXPECT_EQ(after->sample_run.get(), before->sample_run.get());
  EXPECT_EQ(service.stats().recombines, 1u);
  // Recalibrated predictions match the drifted world: the windowed error
  // collapses from 0.5 to ~0.
  const double err_before = std::abs(observed - before->mean()) / observed;
  const double err_after = std::abs(observed - after->mean()) / observed;
  EXPECT_LT(err_after * 2.0, err_before);

  // The drifting family's window was reset on publish: its errors were
  // measured against the old epoch's predictions.
  auto families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_TRUE(families[0].window.empty());
  EXPECT_FALSE(families[0].converged);
  EXPECT_EQ(families[0].reports, 3u);
}

// ---------------------------------------------------------------------------
// Fault injection, deadlines, graceful degradation and the circuit breaker
// (PR 10): an injected stage failure propagates ONE status to every dedup
// joiner and is never negatively cached; every batch slot resolves
// terminally; deadlines bound work (not delivery) without poisoning the
// cache or the in-flight table; cost-only degraded fallbacks follow the
// documented formula; a poisoned family quarantines and probes.
// ---------------------------------------------------------------------------

void ExpectOutcomeConservation(const ServiceStats& st) {
  EXPECT_EQ(st.ok_served + st.failed + st.degraded_served +
                st.deadline_exceeded,
            st.predictions)
      << "the outcome split must partition predictions exactly";
  EXPECT_EQ(st.cache_hits + st.cache_misses, st.predictions);
}

TEST_F(ServiceTest, InjectedFailureDeliversOneStatusToEveryJoiner) {
  // The dedup error-propagation contract: a failed winner delivers the
  // SAME status to the blocking sync joiner, the parked batch shard and
  // the parked async loser — and the failure is not negatively cached.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1;  // attempt 0 fails, attempt 1 recovers
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);

  ServiceOptions options;
  options.num_workers = 2;
  options.fault_injector = &injector;
  std::mutex mu;
  std::condition_variable cv;
  bool gated = false;
  bool release = false;
  std::atomic<int> hook_calls{0};
  options.post_stages_hook = [&] {
    // Gate only the first run — the failed winner — so the joiners can
    // pile onto its in-flight record while the verdict is pending.
    if (hook_calls.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      gated = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  PredictionService service(db_, samples_, *units_, options);

  auto winner = service.PredictAsync((*plans_)[0]);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gated; });
  }
  auto parked = service.PredictAsync((*plans_)[0]);  // parks a continuation
  std::vector<StatusOr<Prediction>> sync_results;
  std::thread sync_joiner(
      [&] { sync_results.push_back(service.Predict((*plans_)[0])); });
  std::vector<StatusOr<Prediction>> batch_results;
  std::thread batcher([&] {
    const std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1]};
    batch_results = service.PredictBatch(batch);
  });
  // Parked async + blocking sync + parked batch shard, all on the gated
  // winner, counted the moment they joined.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().inflight_joins < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(service.stats().inflight_joins, 3u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  sync_joiner.join();
  batcher.join();

  auto winner_result = winner.get();
  ASSERT_FALSE(winner_result.ok());
  EXPECT_EQ(winner_result.status().code(), StatusCode::kUnavailable);
  // Every joiner got the winner's exact status — never a placeholder.
  auto parked_result = parked.get();
  ASSERT_FALSE(parked_result.ok());
  EXPECT_EQ(parked_result.status().ToString(),
            winner_result.status().ToString());
  ASSERT_EQ(sync_results.size(), 1u);
  ASSERT_FALSE(sync_results[0].ok());
  EXPECT_EQ(sync_results[0].status().ToString(),
            winner_result.status().ToString());
  ASSERT_EQ(batch_results.size(), 2u);
  ASSERT_FALSE(batch_results[0].ok());
  EXPECT_EQ(batch_results[0].status().ToString(),
            winner_result.status().ToString());
  ASSERT_TRUE(batch_results[1].ok()) << batch_results[1].status().ToString();

  // Not negatively cached: the fingerprint retries from scratch and the
  // recovered attempt populates the cache normally.
  ServiceStats st = service.stats();
  EXPECT_EQ(st.faults_injected, 1u);
  EXPECT_EQ(st.sample_runs, 1u) << "only the batch's healthy plan sampled";
  auto retry = service.Predict((*plans_)[0]);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->degraded);
  st = service.stats();
  EXPECT_EQ(st.sample_runs, 2u) << "the retry re-ran stage 1";
  EXPECT_EQ(injector.AttemptCount(fp), 2u);
  EXPECT_EQ(st.failed, 4u);  // winner + 3 joiners
  EXPECT_EQ(st.ok_served, 2u);
  ExpectOutcomeConservation(st);
}

TEST_F(ServiceTest, BatchMidFaultResolvesEverySlotTerminally) {
  // A mid-batch injected fault must leave every slot with its own
  // terminal status: the failing group's slots carry the injected error,
  // healthy groups succeed, and no internal placeholder ever escapes.
  const uint64_t fp1 = PlanFingerprint((*plans_)[1]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1;
  fopts.rules[fp1] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 2;
  options.fault_injector = &injector;
  PredictionService service(db_, samples_, *units_, options);

  const std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1],
                                          &(*plans_)[1], &(*plans_)[2]};
  const auto results = service.PredictBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const Status s = results[i].ok() ? Status::OK() : results[i].status();
    EXPECT_EQ(s.message().find("batch slot never resolved"), std::string::npos)
        << "slot " << i << " leaked the internal sentinel";
    EXPECT_EQ(s.message().find("prediction not yet computed"),
              std::string::npos)
        << "slot " << i << " leaked the old placeholder";
  }
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[3].ok());
  ASSERT_FALSE(results[1].ok());
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(results[1].status().ToString(), results[2].status().ToString())
      << "both duplicate slots must carry their group's one status";

  // The failure is not negatively cached: the same batch retried succeeds
  // everywhere (attempt 1 recovers), re-running stage 1 only for the
  // previously failed group.
  const auto again = service.PredictBatch(batch);
  for (const auto& r : again) ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.sample_runs, 3u);
  EXPECT_EQ(st.faults_injected, 1u);
  EXPECT_EQ(st.failed, 2u);
  ExpectOutcomeConservation(st);
}

TEST_F(ServiceTest, DeadlineExpiresWithoutPoisoningCacheOrInflight) {
  // An injected 50ms stall against a 5ms deadline: the request resolves
  // DeadlineExceeded, consumes no sample run, and leaves the in-flight
  // table and cache clean for the next (undeadlined) request.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.latency_prob = 1.0;
  rule.latency_ms = 50.0;
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  PredictionService service(db_, samples_, *units_, options);

  RequestOptions tight;
  tight.deadline_ms = 5.0;
  auto expired = service.Predict((*plans_)[0], tight);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  ServiceStats st = service.stats();
  EXPECT_EQ(st.deadline_exceeded, 1u);
  EXPECT_EQ(st.sample_runs, 0u)
      << "an attempt known to be expired must not start stage 1";
  EXPECT_EQ(service.cache_size(), 0u);

  // The fingerprint is not poisoned: an undeadlined retry (same injected
  // latency, no limit) samples and caches normally.
  auto retry = service.Predict((*plans_)[0]);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.stats().sample_runs, 1u);

  // Deadlines bound WORK, not delivery: a hot hit is free, so even an
  // unmeetable deadline serves it.
  RequestOptions hopeless;
  hopeless.deadline_ms = 0.001;
  auto hit = service.Predict((*plans_)[0], hopeless);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->mean(), retry->mean());
  st = service.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.deadline_exceeded, 1u);
  ExpectOutcomeConservation(st);
}

TEST_F(ServiceTest, UnboundedDeadlineMeansNoDeadline) {
  // +inf, NaN and budgets past the end of the steady_clock range are "no
  // deadline" on every entry point: the cold request samples and succeeds
  // instead of expiring before stage 1.
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(db_, samples_, *units_, options);
  uint64_t runs = 0;
  for (const double budget_ms :
       {std::numeric_limits<double>::infinity(), 1e300,
        std::numeric_limits<double>::quiet_NaN()}) {
    RequestOptions opts;
    opts.deadline_ms = budget_ms;
    auto sync = service.Predict((*plans_)[0], opts);
    ASSERT_TRUE(sync.ok()) << budget_ms << ": " << sync.status().ToString();
    service.InvalidateCache();
    auto async = service.PredictAsync((*plans_)[0], opts).get();
    ASSERT_TRUE(async.ok()) << budget_ms << ": " << async.status().ToString();
    service.InvalidateCache();
    const auto batch = service.PredictBatch({&(*plans_)[0]}, opts);
    ASSERT_TRUE(batch[0].ok()) << budget_ms << ": "
                               << batch[0].status().ToString();
    service.InvalidateCache();
    runs += 3;
    EXPECT_EQ(service.stats().sample_runs, runs) << budget_ms;
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.deadline_exceeded, 0u);
  EXPECT_EQ(st.ok_served, st.predictions);
}

TEST_F(ServiceTest, DeadlineBoundedJoinersDetachFromAGatedWinner) {
  // A sync Predict and a PredictBatch parked on a gated winner resolve at
  // their own deadline — DeadlineExceeded, or degraded when they opted in
  // — while the gate is still closed. The winner then completes, caches,
  // and drains the detached continuations without resolving or counting
  // them a second time.
  ServiceOptions options;
  options.num_workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  bool gated = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed) return;
    armed = false;
    gated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);
  // plans_[1] is cached up front, so the batches below own no slow run.
  ASSERT_TRUE(service.Predict((*plans_)[1]).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
  }
  auto winner = service.PredictAsync((*plans_)[0]);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gated; });
  }

  const std::vector<const Plan*> batch = {&(*plans_)[0], &(*plans_)[1],
                                          &(*plans_)[0]};
  RequestOptions tight;
  tight.deadline_ms = 20.0;
  auto sync = service.Predict((*plans_)[0], tight);
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kDeadlineExceeded);
  auto batched = service.PredictBatch(batch, tight);
  ASSERT_EQ(batched.size(), 3u);
  for (size_t i : {0u, 2u}) {
    ASSERT_FALSE(batched[i].ok()) << "slot " << i;
    EXPECT_EQ(batched[i].status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(batched[1].ok()) << batched[1].status().ToString();

  RequestOptions soft = tight;
  soft.allow_degraded = true;
  auto sync_soft = service.Predict((*plans_)[0], soft);
  ASSERT_TRUE(sync_soft.ok()) << sync_soft.status().ToString();
  EXPECT_TRUE(sync_soft->degraded);
  auto batched_soft = service.PredictBatch(batch, soft);
  for (size_t i : {0u, 2u}) {
    ASSERT_TRUE(batched_soft[i].ok()) << batched_soft[i].status().ToString();
    EXPECT_TRUE(batched_soft[i]->degraded) << "slot " << i;
  }
  EXPECT_FALSE(batched_soft[1]->degraded);

  EXPECT_EQ(winner.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "every joiner above must have resolved while the gate was closed";
  // sync + sync_soft, and both plans_[0] slots of each batch: a slot that
  // repeats a plan parks on the run like any concurrent request.
  EXPECT_EQ(service.stats().inflight_joins, 6u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  auto winner_result = winner.get();
  ASSERT_TRUE(winner_result.ok()) << winner_result.status().ToString();
  auto hit = service.Predict((*plans_)[0]);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->sample_run.get(), winner_result->sample_run.get())
      << "the winner must cache its result after the joiners detached";

  const ServiceStats st = service.stats();
  // warm-up + winner + sync + 3-slot batch, twice + the final hit.
  EXPECT_EQ(st.predictions, 11u) << "each request is counted exactly once";
  EXPECT_EQ(st.sample_runs, 2u);
  EXPECT_EQ(st.deadline_exceeded, 3u);
  EXPECT_EQ(st.degraded_served, 3u);
  EXPECT_EQ(st.ok_served, 5u);
  ExpectOutcomeConservation(st);
}

TEST_F(ServiceTest, DegradedFallbackFollowsTheCostOnlyFormula) {
  // allow_degraded converts a hard failure into a usable cost-only
  // prediction: mean = the optimizer's resource estimate dotted with the
  // calibrated unit means (ms), sigma = mean x max(0.5, windowed error)
  // x 2.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1000;  // this family never recovers
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  PredictionService service(db_, samples_, *units_, options);

  // Without the opt-in the failure surfaces as-is.
  auto hard = service.Predict((*plans_)[0]);
  ASSERT_FALSE(hard.ok());
  EXPECT_EQ(hard.status().code(), StatusCode::kUnavailable);

  RequestOptions opts;
  opts.allow_degraded = true;
  auto soft = service.Predict((*plans_)[0], opts);
  ASSERT_TRUE(soft.ok()) << soft.status().ToString();
  EXPECT_TRUE(soft->degraded);
  const ResourceVector r = OptimizerResources((*plans_)[0], *db_);
  const double expected_ms = units_->MeanDot(r.ns, r.nr, r.nt, r.ni, r.no);
  ASSERT_GT(expected_ms, 0.0);
  EXPECT_DOUBLE_EQ(soft->mean(), expected_ms);
  EXPECT_EQ(soft->calibration_epoch(), 1u)
      << "stamped with the snapshot its mean was priced under";
  const double sigma = soft->mean() * 0.5 * 2.0;
  EXPECT_DOUBLE_EQ(soft->breakdown.variance, sigma * sigma);

  // The async path degrades identically — including for a caller that
  // destroyed its plan right after submitting (the cost is precomputed).
  PredictionFuture f;
  {
    Plan doomed = (*plans_)[0].Clone();
    f = service.PredictAsync(doomed, opts);
  }
  auto async_soft = f.get();
  ASSERT_TRUE(async_soft.ok()) << async_soft.status().ToString();
  EXPECT_TRUE(async_soft->degraded);
  EXPECT_DOUBLE_EQ(async_soft->mean(), soft->mean());
  EXPECT_DOUBLE_EQ(async_soft->breakdown.variance, soft->breakdown.variance);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.degraded_served, 2u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.sample_runs, 0u);
  ExpectOutcomeConservation(st);
}

TEST_F(ServiceTest, UnfinalizedPlanFailsPreconditionOnEveryEntryPoint) {
  // A plan that was never finalized has no identity and nothing to price:
  // every entry point resolves it FailedPrecondition before routing, as
  // one failed miss per request, even with degradation allowed, and a
  // report against it is dropped.
  ServiceOptions options;
  options.num_workers = 1;
  options.feedback.enabled = true;
  options.feedback.window_size = 4;
  PredictionService service(db_, samples_, *units_, options);
  const Plan raw(MakeSeqScan(
      "lineitem", Expr::Cmp(4, CmpOp::kLt, Value::Double(24.0))));
  ASSERT_EQ(raw.Identity(), nullptr);
  RequestOptions opts;
  opts.allow_degraded = true;

  auto sync = service.Predict(raw, opts);
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kFailedPrecondition);
  ServiceStats st = service.stats();
  EXPECT_EQ(st.failed, 1u);

  auto async = service.PredictAsync(raw, opts).get();
  ASSERT_FALSE(async.ok());
  EXPECT_EQ(async.status().code(), StatusCode::kFailedPrecondition);
  st = service.stats();
  EXPECT_EQ(st.failed, 2u);

  // A batch resolves the unfinalized slots one by one and serves the rest.
  const Plan& good = (*plans_)[0];
  const auto batch = service.PredictBatch({&raw, &good, &raw}, opts);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(batch[1].ok()) << batch[1].status().ToString();
  EXPECT_EQ(batch[2].status().code(), StatusCode::kFailedPrecondition);
  st = service.stats();
  EXPECT_EQ(st.failed, 4u);
  EXPECT_EQ(st.sample_runs, 1u) << "only the finalized plan ran stage 1";
  EXPECT_EQ(st.degraded_served, 0u);
  EXPECT_EQ(st.cache_misses, 5u);
  ExpectOutcomeConservation(st);

  service.ReportObserved(raw, 10.0);
  st = service.stats();
  EXPECT_EQ(st.feedback_reports, 1u);
  EXPECT_EQ(st.feedback_dropped, 1u);
  EXPECT_TRUE(service.FeedbackSnapshot().empty());
}

TEST_F(ServiceTest, DegradedMeanFollowsThePublishedCalibration) {
  // The degraded mean is priced by the current calibration snapshot, so
  // doubling every unit mean doubles it — and the prediction carries the
  // snapshot it was priced under.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1000;
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  PredictionService service(db_, samples_, *units_, options);
  RequestOptions opts;
  opts.allow_degraded = true;

  auto before = service.Predict((*plans_)[0], opts);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->degraded);
  ASSERT_GT(before->mean(), 0.0);

  CostUnits doubled = *units_;
  for (Gaussian& unit : doubled.units) unit.mean *= 2.0;
  const uint64_t epoch = service.PublishCalibration(doubled);
  auto after = service.Predict((*plans_)[0], opts);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->degraded);
  EXPECT_DOUBLE_EQ(after->mean(), 2.0 * before->mean());
  EXPECT_EQ(after->calibration_epoch(), epoch);
  EXPECT_EQ(before->calibration_epoch(), epoch - 1);
}

TEST_F(ServiceTest, ReportAgainstDegradedPredictionIsDropped) {
  // A degraded prediction is the optimizer's cost-only guess: reporting
  // an observation against it must not touch the family's error window
  // or stash — it counts as a dropped report instead.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1000;
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  options.feedback.enabled = true;
  PredictionService service(db_, samples_, *units_, options);
  RequestOptions opts;
  opts.allow_degraded = true;

  auto degraded = service.Predict((*plans_)[0], opts);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_TRUE(degraded->degraded);
  service.ReportObservedAgainst(fp, *degraded, 100.0);
  ServiceStats st = service.stats();
  EXPECT_EQ(st.feedback_reports, 1u);
  EXPECT_EQ(st.feedback_dropped, 1u);
  EXPECT_EQ(st.feedback_families, 0u);
  EXPECT_TRUE(service.FeedbackSnapshot().empty())
      << "no window entry and no stash for a degraded comparison point";

  // A full-pipeline prediction of another family still lands.
  auto healthy = service.Predict((*plans_)[1]);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  const uint64_t fp1 = PlanFingerprint((*plans_)[1]);
  service.ReportObservedAgainst(fp1, *healthy, healthy->mean() * 1.25);
  st = service.stats();
  EXPECT_EQ(st.feedback_reports, 2u);
  EXPECT_EQ(st.feedback_dropped, 1u);
  EXPECT_EQ(st.feedback_families, 1u);
  const auto rows = service.FeedbackSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].fingerprint, fp1);
  ASSERT_EQ(rows[0].window.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].window[0], 0.2);
  EXPECT_TRUE(rows[0].stash.valid);
}

TEST_F(ServiceTest, BreakerQuarantinesPoisonedFamilyThenProbes) {
  // A family whose stage 1 always fails must stop consuming stage-1
  // attempts once the breaker opens; cooldown sheds resolve without
  // touching the injector, then one half-open probe re-tests the family.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1000;
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_requests = 2;
  PredictionService service(db_, samples_, *units_, options);
  RequestOptions opts;
  opts.allow_degraded = true;

  // Two real failures open the breaker.
  for (int i = 0; i < 2; ++i) {
    auto r = service.Predict((*plans_)[0], opts);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->degraded);
  }
  EXPECT_EQ(injector.AttemptCount(fp), 2u);
  ServiceStats st = service.stats();
  EXPECT_EQ(st.breaker_opens, 1u);
  EXPECT_EQ(st.faults_injected, 2u);

  // While open: the first cooldown request sheds — degraded WITHOUT
  // consulting the injector (the quarantined family consumes no stage-1
  // attempts) — and the second becomes the half-open probe (attempt 3),
  // which fails and re-opens.
  auto shed = service.Predict((*plans_)[0], opts);
  ASSERT_TRUE(shed.ok());
  EXPECT_TRUE(shed->degraded);
  EXPECT_EQ(injector.AttemptCount(fp), 2u)
      << "a shed request must not consume a fault-schedule attempt";
  auto probe = service.Predict((*plans_)[0], opts);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->degraded);
  EXPECT_EQ(injector.AttemptCount(fp), 3u) << "the probe re-tests stage 1";

  st = service.stats();
  EXPECT_EQ(st.breaker_opens, 2u) << "the failed probe re-opens the family";
  EXPECT_EQ(st.breaker_shed, 1u);
  EXPECT_EQ(st.breaker_probes, 1u);
  EXPECT_EQ(st.degraded_served, 4u);
  EXPECT_EQ(st.sample_runs, 0u);
  ExpectOutcomeConservation(st);

  // Breaker state is visible through FeedbackSnapshot even with the
  // feedback loop disabled: breaker-only families materialize as rows.
  const auto families = service.FeedbackSnapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].fingerprint, fp);
  EXPECT_STREQ(families[0].breaker_state, "open");
  EXPECT_EQ(families[0].breaker_opens, 2u);
  EXPECT_EQ(families[0].breaker_shed, 1u);
}

TEST_F(ServiceTest, BreakerClosesAfterSuccessfulProbe) {
  // The recovery arc: 2 failures open, the cooldown passes, the probe
  // succeeds, and the family serves real predictions again.
  const uint64_t fp = PlanFingerprint((*plans_)[1]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 2;  // fails twice, then heals
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_requests = 1;
  PredictionService service(db_, samples_, *units_, options);
  RequestOptions opts;
  opts.allow_degraded = true;

  ASSERT_TRUE(service.Predict((*plans_)[1], opts)->degraded);
  ASSERT_TRUE(service.Predict((*plans_)[1], opts)->degraded);  // opens
  // cooldown_requests=1: the very next request is the probe — attempt 2,
  // which the schedule lets succeed.
  auto healed = service.Predict((*plans_)[1], opts);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed->degraded) << "a healed probe serves the real pipeline";
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.breaker_opens, 1u);
  EXPECT_EQ(st.breaker_probes, 1u);
  EXPECT_EQ(st.sample_runs, 1u);
  // Closed again: a plain hit serves from the cache the probe populated.
  ASSERT_TRUE(service.Predict((*plans_)[1]).ok());
  EXPECT_EQ(service.stats().cache_hits, 1u);
  ExpectOutcomeConservation(service.stats());
}

TEST_F(ServiceTest,
       JoinersOnAQuarantinedRunNeitherConsumeAttemptsNorAdvanceCooldown) {
  // Only a run's owner passes the breaker (Admit before stage 1,
  // OnStageResult after it). Requests that park on the poisoned family's
  // in-flight run share the owner's degraded result without consuming a
  // fault-schedule attempt, counting a failure, shedding, probing or
  // stepping the cooldown: the breaker's totals follow the runs, not the
  // requests.
  const uint64_t fp = PlanFingerprint((*plans_)[0]);
  ScheduledFaultOptions fopts;
  FaultRule rule;
  rule.fail_attempts = 1000;  // never heals
  fopts.rules[fp] = rule;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 2;
  options.fault_injector = &injector;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_requests = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool gate_next = false;
  bool gated = false;
  bool release = false;
  options.post_stages_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!gate_next) return;
    gate_next = false;
    gated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  PredictionService service(db_, samples_, *units_, options);
  RequestOptions opts;
  opts.allow_degraded = true;

  // One async owner of plan 0, gated after its stages while three async
  // joiners park on its run, then released. Results come owner first.
  const auto gated_run = [&] {
    const uint64_t joins_before = service.stats().inflight_joins;
    {
      std::lock_guard<std::mutex> lock(mu);
      gate_next = true;
      gated = false;
      release = false;
    }
    std::vector<PredictionFuture> futures;
    futures.push_back(service.PredictAsync((*plans_)[0], opts));
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return gated; });
    }
    for (int i = 0; i < 3; ++i) {
      futures.push_back(service.PredictAsync((*plans_)[0], opts));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.stats().inflight_joins < joins_before + 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(service.stats().inflight_joins, joins_before + 3);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
      cv.notify_all();
    }
    std::vector<StatusOr<Prediction>> out;
    for (auto& f : futures) out.push_back(f.get());
    for (const auto& r : out) {
      EXPECT_TRUE(r.ok() && r->degraded) << "every joiner gets the owner's "
                                            "degraded result";
      if (r.ok() && out[0].ok()) {
        EXPECT_EQ(r->mean(), out[0]->mean());
        EXPECT_EQ(r->breakdown.variance, out[0]->breakdown.variance);
      }
    }
  };

  // Closed: the owner's failure is the family's only failure.
  gated_run();
  EXPECT_EQ(injector.AttemptCount(fp), 1u) << "joiners consume no attempt";
  ServiceStats st = service.stats();
  EXPECT_EQ(st.breaker_opens, 0u) << "joiners are not failures";
  auto rows = service.FeedbackSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_STREQ(rows[0].breaker_state, "closed");
  EXPECT_EQ(rows[0].breaker_consecutive_failures, 1);

  // A second owned failure opens the family; the first cooldown request
  // sheds.
  ASSERT_TRUE(service.Predict((*plans_)[0], opts)->degraded);
  ASSERT_TRUE(service.Predict((*plans_)[0], opts)->degraded);
  EXPECT_EQ(injector.AttemptCount(fp), 2u);
  st = service.stats();
  EXPECT_EQ(st.breaker_opens, 1u);
  EXPECT_EQ(st.breaker_shed, 1u);

  // The second cooldown request owns the half-open probe. Its joiners
  // would each shed had they passed the breaker; they only share the
  // probe's verdict.
  gated_run();
  EXPECT_EQ(injector.AttemptCount(fp), 3u) << "the probe's owner only";
  st = service.stats();
  EXPECT_EQ(st.breaker_probes, 1u);
  EXPECT_EQ(st.breaker_shed, 1u) << "joiners on the probe did not shed";
  EXPECT_EQ(st.breaker_opens, 2u) << "the failed probe re-opens the family";
  rows = service.FeedbackSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_STREQ(rows[0].breaker_state, "open");
  EXPECT_EQ(rows[0].breaker_shed, 1u) << "the family record agrees";
  EXPECT_EQ(rows[0].breaker_opens, 2u);

  // The re-opened family's cooldown counts owners from zero: one shed,
  // then the next probe.
  ASSERT_TRUE(service.Predict((*plans_)[0], opts)->degraded);
  EXPECT_EQ(injector.AttemptCount(fp), 3u);
  ASSERT_TRUE(service.Predict((*plans_)[0], opts)->degraded);
  EXPECT_EQ(injector.AttemptCount(fp), 4u);
  st = service.stats();
  EXPECT_EQ(st.breaker_shed, 2u);
  EXPECT_EQ(st.breaker_probes, 2u);
  EXPECT_EQ(st.breaker_opens, 3u);
  EXPECT_EQ(st.inflight_joins, 6u);
  EXPECT_EQ(st.degraded_served, 12u);
  ExpectOutcomeConservation(st);
}

TEST_F(ServiceTest, FeedbackAndBreakerShareOneFamilyRow) {
  // With both on, each family is one record: a reported family that then
  // trips the breaker shows its window AND its breaker state in one row; a
  // family that only failed shows a breaker row with an empty window, and
  // is not counted as a feedback family.
  const uint64_t fp_a = PlanFingerprint((*plans_)[0]);
  const uint64_t fp_b = PlanFingerprint((*plans_)[1]);
  ASSERT_NE(fp_a, fp_b);
  ScheduledFaultOptions fopts;
  FaultRule slow;  // every attempt sleeps past the 1 ms deadlines below
  slow.latency_prob = 1.0;
  slow.latency_ms = 20.0;
  fopts.rules[fp_a] = slow;
  FaultRule broken;
  broken.fail_attempts = 1000;
  fopts.rules[fp_b] = broken;
  ScheduledFaultInjector injector(fopts);
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &injector;
  options.feedback.enabled = true;
  options.feedback.window_size = 4;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_requests = 8;
  PredictionService service(db_, samples_, *units_, options);

  // Family A: one real prediction and three reports (window not full).
  auto a = service.Predict((*plans_)[0]);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  for (int i = 0; i < 3; ++i) {
    service.ReportObserved((*plans_)[0], a->mean() * 1.25);
  }
  // Then two deadline failures (the flush forces stage 1 to run again):
  // the breaker opens.
  service.InvalidateCache();
  RequestOptions late;
  late.deadline_ms = 1.0;
  late.allow_degraded = true;
  for (int i = 0; i < 2; ++i) {
    auto r = service.Predict((*plans_)[0], late);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->degraded);
  }
  // Family B: two injected failures, no reports.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(service.Predict((*plans_)[1]).ok());
  }

  const auto rows = service.FeedbackSnapshot();
  ASSERT_EQ(rows.size(), 2u) << "one row per family, never two";
  const FamilyFeedback& row_a = rows[0].fingerprint == fp_a ? rows[0] : rows[1];
  const FamilyFeedback& row_b = rows[0].fingerprint == fp_a ? rows[1] : rows[0];
  ASSERT_EQ(row_a.fingerprint, fp_a);
  ASSERT_EQ(row_b.fingerprint, fp_b);
  EXPECT_EQ(row_a.reports, 3u);
  ASSERT_EQ(row_a.window.size(), 3u);
  for (double e : row_a.window) EXPECT_DOUBLE_EQ(e, 0.2);
  EXPECT_TRUE(row_a.stash.valid);
  EXPECT_STREQ(row_a.breaker_state, "open");
  EXPECT_EQ(row_a.breaker_consecutive_failures, 2);
  EXPECT_EQ(row_a.breaker_opens, 1u);
  EXPECT_EQ(row_b.reports, 0u);
  EXPECT_TRUE(row_b.window.empty());
  EXPECT_FALSE(row_b.stash.valid);
  EXPECT_STREQ(row_b.breaker_state, "open");
  EXPECT_EQ(row_b.breaker_consecutive_failures, 2);
  EXPECT_EQ(row_b.breaker_opens, 1u);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.feedback_families, 1u) << "breaker-only rows are not counted";
  EXPECT_EQ(st.feedback_reports, 3u);
  EXPECT_EQ(st.breaker_opens, 2u);
  EXPECT_EQ(st.faults_injected, 2u);
  EXPECT_EQ(st.degraded_served, 2u);
  EXPECT_EQ(st.failed, 2u);
  ExpectOutcomeConservation(st);
}

}  // namespace
}  // namespace uqp
