// Tests for src/serve/: the versioned model registry, the micro-batched
// inference engine (determinism, admission control, deadlines,
// cancellation, hot-swap), the inline replay (Run) against the threaded
// replay, live concurrent sessions, and the SQL PREDICT BY path that
// routes through the engine.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <functional>
#include <thread>

#include "db/database.h"
#include "db/model_store.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "exec/shard_scan.h"
#include "iosim/fault_plane.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "serve/inference_engine.h"
#include "serve/workload.h"
#include "util/rng.h"

#include "canary_models.h"

namespace corgipile {
namespace {

std::string MakeTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<Tuple> MakeTuples(uint64_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<float> values(dim);
    for (float& v : values) v = static_cast<float>(rng.NextGaussian());
    out.push_back(
        MakeDenseTuple(i, rng.NextBool() ? 1.0 : -1.0, std::move(values)));
  }
  return out;
}

ServeOptions SmallServeOptions() {
  ServeOptions opts;
  opts.max_batch = 8;
  opts.batch_deadline_s = 2e-3;
  opts.num_workers = 2;
  opts.max_queue_depth = 64;
  opts.per_batch_overhead_s = 1e-3;
  opts.per_tuple_s = 5e-5;
  return opts;
}

// --- ModelStore: versioning and snapshot lifetime ---

TEST(ModelStoreVersionTest, PublishBumpsAndSnapshotsOutliveRemove) {
  ModelStore store;
  const std::string id = store.Put(std::make_unique<LogisticRegression>(4));
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 1u);

  auto v1 = store.GetSnapshot(id).ValueOrDie();
  EXPECT_EQ(v1.version, 1u);

  EXPECT_EQ(store.Publish(id, std::make_unique<LogisticRegression>(4))
                .ValueOrDie(),
            2u);
  auto v2 = store.GetSnapshot(id).ValueOrDie();
  EXPECT_EQ(v2.version, 2u);
  EXPECT_NE(v1.model.get(), v2.model.get());

  // The old snapshot stays usable after Remove (copy-on-write registry).
  ASSERT_TRUE(store.Remove(id).ok());
  EXPECT_TRUE(store.Get(id).status().IsNotFound());
  Tuple t = MakeDenseTuple(0, 1.0, {0.1f, 0.2f, 0.3f, 0.4f});
  (void)v1.model->Predict(t);  // ASan would flag a use-after-free here

  // Publish is an upsert: a fresh id starts again at version 1.
  EXPECT_EQ(store.Publish(id, std::make_unique<LogisticRegression>(4))
                .ValueOrDie(),
            1u);
}

TEST(ModelStoreVersionTest, ConcurrentGetPublishRemove) {
  ModelStore store;
  const std::string id = store.Put(std::make_unique<LogisticRegression>(8));
  Tuple t = MakeTuples(1, 8, 3)[0];
  std::atomic<bool> stop{false};

  std::thread publisher([&] {
    for (int i = 0; i < 200; ++i) {
      auto published =
          store.Publish(id, std::make_unique<LogisticRegression>(8));
      ASSERT_TRUE(published.ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto snap = store.GetSnapshot(id);
        ASSERT_TRUE(snap.ok());
        (void)snap->model->Predict(t);
      }
    });
  }
  publisher.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 201u);
}

// --- generated schedules ---

TEST(WorkloadTest, PoissonScheduleDeterministicAndMonotone) {
  auto a = PoissonSchedule(500, 1000.0, 7);
  auto b = PoissonSchedule(500, 1000.0, 7);
  EXPECT_EQ(a, b);
  auto c = PoissonSchedule(500, 1000.0, 8);
  EXPECT_NE(a, c);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean interarrival ≈ 1/rate.
  EXPECT_NEAR(a.back() / 500.0, 1e-3, 3e-4);
}

// --- engine behaviour on generated workloads ---

struct ServeFixture {
  ModelStore store;
  std::string id;
  std::vector<Tuple> tuples;

  ServeFixture() {
    id = store.Put(std::make_unique<LogisticRegression>(8));
    tuples = MakeTuples(64, 8, 11);
  }
};

TEST(InferenceEngineTest, RerunIsBitIdentical) {
  ServeFixture f;
  WorkloadOptions w;
  w.num_requests = 800;
  w.offered_load_rps = 4000.0;
  w.seed = 21;
  auto r1 = RunGeneratedWorkload(&f.store, f.id, f.tuples,
                                 SmallServeOptions(), w);
  auto r2 = RunGeneratedWorkload(&f.store, f.id, f.tuples,
                                 SmallServeOptions(), w);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->stats, r2->stats) << r1->stats.ToString() << "\n vs \n"
                                  << r2->stats.ToString();
  EXPECT_EQ(r1->stats.submitted, 800u);
  EXPECT_GT(r1->stats.completed, 0u);
  EXPECT_GT(r1->stats.mean_batch_occupancy, 1.0);  // batching happened
}

TEST(InferenceEngineTest, AdmissionControlShedsUnderOverload) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 16;
  opts.max_batch = 4;  // capacity ≈ 2 workers / 0.3ms-per-tuple ≈ 6.6k rps
  WorkloadOptions w;
  w.num_requests = 2000;
  w.offered_load_rps = 50000.0;  // far past capacity
  w.seed = 5;
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->shed, 0u);
  EXPECT_GT(r->ok, 0u);
  EXPECT_EQ(r->ok + r->shed + r->expired + r->cancelled + r->failed, 2000u);
  // Accepted requests never waited behind more than the queue bound, so
  // the tail is bounded by (depth/batch+1 batches) of service plus the
  // batch deadline — generous factor-of-2 margin here.
  const double service_per_batch =
      opts.per_batch_overhead_s + opts.max_batch * opts.per_tuple_s;
  const double bound =
      2.0 * (opts.max_queue_depth / opts.max_batch + 1) * service_per_batch +
      opts.batch_deadline_s;
  EXPECT_LT(r->stats.latency.p99, bound);
}

TEST(InferenceEngineTest, NoSheddingWhenQueueUnbounded) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  WorkloadOptions w;
  w.num_requests = 500;
  w.offered_load_rps = 50000.0;
  w.seed = 5;
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->shed, 0u);
  EXPECT_EQ(r->ok, 500u);
}

TEST(InferenceEngineTest, PerRequestDeadlinesExpire) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;  // no shedding: overload turns into queueing
  WorkloadOptions w;
  w.num_requests = 1000;
  w.offered_load_rps = 50000.0;
  w.seed = 9;
  w.deadline_s = 5e-3;  // the backlog quickly exceeds 5ms of wait
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->expired, 0u);
  EXPECT_GT(r->ok, 0u);
  EXPECT_EQ(r->expired, r->stats.expired);
}

TEST(InferenceEngineTest, CancelledRequestsAreRejected) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;  // live mode: no generated schedule
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());

  ServeRequest cancelled;
  cancelled.tuple = f.tuples[0];
  cancelled.model_id = f.id;
  cancelled.token.Cancel(Status::Cancelled("caller went away"));
  auto cancelled_fut = engine.Submit(std::move(cancelled));

  ServeRequest live;
  live.tuple = f.tuples[1];
  live.model_id = f.id;
  auto live_fut = engine.Submit(std::move(live));

  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_TRUE(cancelled_fut.get().status.IsCancelled());
  EXPECT_TRUE(live_fut.get().status.ok());
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_EQ(engine.stats().completed, 1u);
}

TEST(InferenceEngineTest, UnknownModelFailsRequestsNotEngine) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());
  ServeRequest req;
  req.tuple = f.tuples[0];
  req.model_id = "ghost";
  auto fut = engine.Submit(std::move(req));
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_TRUE(fut.get().status.IsNotFound());
  EXPECT_EQ(engine.stats().failed, 1u);
}

TEST(InferenceEngineTest, HotSwapServesBothVersionsWithZeroFailures) {
  ServeFixture f;
  WorkloadOptions w;
  w.num_requests = 1200;
  w.offered_load_rps = 4000.0;
  w.seed = 33;
  w.swap_at_request = 600;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->failed, 0u);
  EXPECT_EQ(r->ok, 1200u);
  EXPECT_EQ(r->versions_seen, 2u);
  const auto& by_version = r->stats.served_by_version.at(f.id);
  ASSERT_EQ(by_version.size(), 2u);
  uint64_t total = 0;
  for (const auto& [version, count] : by_version) {
    EXPECT_GT(count, 0u);
    total += count;
  }
  EXPECT_EQ(total, 1200u);

  // Rerun: identical except the version numbers keep climbing.
  auto r2 = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r2.ok());
  ServeStats a = r->stats, b = r2->stats;
  a.served_by_version.clear();
  b.served_by_version.clear();
  a.quality_by_version.clear();
  b.quality_by_version.clear();
  EXPECT_EQ(a, b);
}

// --- Run() against the threaded replay -----------------------------------
//
// For the same (schedule, options, store) the inline replay must make every
// decision the threaded engine makes with flush_on_idle = false: equal
// ServeStats, and equal replies down to the bits of value, loss and
// latency. Each replay builds its own store from the same recipe, so
// version numbers and lifecycle transitions replay too.

struct ReplayOutcome {
  ServeStats stats;
  std::vector<ServeReply> replies;
  uint64_t final_version = 0;  ///< ModelStore version of "m" afterwards
  bool canary_staged = false;  ///< a candidate still staged afterwards
};

/// Fills a fresh store (the model id is "m") and returns its schedule.
using ScheduleRecipe = std::function<std::vector<ServeRequest>(ModelStore*)>;

ReplayOutcome FinishReplay(const InferenceEngine& engine,
                           const ModelStore& store,
                           std::vector<ServeReply> replies) {
  ReplayOutcome out;
  out.stats = engine.stats();
  out.replies = std::move(replies);
  auto version = store.GetVersion("m");
  out.final_version = version.ok() ? *version : 0;
  out.canary_staged = store.GetCanary("m").has_value();
  return out;
}

ReplayOutcome ReplayInline(const ServeOptions& opts,
                           const ScheduleRecipe& recipe) {
  ModelStore store;
  std::vector<ServeRequest> requests = recipe(&store);
  InferenceEngine engine(&store, opts);
  auto replies = engine.Run(std::move(requests));
  EXPECT_TRUE(replies.ok()) << replies.status().ToString();
  return FinishReplay(engine, store,
                      replies.ok() ? std::move(*replies)
                                   : std::vector<ServeReply>{});
}

ReplayOutcome ReplayThreaded(ServeOptions opts, const ScheduleRecipe& recipe) {
  opts.flush_on_idle = false;
  ModelStore store;
  std::vector<ServeRequest> requests = recipe(&store);
  InferenceEngine engine(&store, opts);
  EXPECT_TRUE(engine.Start().ok());
  std::vector<std::future<ServeReply>> futures;
  futures.reserve(requests.size());
  for (ServeRequest& req : requests) {
    futures.push_back(engine.Submit(std::move(req)));
  }
  EXPECT_TRUE(engine.Drain().ok());
  std::vector<ServeReply> replies;
  replies.reserve(futures.size());
  for (auto& fut : futures) replies.push_back(fut.get());
  return FinishReplay(engine, store, std::move(replies));
}

void ExpectSameReplay(const ReplayOutcome& inline_run,
                      const ReplayOutcome& threaded,
                      const std::string& what) {
  EXPECT_EQ(inline_run.stats, threaded.stats)
      << what << "\n inline:   " << inline_run.stats.ToString()
      << "\n threaded: " << threaded.stats.ToString();
  EXPECT_EQ(inline_run.final_version, threaded.final_version) << what;
  EXPECT_EQ(inline_run.canary_staged, threaded.canary_staged) << what;
  ASSERT_EQ(inline_run.replies.size(), threaded.replies.size()) << what;
  for (size_t i = 0; i < inline_run.replies.size(); ++i) {
    const ServeReply& a = inline_run.replies[i];
    const ServeReply& b = threaded.replies[i];
    EXPECT_EQ(a.status.code(), b.status.code())
        << what << " request " << i << ": " << a.status.ToString()
        << " vs " << b.status.ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(a.value),
              std::bit_cast<uint64_t>(b.value))
        << what << " request " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.loss), std::bit_cast<uint64_t>(b.loss))
        << what << " request " << i;
    EXPECT_EQ(a.correct, b.correct) << what << " request " << i;
    EXPECT_EQ(a.model_version, b.model_version) << what << " request " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.latency_s),
              std::bit_cast<uint64_t>(b.latency_s))
        << what << " request " << i;
  }
}

/// Poisson arrivals over `tuples` against model "m"; `customize` may
/// decorate request i (token, deadline, on_arrival hook).
std::vector<ServeRequest> PoissonRequests(
    const std::vector<Tuple>& tuples, uint64_t n, double rate_rps,
    uint64_t seed,
    const std::function<void(uint64_t, ServeRequest*)>& customize = {}) {
  const std::vector<double> schedule = PoissonSchedule(n, rate_rps, seed);
  std::vector<ServeRequest> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ServeRequest req;
    req.tuple = tuples[i % tuples.size()];
    req.model_id = "m";
    req.arrival_s = schedule[i];
    if (customize) customize(i, &req);
    out.push_back(std::move(req));
  }
  return out;
}

TEST(InlineReplayTest, MatchesThreadedUnderShedding) {
  const auto tuples = MakeTuples(64, 8, 11);
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 16;
  opts.max_batch = 4;
  const ScheduleRecipe recipe = [&](ModelStore* store) {
    EXPECT_TRUE(store->Publish("m", MakeWeightModel(8, 0.1)).ok());
    return PoissonRequests(tuples, 2000, 50000.0, 5);
  };
  const ReplayOutcome run = ReplayInline(opts, recipe);
  EXPECT_GT(run.stats.shed, 0u);
  EXPECT_GT(run.stats.completed, 0u);
  ExpectSameReplay(run, ReplayThreaded(opts, recipe), "shedding");
}

TEST(InlineReplayTest, MatchesThreadedWithDeadlinesAndCancellation) {
  const auto tuples = MakeTuples(64, 8, 11);
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  const ScheduleRecipe recipe = [&](ModelStore* store) {
    EXPECT_TRUE(store->Publish("m", MakeWeightModel(8, 0.1)).ok());
    return PoissonRequests(
        tuples, 1000, 50000.0, 9, [](uint64_t i, ServeRequest* req) {
          req->deadline_s = 5e-3;
          if (i % 7 == 3) {
            req->token.Cancel(Status::Cancelled("caller went away"));
          }
        });
  };
  const ReplayOutcome run = ReplayInline(opts, recipe);
  EXPECT_GT(run.stats.expired, 0u);
  EXPECT_GT(run.stats.cancelled, 0u);
  EXPECT_GT(run.stats.completed, 0u);
  ExpectSameReplay(run, ReplayThreaded(opts, recipe), "deadlines+cancel");
}

TEST(InlineReplayTest, MatchesThreadedAcrossHotSwap) {
  const auto tuples = MakeTuples(64, 8, 11);
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  const ScheduleRecipe recipe = [&](ModelStore* store) {
    EXPECT_TRUE(store->Publish("m", MakeWeightModel(8, 0.1)).ok());
    return PoissonRequests(
        tuples, 1200, 4000.0, 33, [store](uint64_t i, ServeRequest* req) {
          if (i != 600) return;
          req->on_arrival = [store] {
            EXPECT_TRUE(store->Publish("m", MakeWeightModel(8, -0.3)).ok());
          };
        });
  };
  const ReplayOutcome run = ReplayInline(opts, recipe);
  EXPECT_EQ(run.stats.served_by_version.at("m").size(), 2u);
  EXPECT_EQ(run.final_version, 2u);
  ExpectSameReplay(run, ReplayThreaded(opts, recipe), "hot-swap");
}

TEST(InlineReplayTest, MatchesThreadedThroughCanaryPromoteAndRollback) {
  const auto tuples = MakeSeparableTuples(96, 8, 5);
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  for (const double candidate_w : {2.0, -2.0}) {
    const ScheduleRecipe recipe = [&](ModelStore* store) {
      EXPECT_TRUE(store->Publish("m", MakeWeightModel(8, 2.0)).ok());
      CanaryPolicy policy;
      policy.fraction = 0.5;
      policy.seed = 77;
      policy.promote_after_batches = 4;
      policy.breaker_window = 4;
      policy.breaker_min_samples = 2;
      EXPECT_TRUE(store
                      ->StageCanary("m", MakeWeightModel(8, candidate_w),
                                    policy)
                      .ok());
      return PoissonRequests(tuples, 400, 4000.0, 77);
    };
    const ReplayOutcome run = ReplayInline(opts, recipe);
    EXPECT_GT(run.stats.canary_batches, 0u);
    EXPECT_FALSE(run.canary_staged);
    if (candidate_w > 0) {
      EXPECT_EQ(run.stats.canary_promotions, 1u);
      EXPECT_EQ(run.final_version, 2u);
    } else {
      EXPECT_EQ(run.stats.canary_rollbacks, 1u);
      EXPECT_EQ(run.final_version, 1u);
    }
    ExpectSameReplay(run, ReplayThreaded(opts, recipe),
                     candidate_w > 0 ? "canary promote" : "canary rollback");
  }
}

TEST(InlineReplayTest, MatchesThreadedUnderResolveFaults) {
  const auto tuples = MakeTuples(64, 8, 11);
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  opts.resolve_max_retries = 1;
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.error_threshold = 0.5;
  opts.breaker.cooldown_s = 5e-3;  // half-opens within the run
  ChaosRule rule;
  rule.point = "serve.resolve";
  rule.action = ChaosAction::kFail;
  rule.from_hit = 1;  // hit 0 resolves: brownout has a last-good snapshot
  rule.repeat = 60;
  rule.probability = 0.6;
  const ScheduleRecipe recipe = [&](ModelStore* store) {
    EXPECT_TRUE(store->Publish("m", MakeWeightModel(8, 0.1)).ok());
    // Re-armed per replay: hit counters and draws restart from zero.
    FaultPlane::Process()->Arm("inline-vs-threaded", 41, {rule});
    return PoissonRequests(tuples, 800, 4000.0, 21);
  };
  const ReplayOutcome run = ReplayInline(opts, recipe);
  const ReplayOutcome threaded = ReplayThreaded(opts, recipe);
  FaultPlane::Process()->Disarm();
  EXPECT_GT(run.stats.hedged_retries, 0u);
  EXPECT_GT(run.stats.breaker_opens, 0u);
  EXPECT_GT(run.stats.brownout_batches, 0u);
  ExpectSameReplay(run, threaded, "resolve faults");
}

TEST(InlineReplayTest, RunAndStartAreExclusive) {
  ServeFixture f;
  std::vector<ServeRequest> one(1);
  one[0].tuple = f.tuples[0];
  one[0].model_id = f.id;

  InferenceEngine started(&f.store, SmallServeOptions());
  ASSERT_TRUE(started.Start().ok());
  EXPECT_FALSE(started.Run(one).ok());
  ASSERT_TRUE(started.Drain().ok());

  InferenceEngine ran(&f.store, SmallServeOptions());
  auto replies = ran.Run(one);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  ASSERT_EQ(replies->size(), 1u);
  EXPECT_TRUE((*replies)[0].status.ok());
  EXPECT_FALSE(ran.Start().ok());
  EXPECT_FALSE(ran.Run(one).ok());
  // A stray Submit is answered with an error, never left hanging.
  EXPECT_FALSE(ran.Submit(one[0]).get().status.ok());
  EXPECT_TRUE(ran.Drain().ok());
  EXPECT_EQ(ran.stats().completed, 1u);
}

// --- live concurrent sessions (the tsan preset exercises this heavily) ---

TEST(InferenceEngineTest, ManyConcurrentSessions) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;
  opts.max_queue_depth = 0;
  opts.num_workers = 4;
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kSessions = 8;
  constexpr int kPerSession = 50;
  std::atomic<uint64_t> ok_replies{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      for (int i = 0; i < kPerSession; ++i) {
        ServeRequest req;
        req.tuple = f.tuples[(s * kPerSession + i) % f.tuples.size()];
        req.model_id = f.id;
        auto fut = engine.Submit(std::move(req));
        if (fut.get().status.ok()) ok_replies.fetch_add(1);
      }
    });
  }
  // Concurrent hot-swaps while sessions are in flight.
  std::thread publisher([&] {
    for (int i = 0; i < 20; ++i) {
      auto snap = f.store.GetSnapshot(f.id);
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(f.store.Publish(f.id, snap->model->Clone()).ok());
    }
  });
  for (auto& th : sessions) th.join();
  publisher.join();
  ASSERT_TRUE(engine.Drain().ok());

  EXPECT_EQ(ok_replies.load(), kSessions * kPerSession);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kSessions * kPerSession));
  EXPECT_EQ(stats.shed + stats.expired + stats.cancelled + stats.failed, 0u);
}

// Regression: MLP (and softmax) inference once used shared mutable scratch,
// racing when several engine workers predicted on one snapshot. Drive an
// MlpModel snapshot from concurrent batches so tsan covers the path.
TEST(InferenceEngineTest, ConcurrentMlpPredictsOnSharedSnapshot) {
  ModelStore store;
  const std::string id =
      store.Put(std::make_unique<MlpModel>(8, 16, 2));
  // MLP treats the label as a class index.
  std::vector<Tuple> tuples = MakeTuples(64, 8, 13);
  for (auto& t : tuples) t.label = t.label > 0.0 ? 1.0 : 0.0;

  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;
  opts.max_queue_depth = 0;
  opts.num_workers = 4;
  opts.max_batch = 4;  // many small batches in flight at once
  InferenceEngine engine(&store, opts);
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<uint64_t> ok_replies{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.emplace_back([&, s] {
      for (int i = 0; i < 64; ++i) {
        ServeRequest req;
        req.tuple = tuples[(s * 64 + i) % tuples.size()];
        req.model_id = id;
        auto fut = engine.Submit(std::move(req));
        if (fut.get().status.ok()) ok_replies.fetch_add(1);
      }
    });
  }
  for (auto& th : sessions) th.join();
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(ok_replies.load(), 256u);
}

// --- SQL PREDICT BY path through the Database ---

struct DbFixture {
  std::string dir;
  Database db;

  DbFixture()
      : dir(MakeTempDir("serve_db")), db(dir, DeviceProfile::Ssd()) {
    auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
    Dataset ds = GenerateDataset(spec, DataOrder::kShuffled);
    EXPECT_TRUE(db.RegisterDataset("susy", ds).ok());
  }
};

TEST(SqlPredictTest, UnknownModelIsNotFound) {
  DbFixture f;
  EXPECT_TRUE(f.db.Execute("SELECT * FROM susy PREDICT BY nobody")
                  .status()
                  .IsNotFound());
}

TEST(SqlPredictTest, DimensionMismatchIsInvalidArgument) {
  DbFixture f;
  // A model trained for a different feature width than the susy table.
  const uint32_t wrong_dim =
      f.db.GetTable("susy").ValueOrDie()->schema().dim + 3;
  const std::string id =
      f.db.models().Put(std::make_unique<LogisticRegression>(wrong_dim));
  auto result = f.db.Execute("SELECT * FROM susy PREDICT BY " + id);
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(SqlPredictTest, PredictReportsServeStatsAndIsDeterministic) {
  DbFixture f;
  auto trained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=2, publish=champion");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_NE(trained->find("trained model champion"), std::string::npos);

  PredictStatement stmt;
  stmt.table_name = "susy";
  stmt.model_id = "champion";
  auto p1 = f.db.Predict(stmt);
  auto p2 = f.db.Predict(stmt);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  ASSERT_TRUE(p2.ok());
  EXPECT_GT(p1->count, 0u);
  EXPECT_EQ(p1->serve.completed, p1->count);
  EXPECT_EQ(p1->serve.shed, 0u);  // SQL path admits the whole scan
  EXPECT_GT(p1->serve.num_batches, 0u);
  EXPECT_EQ(p1->serve, p2->serve);  // same scan, same stats, bit-for-bit
  EXPECT_DOUBLE_EQ(p1->metric, p2->metric);

  // Retraining under the same alias hot-swaps (version 2).
  auto retrained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=1, publish=champion");
  ASSERT_TRUE(retrained.ok());
  EXPECT_NE(retrained->find("champion (v2)"), std::string::npos);
  EXPECT_EQ(f.db.models().GetVersion("champion").ValueOrDie(), 2u);
}

TEST(SqlPredictTest, PredictStatsEqualThreadedReplayOfScannedRows) {
  DbFixture f;
  auto trained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=2, publish=m");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  auto predicted = f.db.Predict(PredictStatement{"susy", "m"});
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

  // The same rows, in the same order, through the threaded engine.
  std::vector<Tuple> rows;
  const ShardedSnapshot snap =
      f.db.GetShardedTable("susy").ValueOrDie()->Snapshot();
  snap.ResetReadCursors();
  ASSERT_TRUE(CollectSnapshot(snap, ShardScanOptions{}, &rows).ok());
  ServeOptions opts = f.db.serve_options();
  opts.flush_on_idle = false;
  InferenceEngine engine(&f.db.models(), opts);
  ASSERT_TRUE(engine.Start().ok());
  std::vector<std::future<ServeReply>> futures;
  for (const Tuple& t : rows) {
    ServeRequest req;
    req.tuple = t;
    req.model_id = "m";
    futures.push_back(engine.Submit(std::move(req)));
  }
  ASSERT_TRUE(engine.Drain().ok());
  for (auto& fut : futures) ASSERT_TRUE(fut.get().status.ok());

  EXPECT_EQ(predicted->count, rows.size());
  EXPECT_EQ(predicted->serve, engine.stats())
      << predicted->serve.ToString() << "\n vs \n"
      << engine.stats().ToString();
}

TEST(SqlPredictTest, ManyConcurrentPredictSessions) {
  DbFixture f;
  auto trained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=1, publish=m");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto r = f.db.Execute("SELECT * FROM susy PREDICT BY m");
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : sessions) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace corgipile
