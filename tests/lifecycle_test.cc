// Guarded model lifecycle (DESIGN.md §13): bounded version history and
// rollback in the ModelStore, the validation gate, deterministic canary
// serving with auto-rollback, drift-triggered retraining, and the
// flagship end-to-end scenarios from the PR 8 acceptance bar:
//   (a) a gate-failing candidate is never served,
//   (b) a canary breach auto-rolls-back with zero failed requests and
//       bit-identical accounting across seeds,
//   (d) a drift-triggered retrain lands under live serving load with zero
//       failed requests. (Flagship (c), kill-at-every-crash-point, lives
//       in chaos_test.cc next to the rest of the FaultPlane suite.)

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <set>
#include <vector>

#include "db/database.h"
#include "db/model_store.h"
#include "db/query.h"
#include "dataset/catalog.h"
#include "lifecycle/continual.h"
#include "lifecycle/drift_monitor.h"
#include "lifecycle/validation_gate.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
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

double FirstParam(const ModelStore& store, const std::string& id) {
  auto snap = store.Get(id);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return snap.ok() ? (*snap)->params()[0] : 0.0;
}

// --- ModelStore: bounded history, rollback, eviction ----------------------

TEST(ModelLifecycleTest, PublishBoundsHistoryAndRollbackKeepsVersionNumber) {
  ModelStore store;
  ASSERT_EQ(store.history_limit(), ModelStore::kDefaultHistoryLimit);
  const std::string id = store.Put(MakeWeightModel(4, 1.0));  // v1
  for (double v = 2.0; v <= 5.0; v += 1.0) {                  // v2..v5
    auto ver = store.Publish(id, MakeWeightModel(4, v));
    ASSERT_TRUE(ver.ok()) << ver.status().ToString();
    EXPECT_EQ(*ver, static_cast<uint64_t>(v));
  }

  // v5 current; history bounded to {2, 3, 4}; v1 evicted.
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 5u);
  EXPECT_EQ(store.History(id).ValueOrDie(), (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_TRUE(store.GetVersionSnapshot(id, 1).status().IsNotFound());
  EXPECT_EQ(store.GetVersionSnapshot(id, 3).ValueOrDie().version, 3u);

  // Rollback re-points at the retained version under its ORIGINAL number
  // (never a fresh one: the audit trail must say "v3 serves again", not
  // "v6 that happens to equal v3"), and the displaced current is retained.
  ASSERT_TRUE(store.Rollback(id, 3).ok());
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 3u);
  EXPECT_DOUBLE_EQ(FirstParam(store, id), 3.0);
  EXPECT_EQ(store.History(id).ValueOrDie(), (std::vector<uint64_t>{2, 4, 5}));

  // Roll-forward is possible because the displaced v5 joined the history.
  ASSERT_TRUE(store.Rollback(id, 5).ok());
  EXPECT_DOUBLE_EQ(FirstParam(store, id), 5.0);

  // Error surface: already-current → InvalidArgument; evicted / unknown
  // version / unknown id → NotFound.
  EXPECT_TRUE(store.Rollback(id, 5).IsInvalidArgument());
  EXPECT_TRUE(store.Rollback(id, 1).IsNotFound());
  EXPECT_TRUE(store.Rollback(id, 99).IsNotFound());
  EXPECT_TRUE(store.Rollback("ghost", 1).IsNotFound());

  // The audit trail records the evictions and rollbacks in commit order.
  const auto events = store.Events(id).ValueOrDie();
  uint64_t evictions = 0, rollbacks = 0;
  for (const auto& e : events) {
    if (e.action == LifecycleAction::kEvicted) ++evictions;
    if (e.action == LifecycleAction::kRolledBack) ++rollbacks;
  }
  EXPECT_EQ(evictions, 1u);  // only v1 fell off the bound
  EXPECT_EQ(rollbacks, 2u);
  EXPECT_EQ(events.front(), (LifecycleEvent{LifecycleAction::kPublished, 1}));
}

TEST(ModelLifecycleTest, InFlightSnapshotOutlivesEviction) {
  // Satellite 1: the history bound caps registry memory, never
  // correctness — a pinned Get() snapshot keeps serving after eviction.
  ModelStore store;
  store.set_history_limit(1);
  const std::string id = store.Put(MakeWeightModel(4, 1.0));
  const std::shared_ptr<const Model> pinned = store.Get(id).ValueOrDie();

  ASSERT_TRUE(store.Publish(id, MakeWeightModel(4, 2.0)).ok());
  ASSERT_TRUE(store.Publish(id, MakeWeightModel(4, 3.0)).ok());

  // v1 is gone from the registry...
  EXPECT_TRUE(store.GetVersionSnapshot(id, 1).status().IsNotFound());
  EXPECT_EQ(store.History(id).ValueOrDie(), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(store.Rollback(id, 1).IsNotFound());
  // ...but the in-flight holder still serves the evicted version.
  EXPECT_DOUBLE_EQ(pinned->params()[0], 1.0);
  EXPECT_EQ(pinned.use_count(), 1);  // registry reference really dropped
}

TEST(ModelLifecycleTest, CanaryStagePromoteAbort) {
  ModelStore store;
  const std::string id = store.Put(MakeWeightModel(4, 1.0));  // v1

  CanaryPolicy policy;
  policy.fraction = 0.25;
  policy.seed = 99;
  auto staged = store.StageCanary(id, MakeWeightModel(4, 2.0), policy);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(*staged, 2u);

  // Staging is invisible to the serving lookup: GetSnapshot keeps
  // returning the incumbent until promotion.
  EXPECT_EQ(store.GetSnapshot(id).ValueOrDie().version, 1u);
  const auto canary = store.GetCanary(id);
  ASSERT_TRUE(canary.has_value());
  EXPECT_EQ(canary->version, 2u);
  EXPECT_DOUBLE_EQ(canary->policy.fraction, 0.25);
  EXPECT_EQ(canary->policy.seed, 99u);

  ASSERT_TRUE(store.PromoteCanary(id).ok());
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 2u);
  EXPECT_DOUBLE_EQ(FirstParam(store, id), 2.0);
  EXPECT_FALSE(store.GetCanary(id).has_value());
  EXPECT_EQ(store.History(id).ValueOrDie(), (std::vector<uint64_t>{1}));

  // Abort burns the reserved version number: v3 is staged then dropped,
  // and the next stage gets v4 (versions are never reused).
  ASSERT_TRUE(store.StageCanary(id, MakeWeightModel(4, 3.0), policy).ok());
  ASSERT_TRUE(store.AbortCanary(id).ok());
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 2u);
  EXPECT_FALSE(store.GetCanary(id).has_value());
  EXPECT_EQ(store.StageCanary(id, MakeWeightModel(4, 4.0), policy).ValueOrDie(),
            4u);
  ASSERT_TRUE(store.AbortCanary(id).ok());

  // Error surface.
  EXPECT_TRUE(store.PromoteCanary(id).IsInvalidArgument());  // none staged
  EXPECT_TRUE(store.AbortCanary(id).IsInvalidArgument());
  EXPECT_TRUE(
      store.StageCanary("ghost", MakeWeightModel(4, 1.0), policy)
          .status()
          .IsInvalidArgument());  // no incumbent to canary against
  CanaryPolicy bad = policy;
  bad.fraction = 1.0;
  EXPECT_TRUE(store.StageCanary(id, MakeWeightModel(4, 1.0), bad)
                  .status()
                  .IsInvalidArgument());

  const auto events = store.Events(id).ValueOrDie();
  const std::vector<LifecycleEvent> expected = {
      {LifecycleAction::kPublished, 1}, {LifecycleAction::kStaged, 2},
      {LifecycleAction::kPromoted, 2}, {LifecycleAction::kStaged, 3},
      {LifecycleAction::kAborted, 3},  {LifecycleAction::kStaged, 4},
      {LifecycleAction::kAborted, 4}};
  EXPECT_EQ(events, expected);
}

// --- ValidationGate -------------------------------------------------------

TEST(ValidationGateTest, SampleHoldoutIsSeededAndPoolOrdered) {
  const auto pool = MakeSeparableTuples(100, 4, 11);
  const auto a = SampleHoldout(pool, 0.25, 42);
  const auto b = SampleHoldout(pool, 0.25, 42);
  ASSERT_EQ(a.size(), 25u);
  ASSERT_EQ(b.size(), 25u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "seeded holdout must replay bit-for-bit";
    if (i > 0) {
      EXPECT_LT(a[i - 1].id, a[i].id);  // pool order
    }
  }
  const auto c = SampleHoldout(pool, 0.25, 43);
  std::set<uint64_t> ids_a, ids_c;
  for (const auto& t : a) ids_a.insert(t.id);
  for (const auto& t : c) ids_c.insert(t.id);
  EXPECT_NE(ids_a, ids_c) << "different seeds should draw different splits";
  EXPECT_EQ(SampleHoldout(pool, 1.0, 7).size(), pool.size());
}

TEST(ValidationGateTest, ThresholdsAndRegressionBounds) {
  const auto holdout = MakeSeparableTuples(200, 4, 3);
  const auto good = MakeWeightModel(4, 2.0);   // separates perfectly
  const auto bad = MakeWeightModel(4, -2.0);   // inverts every label

  ValidationThresholds accept_all;  // all bounds disabled
  EXPECT_TRUE(EvaluateCandidate(*bad, nullptr, holdout, LabelType::kBinary,
                                accept_all)
                  .passed);

  ValidationThresholds floor;
  floor.min_metric = 0.9;
  const auto good_report = EvaluateCandidate(*good, nullptr, holdout,
                                             LabelType::kBinary, floor);
  EXPECT_TRUE(good_report.passed) << good_report.reason;
  EXPECT_TRUE(good_report.reason.empty());
  EXPECT_GT(good_report.candidate.metric, 0.99);

  const auto bad_report = EvaluateCandidate(*bad, nullptr, holdout,
                                            LabelType::kBinary, floor);
  EXPECT_FALSE(bad_report.passed);
  EXPECT_NE(bad_report.reason.find("metric"), std::string::npos)
      << bad_report.reason;

  ValidationThresholds ceiling;
  ceiling.max_loss = 0.5;
  EXPECT_FALSE(
      EvaluateCandidate(*bad, nullptr, holdout, LabelType::kBinary, ceiling)
          .passed);

  // Relative regression vs the incumbent: a worse candidate fails, an
  // identical candidate passes (tolerances absorb FP noise, and identical
  // models produce identical numbers anyway).
  ValidationThresholds rel;
  rel.max_regression = 0.05;
  const auto regress = EvaluateCandidate(*bad, good.get(), holdout,
                                         LabelType::kBinary, rel);
  EXPECT_FALSE(regress.passed);
  EXPECT_TRUE(regress.has_incumbent);
  EXPECT_FALSE(regress.reason.empty());
  EXPECT_TRUE(EvaluateCandidate(*good, good.get(), holdout,
                                LabelType::kBinary, rel)
                  .passed);

  // An empty holdout can validate nothing: hard fail.
  const auto empty = EvaluateCandidate(*good, nullptr, {}, LabelType::kBinary,
                                       ValidationThresholds{});
  EXPECT_FALSE(empty.passed);
  EXPECT_FALSE(empty.reason.empty());
}

// --- Flagship (a): gate-failing candidate is never served -----------------

TEST(ModelLifecycleTest, GateFailingCandidateIsNeverServed) {
  const std::string dir = MakeTempDir("lifecycle_gate");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  // First train with an impossible bar: the candidate is rejected and —
  // the acceptance criterion — never stored under a servable id.
  auto rejected = db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=2, block_size=16KB, publish=m, validate=true, "
      "validate_min_metric=1.1");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_NE(rejected->find("rejected candidate"), std::string::npos)
      << *rejected;
  EXPECT_TRUE(db.models().GetSnapshot("m").status().IsNotFound());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy PREDICT BY m")
                  .status()
                  .IsNotFound());

  // A reachable bar publishes v1.
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=4, block_size=16KB, "
                    "publish=m, validate=true, validate_min_metric=0.6")
                    .ValueOrDie();
  auto published = db.Train(stmt);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published->lifecycle_state, "published");
  EXPECT_TRUE(published->validated);
  EXPECT_GT(published->validation_metric, 0.6);
  EXPECT_EQ(db.models().GetVersion("m").ValueOrDie(), 1u);
  const std::vector<double> incumbent_params =
      db.models().Get("m").ValueOrDie()->params();

  // A rejected RETRAIN leaves the incumbent untouched: same version, same
  // bits, and the audit trail records no transition.
  stmt.params.Set("validate_min_metric", "1.1");
  auto regressed = db.Train(stmt);
  ASSERT_TRUE(regressed.ok()) << regressed.status().ToString();
  EXPECT_EQ(regressed->lifecycle_state, "rejected");
  EXPECT_FALSE(regressed->validated);
  EXPECT_FALSE(regressed->validation_reason.empty());
  EXPECT_EQ(db.models().GetVersion("m").ValueOrDie(), 1u);
  EXPECT_EQ(db.models().Get("m").ValueOrDie()->params(), incumbent_params);
  EXPECT_EQ(db.models().Events("m").ValueOrDie().size(), 1u);
}

// --- Flagship (b): canary breach auto-rolls-back deterministically --------

ServeOptions CanaryServeOptions() {
  ServeOptions opts;
  opts.max_batch = 8;
  opts.num_workers = 2;
  opts.max_queue_depth = 0;  // admit everything: zero shed by construction
  return opts;
}

CanaryPolicy BreachPolicy(uint64_t seed) {
  CanaryPolicy policy;
  policy.fraction = 0.5;
  policy.seed = seed;
  policy.loss_tolerance = 0.1;
  policy.promote_after_batches = 0;  // never promote: breach must decide
  policy.auto_rollback = true;
  policy.breaker_window = 4;
  policy.breaker_min_samples = 2;
  policy.breaker_error_threshold = 0.5;
  return policy;
}

TEST(ModelLifecycleTest, CanaryBreachAutoRollsBackBitIdentically) {
  const auto tuples = MakeSeparableTuples(96, 8, 5);
  const uint64_t kSeeds[] = {7, 21, 77};
  for (const uint64_t seed : kSeeds) {
    auto run_once = [&](ServeStats* out) {
      // Fresh store per run so version numbers (and thus the per-version
      // maps) replay exactly: good incumbent v1, regressing candidate v2.
      ModelStore store;
      const std::string id = store.Put(MakeWeightModel(8, 2.0));
      auto staged =
          store.StageCanary(id, MakeWeightModel(8, -2.0), BreachPolicy(seed));
      ASSERT_TRUE(staged.ok()) << staged.status().ToString();

      WorkloadOptions w;
      w.num_requests = 400;
      w.offered_load_rps = 4000;
      w.seed = seed;
      auto result = RunGeneratedWorkload(&store, id, tuples,
                                         CanaryServeOptions(), w);
      ASSERT_TRUE(result.ok()) << "seed=" << seed << ": "
                               << result.status().ToString();

      // Zero failed requests: every canary-routed batch still answered.
      EXPECT_EQ(result->failed, 0u) << "seed=" << seed;
      EXPECT_EQ(result->shed, 0u) << "seed=" << seed;
      EXPECT_EQ(result->ok, w.num_requests) << "seed=" << seed;

      const ServeStats& s = result->stats;
      EXPECT_GT(s.canary_batches, 0u) << "seed=" << seed;
      EXPECT_GE(s.canary_breaches, 2u) << "seed=" << seed;
      EXPECT_EQ(s.canary_rollbacks, 1u) << "seed=" << seed;
      EXPECT_EQ(s.canary_promotions, 0u) << "seed=" << seed;

      // The breach decided: candidate aborted, incumbent serving, and the
      // registry audit trail says staged → aborted.
      EXPECT_FALSE(store.GetCanary(id).has_value()) << "seed=" << seed;
      EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 1u) << "seed=" << seed;
      const auto events = store.Events(id).ValueOrDie();
      const std::vector<LifecycleEvent> expected = {
          {LifecycleAction::kPublished, 1},
          {LifecycleAction::kStaged, 2},
          {LifecycleAction::kAborted, 2}};
      EXPECT_EQ(events, expected) << "seed=" << seed;

      // Per-version quality attribution: only the candidate's batches can
      // be wrong (the separable stream makes the incumbent perfect), so an
      // incorrect answer under v1 would be an attribution bug.
      const auto it = s.quality_by_version.find(id);
      ASSERT_NE(it, s.quality_by_version.end()) << "seed=" << seed;
      ASSERT_TRUE(it->second.count(1)) << "seed=" << seed;
      const VersionQuality& v1 = it->second.at(1);
      EXPECT_EQ(v1.correct, v1.served)
          << "seed=" << seed << ": incumbent answered incorrectly — canary "
          << "traffic was misattributed";
      if (it->second.count(2)) {
        EXPECT_EQ(it->second.at(2).served, s.canary_served)
            << "seed=" << seed;
      }
      *out = s;
    };

    // Deterministic accounting: the whole ServeStats — canary counters,
    // per-version served/quality maps, latency percentiles — replays
    // bit-identically for the same seed.
    ServeStats first, second;
    run_once(&first);
    run_once(&second);
    EXPECT_EQ(first, second) << "seed=" << seed
                             << ": canary accounting not deterministic";
  }
}

TEST(ModelLifecycleTest, CleanCanaryPromotesAfterStreak) {
  const auto tuples = MakeSeparableTuples(96, 8, 5);
  ModelStore store;
  const std::string id = store.Put(MakeWeightModel(8, 2.0));
  CanaryPolicy policy = BreachPolicy(33);
  policy.promote_after_batches = 4;
  // The candidate is the incumbent's twin: identical loss on every batch,
  // so no breach is possible and the streak decides.
  ASSERT_TRUE(store.StageCanary(id, MakeWeightModel(8, 2.0), policy).ok());

  WorkloadOptions w;
  w.num_requests = 400;
  w.offered_load_rps = 4000;
  w.seed = 33;
  auto result =
      RunGeneratedWorkload(&store, id, tuples, CanaryServeOptions(), w);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failed, 0u);

  const ServeStats& s = result->stats;
  EXPECT_EQ(s.canary_promotions, 1u);
  EXPECT_EQ(s.canary_rollbacks, 0u);
  EXPECT_EQ(s.canary_breaches, 0u);
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 2u);
  EXPECT_FALSE(store.GetCanary(id).has_value());
  // Both versions actually served traffic (canary split, then promotion).
  EXPECT_EQ(result->versions_seen, 2u);
  const auto events = store.Events(id).ValueOrDie();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back(), (LifecycleEvent{LifecycleAction::kPromoted, 2}));
}

TEST(ModelLifecycleTest, ServeCanaryOffIgnoresStagedCandidate) {
  const auto tuples = MakeSeparableTuples(96, 8, 5);
  ModelStore store;
  const std::string id = store.Put(MakeWeightModel(8, 2.0));
  ASSERT_TRUE(
      store.StageCanary(id, MakeWeightModel(8, -2.0), BreachPolicy(9)).ok());

  ServeOptions opts = CanaryServeOptions();
  opts.serve_canary = false;
  WorkloadOptions w;
  w.num_requests = 200;
  w.offered_load_rps = 4000;
  w.seed = 9;
  auto result = RunGeneratedWorkload(&store, id, tuples, opts, w);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->stats.canary_batches, 0u);
  EXPECT_EQ(result->versions_seen, 1u);
  // The candidate stays staged, untouched, for an engine that does serve
  // canaries (or an external controller).
  EXPECT_TRUE(store.GetCanary(id).has_value());
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 1u);
}

// --- Width guard: the gate and the canary compare equal-width models -----

// susy (18 features) and higgs (28) side by side, so one alias can be
// trained on tables of different widths.
struct TwoWidthDb {
  std::string dir;
  Database db;

  explicit TwoWidthDb(const std::string& name)
      : dir(MakeTempDir(name)), db(dir, DeviceProfile::Ssd()) {
    for (const char* table : {"susy", "higgs"}) {
      auto spec = CatalogLookup(table, 0.01).ValueOrDie();
      Dataset ds = GenerateDataset(spec, DataOrder::kShuffled);
      EXPECT_TRUE(db.RegisterDataset(table, ds).ok());
    }
  }

  Result<std::string> Train(const std::string& table,
                            const std::string& params) {
    return db.Execute("SELECT * FROM " + table +
                      " TRAIN BY lr WITH max_epoch_num=1, block_size=16KB, " +
                      params);
  }
};

TEST(ModelLifecycleTest, ValidateAgainstIncumbentOfOtherWidthIsRejected) {
  TwoWidthDb f("lifecycle_width_validate");
  ASSERT_TRUE(f.Train("susy", "publish=m").ok());
  const std::vector<double> incumbent =
      f.db.models().Get("m").ValueOrDie()->params();
  ASSERT_EQ(incumbent.size(), 19u);  // 18 weights + bias

  auto rejected = f.Train("higgs", "publish=m, validate=true");
  ASSERT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find("28"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find("18"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(f.db.models().GetVersion("m").ValueOrDie(), 1u);
  EXPECT_EQ(f.db.models().Get("m").ValueOrDie()->params(), incumbent);
  EXPECT_FALSE(f.db.models().GetCanary("m").has_value());

  // A plain hot-swap makes no comparison and may change the width.
  ASSERT_TRUE(f.Train("higgs", "publish=m").ok());
  EXPECT_EQ(f.db.models().GetVersion("m").ValueOrDie(), 2u);
  EXPECT_EQ(f.db.models().Get("m").ValueOrDie()->input_dim(), 28u);
}

TEST(ModelLifecycleTest, CanaryAgainstIncumbentOfOtherWidthIsRejected) {
  TwoWidthDb f("lifecycle_width_canary");
  ASSERT_TRUE(f.Train("higgs", "publish=m").ok());
  const std::vector<double> incumbent =
      f.db.models().Get("m").ValueOrDie()->params();

  auto rejected = f.Train("susy", "publish=m, canary_fraction=0.5");
  ASSERT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_EQ(f.db.models().GetVersion("m").ValueOrDie(), 1u);
  EXPECT_EQ(f.db.models().Get("m").ValueOrDie()->params(), incumbent);
  EXPECT_FALSE(f.db.models().GetCanary("m").has_value());

  // Nothing staged, so PREDICT on the incumbent's table serves v1 only.
  auto predicted = f.db.Predict(PredictStatement{"higgs", "m"});
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_EQ(predicted->serve.canary_batches, 0u);
  EXPECT_EQ(predicted->serve.failed, 0u);
}

TEST(ModelLifecycleTest, StageCanaryRejectsOtherWidth) {
  ModelStore store;
  const std::string id = store.Put(MakeWeightModel(8, 2.0));
  auto staged =
      store.StageCanary(id, MakeWeightModel(12, 2.0), BreachPolicy(1));
  EXPECT_TRUE(staged.status().IsInvalidArgument())
      << staged.status().ToString();
  EXPECT_FALSE(store.GetCanary(id).has_value());
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 1u);
  EXPECT_EQ(store.Events(id).ValueOrDie().size(), 1u);

  // Equal widths stage as before, and the rejected stage burned no version.
  auto same = store.StageCanary(id, MakeWeightModel(8, 1.0), BreachPolicy(1));
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(*same, 2u);
}

// --- DriftMonitor ---------------------------------------------------------

TEST(DriftMonitorTest, MeanShiftFiresOncePerWindowAndRebaselines) {
  DriftMonitorOptions opts;
  opts.window = 16;
  opts.threshold = 3.0;
  DriftMonitor monitor(opts);

  Rng rng(17);
  auto feed_window = [&](double shift) {
    bool fired = false;
    for (uint32_t i = 0; i < opts.window; ++i) {
      fired = monitor.Observe(shift + rng.NextGaussian()) || fired;
    }
    return fired;
  };

  // Window 1 becomes the reference; window 2 (same distribution) is clean.
  EXPECT_FALSE(feed_window(0.0));
  ASSERT_TRUE(monitor.has_reference());
  EXPECT_NEAR(monitor.reference_mean(), 0.0, 1.0);
  EXPECT_FALSE(feed_window(0.0));
  EXPECT_EQ(monitor.drift_events(), 0u);

  // A 10-sigma mean shift fires exactly when its window completes.
  EXPECT_TRUE(feed_window(10.0));
  EXPECT_EQ(monitor.drift_events(), 1u);

  // After Rebaseline() the shifted distribution becomes the new normal.
  monitor.Rebaseline();
  EXPECT_FALSE(monitor.has_reference());
  EXPECT_FALSE(feed_window(10.0));  // new reference
  EXPECT_FALSE(feed_window(10.0));  // clean under the new reference
  EXPECT_EQ(monitor.drift_events(), 1u);
  EXPECT_EQ(monitor.windows(), 5u);
}

TEST(DriftMonitorTest, SignalAndDeterminism) {
  EXPECT_DOUBLE_EQ(TupleDriftSignal(MakeDenseTuple(0, 1.0, {2.0f, 4.0f})),
                   4.0);  // label + mean feature

  // Pure fold: two monitors over the same stream agree observation for
  // observation (this is what makes retrain points replayable).
  DriftMonitorOptions opts;
  opts.window = 8;
  DriftMonitor a(opts), b(opts);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.NextGaussian() + (i >= 50 ? 6.0 : 0.0);
    EXPECT_EQ(a.Observe(v), b.Observe(v)) << "at observation " << i;
  }
  EXPECT_EQ(a.drift_events(), b.drift_events());
  EXPECT_GE(a.drift_events(), 1u);
}

// --- Flagship (d): drift-triggered retrain under live load ----------------

TEST(ModelLifecycleTest, DriftTriggeredRetrainUnderLiveLoad) {
  const std::string dir = MakeTempDir("lifecycle_drift");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  // v1: the incumbent the live traffic starts on.
  TrainStatement train;
  train.table_name = "susy";
  train.model_kind = "lr";
  train.params = Params::Parse(
                     "learning_rate=0.005, max_epoch_num=2, block_size=16KB, "
                     "publish=m")
                     .ValueOrDie();
  ASSERT_TRUE(db.Train(train).ok());
  ASSERT_EQ(db.models().GetVersion("m").ValueOrDie(), 1u);

  // The controller replays this gated statement on each drift event.
  ContinualOptions copts;
  copts.table = "susy";
  copts.retrain = train;
  copts.retrain.params.Set("validate", "true");
  copts.retrain.params.Set("validate_min_metric", "0.5");
  copts.drift.window = 64;
  copts.drift.threshold = 3.0;
  ContinualController controller(&db, copts);

  // Live serving: flush_on_idle so every awaited future resolves promptly
  // while the ingest/retrain loop runs between submissions.
  ServeOptions serve;
  serve.max_batch = 8;
  serve.num_workers = 2;
  serve.max_queue_depth = 0;
  InferenceEngine engine(&db.models(), serve);
  ASSERT_TRUE(engine.Start().ok());

  const std::vector<Tuple>& pool = *ds.train;
  std::vector<std::future<ServeReply>> replies;
  uint64_t next_arrival = 0;
  auto submit = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      ServeRequest req;
      req.tuple = pool[next_arrival % pool.size()];
      req.model_id = "m";
      req.arrival_s = 1e-3 * static_cast<double>(next_arrival++);
      replies.push_back(engine.Submit(std::move(req)));
    }
  };

  // Phase 1: baseline traffic + baseline ingest (fills the reference
  // window; no drift, no retrain).
  submit(40);
  const ServeReply first_reply = replies.front().get();
  ASSERT_TRUE(first_reply.status.ok());  // v1 definitely served
  EXPECT_EQ(first_reply.model_version, 1u);
  Rng rng(23);
  auto ingest_chunk = [&](double shift, uint64_t n) {
    std::vector<Tuple> chunk;
    chunk.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Tuple t = pool[rng.Next64() % pool.size()];
      t.id = 1'000'000 + controller.ingested() + i;
      for (float& v : t.feature_values) v += static_cast<float>(shift);
      chunk.push_back(std::move(t));
    }
    auto retrained = controller.Ingest(chunk);
    ASSERT_TRUE(retrained.ok()) << retrained.status().ToString();
  };
  ingest_chunk(0.0, 64);  // reference window
  ingest_chunk(0.0, 64);  // clean window
  EXPECT_EQ(controller.retrains(), 0u);

  // Phase 2: the stream shifts; the completed drifted window triggers one
  // gated retrain through the full storage → shuffle → train → publish
  // loop while requests keep flowing.
  submit(40);
  ingest_chunk(8.0, 64);
  EXPECT_EQ(controller.retrains(), 1u);
  EXPECT_EQ(controller.last_result().lifecycle_state, "published");
  EXPECT_TRUE(controller.last_result().validated);
  EXPECT_EQ(db.models().GetVersion("m").ValueOrDie(), 2u);

  // Phase 3: traffic lands on the retrained version; nothing ever failed.
  submit(40);
  ASSERT_TRUE(engine.Drain().ok());

  std::set<uint64_t> versions = {first_reply.model_version};
  for (size_t i = 1; i < replies.size(); ++i) {  // front already consumed
    ServeReply r = replies[i].get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    if (r.status.ok()) versions.insert(r.model_version);
  }
  EXPECT_EQ(replies.size(), 120u);
  EXPECT_EQ(versions, (std::set<uint64_t>{1, 2}))
      << "expected traffic on both the incumbent and the retrained version";
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 120u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace corgipile
