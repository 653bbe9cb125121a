// Worker-supervision suite for TrainDistributed: seeded fault injection
// kills or slows individual workers and the WorkerFailurePolicy decides
// whether the run fails fast, evicts-and-rescales, or waits — with
// bit-identical outcomes across reruns of the same seed.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dataloader/distributed.h"
#include "dataloader/record_file.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "iosim/device.h"
#include "iosim/sim_clock.h"
#include "ml/linear_models.h"
#include "util/status.h"

#include "media_faults.h"

namespace corgipile {
namespace {

/// Stamps every failure message of the enclosing scope with the scenario
/// (the test name) and the fault seed, so a red run reproduces with
/// `--gtest_filter=<scenario>` and the printed seed (DESIGN.md §12).
#define FAULT_SCENARIO_TRACE(seed_expr)                                      \
  SCOPED_TRACE(::std::string("scenario=") +                                  \
               ::testing::UnitTest::GetInstance()->current_test_info()->name() + \
               " seed=" + ::std::to_string(seed_expr))

// Record-file-backed fixture. shuffle_blocks is disabled in the returned
// options so each worker's block shard is identical every epoch — a faulty
// or slow block then belongs to exactly one worker for the whole run, which
// keeps "how many workers die" independent of the epoch count.
struct DistFaultFixture {
  Dataset ds;
  std::string path;
  std::unique_ptr<RecordFileBlockSource> source;

  explicit DistFaultFixture(const std::string& tag) {
    auto spec = CatalogLookup("susy", 0.05);
    ds = GenerateDataset(*spec, DataOrder::kClustered);
    path = testing::TempDir() + tag + ".bin";
    auto src = MaterializeRecordFile(ds.MakeSchema(), *ds.train, path,
                                     /*block_bytes=*/2048);
    EXPECT_TRUE(src.ok());
    source = std::move(*src);
  }

  ~DistFaultFixture() {
    std::remove(path.c_str());
    std::remove((path + ".idx").c_str());
  }

  DistributedTrainerOptions Options() const {
    DistributedTrainerOptions opts;
    opts.num_workers = 4;
    opts.global_batch_size = 64;
    opts.epochs = 3;
    opts.lr.initial = 0.01;
    opts.test_set = ds.test.get();
    opts.label_type = ds.MakeSchema().label_type;
    opts.shuffle_blocks = false;  // stable shards; see fixture comment
    return opts;
  }

  Result<TrainResult> Run(const DistributedTrainerOptions& opts,
                          LogisticRegression* model_out = nullptr) {
    LogisticRegression local(ds.spec.dim);
    LogisticRegression* model = model_out != nullptr ? model_out : &local;
    return TrainDistributed(model, source.get(), opts);
  }
};

// Sparse permanent read errors: a couple of blocks (and therefore a couple
// of workers) are unreadable, the rest are healthy. Seed/rate chosen so
// that at least one but not every worker is hit.
constexpr uint64_t kKillerSeed = 31;
std::vector<ChaosRule> KillerFaults() {
  return {MediaRule(kRecordRead, ChaosAction::kReadError, 0.02, 0)};
}

TEST(DistributedFaultTest, FailFastSurfacesWorkerError) {
  DistFaultFixture f("dist_failfast");
  FAULT_SCENARIO_TRACE(kKillerSeed);
  ScopedMediaFaults faults(kKillerSeed, KillerFaults());

  auto result = f.Run(f.Options());  // default policy: kFailFast
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
  // The error is annotated with the failing worker's id.
  EXPECT_NE(result.status().message().find("worker"), std::string::npos)
      << result.status().ToString();
}

TEST(DistributedFaultTest, DropAndRescaleCompletesAndRecordsEviction) {
  DistFaultFixture f("dist_drop");
  FAULT_SCENARIO_TRACE(kKillerSeed);
  ScopedMediaFaults faults(kKillerSeed, KillerFaults());

  DistributedTrainerOptions opts = f.Options();
  opts.failure_policy = WorkerFailurePolicy::kDropAndRescale;
  auto result = f.Run(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Some but not all workers were evicted, each with the I/O error that
  // killed it.
  ASSERT_GE(result->dropped_workers.size(), 1u);
  ASSERT_LT(result->dropped_workers.size(), opts.num_workers);
  for (const DroppedWorker& d : result->dropped_workers) {
    EXPECT_EQ(d.code, StatusCode::kIoError);
    EXPECT_FALSE(d.reason.empty());
  }

  // Training ran to completion on the survivors.
  ASSERT_EQ(result->epochs.size(), opts.epochs);
  const uint32_t survivors =
      opts.num_workers - static_cast<uint32_t>(result->dropped_workers.size());
  EXPECT_EQ(result->epochs.back().active_workers, survivors);
  // The dropped shard's tuples are gone from later epochs.
  EXPECT_LT(result->epochs.back().tuples_seen, f.ds.train->size());
  EXPECT_GT(result->epochs.back().tuples_seen, 0u);

  // Per-worker summaries agree with the eviction list.
  ASSERT_EQ(result->workers.size(), opts.num_workers);
  uint32_t dropped_flags = 0;
  for (const WorkerSummary& ws : result->workers) {
    dropped_flags += ws.dropped ? 1 : 0;
    if (!ws.dropped) {
      EXPECT_GT(ws.heartbeat_steps, 0u);
    }
  }
  EXPECT_EQ(dropped_flags, result->dropped_workers.size());
}

TEST(DistributedFaultTest, DropAndRescaleIsBitIdenticalAcrossReruns) {
  DistFaultFixture f("dist_det");
  FAULT_SCENARIO_TRACE(kKillerSeed);
  DistributedTrainerOptions opts = f.Options();
  opts.failure_policy = WorkerFailurePolicy::kDropAndRescale;

  LogisticRegression m1(f.ds.spec.dim);
  std::optional<TrainResult> r1;
  {
    ScopedMediaFaults faults(kKillerSeed, KillerFaults());
    auto run = f.Run(opts, &m1);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    r1 = std::move(*run);
  }

  // Fresh arming, same seed: the rerun must match bit for bit.
  ScopedMediaFaults faults(kKillerSeed, KillerFaults());
  LogisticRegression m2(f.ds.spec.dim);
  auto r2 = f.Run(opts, &m2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  ASSERT_EQ(m1.params().size(), m2.params().size());
  for (size_t i = 0; i < m1.params().size(); ++i) {
    ASSERT_DOUBLE_EQ(m1.params()[i], m2.params()[i]) << "param " << i;
  }
  ASSERT_EQ(r1->dropped_workers.size(), r2->dropped_workers.size());
  for (size_t i = 0; i < r1->dropped_workers.size(); ++i) {
    EXPECT_EQ(r1->dropped_workers[i].worker_id,
              r2->dropped_workers[i].worker_id);
    EXPECT_EQ(r1->dropped_workers[i].epoch, r2->dropped_workers[i].epoch);
    EXPECT_EQ(r1->dropped_workers[i].code, r2->dropped_workers[i].code);
  }
  ASSERT_EQ(r1->workers.size(), r2->workers.size());
  for (size_t w = 0; w < r1->workers.size(); ++w) {
    EXPECT_EQ(r1->workers[w].heartbeat_steps, r2->workers[w].heartbeat_steps);
    EXPECT_DOUBLE_EQ(r1->workers[w].sim_seconds, r2->workers[w].sim_seconds);
  }
}

// Latency spikes big enough that one spiked block read blows the per-epoch
// straggler budget; workers with spike-free shards stay far under it.
constexpr uint64_t kStragglerSeed = 17;
constexpr double kSpikeSeconds = 25.0;
std::vector<ChaosRule> StragglerFaults() {
  return {MediaRule(kRecordRead, ChaosAction::kLatencySpike, 0.02, 1,
                    kSpikeSeconds)};
}

TEST(DistributedFaultTest, StragglerIsEvictedUnderDropPolicy) {
  DistFaultFixture f("dist_straggler_drop");
  FAULT_SCENARIO_TRACE(kStragglerSeed);
  ScopedMediaFaults faults(kStragglerSeed, StragglerFaults());
  SimClock clock;
  IoStats io;
  f.source->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);

  DistributedTrainerOptions opts = f.Options();
  opts.clock = &clock;
  opts.failure_policy = WorkerFailurePolicy::kDropAndRescale;
  opts.straggler_deadline_sim_seconds = 5.0;
  auto result = f.Run(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_GE(result->dropped_workers.size(), 1u);
  ASSERT_LT(result->dropped_workers.size(), opts.num_workers);
  for (const DroppedWorker& d : result->dropped_workers) {
    EXPECT_EQ(d.code, StatusCode::kDeadlineExceeded) << d.reason;
  }
  ASSERT_EQ(result->epochs.size(), opts.epochs);
  // Once the spiked shards are evicted the barrier is bounded by the
  // deadline: no surviving worker waits on a 25 s spike again.
  EXPECT_LE(result->epochs.back().barrier_sim_seconds,
            opts.straggler_deadline_sim_seconds);
}

TEST(DistributedFaultTest, WaitPolicyToleratesStragglers) {
  DistFaultFixture f("dist_straggler_wait");
  FAULT_SCENARIO_TRACE(kStragglerSeed);
  ScopedMediaFaults faults(kStragglerSeed, StragglerFaults());
  SimClock clock;
  IoStats io;
  f.source->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);

  DistributedTrainerOptions opts = f.Options();
  opts.clock = &clock;
  opts.failure_policy = WorkerFailurePolicy::kWait;
  opts.straggler_deadline_sim_seconds = 5.0;
  auto result = f.Run(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Nobody evicted; every epoch sees the full worker set and the full data.
  EXPECT_TRUE(result->dropped_workers.empty());
  ASSERT_EQ(result->epochs.size(), opts.epochs);
  for (const EpochLog& log : result->epochs) {
    EXPECT_EQ(log.active_workers, opts.num_workers);
    EXPECT_EQ(log.tuples_seen, f.ds.train->size());
  }
  // The cost shows up as barrier wait instead: the epoch critical path
  // includes the spike, and the other workers' idle time is charged to
  // kStragglerWait.
  EXPECT_GE(result->epochs.front().barrier_sim_seconds, kSpikeSeconds);
  EXPECT_GT(clock.Elapsed(TimeCategory::kStragglerWait), 0.0);
}

TEST(DistributedFaultTest, FailFastWithDeadlineReturnsDeadlineExceeded) {
  DistFaultFixture f("dist_straggler_ff");
  FAULT_SCENARIO_TRACE(kStragglerSeed);
  ScopedMediaFaults faults(kStragglerSeed, StragglerFaults());
  SimClock clock;
  IoStats io;
  f.source->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);

  DistributedTrainerOptions opts = f.Options();
  opts.clock = &clock;
  opts.straggler_deadline_sim_seconds = 5.0;  // policy stays kFailFast
  auto result = f.Run(opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(DistributedFaultTest, HardErrorFailsFastUnderWaitPolicy) {
  DistFaultFixture f("dist_wait_hard");
  FAULT_SCENARIO_TRACE(kKillerSeed);
  ScopedMediaFaults faults(kKillerSeed, KillerFaults());

  DistributedTrainerOptions opts = f.Options();
  opts.failure_policy = WorkerFailurePolicy::kWait;
  auto result = f.Run(opts);
  // An unreadable shard cannot be waited out.
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
}

TEST(DistributedFaultTest, RunDeadlineBoundsTheWholeRun) {
  DistFaultFixture f("dist_run_deadline");
  SimClock clock;
  IoStats io;
  f.source->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);

  DistributedTrainerOptions opts = f.Options();
  opts.epochs = 50;
  opts.clock = &clock;
  opts.run_deadline_sim_seconds = 1e-6;  // expires once any sim time accrues
  auto result = f.Run(opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(DistributedFaultTest, SupervisionOffMatchesLegacyBehaviour) {
  // With no faults, a supervised run (drop policy, no deadline) must be
  // bit-identical to the unsupervised default — supervision only changes
  // outcomes when something actually fails.
  DistFaultFixture f("dist_clean");
  LogisticRegression m1(f.ds.spec.dim);
  auto r1 = f.Run(f.Options(), &m1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  DistributedTrainerOptions opts = f.Options();
  opts.failure_policy = WorkerFailurePolicy::kDropAndRescale;
  LogisticRegression m2(f.ds.spec.dim);
  auto r2 = f.Run(opts, &m2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  EXPECT_TRUE(r1->dropped_workers.empty());
  EXPECT_TRUE(r2->dropped_workers.empty());
  ASSERT_EQ(m1.params().size(), m2.params().size());
  for (size_t i = 0; i < m1.params().size(); ++i) {
    ASSERT_DOUBLE_EQ(m1.params()[i], m2.params()[i]) << "param " << i;
  }
}

}  // namespace
}  // namespace corgipile
