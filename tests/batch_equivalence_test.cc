// Golden equivalence suite for the batched execution pipeline (DESIGN.md
// §9): at every transport batch size the pipeline must emit the same
// tuples in the same order, and produce bit-identical training results, as
// the batch-of-one reference (exec_batch_tuples = 1) — for every shuffle
// strategy, seed, and transport batch size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "db/block_shuffle_op.h"
#include "db/database.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "exec/tuple_batch.h"
#include "ml/linear_models.h"
#include "ml/trainer.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "storage/sharded_table.h"

#include "drain.h"
#include "media_faults.h"

namespace corgipile {
namespace {

// Mixed-width toy data so the batched arena exercises both the uniform
// dense fast path (dense=true) and ragged sparse spans (dense=false).
std::shared_ptr<std::vector<Tuple>> ToyData(size_t n, bool dense) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    const double label = i < n / 2 ? -1.0 : 1.0;
    if (dense) {
      tuples->push_back(MakeDenseTuple(
          i, label,
          {static_cast<float>(i) * 0.01f, 1.0f - static_cast<float>(i % 7)}));
    } else {
      std::vector<uint32_t> keys{static_cast<uint32_t>(i % 5),
                                 5 + static_cast<uint32_t>(i % 3)};
      tuples->push_back(MakeSparseTuple(
          i, label, std::move(keys),
          {static_cast<float>(i % 11) * 0.1f, 0.5f}));
    }
  }
  return tuples;
}

Schema ToySchema(bool dense) {
  return Schema{"toy", dense ? 2u : 8u, !dense, LabelType::kBinary, 2};
}

constexpr ShuffleStrategy kAllStrategies[] = {
    ShuffleStrategy::kNoShuffle,     ShuffleStrategy::kShuffleOnce,
    ShuffleStrategy::kEpochShuffle,  ShuffleStrategy::kSlidingWindow,
    ShuffleStrategy::kMrs,           ShuffleStrategy::kBlockOnly,
    ShuffleStrategy::kCorgiPile};

class BatchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ShuffleStrategy, uint64_t>> {
};

// The concatenation of NextBatch batches equals the batch-of-one emission
// order exactly — tuples, labels, features, everything — at several
// transport batch sizes, across epochs, for dense and sparse data.
TEST_P(BatchEquivalenceTest, BatchedOrderMatchesBatchOfOne) {
  const ShuffleStrategy strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  for (bool dense : {true, false}) {
    const size_t n = 500;
    auto tuples = ToyData(n, dense);
    InMemoryBlockSource src(ToySchema(dense), tuples, 37);
    ShuffleOptions opts;
    opts.buffer_fraction = 0.1;
    opts.seed = seed;

    // Separate stream instances, one per transport batch size. Same
    // (strategy, seed) → same sequence.
    auto ref = MakeTupleStream(strategy, &src, opts);
    ASSERT_TRUE(ref.ok());
    std::vector<std::vector<Tuple>> expected;
    for (uint64_t epoch = 0; epoch < 2; ++epoch) {
      expected.push_back(DrainEpoch(ref->get(), epoch, /*batch_tuples=*/1));
      ASSERT_FALSE(expected.back().empty());
    }

    for (size_t batch_tuples : {size_t{1}, size_t{7}, size_t{64}, n}) {
      auto stream = MakeTupleStream(strategy, &src, opts);
      ASSERT_TRUE(stream.ok());
      for (uint64_t epoch = 0; epoch < 2; ++epoch) {
        const auto got = DrainEpoch(stream->get(), epoch, batch_tuples);
        ASSERT_EQ(got.size(), expected[epoch].size())
            << (*stream)->name() << " batch=" << batch_tuples
            << " dense=" << dense;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected[epoch][i])
              << (*stream)->name() << " batch=" << batch_tuples
              << " dense=" << dense << " pos=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesThreeSeeds, BatchEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::Values(1u, 42u, 20260805u)),
    [](const auto& info) {
      return std::string(ShuffleStrategyToString(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// --- Training bit-identity -----------------------------------------------

Result<TrainResult> TrainToy(ShuffleStrategy strategy, uint64_t seed,
                             uint32_t exec_batch_tuples, uint32_t batch_size,
                             OptimizerKind optimizer, BlockSource* src) {
  ShuffleOptions sopts;
  sopts.buffer_fraction = 0.1;
  sopts.seed = seed;
  auto stream = MakeTupleStream(strategy, src, sopts);
  if (!stream.ok()) return stream.status();
  LogisticRegression model(2, /*l2_reg=*/1e-4);
  TrainerOptions topts;
  topts.epochs = 3;
  topts.lr.initial = 0.05;
  topts.batch_size = batch_size;
  topts.optimizer = optimizer;
  topts.exec_batch_tuples = exec_batch_tuples;
  CORGI_ASSIGN_OR_RETURN(TrainResult result,
                         Train(&model, stream->get(), topts));
  return result;
}

// Epoch losses are compared bit-for-bit (EXPECT_EQ on doubles, not NEAR):
// the transport batch size must not change a single floating-point op.
TEST(TrainBatchEquivalenceTest, EpochLossesBitIdenticalAcrossBatchSizes) {
  auto tuples = ToyData(700, /*dense=*/true);
  InMemoryBlockSource src(ToySchema(true), tuples, 41);
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kCorgiPile, ShuffleStrategy::kSlidingWindow}) {
    auto reference = TrainToy(strategy, 42, /*exec=*/1, /*batch=*/1,
                           OptimizerKind::kSgd, &src);
    ASSERT_TRUE(reference.ok());
    for (uint32_t exec : {1u, 7u, 256u}) {
      auto batched = TrainToy(strategy, 42, exec, /*batch=*/1,
                              OptimizerKind::kSgd, &src);
      ASSERT_TRUE(batched.ok());
      ASSERT_EQ(batched->epochs.size(), reference->epochs.size());
      for (size_t e = 0; e < reference->epochs.size(); ++e) {
        EXPECT_EQ(batched->epochs[e].train_loss,
                  reference->epochs[e].train_loss)
            << ShuffleStrategyToString(strategy) << " exec=" << exec
            << " epoch=" << e;
        EXPECT_EQ(batched->epochs[e].tuples_seen,
                  reference->epochs[e].tuples_seen);
      }
    }
  }
}

// The mini-batch optimizer path: flush cadence must survive re-chunking
// across transport batch boundaries (incl. batch_size not dividing the
// transport size).
TEST(TrainBatchEquivalenceTest, MiniBatchAdamBitIdentical) {
  auto tuples = ToyData(500, /*dense=*/true);
  InMemoryBlockSource src(ToySchema(true), tuples, 41);
  auto reference = TrainToy(ShuffleStrategy::kCorgiPile, 7, /*exec=*/1,
                         /*batch=*/32, OptimizerKind::kAdam, &src);
  ASSERT_TRUE(reference.ok());
  for (uint32_t exec : {24u, 256u}) {
    auto batched = TrainToy(ShuffleStrategy::kCorgiPile, 7, exec,
                            /*batch=*/32, OptimizerKind::kAdam, &src);
    ASSERT_TRUE(batched.ok());
    for (size_t e = 0; e < reference->epochs.size(); ++e) {
      EXPECT_EQ(batched->epochs[e].train_loss, reference->epochs[e].train_loss)
          << "exec=" << exec << " epoch=" << e;
    }
  }
}

// Final model parameters must also be bit-identical, and sparse data must
// go through the sparse arena spans.
TEST(TrainBatchEquivalenceTest, FinalParamsBitIdenticalSparse) {
  auto tuples = ToyData(400, /*dense=*/false);
  InMemoryBlockSource src(ToySchema(false), tuples, 29);
  std::vector<std::vector<double>> params;
  for (uint32_t exec : {1u, 7u, 64u}) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.seed = 13;
    auto stream = MakeTupleStream(ShuffleStrategy::kCorgiPile, &src, sopts);
    ASSERT_TRUE(stream.ok());
    LogisticRegression model(8, /*l2_reg=*/1e-3);
    TrainerOptions topts;
    topts.epochs = 3;
    topts.lr.initial = 0.05;
    topts.exec_batch_tuples = exec;
    ASSERT_TRUE(Train(&model, stream->get(), topts).ok());
    params.push_back(model.params());
  }
  EXPECT_EQ(params[1], params[0]);
  EXPECT_EQ(params[2], params[0]);
}

// Quarantine accounting: a wide transport batch must count the same
// quarantined blocks and skipped tuples — and produce the same losses on
// the surviving data — as the batch-of-one reference.
TEST(TrainBatchEquivalenceTest, QuarantineCountsMatch) {
  auto spec = CatalogLookup("susy", 0.05);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto table = MaterializeTrainTable(
      ds, testing::TempDir() + "batch_equiv_quarantine.tbl", 2048);
  ASSERT_TRUE(table.ok());
  ScopedMediaFaults faults(
      1234, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 0.01)});
  TableBlockSource source(table->get(), 4 * 2048);

  auto run = [&](uint32_t exec) -> Result<TrainResult> {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.tolerance.quarantine_corrupt_blocks = true;
    sopts.tolerance.max_bad_block_fraction = 0.10;
    auto stream =
        MakeTupleStream(ShuffleStrategy::kCorgiPile, &source, sopts);
    if (!stream.ok()) return stream.status();
    LogisticRegression model(ds.spec.dim);
    TrainerOptions topts;
    topts.epochs = 3;
    topts.lr.initial = 0.005;
    topts.exec_batch_tuples = exec;
    return Train(&model, stream->get(), topts);
  };

  auto reference = run(1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GE(reference->total_quarantined_blocks, 1u);
  auto batched = run(128);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched->total_quarantined_blocks,
            reference->total_quarantined_blocks);
  EXPECT_EQ(batched->total_skipped_tuples, reference->total_skipped_tuples);
  ASSERT_EQ(batched->epochs.size(), reference->epochs.size());
  for (size_t e = 0; e < reference->epochs.size(); ++e) {
    EXPECT_EQ(batched->epochs[e].quarantined_blocks,
              reference->epochs[e].quarantined_blocks);
    EXPECT_EQ(batched->epochs[e].skipped_tuples,
              reference->epochs[e].skipped_tuples);
    EXPECT_EQ(batched->epochs[e].train_loss, reference->epochs[e].train_loss);
  }
}

// The db operator pipeline (BlockShuffle → TupleShuffle → SgdOp): every
// transport batch size through the operators is bit-identical to the
// single-buffered batch-of-one reference, including through the
// index-permutation staging shuffle and with double buffering.
TEST(SgdOpBatchEquivalenceTest, PipelineBitIdentical) {
  auto spec = CatalogLookup("susy", 0.05);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto table = MaterializeTrainTable(
      ds, testing::TempDir() + "batch_equiv_sgdop.tbl", 2048);
  ASSERT_TRUE(table.ok());

  auto run = [&](uint32_t exec, bool double_buffer,
                 std::vector<double>* params_out) {
    BlockShuffleOp::Options bopts;
    bopts.block_size_bytes = 8 * 2048;
    BlockShuffleOp block_op(table->get(), bopts);
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = ds.train->size() / 10;
    topts.double_buffer = double_buffer;
    TupleShuffleOp tuple_op(&block_op, topts);
    LogisticRegression model(ds.spec.dim);
    SgdOp::Options sopts;
    sopts.max_epochs = 4;
    sopts.lr.initial = 0.005;
    sopts.exec_batch_tuples = exec;
    SgdOp sgd(&model, &tuple_op, sopts);
    EXPECT_TRUE(sgd.Init().ok());
    auto logs = sgd.RunToCompletion();
    EXPECT_TRUE(logs.ok());
    sgd.Close();
    *params_out = model.params();
    return logs.ok() ? *logs : std::vector<EpochLog>{};
  };

  std::vector<double> reference_params;
  const auto reference = run(1, /*double_buffer=*/false, &reference_params);
  ASSERT_EQ(reference.size(), 4u);
  for (uint32_t exec : {1u, 64u}) {
    for (bool dbuf : {false, true}) {
      std::vector<double> params;
      const auto got = run(exec, dbuf, &params);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t e = 0; e < reference.size(); ++e) {
        EXPECT_EQ(got[e].train_loss, reference[e].train_loss)
            << "exec=" << exec << " dbuf=" << dbuf << " epoch=" << e;
        EXPECT_EQ(got[e].tuples_seen, reference[e].tuples_seen);
      }
      EXPECT_EQ(params, reference_params)
          << "exec=" << exec << " dbuf=" << dbuf;
    }
  }
}

// FNV-1a over the eight bytes of `v`, folded into `h`.
uint64_t HashU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

// The TRAIN BY pipeline over `table`: BlockShuffle → TupleShuffle with
// blocks ordered from `seed` and buffers shuffled from the buffer seed
// `seed ^ 0x7F`, exactly as Database::Train composes them. Returns a hash
// of the ids emitted over `epochs` epochs and a hash of the params bits of
// an SgdOp run of the same length.
struct TrainByHashes {
  uint64_t ids = 0xCBF29CE484222325ull;
  uint64_t params = 0xCBF29CE484222325ull;
};

TrainByHashes HashTrainBy(const ShardedTable& table, const Dataset& ds,
                          uint64_t seed, bool double_buffer,
                          uint32_t epochs) {
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 8 * table.options().page_size;
  bopts.seed = seed;
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = ds.train->size() / 10;
  topts.double_buffer = double_buffer;
  topts.seed = seed ^ 0x7F;

  TrainByHashes out;
  std::vector<uint64_t> last_epoch;
  {
    BlockShuffleOp block_op(table.Snapshot(), bopts);
    TupleShuffleOp tuple_op(&block_op, topts);
    EXPECT_TRUE(tuple_op.Init().ok());
    for (uint32_t e = 0; e < epochs; ++e) {
      if (e > 0) {
        EXPECT_TRUE(tuple_op.ReScan().ok());
      }
      last_epoch = Ids(DrainRest(&tuple_op));
      EXPECT_TRUE(tuple_op.status().ok());
      EXPECT_EQ(last_epoch.size(), ds.train->size());
      for (uint64_t id : last_epoch) out.ids = HashU64(out.ids, id);
    }
    tuple_op.Close();
  }
  {
    // A resumed pipeline jumps straight to the last epoch's order.
    BlockShuffleOp block_op(table.Snapshot(), bopts);
    TupleShuffleOp tuple_op(&block_op, topts);
    EXPECT_TRUE(tuple_op.Init().ok());
    EXPECT_TRUE(tuple_op.SkipEpochs(epochs - 1).ok());
    EXPECT_EQ(Ids(DrainRest(&tuple_op)), last_epoch);
    tuple_op.Close();
  }
  BlockShuffleOp block_op(table.Snapshot(), bopts);
  TupleShuffleOp tuple_op(&block_op, topts);
  LogisticRegression model(ds.spec.dim);
  SgdOp::Options sopts;
  sopts.max_epochs = epochs;
  sopts.lr.initial = 0.005;
  SgdOp sgd(&model, &tuple_op, sopts);
  EXPECT_TRUE(sgd.Init().ok());
  EXPECT_TRUE(sgd.RunToCompletion().ok());
  sgd.Close();
  for (double p : model.params()) {
    uint64_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    out.params = HashU64(out.params, bits);
  }
  return out;
}

// Golden pin of the TRAIN BY path, the one every benchmark workload runs.
// Any change to the epoch plan, the block geometry or the staging shuffle
// that moves the benchmark's training order or trained params fails here.
TEST(TrainByGoldenTest, OrderAndParamsPinned) {
  // Double buffering must not move the order, so both modes share a row.
  struct Golden {
    uint64_t seed;
    uint32_t shards;
    uint64_t ids_hash;
    uint64_t params_hash;
  };
  const Golden kGolden[] = {
      {1, 1, 0x07a2a5d6eea6babcull, 0x2a6a8155e5081945ull},
      {42, 1, 0x9cb456ffc2548cb0ull, 0x14b86b5555825506ull},
      {1, 4, 0x77e4c5b9a4eeb248ull, 0xa84ae1026e4738bdull},
      {42, 4, 0x062b930f2b2863ecull, 0xae95669daf7837faull},
  };
  auto spec = CatalogLookup("susy", 0.05);
  ASSERT_TRUE(spec.ok());
  const Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  TableOptions table_opts;
  table_opts.page_size = 2048;
  for (uint32_t shards : {1u, 4u}) {
    auto table = ShardedTable::Create(
        testing::TempDir() + "train_by_golden_s" + std::to_string(shards),
        ds.MakeSchema(), table_opts, *ds.train, shards);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (const Golden& g : kGolden) {
      if (g.shards != shards) continue;
      for (bool double_buffer : {false, true}) {
        SCOPED_TRACE("seed=" + std::to_string(g.seed) +
                     " shards=" + std::to_string(shards) +
                     " double_buffer=" + std::to_string(double_buffer));
        const TrainByHashes got =
            HashTrainBy(**table, ds, g.seed, double_buffer, /*epochs=*/3);
        EXPECT_EQ(got.ids, g.ids_hash) << std::hex << "0x" << got.ids;
        EXPECT_EQ(got.params, g.params_hash) << std::hex << "0x" << got.params;
      }
    }
  }
}

// The same pin one level up: TRAIN BY through SQL, as the benchmark sends
// it, where the engine derives the buffer seed itself. Pins a hash of the
// trained params bits and of the final test metric.
TEST(TrainByGoldenTest, SqlTrainPinned) {
  struct Golden {
    uint64_t seed;
    uint32_t shards;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {1, 1, 0x60a338ccbdb765eaull},
      {42, 1, 0x14462e528f45b088ull},
      {1, 4, 0xc057bfad3dcb9487ull},
      {42, 4, 0xaa7b45bd5ab40212ull},
  };
  auto spec = CatalogLookup("susy", 0.05);
  ASSERT_TRUE(spec.ok());
  const Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("seed=" + std::to_string(g.seed) +
                 " shards=" + std::to_string(g.shards));
    const std::string dir = testing::TempDir() + "train_by_sql_golden";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Database db(dir, DeviceProfile::Ssd());
    ASSERT_TRUE(db.RegisterDataset("susy", ds, g.shards).ok());
    auto trained = db.Execute(
        "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
        "max_epoch_num=3, block_size=16KB, buffer_fraction=0.1, "
        "double_buffer=true, seed=" +
        std::to_string(g.seed));
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    auto model = db.models().Get("lr_0");
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    std::vector<double> bits = (*model)->params();
    auto report = db.EvaluateModel(EvaluateStatement{"susy", "lr_0"});
    ASSERT_TRUE(report.ok());
    bits.push_back(report->accuracy());
    uint64_t hash = 0xCBF29CE484222325ull;
    for (double v : bits) {
      uint64_t b;
      std::memcpy(&b, &v, sizeof(b));
      hash = HashU64(hash, b);
    }
    EXPECT_EQ(hash, g.hash) << std::hex << "0x" << hash;
  }
}

}  // namespace
}  // namespace corgipile
