// Property-based sweeps (TEST_P) over the library's core invariants:
//  * permutation property of shuffling strategies across buffer sizes,
//  * storage round-trips across page sizes / compression / sparsity,
//  * gradient correctness across model families,
//  * device-model monotonicity across block sizes,
//  * the epoch plan's permutation, partition and stream-independence
//    properties across seeds, sample sizes and worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "dataloader/dataset_api.h"
#include "iosim/device.h"
#include "iosim/sim_clock.h"
#include "storage/heapfile.h"
#include "storage/page.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "shuffle/epoch_plan.h"
#include "shuffle/hierarchical.h"
#include "shuffle/tuple_stream.h"
#include "util/rng.h"

#include "drain.h"
#include "media_faults.h"

namespace corgipile {
namespace {

// ---------------------------------------------------------------------
// Property 1: every strategy that claims to visit each tuple exactly once
// per epoch does so, for any buffer fraction and block size.
// ---------------------------------------------------------------------

using StrategyBufferParam = std::tuple<ShuffleStrategy, double, uint64_t>;

class PermutationProperty
    : public ::testing::TestWithParam<StrategyBufferParam> {};

TEST_P(PermutationProperty, EpochIsPermutation) {
  const auto [strategy, buffer_fraction, block] = GetParam();
  const size_t n = 600;
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    tuples->push_back(
        MakeDenseTuple(i, i < n / 2 ? -1.0 : 1.0, {static_cast<float>(i)}));
  }
  InMemoryBlockSource src(Schema{"p", 1, false, LabelType::kBinary, 2},
                          tuples, block);
  ShuffleOptions opts;
  opts.buffer_fraction = buffer_fraction;
  auto stream = MakeTupleStream(strategy, &src, opts);
  ASSERT_TRUE(stream.ok());
  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    std::set<uint64_t> seen;
    for (uint64_t id : Ids(DrainEpoch(stream->get(), epoch))) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
    EXPECT_EQ(seen.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PermutationProperty,
    ::testing::Combine(
        ::testing::Values(ShuffleStrategy::kNoShuffle,
                          ShuffleStrategy::kShuffleOnce,
                          ShuffleStrategy::kEpochShuffle,
                          ShuffleStrategy::kSlidingWindow,
                          ShuffleStrategy::kBlockOnly,
                          ShuffleStrategy::kCorgiPile),
        ::testing::Values(0.02, 0.1, 0.5, 1.0),
        ::testing::Values(uint64_t{7}, uint64_t{50}, uint64_t{600})),
    [](const auto& info) {
      return std::string(ShuffleStrategyToString(std::get<0>(info.param))) +
             "_buf" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_blk" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Property 2: table storage round-trips for every (page size, compression,
// sparsity) combination.
// ---------------------------------------------------------------------

using StorageParam = std::tuple<uint32_t, bool, bool>;  // page, compress, sparse

class StorageRoundTripProperty
    : public ::testing::TestWithParam<StorageParam> {};

TEST_P(StorageRoundTripProperty, TuplesSurvive) {
  const auto [page_size, compress, sparse] = GetParam();
  Rng rng(page_size ^ (compress ? 1 : 0) ^ (sparse ? 2 : 0));
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 200; ++i) {
    if (sparse) {
      auto keys = rng.SampleWithoutReplacement(500, 12);
      std::sort(keys.begin(), keys.end());
      std::vector<float> vals(12);
      for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
      tuples.push_back(
          MakeSparseTuple(i, rng.NextBool() ? 1.0 : -1.0, std::move(keys),
                          std::move(vals)));
    } else {
      std::vector<float> vals(48);
      for (auto& v : vals) {
        v = rng.NextBool(0.5) ? 0.0f : static_cast<float>(rng.NextGaussian());
      }
      tuples.push_back(
          MakeDenseTuple(i, rng.NextBool() ? 1.0 : -1.0, std::move(vals)));
    }
  }
  Schema schema{"prop", sparse ? 500u : 48u, sparse, LabelType::kBinary, 2};
  const std::string path = testing::TempDir() + "prop_storage.tbl";
  TableOptions options;
  options.page_size = page_size;
  options.compress_tuples = compress;
  auto table = MaterializeTable(schema, tuples, path, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_tuples(), tuples.size());
  std::vector<Tuple> read;
  ASSERT_TRUE(
      (*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &read).ok());
  ASSERT_EQ(read.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(read[i], tuples[i]) << i;
  }
  // Random point lookups agree too.
  for (int k = 0; k < 20; ++k) {
    const auto idx = rng.Uniform(tuples.size());
    auto t = (*table)->ReadTupleAt(idx);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, tuples[idx]);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageRoundTripProperty,
    ::testing::Combine(::testing::Values(1024u, 4096u, 8192u, 65535u),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return "page" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_comp" : "_raw") +
             (std::get<2>(info.param) ? "_sparse" : "_dense");
    });

// ---------------------------------------------------------------------
// Property 3: SgdStep == params - lr * AccumulateGrad for every model
// family, on dense and sparse tuples.
// ---------------------------------------------------------------------

class ModelStepProperty : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Model> MakeModel() const {
    const std::string& kind = GetParam();
    if (kind == "lr") return std::make_unique<LogisticRegression>(12);
    if (kind == "svm") return std::make_unique<SvmModel>(12);
    if (kind == "linreg") return std::make_unique<LinearRegressionModel>(12);
    if (kind == "softmax") return std::make_unique<SoftmaxRegression>(12, 4);
    return std::make_unique<MlpModel>(12, 6, 4);
  }
  double LabelFor(const std::string& kind, Rng* rng) const {
    if (kind == "softmax" || kind == "mlp") {
      return static_cast<double>(rng->Uniform(4));
    }
    if (kind == "linreg") return rng->NextGaussian();
    return rng->NextBool() ? 1.0 : -1.0;
  }
};

TEST_P(ModelStepProperty, StepMatchesGradient) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    auto model = MakeModel();
    model->InitParams(trial);
    for (auto& p : model->params()) p += 0.1 * rng.NextGaussian();

    Tuple t;
    if (trial % 2 == 0) {
      std::vector<float> vals(12);
      for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
      t = MakeDenseTuple(0, LabelFor(GetParam(), &rng), std::move(vals));
    } else {
      t = MakeSparseTuple(0, LabelFor(GetParam(), &rng), {1, 5, 9},
                          {0.5f, -1.0f, 2.0f});
    }
    std::vector<double> grad(model->num_params(), 0.0);
    auto copy = model->Clone();
    const double loss_grad = copy->AccumulateGrad(t, &grad);
    const double lr = 0.03;
    const double loss_step = model->SgdStep(t, lr);
    EXPECT_NEAR(loss_grad, loss_step, 1e-12);
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_NEAR(model->params()[i], copy->params()[i] - lr * grad[i], 1e-12)
          << GetParam() << " trial " << trial << " param " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelStepProperty,
                         ::testing::Values("lr", "svm", "linreg", "softmax",
                                           "mlp"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Property 4: device cost model monotonicity — random throughput increases
// with block size and never exceeds sequential bandwidth.
// ---------------------------------------------------------------------

class DeviceMonotonicityProperty
    : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(DeviceMonotonicityProperty, RandomThroughputMonotone) {
  const DeviceProfile dev = DeviceProfile::ForKind(GetParam());
  double prev = 0.0;
  for (uint64_t kb = 4; kb <= 64 * 1024; kb *= 4) {
    const double tp = dev.RandomChunkThroughput(kb * 1024);
    EXPECT_GT(tp, prev);
    EXPECT_LE(tp, dev.bandwidth_bytes_per_s);
    prev = tp;
  }
  // Scaled devices preserve the fraction-of-sequential at block sizes
  // scaled by exactly the same factor.
  const double factor = 1e-3;
  const DeviceProfile scaled = dev.Scaled(factor);
  const uint64_t full_block = 10 * 1024 * 1024;
  const auto scaled_block = static_cast<uint64_t>(full_block * factor);
  const double frac_full =
      dev.RandomChunkThroughput(full_block) / dev.bandwidth_bytes_per_s;
  const double frac_scaled = scaled.RandomChunkThroughput(scaled_block) /
                             scaled.bandwidth_bytes_per_s;
  EXPECT_NEAR(frac_full, frac_scaled, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeviceMonotonicityProperty,
                         ::testing::Values(DeviceKind::kHdd, DeviceKind::kSsd),
                         [](const auto& info) {
                           return std::string(DeviceKindToString(info.param));
                         });

// ---------------------------------------------------------------------
// Property 5: the epoch plan (shuffle/epoch_plan.h). For any seed, block
// count, n-of-N sample size and worker count 1-5:
//  * each epoch's block list is a permutation of the N blocks, or an
//    n-of-N sample without repeats;
//  * the workers' slices partition that list, and the dataloader host
//    hands each worker exactly its slice;
//  * what the library and dataloader hosts emit does not depend on the
//    transport batch size, and covers exactly the plan's blocks;
//  * the block stream and the buffer stream never alias, for any (epoch,
//    worker), nor do two workers' buffer streams.
// ---------------------------------------------------------------------

using EpochPlanParam = std::tuple<uint64_t /*seed*/, uint32_t /*blocks*/,
                                  uint32_t /*blocks_per_epoch*/>;

class EpochPlanProperty : public ::testing::TestWithParam<EpochPlanParam> {};

std::vector<uint64_t> FirstDraws(Rng rng) {
  std::vector<uint64_t> out(4);
  for (uint64_t& x : out) x = rng.Next64();
  return out;
}

TEST_P(EpochPlanProperty, PermutesPartitionsAndNeverAliases) {
  const auto [seed, num_blocks, blocks_per_epoch] = GetParam();
  constexpr uint64_t kBlockTuples = 30;
  const uint32_t visited = blocks_per_epoch == 0
                               ? num_blocks
                               : std::min(num_blocks, blocks_per_epoch);
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (uint64_t i = 0; i < num_blocks * kBlockTuples; ++i) {
    tuples->push_back(MakeDenseTuple(i, 1.0, {0.0f}));
  }
  InMemoryBlockSource src(Schema{"s", 1, false, LabelType::kBinary, 2},
                          tuples, kBlockTuples);
  ASSERT_EQ(src.num_blocks(), num_blocks);
  // The ids of `blocks`, sorted: what one epoch over them must emit.
  auto block_ids = [&](const std::vector<uint32_t>& blocks) {
    std::vector<uint64_t> ids;
    for (uint32_t b : blocks) {
      for (uint64_t t = 0; t < kBlockTuples; ++t) {
        ids.push_back(b * kBlockTuples + t);
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  auto sorted = [](std::vector<uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    SCOPED_TRACE("epoch=" + std::to_string(epoch));
    const std::vector<uint32_t> order = EpochBlockOrder(
        seed, epoch, num_blocks, /*shuffle_blocks=*/true, blocks_per_epoch);
    ASSERT_EQ(order.size(), visited);
    const std::set<uint32_t> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), order.size()) << "block visited twice";
    EXPECT_LT(*distinct.rbegin(), num_blocks);
    // Without block shuffling the list is the storage-order prefix.
    const std::vector<uint32_t> plain = EpochBlockOrder(
        seed, epoch, num_blocks, /*shuffle_blocks=*/false, blocks_per_epoch);
    for (uint32_t i = 0; i < plain.size(); ++i) EXPECT_EQ(plain[i], i);

    // Library host (Algorithm 1): the sampled blocks' tuples, at every
    // transport batch size.
    auto stream = MakeCorgiPileStream(&src, /*buffer_tuples=*/64, seed,
                                      blocks_per_epoch);
    const auto lib_ref = Ids(DrainEpoch(stream.get(), epoch, 1));
    EXPECT_EQ(sorted(lib_ref), block_ids(order));
    for (size_t batch : {size_t{7}, TupleBatch::kDefaultTargetTuples}) {
      EXPECT_EQ(Ids(DrainEpoch(stream.get(), epoch, batch)), lib_ref);
    }

    const std::vector<uint64_t> block_draws =
        FirstDraws(EpochBlockRng(seed, epoch));
    const std::vector<uint32_t> all =
        EpochBlockOrder(seed, epoch, num_blocks, /*shuffle_blocks=*/true);
    for (uint32_t workers = 1; workers <= 5; ++workers) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      std::vector<uint32_t> joined;
      std::vector<uint64_t> emitted;
      std::set<std::vector<uint64_t>> buffer_draws;
      for (uint32_t w = 0; w < workers; ++w) {
        const std::vector<uint32_t> slice =
            EpochBlockOrder(seed, epoch, num_blocks, /*shuffle_blocks=*/true,
                            blocks_per_epoch, w, workers);
        EXPECT_LE(slice.size(), visited / workers + 1);
        EXPECT_GE(slice.size(), visited / workers);
        joined.insert(joined.end(), slice.begin(), slice.end());

        // Dataloader host (it visits every block each epoch).
        CorgiPileDataset ds(&src, {/*buffer_tuples=*/64, seed});
        ASSERT_TRUE(ds.StartEpoch(epoch, w, workers).ok());
        EXPECT_EQ(ds.assigned_blocks(),
                  EpochBlockOrder(seed, epoch, num_blocks,
                                  /*shuffle_blocks=*/true,
                                  /*blocks_per_epoch=*/0, w, workers));
        const auto ref = Ids(DrainRest(&ds, 1));
        ASSERT_TRUE(ds.status().ok());
        EXPECT_EQ(sorted(ref), block_ids(ds.assigned_blocks()));
        ASSERT_TRUE(ds.StartEpoch(epoch, w, workers).ok());
        EXPECT_EQ(Ids(DrainRest(&ds, 7)), ref);
        emitted.insert(emitted.end(), ref.begin(), ref.end());

        const std::vector<uint64_t> draws =
            FirstDraws(EpochBufferRng(BufferSeed(seed), epoch, w));
        EXPECT_NE(draws, block_draws) << "worker " << w;
        EXPECT_TRUE(buffer_draws.insert(draws).second) << "worker " << w;
      }
      EXPECT_EQ(joined, order);
      EXPECT_EQ(sorted(emitted), block_ids(all));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EpochPlanProperty,
    ::testing::Combine(::testing::Values(uint64_t{0}, uint64_t{1},
                                         uint64_t{42}, uint64_t{0x7F}),
                       ::testing::Values(1u, 7u, 33u),
                       ::testing::Values(0u, 5u, 40u)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Property 6: bounded retry never charges more simulated backoff to one
// read than the policy cap (RetryPolicy::MaxTotalBackoffSeconds), for any
// randomized fault schedule — transient, permanent, or mixed.
// ---------------------------------------------------------------------

using BackoffCapParam =
    std::tuple<uint64_t /*seed*/, double /*transient_rate*/,
               double /*permanent_rate*/, uint32_t /*max_retries*/>;

class RetryBackoffCapProperty
    : public ::testing::TestWithParam<BackoffCapParam> {};

TEST_P(RetryBackoffCapProperty, PerReadChargeNeverExceedsPolicyCap) {
  const auto [seed, transient_rate, permanent_rate, max_retries] = GetParam();
  SCOPED_TRACE("scenario=RetryBackoffCap seed=" + std::to_string(seed) +
               " transient=" + std::to_string(transient_rate) +
               " permanent=" + std::to_string(permanent_rate) +
               " retries=" + std::to_string(max_retries));

  const std::string path = testing::TempDir() + "prop_backoff_" +
                           std::to_string(seed) + ".tbl";
  const uint32_t kPageSize = 512;
  const uint64_t kPages = 48;
  auto file = HeapFile::Create(path, kPageSize).ValueOrDie();
  for (uint64_t i = 0; i < kPages; ++i) {
    Page p(kPageSize);
    const uint8_t rec[] = {static_cast<uint8_t>(i), 1, 2, 3};
    ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
    ASSERT_TRUE(file->AppendPage(p).ok());
  }
  ASSERT_TRUE(file->Sync().ok());

  // A zero rate adds no rule (a media rule's probability 0 means every
  // site); the flaky budget exceeds the retries, so some sites never
  // recover.
  std::vector<ChaosRule> rules;
  if (permanent_rate > 0) {
    rules.push_back(
        MediaRule(kHeapRead, ChaosAction::kReadError, permanent_rate, 0));
  }
  if (transient_rate > 0) {
    rules.push_back(MediaRule(kHeapRead, ChaosAction::kReadError,
                              transient_rate, max_retries + 2));
  }
  ScopedMediaFaults faults(seed, std::move(rules));
  SimClock clock;
  IoStats io;
  file->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);
  RetryPolicy policy;
  policy.max_retries = max_retries;
  file->SetRetryPolicy(policy);
  const double cap = policy.MaxTotalBackoffSeconds();

  Page out;
  for (uint64_t p = 0; p < kPages; ++p) {
    const double before = clock.Elapsed(TimeCategory::kRetryBackoff);
    const Status st = file->ReadPage(p, &out);  // ok or not — both legal
    const double charged =
        clock.Elapsed(TimeCategory::kRetryBackoff) - before;
    EXPECT_LE(charged, cap + 1e-12)
        << "page " << p << " (" << st.ToString() << ") charged " << charged
        << "s of backoff against a policy cap of " << cap << "s";
    EXPECT_GE(charged, 0.0) << "page " << p;
  }
  EXPECT_LE(clock.Elapsed(TimeCategory::kRetryBackoff),
            static_cast<double>(kPages) * cap + 1e-9);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RetryBackoffCapProperty,
    ::testing::Values(
        BackoffCapParam{1, 0.5, 0.0, 3},   // transient-heavy
        BackoffCapParam{2, 1.0, 0.0, 2},   // every site flaky
        BackoffCapParam{3, 0.0, 0.3, 3},   // permanent-only
        BackoffCapParam{4, 0.4, 0.2, 1},   // mixed, tight budget
        BackoffCapParam{5, 0.8, 0.1, 4},   // mixed, generous budget
        BackoffCapParam{77, 1.0, 1.0, 0}), // no retries at all
    [](const auto& info) {
      return "Seed" + std::to_string(std::get<0>(info.param)) + "R" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace corgipile
