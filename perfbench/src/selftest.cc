// Fidelity tests of the benchmark's tracing decorators.
//
// The traced run is only worth reading if it times the kernels the untraced
// run executes. These tests pin that down: the operator decorator forwards
// the batched protocol rather than falling back to PhysicalOperator's
// per-tuple NextBatch default; the model decorator forwards every Batch*
// kernel and Clone rather than Model's per-tuple default loops; and a
// decorated pipeline emits the same batches and trains the same params as
// the undecorated one, on both train workloads' datasets.
//
// Scratch tables go under $PERFBENCH_SELFTEST_DIR (default: a directory in
// the working directory).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "composed.h"
#include "dataset/catalog.h"
#include "db/block_shuffle_op.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "ml/linear_models.h"
#include "traced.h"

namespace perfbench {
namespace {

using namespace corgipile;

std::string ScratchDir(const std::string& name) {
  const char* base = std::getenv("PERFBENCH_SELFTEST_DIR");
  const std::string dir =
      std::string(base != nullptr ? base : "perfbench_selftest_data") + "/" +
      name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- operator decorator -----------------------------------------------------

struct FakeOp : PhysicalOperator {
  int inits = 0, nexts = 0, batches = 0, rescans = 0, closes = 0;
  uint64_t skipped = 0;
  Tuple row;

  const char* name() const override { return "Fake"; }
  Status Init() override {
    ++inits;
    return Status::OK();
  }
  const Tuple* Next() override {
    ++nexts;
    return nullptr;
  }
  bool NextBatch(TupleBatch* out) override {
    ++batches;
    out->Clear();
    out->Append(row);
    out->Append(row);
    return true;
  }
  Status ReScan() override {
    ++rescans;
    return Status::OK();
  }
  Status SkipEpochs(uint64_t n) override {
    skipped += n;
    return Status::OK();
  }
  void Close() override { ++closes; }
  Status status() const override { return Status::Corruption("fake"); }
  uint64_t QuarantinedBlocks() const override { return 7; }
  uint64_t SkippedTuples() const override { return 11; }
};

TEST(TracedOp, ForwardsTheBatchedProtocol) {
  FakeOp fake;
  fake.row.feature_values = {1.0f, 2.0f};
  Span pull, rescan;
  TracedOp op(&fake, &pull, &rescan);

  ASSERT_TRUE(op.Init().ok());
  TupleBatch batch;
  ASSERT_TRUE(op.NextBatch(&batch));
  EXPECT_EQ(fake.batches, 1);
  EXPECT_EQ(fake.nexts, 0) << "fell back to the per-tuple NextBatch default";
  EXPECT_EQ(pull.calls.load(), 1u);
  EXPECT_EQ(pull.rows.load(), 2u);

  ASSERT_TRUE(op.ReScan().ok());
  EXPECT_EQ(fake.rescans, 1);
  EXPECT_EQ(rescan.calls.load(), 1u);
  ASSERT_TRUE(op.SkipEpochs(3).ok());
  EXPECT_EQ(fake.skipped, 3u);
  EXPECT_EQ(fake.rescans, 1) << "SkipEpochs fell back to n re-scans";

  EXPECT_EQ(op.status().ToString(), fake.status().ToString());
  EXPECT_EQ(op.QuarantinedBlocks(), 7u);
  EXPECT_EQ(op.SkippedTuples(), 11u);
  EXPECT_STREQ(op.name(), "Fake");
  op.Close();
  EXPECT_EQ(fake.inits, 1);
  EXPECT_EQ(fake.closes, 1);
}

// --- model decorator --------------------------------------------------------

struct Calls {
  int per_tuple = 0, grad_step = 0, accumulate = 0, loss = 0, evaluate = 0,
      clones = 0;
};

/// Counts every call; the per-tuple methods count into one bucket, which
/// must stay at zero when only batch kernels are invoked.
class FakeModel : public Model {
 public:
  explicit FakeModel(Calls* calls) : calls_(calls), params_(2, 0.0) {}
  const char* name() const override { return "fake"; }
  size_t num_params() const override { return params_.size(); }
  std::vector<double>& params() override { return params_; }
  const std::vector<double>& params() const override { return params_; }
  void InitParams(uint64_t) override {}
  double SgdStep(const Tuple&, double) override { return Count(); }
  double AccumulateGrad(const Tuple&, std::vector<double>*) const override {
    return Count();
  }
  double Loss(const Tuple&) const override { return Count(); }
  double Predict(const Tuple&) const override { return Count(); }
  bool Correct(const Tuple&) const override { return Count() > 0; }
  void BatchGradientStep(const TupleBatch&, double, double*) override {
    ++calls_->grad_step;
  }
  void BatchAccumulateGrad(const TupleBatch&, size_t, size_t,
                           std::vector<double>*, double*) const override {
    ++calls_->accumulate;
  }
  void BatchLoss(const TupleBatch&, double*) const override {
    ++calls_->loss;
  }
  void BatchEvaluate(const TupleBatch&, double*, double*,
                     uint8_t*) const override {
    ++calls_->evaluate;
  }
  std::unique_ptr<Model> Clone() const override {
    ++calls_->clones;
    return std::make_unique<FakeModel>(calls_);
  }

 private:
  double Count() const {
    ++calls_->per_tuple;
    return 0.0;
  }
  Calls* calls_;
  std::vector<double> params_;
};

TEST(TracedModel, ForwardsEveryBatchKernelAndClone) {
  Calls calls;
  LayerSpans spans;
  TracedModel model(std::make_unique<FakeModel>(&calls), &spans);
  Tuple t;
  t.feature_values = {1.0f, 2.0f};
  TupleBatch b;
  for (int i = 0; i < 4; ++i) b.Append(t);
  double loss = 0.0;
  std::vector<double> grad(2, 0.0), pred(4), losses(4);
  std::vector<uint8_t> correct(4);

  model.BatchGradientStep(b, 0.1, &loss);
  model.BatchAccumulateGrad(b, 0, 4, &grad, &loss);
  model.BatchLoss(b, &loss);
  model.BatchEvaluate(b, pred.data(), losses.data(), correct.data());
  EXPECT_EQ(calls.grad_step, 1);
  EXPECT_EQ(calls.accumulate, 1);
  EXPECT_EQ(calls.loss, 1);
  EXPECT_EQ(calls.evaluate, 1);
  EXPECT_EQ(calls.per_tuple, 0) << "fell back to Model's per-tuple loops";
  EXPECT_EQ(spans.grad_step.rows.load(), 8u);
  EXPECT_EQ(spans.eval.rows.load(), 8u);

  std::unique_ptr<Model> clone = model.Clone();
  EXPECT_EQ(calls.clones, 1);
  ASSERT_NE(dynamic_cast<TracedModel*>(clone.get()), nullptr)
      << "a clone must stay traced";
  clone->BatchEvaluate(b, pred.data(), losses.data(), correct.data());
  EXPECT_EQ(calls.evaluate, 2);
  EXPECT_EQ(calls.per_tuple, 0);
}

// --- decorated vs undecorated pipelines ---------------------------------------

/// Records the id sequence and batch sizes SgdOp pulls. Borrows `inner`.
class Recorder final : public PhysicalOperator {
 public:
  explicit Recorder(PhysicalOperator* inner) : inner_(inner) {}
  const char* name() const override { return "Recorder"; }
  Status Init() override { return inner_->Init(); }
  const Tuple* Next() override { return inner_->Next(); }
  bool NextBatch(TupleBatch* out) override {
    const bool got = inner_->NextBatch(out);
    sizes.push_back(out->size());
    ids.insert(ids.end(), out->ids_data(), out->ids_data() + out->size());
    return got;
  }
  Status ReScan() override { return inner_->ReScan(); }
  void Close() override { inner_->Close(); }
  Status status() const override { return inner_->status(); }

  std::vector<uint64_t> ids;
  std::vector<size_t> sizes;

 private:
  PhysicalOperator* inner_;
};

struct EpochTrace {
  std::vector<uint64_t> ids;
  std::vector<size_t> sizes;
  std::vector<double> params;
  double train_loss = 0.0;
};

/// One epoch of the pipeline Database::Train builds for corgipile, with or
/// without the decorators around each operator and the model.
EpochTrace RunOneEpoch(const ShardedSnapshot& snap, const Dataset& data,
                       bool traced) {
  LayerSpans spans;
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 64 << 10;
  bopts.seed = 5;
  BlockShuffleOp block(snap, bopts);
  TracedOp traced_block(&block, &spans.block_fetch, nullptr);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = snap.num_tuples() / 10;
  topts.double_buffer = true;
  topts.seed = 5 ^ 0x7F;
  TupleShuffleOp tuple(traced ? static_cast<PhysicalOperator*>(&traced_block)
                              : &block,
                       topts);
  TracedOp traced_tuple(&tuple, &spans.shuffle_pull, &spans.shuffle_rescan);
  Recorder recorder(traced ? static_cast<PhysicalOperator*>(&traced_tuple)
                           : &tuple);

  std::unique_ptr<Model> model =
      std::make_unique<LogisticRegression>(data.MakeSchema().dim);
  if (traced) model = std::make_unique<TracedModel>(std::move(model), &spans);
  SgdOp::Options sopts;
  sopts.max_epochs = 1;
  sopts.init_seed = 5 ^ 0x11;
  SgdOp sgd(model.get(), &recorder, sopts);
  EXPECT_TRUE(sgd.Init().ok());
  EpochLog log;
  Result<bool> more = sgd.NextEpoch(&log);
  EXPECT_TRUE(more.ok() && *more);
  sgd.Close();
  if (traced) {
    EXPECT_GT(spans.block_fetch.calls.load(), 0u);
    EXPECT_GT(spans.grad_step.rows.load(), 0u);
  }
  return {recorder.ids, recorder.sizes, model->params(), log.train_loss};
}

void ExpectSamePipeline(const std::string& dataset, double scale) {
  DatasetSpec spec = CatalogLookup(dataset, scale).ValueOrDie();
  const Dataset data = GenerateDataset(spec, DataOrder::kClustered);
  Database db(ScratchDir(dataset), DeviceProfile::Hdd().Scaled(1e-3));
  ASSERT_TRUE(db.RegisterDataset("t", data).ok());
  const ShardedSnapshot snap = db.GetShardedTable("t").ValueOrDie()->Snapshot();

  const EpochTrace plain = RunOneEpoch(snap, data, false);
  const EpochTrace traced = RunOneEpoch(snap, data, true);
  EXPECT_EQ(plain.ids.size(), data.train->size());
  EXPECT_EQ(plain.ids, traced.ids);
  EXPECT_EQ(plain.sizes, traced.sizes);
  ASSERT_EQ(plain.params.size(), traced.params.size());
  EXPECT_EQ(std::memcmp(plain.params.data(), traced.params.data(),
                        plain.params.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&plain.train_loss, &traced.train_loss,
                        sizeof(double)),
            0);
}

TEST(TracedPipeline, MatchesUndecoratedOnDenseData) {
  ExpectSamePipeline("susy", 1.0);
}

TEST(TracedPipeline, MatchesUndecoratedOnSparseData) {
  ExpectSamePipeline("criteo", 0.5);
}

// --- composed statements vs the session's ------------------------------------

TEST(ComposedStatements, MatchSessionStatementsBitForBit) {
  DatasetSpec spec = CatalogLookup("susy", 0.1).ValueOrDie();
  const Dataset data = GenerateDataset(spec, DataOrder::kClustered);
  Database db(ScratchDir("composed"), DeviceProfile::Hdd().Scaled(1e-3));
  ASSERT_TRUE(db.RegisterDataset("t", data, /*num_shards=*/2).ok());
  ASSERT_TRUE(db.CreateTable("s", data.MakeSchema(), *data.test, false,
                             Page::kDefaultSize, 2)
                  .ok());
  auto train = [](const std::string& id) {
    return std::get<TrainStatement>(
        ParseQuery("SELECT * FROM t TRAIN BY lr WITH block_size=16KB, "
                   "max_epoch_num=3, seed=9, publish=" + id)
            .ValueOrDie());
  };
  LayerSpans spans;
  std::unique_ptr<Session> session = db.CreateSession();
  const InDbTrainResult plain = session->Train(train("a")).ValueOrDie();
  const ComposedTrainResult traced =
      ComposedTrain(&db, train("b"), data.test.get(), LabelType::kBinary,
                    &spans)
          .ValueOrDie();
  const std::vector<double>& a = db.models().Get("a").ValueOrDie()->params();
  ASSERT_EQ(a.size(), traced.params.size());
  EXPECT_EQ(std::memcmp(a.data(), traced.params.data(),
                        a.size() * sizeof(double)),
            0);
  EXPECT_EQ(plain.final_metric, traced.result.final_metric);

  ThreadPool pool(2);
  const InDbPredictResult p_plain =
      session->Predict(PredictStatement{"s", "a"}).ValueOrDie();
  const InDbPredictResult p_traced =
      ComposedPredict(&db, PredictStatement{"s", "b"}, LabelType::kBinary,
                      &pool, &spans)
          .ValueOrDie();
  EXPECT_EQ(p_plain.count, p_traced.count);
  EXPECT_EQ(std::memcmp(&p_plain.metric, &p_traced.metric, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&p_plain.mean_loss, &p_traced.mean_loss,
                        sizeof(double)),
            0);
  EXPECT_EQ(spans.eval.rows.load(), p_traced.count)
      << "serving the published TracedModel must go through the decorator";
}

}  // namespace
}  // namespace perfbench
