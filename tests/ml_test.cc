// Unit tests for ml/: models (including finite-difference gradient checks),
// optimizers, metrics, trainer, and grid search.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "dataset/catalog.h"
#include "exec/tuple_batch.h"
#include "ml/gridsearch.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/optimizer.h"
#include "ml/trainer.h"
#include "shuffle/hierarchical.h"
#include "shuffle/tuple_stream.h"
#include "util/rng.h"
#include "util/stats.h"

namespace corgipile {
namespace {

// Finite-difference check: ∇f from AccumulateGrad vs numeric gradient.
void CheckGradient(Model* model, const Tuple& t, double tol = 1e-5) {
  std::vector<double> grad(model->num_params(), 0.0);
  model->AccumulateGrad(t, &grad);
  const double eps = 1e-6;
  Rng rng(1234);
  // Check a sample of coordinates (all for small models).
  const size_t n = model->num_params();
  const size_t checks = std::min<size_t>(n, 60);
  for (size_t c = 0; c < checks; ++c) {
    const size_t i = n <= 60 ? c : static_cast<size_t>(rng.Uniform(n));
    const double orig = model->params()[i];
    model->params()[i] = orig + eps;
    const double up = model->Loss(t);
    model->params()[i] = orig - eps;
    const double down = model->Loss(t);
    model->params()[i] = orig;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, tol) << "param " << i;
  }
}

TEST(LogisticRegressionTest, GradientMatchesFiniteDifference) {
  LogisticRegression model(5);
  Rng rng(7);
  for (auto& p : model.params()) p = 0.3 * rng.NextGaussian();
  Tuple t = MakeDenseTuple(0, 1.0, {0.5f, -1.0f, 2.0f, 0.1f, -0.7f});
  CheckGradient(&model, t);
  Tuple neg = MakeDenseTuple(1, -1.0, {1.5f, 0.0f, -2.0f, 1.1f, 0.7f});
  CheckGradient(&model, neg);
}

TEST(LogisticRegressionTest, SparseGradientMatches) {
  LogisticRegression model(100);
  Rng rng(8);
  for (auto& p : model.params()) p = 0.1 * rng.NextGaussian();
  Tuple t = MakeSparseTuple(0, -1.0, {3, 50, 99}, {1.0f, -2.0f, 0.5f});
  CheckGradient(&model, t);
}

TEST(SvmTest, GradientMatchesFiniteDifferenceAwayFromKink) {
  SvmModel model(4);
  Rng rng(9);
  for (auto& p : model.params()) p = 0.2 * rng.NextGaussian();
  Tuple t = MakeDenseTuple(0, 1.0, {2.0f, -1.0f, 0.5f, 1.0f});
  // Only valid where hinge is differentiable; the random params give a
  // margin far from 1 with overwhelming probability.
  const double margin = t.label * model.Predict(t);
  if (std::abs(margin - 1.0) > 0.05) CheckGradient(&model, t);
}

TEST(LinearRegressionTest, GradientMatchesFiniteDifference) {
  LinearRegressionModel model(6);
  Rng rng(10);
  for (auto& p : model.params()) p = 0.5 * rng.NextGaussian();
  Tuple t = MakeDenseTuple(0, 2.5, {0.5f, -1.0f, 2.0f, 0.1f, -0.7f, 1.0f});
  CheckGradient(&model, t, 1e-4);
}

TEST(SoftmaxTest, GradientMatchesFiniteDifference) {
  SoftmaxRegression model(4, 3);
  Rng rng(11);
  for (auto& p : model.params()) p = 0.3 * rng.NextGaussian();
  for (double label : {0.0, 1.0, 2.0}) {
    Tuple t = MakeDenseTuple(0, label, {0.5f, -1.0f, 2.0f, 0.1f});
    CheckGradient(&model, t);
  }
}

TEST(SoftmaxTest, ProbabilitiesViaLossAreConsistent) {
  SoftmaxRegression model(2, 3);
  // With zero params, each class has p = 1/3 → loss = ln 3.
  Tuple t = MakeDenseTuple(0, 1.0, {1.0f, 1.0f});
  EXPECT_NEAR(model.Loss(t), std::log(3.0), 1e-12);
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  MlpModel model(5, 7, 3);
  model.InitParams(42);
  for (double label : {0.0, 2.0}) {
    Tuple t = MakeDenseTuple(0, label, {0.5f, -1.0f, 2.0f, 0.1f, 0.3f});
    CheckGradient(&model, t, 1e-4);
  }
}

TEST(MlpTest, SparseInputGradientMatches) {
  MlpModel model(50, 6, 4);
  model.InitParams(43);
  Tuple t = MakeSparseTuple(0, 3.0, {2, 17, 45}, {1.0f, -0.5f, 2.0f});
  CheckGradient(&model, t, 1e-4);
}

TEST(ModelTest, SgdStepMatchesAccumulatePlusApply) {
  // One SgdStep must equal params -= lr * grad for every model type.
  auto check = [](Model* m, const Tuple& t) {
    std::unique_ptr<Model> copy = m->Clone();
    const double lr = 0.05;
    std::vector<double> grad(m->num_params(), 0.0);
    copy->AccumulateGrad(t, &grad);
    std::vector<double> expect = copy->params();
    for (size_t i = 0; i < expect.size(); ++i) expect[i] -= lr * grad[i];
    m->SgdStep(t, lr);
    for (size_t i = 0; i < expect.size(); ++i) {
      ASSERT_NEAR(m->params()[i], expect[i], 1e-12) << m->name() << " " << i;
    }
  };
  Rng rng(12);
  Tuple bin = MakeDenseTuple(0, 1.0, {0.5f, -1.5f, 0.2f});
  Tuple multi = MakeDenseTuple(0, 1.0, {0.5f, -1.5f, 0.2f});
  {
    LogisticRegression m(3);
    for (auto& p : m.params()) p = rng.NextGaussian();
    check(&m, bin);
  }
  {
    SvmModel m(3);
    for (auto& p : m.params()) p = rng.NextGaussian();
    check(&m, bin);
  }
  {
    LinearRegressionModel m(3);
    for (auto& p : m.params()) p = rng.NextGaussian();
    check(&m, bin);
  }
  {
    SoftmaxRegression m(3, 2);
    for (auto& p : m.params()) p = rng.NextGaussian();
    check(&m, multi);
  }
  {
    MlpModel m(3, 4, 2);
    m.InitParams(5);
    check(&m, multi);
  }
}

// --- Kernel oracle: batch kernels vs the per-tuple methods ----------------
//
// The native BinaryLinearModel batch kernels must reproduce the per-tuple
// methods bit for bit (EXPECT_EQ on doubles): batch size 1 is the pipeline's
// golden reference only because a one-row batch step equals SgdStep.

enum class OracleLayout { kDense, kSparse, kMixed };

std::vector<Tuple> OracleRows(OracleLayout layout, uint32_t dim,
                              bool regression, Rng* rng) {
  std::vector<Tuple> rows;
  for (uint64_t i = 0; i < 9; ++i) {
    const double label = regression ? 2.0 * rng->NextGaussian()
                                    : (rng->Uniform(2) == 0 ? -1.0 : 1.0);
    // kMixed cycles full-width dense, half-width dense and sparse rows.
    const uint64_t kind = layout == OracleLayout::kMixed  ? i % 3
                          : layout == OracleLayout::kDense ? 0
                                                            : 2;
    if (kind < 2) {
      std::vector<float> values(kind == 0 ? dim : dim / 2);
      for (float& v : values) v = static_cast<float>(rng->NextGaussian());
      rows.push_back(MakeDenseTuple(i, label, std::move(values)));
    } else {
      std::vector<uint32_t> keys{static_cast<uint32_t>(i % 3),
                                 4 + static_cast<uint32_t>(i % 5), dim - 1};
      std::vector<float> values;
      for (size_t k = 0; k < keys.size(); ++k) {
        values.push_back(static_cast<float>(rng->NextGaussian()));
      }
      rows.push_back(MakeSparseTuple(i, label, std::move(keys),
                                     std::move(values)));
    }
  }
  return rows;
}

TEST(KernelOracleTest, BatchKernelsBitEqualPerTupleLoops) {
  const uint32_t dim = 12;
  const double lr = 0.05;
  const double l2 = 1e-2;
  Rng rng(2026);
  for (OracleLayout layout :
       {OracleLayout::kDense, OracleLayout::kSparse, OracleLayout::kMixed}) {
    std::vector<std::unique_ptr<Model>> models;
    models.push_back(std::make_unique<LogisticRegression>(dim, l2));
    models.push_back(std::make_unique<SvmModel>(dim, l2));
    models.push_back(std::make_unique<LinearRegressionModel>(dim, l2));
    for (const std::unique_ptr<Model>& model : models) {
      const bool regression = std::string(model->name()) == "linreg";
      for (double& p : model->params()) p = 0.5 * rng.NextGaussian();
      const std::vector<Tuple> rows = OracleRows(layout, dim, regression, &rng);
      TupleBatch batch;
      for (const Tuple& t : rows) batch.Append(t);
      ASSERT_EQ(batch.uniform_dense(), layout == OracleLayout::kDense);
      const std::string where = std::string(model->name()) + " layout=" +
                                std::to_string(static_cast<int>(layout));

      // BatchGradientStep vs a loop of SgdStep.
      std::unique_ptr<Model> stepped = model->Clone();
      std::unique_ptr<Model> reference = model->Clone();
      double batch_loss = 0.25, loop_loss = 0.25;
      stepped->BatchGradientStep(batch, lr, &batch_loss);
      for (const Tuple& t : rows) loop_loss += reference->SgdStep(t, lr);
      EXPECT_EQ(stepped->params(), reference->params()) << where;
      EXPECT_EQ(batch_loss, loop_loss) << where;

      // BatchAccumulateGrad over a sub-range vs a loop of AccumulateGrad.
      std::vector<double> batch_grad(model->num_params(), 0.0);
      std::vector<double> loop_grad(model->num_params(), 0.0);
      batch_loss = loop_loss = 0.25;
      model->BatchAccumulateGrad(batch, 2, rows.size() - 1, &batch_grad,
                                 &batch_loss);
      for (size_t i = 2; i < rows.size() - 1; ++i) {
        loop_loss += model->AccumulateGrad(rows[i], &loop_grad);
      }
      EXPECT_EQ(batch_grad, loop_grad) << where;
      EXPECT_EQ(batch_loss, loop_loss) << where;

      // BatchLoss vs a loop of Loss.
      batch_loss = loop_loss = 0.25;
      model->BatchLoss(batch, &batch_loss);
      for (const Tuple& t : rows) loop_loss += model->Loss(t);
      EXPECT_EQ(batch_loss, loop_loss) << where;

      // BatchEvaluate vs Predict / Loss / Correct.
      std::vector<double> predictions(rows.size()), losses(rows.size());
      std::vector<uint8_t> corrects(rows.size());
      model->BatchEvaluate(batch, predictions.data(), losses.data(),
                           corrects.data());
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(predictions[i], model->Predict(rows[i]))
            << where << " " << i;
        EXPECT_EQ(losses[i], model->Loss(rows[i])) << where << " " << i;
        EXPECT_EQ(corrects[i] != 0, model->Correct(rows[i]))
            << where << " " << i;
      }
    }
  }
}

TEST(OptimizerTest, SgdApply) {
  SgdOptimizer opt;
  std::vector<double> params{1.0, 2.0};
  opt.Apply(&params, {0.5, -1.0}, 0.1);
  EXPECT_DOUBLE_EQ(params[0], 0.95);
  EXPECT_DOUBLE_EQ(params[1], 2.1);
}

TEST(OptimizerTest, AdamFirstStepIsLrSized) {
  AdamOptimizer opt;
  opt.Reset(1);
  std::vector<double> params{0.0};
  opt.Apply(&params, {0.3}, 0.01);
  // Bias-corrected first step ≈ lr * sign(grad).
  EXPECT_NEAR(params[0], -0.01, 1e-6);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  AdamOptimizer opt;
  opt.Reset(1);
  std::vector<double> params{5.0};
  for (int i = 0; i < 2000; ++i) {
    opt.Apply(&params, {2.0 * params[0]}, 0.05);  // f = x²
  }
  EXPECT_NEAR(params[0], 0.0, 1e-2);
}

TEST(LrScheduleTest, ExponentialDecay) {
  LrSchedule s;
  s.initial = 0.1;
  s.decay = 0.95;
  EXPECT_DOUBLE_EQ(s.LrAtEpoch(0), 0.1);
  EXPECT_NEAR(s.LrAtEpoch(10), 0.1 * std::pow(0.95, 10), 1e-12);
  LrSchedule step;  // ImageNet-style: ÷10 every 30 epochs
  step.initial = 0.1;
  step.decay = 0.1;
  step.decay_every = 30;
  EXPECT_DOUBLE_EQ(step.LrAtEpoch(29), 0.1);
  EXPECT_NEAR(step.LrAtEpoch(30), 0.01, 1e-12);
}

TEST(LrScheduleTest, InverseDecayMatchesTheorem) {
  // Theorem 1 prescribes η_s ∝ 1/(s + a).
  LrSchedule inv;
  inv.kind = LrSchedule::Kind::kInverse;
  inv.initial = 0.06;
  inv.decay_every = 4;  // a = 4
  EXPECT_DOUBLE_EQ(inv.LrAtEpoch(0), 0.06);
  EXPECT_NEAR(inv.LrAtEpoch(4), 0.06 * 4.0 / 8.0, 1e-12);
  EXPECT_NEAR(inv.LrAtEpoch(12), 0.06 * 4.0 / 16.0, 1e-12);
  // Strictly decreasing, never zero.
  double prev = 1.0;
  for (uint32_t e = 0; e < 50; ++e) {
    const double lr = inv.LrAtEpoch(e);
    EXPECT_LT(lr, prev);
    EXPECT_GT(lr, 0.0);
    prev = lr;
  }
}

TEST(MetricsTest, BinaryAccuracy) {
  LogisticRegression model(1);
  model.params()[0] = 1.0;  // predict sign(x)
  std::vector<Tuple> tuples{
      MakeDenseTuple(0, 1.0, {2.0f}), MakeDenseTuple(1, -1.0, {-2.0f}),
      MakeDenseTuple(2, 1.0, {-2.0f})};
  auto r = Evaluate(model, tuples, LabelType::kBinary);
  EXPECT_NEAR(r.metric, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(r.count, 3u);
}

TEST(MetricsTest, RegressionR2PerfectFit) {
  LinearRegressionModel model(1);
  model.params()[0] = 2.0;
  std::vector<Tuple> tuples{MakeDenseTuple(0, 2.0, {1.0f}),
                            MakeDenseTuple(1, 4.0, {2.0f}),
                            MakeDenseTuple(2, 6.0, {3.0f})};
  auto r = Evaluate(model, tuples, LabelType::kContinuous);
  EXPECT_NEAR(r.metric, 1.0, 1e-12);
}

TEST(MetricsTest, EmptySetIsZero) {
  LogisticRegression model(1);
  auto r = Evaluate(model, {}, LabelType::kBinary);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.metric, 0.0);
}

// ---- Trainer integration ----

struct TrainFixture {
  Dataset ds;
  std::unique_ptr<InMemoryBlockSource> source;

  explicit TrainFixture(const std::string& name, DataOrder order,
                        double scale = 0.1, uint64_t block = 100) {
    auto spec = CatalogLookup(name, scale);
    ds = GenerateDataset(*spec, order);
    source = std::make_unique<InMemoryBlockSource>(ds.MakeSchema(), ds.train,
                                                   block);
  }
};

TrainerOptions BasicOptions(const Dataset& ds, uint32_t epochs = 5) {
  TrainerOptions opts;
  opts.epochs = epochs;
  opts.lr.initial = 0.05;
  opts.test_set = ds.test.get();
  opts.label_type = ds.MakeSchema().label_type;
  return opts;
}

TEST(TrainerTest, LearnsOnShuffledData) {
  TrainFixture f("susy", DataOrder::kShuffled);
  ShuffleOptions sopts;
  auto stream = MakeTupleStream(ShuffleStrategy::kNoShuffle, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  LogisticRegression model(f.ds.spec.dim);
  TrainerOptions opts = BasicOptions(f.ds, 8);
  opts.lr.initial = 0.005;
  auto result = Train(&model, stream->get(), opts);
  ASSERT_TRUE(result.ok());
  // susy noise = 0.21 → ceiling ≈ 0.79.
  EXPECT_GT(result->final_test_metric, 0.74);
}

TEST(TrainerTest, ConvergenceOrderingOnClusteredData) {
  // The paper's central claim (Figs. 2, 12): on clustered data,
  //   ShuffleOnce ≈ CorgiPile  >  MRS ≥ SlidingWindow  >  NoShuffle.
  TrainFixture f("susy", DataOrder::kClustered);
  auto run = [&](ShuffleStrategy s) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    auto stream = MakeTupleStream(s, f.source.get(), sopts);
    EXPECT_TRUE(stream.ok());
    SvmModel model(f.ds.spec.dim);
    TrainerOptions topts = BasicOptions(f.ds, 10);
    topts.lr.initial = 0.005;
    auto result = Train(&model, stream->get(), topts);
    EXPECT_TRUE(result.ok());
    return result->final_test_metric;
  };
  const double no_shuffle = run(ShuffleStrategy::kNoShuffle);
  const double corgipile = run(ShuffleStrategy::kCorgiPile);
  const double shuffle_once = run(ShuffleStrategy::kShuffleOnce);
  const double sliding = run(ShuffleStrategy::kSlidingWindow);

  // NoShuffle converges clearly below the full-randomness strategies on
  // clustered binary data.
  EXPECT_LT(no_shuffle, shuffle_once - 0.08);
  // CorgiPile within 3 points of ShuffleOnce and far above NoShuffle.
  EXPECT_NEAR(corgipile, shuffle_once, 0.03);
  EXPECT_GT(corgipile, 0.72);
  EXPECT_GT(corgipile, no_shuffle + 0.08);
  // Sliding window does not beat the full-randomness strategies.
  EXPECT_LT(sliding, std::max(corgipile, shuffle_once) + 0.02);
}

TEST(TrainerTest, MiniBatchSgdLearns) {
  TrainFixture f("susy", DataOrder::kClustered);
  ShuffleOptions sopts;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kCorgiPile, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  LogisticRegression model(f.ds.spec.dim);
  TrainerOptions opts = BasicOptions(f.ds, 6);
  opts.batch_size = 128;
  opts.lr.initial = 0.5;  // batch-mean gradients need a larger step
  auto result = Train(&model, stream->get(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_test_metric, 0.72);
}

TEST(TrainerTest, MlpWithAdamLearnsMulticlass) {
  TrainFixture f("cifar10", DataOrder::kClustered, 0.2);
  ShuffleOptions sopts;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kCorgiPile, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  MlpModel model(f.ds.spec.dim, 32, f.ds.spec.num_classes);
  TrainerOptions opts = BasicOptions(f.ds, 8);
  opts.batch_size = 64;
  opts.optimizer = OptimizerKind::kAdam;
  opts.lr.initial = 0.003;
  auto result = Train(&model, stream->get(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_test_metric, 0.5);  // 10 classes, chance = 0.1
}

TEST(TrainerTest, EpochLogsArePopulated) {
  TrainFixture f("susy", DataOrder::kShuffled, 0.02);
  ShuffleOptions sopts;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kNoShuffle, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  SimClock clock;
  LogisticRegression model(f.ds.spec.dim);
  TrainerOptions opts = BasicOptions(f.ds, 3);
  opts.clock = &clock;
  auto result = Train(&model, stream->get(), opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->epochs.size(), 3u);
  for (const auto& log : result->epochs) {
    EXPECT_EQ(log.tuples_seen, f.ds.train->size());
    EXPECT_GT(log.lr, 0.0);
  }
  EXPECT_GT(clock.Elapsed(TimeCategory::kCompute), 0.0);
  EXPECT_GT(result->epochs.back().cumulative_sim_seconds, 0.0);
  // Exponential decay: lr strictly decreases across epochs.
  EXPECT_GT(result->epochs[0].lr, result->epochs[1].lr);
  EXPECT_GT(result->epochs[1].lr, result->epochs[2].lr);
}

TEST(TrainerTest, TheoremAveragingStabilizesClusteredRuns) {
  // Theorem 1's x̄_S suppresses the end-of-epoch oscillation that
  // block-clustered data induces in raw iterates: the averaged run must be
  // at least as accurate and have less epoch-to-epoch variance.
  TrainFixture f("higgs", DataOrder::kClustered, 0.1, 200);
  auto run = [&](bool averaging) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    auto stream =
        MakeTupleStream(ShuffleStrategy::kCorgiPile, f.source.get(), sopts);
    EXPECT_TRUE(stream.ok());
    SvmModel model(f.ds.spec.dim);
    TrainerOptions opts = BasicOptions(f.ds, 10);
    opts.lr.initial = 0.005;
    opts.theorem_averaging = averaging;
    auto r = Train(&model, stream->get(), opts).ValueOrDie();
    OnlineStats tail;
    for (size_t e = 5; e < r.epochs.size(); ++e) {
      tail.Add(r.epochs[e].test_metric);
    }
    return std::pair<double, double>(tail.mean(), tail.stddev());
  };
  const auto [raw_mean, raw_std] = run(false);
  const auto [avg_mean, avg_std] = run(true);
  EXPECT_GE(avg_mean, raw_mean - 0.005);
  EXPECT_LT(avg_std, raw_std + 1e-12);
}

TEST(TrainerTest, TheoremAveragingExposesAverageAsFinalModel) {
  TrainFixture f("susy", DataOrder::kShuffled, 0.02);
  ShuffleOptions sopts;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kCorgiPile, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  LogisticRegression model(f.ds.spec.dim);
  TrainerOptions opts = BasicOptions(f.ds, 4);
  opts.theorem_averaging = true;
  auto r = Train(&model, stream->get(), opts);
  ASSERT_TRUE(r.ok());
  // The model's parameters now hold x̄_S; evaluating it reproduces the
  // final logged metric exactly.
  const EvalResult eval = Evaluate(model, *f.ds.test, LabelType::kBinary);
  EXPECT_NEAR(eval.metric, r->final_test_metric, 1e-12);
}

TEST(TrainerTest, TargetMetricStopsEarly) {
  TrainFixture f("susy", DataOrder::kShuffled, 0.05);
  ShuffleOptions sopts;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kNoShuffle, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  LogisticRegression model(f.ds.spec.dim);
  TrainerOptions opts = BasicOptions(f.ds, 50);
  opts.target_metric = 0.70;
  auto result = Train(&model, stream->get(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->epochs.size(), 50u);
  EXPECT_GE(result->final_test_metric, 0.70);
}

TEST(TrainerTest, InvalidArgs) {
  LogisticRegression model(2);
  TrainerOptions opts;
  EXPECT_TRUE(Train(nullptr, nullptr, opts).status().IsInvalidArgument());
  opts.batch_size = 0;
  auto tuples = std::make_shared<std::vector<Tuple>>();
  tuples->push_back(MakeDenseTuple(0, 1.0, {1.0f, 1.0f}));
  InMemoryBlockSource src(Schema{"x", 2, false, LabelType::kBinary, 2}, tuples, 1);
  auto stream = MakeNoShuffleStream(&src);
  EXPECT_TRUE(Train(&model, stream.get(), opts).status().IsInvalidArgument());
}

TEST(GridSearchTest, PicksBestLr) {
  // Regression R² is scale-sensitive, so a vanishing learning rate really
  // cannot win (unlike sign-based classifiers, where even a tiny lr learns
  // the weight *direction*).
  TrainFixture f("yearpred", DataOrder::kShuffled, 0.02);
  ShuffleOptions sopts;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kNoShuffle, f.source.get(), sopts);
  ASSERT_TRUE(stream.ok());
  LinearRegressionModel prototype(f.ds.spec.dim);
  TrainerOptions opts = BasicOptions(f.ds, 3);
  opts.label_type = LabelType::kContinuous;
  auto result = GridSearchLr(
      prototype, [&] { return stream->get(); }, opts, {0.01, 1e-12});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best_lr, 0.01);  // 1e-12 leaves R² ≈ 0
  EXPECT_EQ(result->tried.size(), 2u);
}

}  // namespace
}  // namespace corgipile
