// Bench-side tracing: span accumulators plus decorators that time calls into
// the engine's layers from outside the program.
//
// TracedOp wraps a PhysicalOperator and TracedModel wraps a Model. Both
// forward every virtual the engine calls on the hot path (NextBatch, ReScan,
// SkipEpochs, status, the quarantine counters; every Batch* kernel and
// Clone) to the wrapped object, so a decorated pipeline runs exactly the
// kernels the undecorated one runs. Only the batched calls are timed: a
// per-tuple call is too short to time without changing what is measured.
//
// Spans are plain atomic sums, so decorators on concurrent sessions, the
// TupleShuffle producer thread and the serving workers may all add to one
// LayerSpans.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "db/operator.h"
#include "ml/model.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Busy time, call count and rows of one layer boundary.
struct Span {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> rows{0};

  void Add(uint64_t dns, uint64_t nrows) {
    ns.fetch_add(dns, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
    rows.fetch_add(nrows, std::memory_order_relaxed);
  }
  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

/// Every span the traced run records, one per layer boundary.
struct LayerSpans {
  Span block_fetch;     ///< BlockShuffleOp::NextBatch (page read, CRC, decode)
  Span shuffle_pull;    ///< TupleShuffleOp::NextBatch, as SgdOp waits on it
  Span shuffle_rescan;  ///< TupleShuffleOp::ReScan (producer stop + restart)
  Span shuffle_fill;    ///< staging-buffer fills (from the op's timeline)
  Span sgd_epoch;       ///< SgdOp::NextEpoch
  Span grad_step;       ///< Model::BatchGradientStep / BatchAccumulateGrad
  Span eval;            ///< Model::BatchEvaluate / BatchLoss
  Span merge_scan;      ///< CollectSnapshot (shard merge scan)
  Span engine;          ///< InferenceEngine Start → Submit → Drain
  Span append;          ///< Session::Insert → ShardedTable::AppendTuples
  Span parse;           ///< ParseQuery
};

/// Decorates an operator; times NextBatch into `pull` and ReScan into
/// `rescan` (either may be null). Borrows `inner`.
class TracedOp final : public corgipile::PhysicalOperator {
 public:
  TracedOp(corgipile::PhysicalOperator* inner, Span* pull, Span* rescan)
      : inner_(inner), pull_(pull), rescan_(rescan) {}

  const char* name() const override { return inner_->name(); }
  corgipile::Status Init() override { return inner_->Init(); }
  const corgipile::Tuple* Next() override { return inner_->Next(); }

  bool NextBatch(corgipile::TupleBatch* out) override {
    const uint64_t t0 = NowNs();
    const bool got = inner_->NextBatch(out);
    if (pull_ != nullptr) pull_->Add(NowNs() - t0, out->size());
    return got;
  }

  corgipile::Status ReScan() override {
    const uint64_t t0 = NowNs();
    corgipile::Status st = inner_->ReScan();
    if (rescan_ != nullptr) rescan_->Add(NowNs() - t0, 0);
    return st;
  }

  corgipile::Status SkipEpochs(uint64_t n) override {
    return inner_->SkipEpochs(n);
  }
  void Close() override { inner_->Close(); }
  corgipile::Status status() const override { return inner_->status(); }
  uint64_t QuarantinedBlocks() const override {
    return inner_->QuarantinedBlocks();
  }
  uint64_t SkippedTuples() const override { return inner_->SkippedTuples(); }

 private:
  corgipile::PhysicalOperator* inner_;
  Span* pull_;
  Span* rescan_;
};

/// Decorates a model; times the gradient kernels into spans->grad_step and
/// the evaluation kernels into spans->eval. Owns `inner`.
class TracedModel final : public corgipile::Model {
 public:
  TracedModel(std::unique_ptr<corgipile::Model> inner, LayerSpans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  const corgipile::Model& inner() const { return *inner_; }

  const char* name() const override { return inner_->name(); }
  size_t num_params() const override { return inner_->num_params(); }
  uint32_t input_dim() const override { return inner_->input_dim(); }
  std::vector<double>& params() override { return inner_->params(); }
  const std::vector<double>& params() const override {
    return inner_->params();
  }
  void InitParams(uint64_t seed) override { inner_->InitParams(seed); }
  double SgdStep(const corgipile::Tuple& t, double lr) override {
    return inner_->SgdStep(t, lr);
  }
  double AccumulateGrad(const corgipile::Tuple& t,
                        std::vector<double>* grad) const override {
    return inner_->AccumulateGrad(t, grad);
  }
  double Loss(const corgipile::Tuple& t) const override {
    return inner_->Loss(t);
  }
  double Predict(const corgipile::Tuple& t) const override {
    return inner_->Predict(t);
  }
  bool Correct(const corgipile::Tuple& t) const override {
    return inner_->Correct(t);
  }
  bool TopKCorrect(const corgipile::Tuple& t, uint32_t k) const override {
    return inner_->TopKCorrect(t, k);
  }

  void BatchGradientStep(const corgipile::TupleBatch& b, double lr,
                         double* loss_sum) override {
    const uint64_t t0 = NowNs();
    inner_->BatchGradientStep(b, lr, loss_sum);
    spans_->grad_step.Add(NowNs() - t0, b.size());
  }
  void BatchAccumulateGrad(const corgipile::TupleBatch& b, size_t begin,
                           size_t end, std::vector<double>* grad,
                           double* loss_sum) const override {
    const uint64_t t0 = NowNs();
    inner_->BatchAccumulateGrad(b, begin, end, grad, loss_sum);
    spans_->grad_step.Add(NowNs() - t0, end - begin);
  }
  void BatchLoss(const corgipile::TupleBatch& b,
                 double* loss_sum) const override {
    const uint64_t t0 = NowNs();
    inner_->BatchLoss(b, loss_sum);
    spans_->eval.Add(NowNs() - t0, b.size());
  }
  void BatchEvaluate(const corgipile::TupleBatch& b, double* predictions,
                     double* losses, uint8_t* corrects) const override {
    const uint64_t t0 = NowNs();
    inner_->BatchEvaluate(b, predictions, losses, corrects);
    spans_->eval.Add(NowNs() - t0, b.size());
  }

  std::unique_ptr<corgipile::Model> Clone() const override {
    return std::make_unique<TracedModel>(inner_->Clone(), spans_);
  }

 private:
  std::unique_ptr<corgipile::Model> inner_;
  LayerSpans* spans_;
};

}  // namespace perfbench
