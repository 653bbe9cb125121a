// SgdEpochLoop: the one SGD update loop of the single-process trainers —
// Train (ml/trainer.h) over a TupleStream and SgdOp (db/sgd_op.h) over a
// physical operator both run their epochs through it.
//
// Each epoch pulls TupleBatches from the source with the batched transport
// (DESIGN.md §9). Plain per-tuple SGD (batch_size 1, kSgd) applies one
// BatchGradientStep per transport batch. Mini-batch training accumulates
// gradients over batch_size rows and lets the optimizer apply their mean;
// mini-batches are re-chunked across transport batch boundaries, so the
// update sequence — and every seeded result — is the same at every
// transport batch size, batch size 1 being the reference.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/tuple_batch.h"
#include "ml/model.h"
#include "ml/optimizer.h"

namespace corgipile {

class SgdEpochLoop {
 public:
  struct Totals {
    double loss_sum = 0.0;  ///< per-row losses, summed in emission order
    uint64_t seen = 0;      ///< rows consumed
  };

  /// `model` is borrowed and must outlive the loop. `batch_size` (>= 1) is
  /// the optimizer's mini-batch; `exec_batch_tuples` the transport batch
  /// size (0 is treated as 1).
  SgdEpochLoop(Model* model, uint32_t batch_size, OptimizerKind optimizer,
               uint32_t exec_batch_tuples);

  /// Runs one epoch over `source` (anything with the batched pull
  /// `bool NextBatch(TupleBatch*)`) at learning rate `lr`, flushing the
  /// final partial mini-batch. The caller checks the source's status().
  template <typename Source>
  Totals Run(Source* source, double lr) {
    Totals totals;
    while (source->NextBatch(&batch_)) Consume(lr, &totals);
    Flush(lr);
    return totals;
  }

 private:
  /// Applies the updates for the rows of batch_.
  void Consume(double lr, Totals* totals);
  /// Applies the mean of the accumulated mini-batch gradient, if any.
  void Flush(double lr);

  Model* model_;
  uint32_t batch_size_;
  std::unique_ptr<Optimizer> opt_;  ///< null: per-row SGD steps
  std::vector<double> grad_;
  uint32_t in_batch_ = 0;
  TupleBatch batch_;  ///< transport buffer, arena reused across epochs
};

}  // namespace corgipile
