// TRAIN and PREDICT statements composed from the engine's public calls,
// with a timing decorator around each operator and around the model.
//
// ComposedTrain builds the operator pipeline Database::Train builds for
// strategy=corgipile (BlockShuffleOp → TupleShuffleOp → SgdOp, with the
// same seed derivations, buffer_tuples and default exec_batch_tuples) and
// publishes the trained model the same way. ComposedPredict is
// Database::Predict: CollectSnapshot, InferenceEngine Start/Submit/Drain,
// EvalAccumulator. For the same statement on the same table, each returns
// results bit-identical to the untraced statement; the benchmark checks
// this on every traced run.

#pragma once

#include <vector>

#include "db/database.h"
#include "traced.h"
#include "util/threadpool.h"

namespace perfbench {

/// What the traced TRAIN adds beyond InDbTrainResult: the trained params
/// and the SGD tuples processed.
struct ComposedTrainResult {
  corgipile::InDbTrainResult result;
  std::vector<double> params;
  uint64_t tuples = 0;
};

/// `test_set` and `label_type` are what RegisterDataset recorded for the
/// table. Only model kind `lr` and strategy `corgipile` are supported; the
/// published model is a TracedModel, so serving it is traced too.
corgipile::Result<ComposedTrainResult> ComposedTrain(
    corgipile::Database* db, const corgipile::TrainStatement& stmt,
    const std::vector<corgipile::Tuple>* test_set,
    corgipile::LabelType label_type, LayerSpans* spans);

/// `pool` serves the merge scan of multi-shard tables (the engine uses its
/// own shared pool; the merge order does not depend on which).
corgipile::Result<corgipile::InDbPredictResult> ComposedPredict(
    corgipile::Database* db, const corgipile::PredictStatement& stmt,
    corgipile::LabelType label_type, corgipile::ThreadPool* pool,
    LayerSpans* spans);

}  // namespace perfbench
