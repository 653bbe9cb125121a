// Test helpers that drain the batched transport into materialized tuples.
//
// Batch size 1 is the reference every transport batch size must match, so
// most callers pass batch_tuples = 1 when building expected sequences.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exec/batch_stream.h"

namespace corgipile {

/// Drains what is left of the current epoch (or scan) of `source` — a
/// shuffle stream, a loader dataset or a physical operator — in batches of
/// `batch_tuples`, returning the tuples in emission order. Does not check
/// status(); callers that expect a clean end do.
template <typename Source>
std::vector<Tuple> DrainRest(
    Source* source, size_t batch_tuples = TupleBatch::kDefaultTargetTuples) {
  std::vector<Tuple> out;
  TupleBatch batch(batch_tuples);
  while (source->NextBatch(&batch)) {
    EXPECT_LE(batch.size(), batch_tuples);
    for (size_t i = 0; i < batch.size(); ++i) out.push_back(batch.ToTuple(i));
  }
  return out;
}

/// Starts `epoch` on `stream` and drains it, expecting a clean epoch.
inline std::vector<Tuple> DrainEpoch(
    BatchStream* stream, uint64_t epoch,
    size_t batch_tuples = TupleBatch::kDefaultTargetTuples) {
  EXPECT_TRUE(stream->StartEpoch(epoch).ok());
  std::vector<Tuple> out = DrainRest(stream, batch_tuples);
  EXPECT_TRUE(stream->status().ok()) << stream->status().ToString();
  return out;
}

/// The ids of `tuples`, in order.
inline std::vector<uint64_t> Ids(const std::vector<Tuple>& tuples) {
  std::vector<uint64_t> ids;
  ids.reserve(tuples.size());
  for (const Tuple& t : tuples) ids.push_back(t.id);
  return ids;
}

}  // namespace corgipile
