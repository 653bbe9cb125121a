// Multiplexed Reservoir Sampling shuffle (Bismarck, paper §3.4).
//
// Bismarck runs two concurrent threads against a shared model: thread 1
// scans sequentially with reservoir sampling — tuples *not* retained in the
// reservoir (including evicted ones) are fed to SGD; thread 2 loops over a
// copy of the reservoir, feeding buffered tuples to SGD repeatedly.
//
// We reproduce this with a deterministic interleave: once the reservoir is
// warm, each dropped (scanned) tuple emission is followed by
// `loop_ratio` emissions from the loop buffer, which is re-snapshotted from
// the reservoir each time it wraps. This keeps the defining property the
// paper analyzes — dropped tuples arrive in roughly storage order and
// buffered tuples repeat, skewing the distribution — without real threads.

#pragma once

#include <vector>

#include "shuffle/tuple_stream.h"
#include "util/rng.h"

namespace corgipile {

class MrsStream : public TupleStream {
 public:
  MrsStream(BlockSource* source, uint64_t reservoir_tuples, double loop_ratio,
            uint64_t seed);

  const char* name() const override { return "mrs"; }
  Status StartEpoch(uint64_t epoch) override;
  /// Native batched fill: runs the multiplexed emission step inline per
  /// slot, one virtual call per batch.
  bool NextBatch(TupleBatch* out) override;
  Status status() const override { return status_; }
  uint64_t TuplesPerEpoch() const override;
  uint64_t PeakBufferTuples() const override { return peak_reservoir_; }

 private:
  /// One multiplexed emission (loop-buffer replay or reservoir drop) into
  /// *out; false when the epoch is exhausted.
  bool EmitNext(Tuple* out);
  bool PullScanned(Tuple* out);

  BlockSource* source_;
  uint64_t reservoir_capacity_;
  double loop_ratio_;
  Rng epoch_rng_;
  Rng rng_;

  std::vector<Tuple> reservoir_;  // B1
  std::vector<Tuple> loop_buf_;   // B2 (snapshot of B1)
  size_t loop_pos_ = 0;
  double loop_credit_ = 0.0;
  uint64_t seen_ = 0;

  std::vector<Tuple> block_buf_;
  size_t block_buf_pos_ = 0;
  uint32_t next_block_ = 0;
  Tuple current_;
  uint64_t peak_reservoir_ = 0;
  Status status_;
};

}  // namespace corgipile
