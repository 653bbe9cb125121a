// BlockShuffle operator (paper §6.2 (1)).
//
// Computes BN = page_num · page_size / block_size, shuffles the block ids,
// and streams the tuples of each block by reading its contiguous pages
// (the heapgetpage() analog is TableSnapshot::ReadTuplesFromPages, which
// decodes page records straight into a reused TupleBatch). With
// shuffle_blocks = false it degenerates into PostgreSQL's sequential Scan.
//
// Sharded tables (DESIGN.md §14): the op reads through a ShardedSnapshot
// captured before the epoch loop, so concurrent inserts never shift its
// block geometry. The geometry is SnapshotBlockSource's shard-major one —
// all of shard 0's blocks, then shard 1's, … — which makes the id space
// (and hence the seeded shuffle order) at shards=1 bit-identical to the
// pre-sharding operator. The block order of each epoch comes from the
// epoch plan (shuffle/epoch_plan.h).

#pragma once

#include <vector>

#include "db/operator.h"
#include "storage/block_source.h"
#include "storage/sharded_table.h"
#include "storage/table.h"
#include "util/stream_base.h"

namespace corgipile {

class BlockShuffleOp : public WithStreamState<PhysicalOperator> {
 public:
  struct Options {
    uint64_t block_size_bytes = 10 * 1024 * 1024;
    bool shuffle_blocks = true;
    uint64_t seed = 42;
    /// Degradation policy: skip blocks whose pages fail checksum/structure
    /// verification (or permanently fail to read) instead of aborting.
    BlockReadTolerance tolerance;
  };

  BlockShuffleOp(ShardedSnapshot snapshot, Options options);

  /// Compat form: captures a fresh snapshot of `table` as a one-shard view.
  BlockShuffleOp(Table* table, Options options);

  Status Init() override;
  /// Native batched fill: copies whole runs of the decoded block into the
  /// batch arenas, one bulk copy per arena.
  bool NextBatch(TupleBatch* out) override;
  Status ReScan() override;
  /// Epoch jump without data reads: the block order of epoch e is a pure
  /// function of (seed, e), so skipping is one re-shuffle at the target
  /// epoch, not n.
  Status SkipEpochs(uint64_t n) override;
  void Close() override;

  uint32_t num_blocks() const { return source_.num_blocks(); }
  uint64_t pages_per_block() const { return source_.pages_per_block(); }

 private:
  bool LoadNextBlock();

  SnapshotBlockSource source_;
  Options options_;
  std::vector<uint32_t> block_order_;
  size_t next_block_ = 0;
  /// The decoded block, reused across blocks so its arenas stop growing
  /// after the largest block.
  TupleBatch current_block_;
  size_t pos_ = 0;
  uint64_t epoch_ = 0;
  bool initialized_ = false;
};

}  // namespace corgipile
