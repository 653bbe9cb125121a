// BlockSource: the abstraction all shuffling strategies consume.
//
// A dataset is exposed as N blocks of contiguous tuples (a block is "a batch
// of table pages" in the DB integration, "a chunk of the binary file" in the
// dataloader integration). Strategies read whole blocks; the source bills
// I/O according to the access pattern.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/schema.h"
#include "storage/sharded_table.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "util/status.h"
// BlockReadTolerance (the quarantine policy consumers of this interface
// take) lives with the shared quarantine accounting in util/stream_base.h.
#include "util/stream_base.h"

namespace corgipile {

class BlockSource {
 public:
  virtual ~BlockSource() = default;

  virtual const Schema& schema() const = 0;
  virtual uint32_t num_blocks() const = 0;
  virtual uint64_t num_tuples() const = 0;
  virtual uint64_t TuplesInBlock(uint32_t block) const = 0;

  /// Appends the tuples of `block` to *out (storage order preserved).
  virtual Status ReadBlock(uint32_t block, std::vector<Tuple>* out) = 0;

  /// Epoch boundary hook; table-backed sources reset their read cursor so
  /// the first access of the next epoch is billed as a seek.
  virtual void Reset() {}
};

/// Blocks over an in-memory tuple vector (map-style dataset). Used by
/// convergence-only experiments and by the dataloader integration.
class InMemoryBlockSource : public BlockSource {
 public:
  /// `tuples_per_block` > 0. The last block may be short.
  InMemoryBlockSource(Schema schema,
                      std::shared_ptr<const std::vector<Tuple>> tuples,
                      uint64_t tuples_per_block);

  const Schema& schema() const override { return schema_; }
  uint32_t num_blocks() const override { return num_blocks_; }
  uint64_t num_tuples() const override { return tuples_->size(); }
  uint64_t TuplesInBlock(uint32_t block) const override;
  Status ReadBlock(uint32_t block, std::vector<Tuple>* out) override;

  const std::vector<Tuple>& tuples() const { return *tuples_; }

 private:
  Schema schema_;
  std::shared_ptr<const std::vector<Tuple>> tuples_;
  uint64_t tuples_per_block_;
  uint32_t num_blocks_;
};

/// Blocks over a heap-file table: each block is `pages_per_block` contiguous
/// pages, read with a single contiguous device access.
class TableBlockSource : public BlockSource {
 public:
  /// `block_size_bytes` is rounded down to a whole number of pages
  /// (minimum one page). `table` must outlive the source.
  TableBlockSource(Table* table, uint64_t block_size_bytes);

  const Schema& schema() const override { return table_->schema(); }
  uint32_t num_blocks() const override { return num_blocks_; }
  uint64_t num_tuples() const override { return table_->num_tuples(); }
  uint64_t TuplesInBlock(uint32_t block) const override;
  Status ReadBlock(uint32_t block, std::vector<Tuple>* out) override;
  void Reset() override { table_->ResetReadCursor(); }

  uint64_t pages_per_block() const { return pages_per_block_; }
  Table* table() { return table_; }

 private:
  Table* table_;
  uint64_t pages_per_block_;
  uint32_t num_blocks_;
};

/// Blocks over an immutable ShardedSnapshot: each block is
/// `pages_per_block` contiguous pages of one shard, enumerated shard-major
/// (all of shard 0's blocks, then shard 1's, …), so at shards=1 the block
/// ids are identical to TableBlockSource over the same table. This is the
/// one block geometry of the in-database host: BlockShuffleOp reads
/// through it, and the stream strategies TRAIN BY hosts use it directly.
/// Reads never see concurrently appended pages (the snapshot discipline in
/// DESIGN.md §14).
class SnapshotBlockSource : public BlockSource {
 public:
  /// `block_size_bytes` is rounded down to a whole number of pages
  /// (minimum one page). The snapshot's parent table must outlive the
  /// source.
  SnapshotBlockSource(ShardedSnapshot snapshot, uint64_t block_size_bytes);

  const Schema& schema() const override { return snapshot_.schema(); }
  uint32_t num_blocks() const override {
    return static_cast<uint32_t>(blocks_.size());
  }
  uint64_t num_tuples() const override { return snapshot_.num_tuples(); }
  uint64_t TuplesInBlock(uint32_t block) const override;
  Status ReadBlock(uint32_t block, std::vector<Tuple>* out) override;
  /// Batch form: decodes the block's page records straight into `out`'s
  /// arenas (appending). On error `out` may hold a prefix of the rows.
  Status ReadBlock(uint32_t block, TupleBatch* out);
  void Reset() override { snapshot_.ResetReadCursors(); }

  const ShardedSnapshot& snapshot() const { return snapshot_; }
  uint64_t pages_per_block() const { return pages_per_block_; }

 private:
  struct BlockRef {
    uint32_t shard = 0;
    uint64_t first_page = 0;
    uint64_t page_count = 0;
  };

  ShardedSnapshot snapshot_;
  uint64_t pages_per_block_;
  std::vector<BlockRef> blocks_;
};

}  // namespace corgipile
