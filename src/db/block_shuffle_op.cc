#include "db/block_shuffle_op.h"

#include <algorithm>

#include "shuffle/epoch_plan.h"

namespace corgipile {

BlockShuffleOp::BlockShuffleOp(ShardedSnapshot snapshot, Options options)
    : WithStreamState("BlockShuffle"),
      source_(std::move(snapshot), options.block_size_bytes),
      options_(options) {}

BlockShuffleOp::BlockShuffleOp(Table* table, Options options)
    : BlockShuffleOp(table == nullptr
                         ? ShardedSnapshot()
                         : ShardedSnapshot({table->Snapshot()}),
                     options) {}

Status BlockShuffleOp::Init() {
  if (!source_.snapshot().valid()) {
    return Status::InvalidArgument("empty snapshot");
  }
  initialized_ = true;
  epoch_ = 0;
  return ReScan();
}

Status BlockShuffleOp::ReScan() {
  if (!initialized_) return Status::Internal("ReScan before Init");
  clear_status();
  block_order_ = EpochBlockOrder(options_.seed, epoch_++, num_blocks(),
                                 options_.shuffle_blocks);
  next_block_ = 0;
  current_block_.Clear();
  pos_ = 0;
  quarantine().BeginEpoch();
  source_.Reset();
  return Status::OK();
}

Status BlockShuffleOp::SkipEpochs(uint64_t n) {
  if (n == 0) return Status::OK();
  if (!initialized_) return Status::Internal("SkipEpochs before Init");
  // After Init/ReScan the op serves epoch_ - 1; land on (epoch_ - 1) + n.
  epoch_ += n - 1;
  return ReScan();
}

bool BlockShuffleOp::LoadNextBlock() {
  while (next_block_ < block_order_.size()) {
    const uint32_t block = block_order_[next_block_++];
    current_block_.Clear();
    pos_ = 0;
    Status st = source_.ReadBlock(block, &current_block_);
    if (!st.ok()) {
      // Quarantine: drop whatever the partial read produced and move on.
      current_block_.Clear();
      Status admitted = quarantine().Admit(
          st, options_.tolerance, source_.TuplesInBlock(block), num_blocks());
      if (!admitted.ok()) {
        set_status(std::move(admitted));
        return false;
      }
      continue;
    }
    if (!current_block_.empty()) return true;
  }
  return false;
}

bool BlockShuffleOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= current_block_.size()) {
      if (!LoadNextBlock()) break;
    }
    const size_t take = std::min(current_block_.size() - pos_,
                                 out->target_tuples() - out->size());
    out->AppendRange(current_block_, pos_, pos_ + take);
    pos_ += take;
  }
  return !out->empty();
}

void BlockShuffleOp::Close() {
  current_block_.Clear();
  block_order_.clear();
}

}  // namespace corgipile
