#include "dataloader/dataset_api.h"

#include <algorithm>

#include "shuffle/epoch_plan.h"

namespace corgipile {

CorgiPileDataset::CorgiPileDataset(BlockSource* source, Options options)
    : source_(source), options_(options) {
  if (options_.buffer_tuples == 0) options_.buffer_tuples = 1;
}

Status CorgiPileDataset::StartEpoch(uint64_t epoch, uint32_t worker_id,
                                    uint32_t num_workers) {
  if (source_ == nullptr) return Status::InvalidArgument("null source");
  if (num_workers == 0 || worker_id >= num_workers) {
    return Status::InvalidArgument("bad worker id");
  }
  status_ = Status::OK();

  // All workers slice the same epoch permutation, so the shards are
  // disjoint and cover all blocks (§5.1 step 2).
  shard_ = EpochBlockOrder(options_.seed, epoch, source_->num_blocks(),
                           options_.shuffle_blocks, /*blocks_per_epoch=*/0,
                           worker_id, num_workers);
  buffer_rng_ = EpochBufferRng(BufferSeed(options_.seed), epoch, worker_id);
  next_block_ = 0;
  buffer_.clear();
  pos_ = 0;
  return Status::OK();
}

bool CorgiPileDataset::RefillBuffer() {
  buffer_.clear();
  pos_ = 0;
  while (next_block_ < shard_.size() &&
         buffer_.size() < options_.buffer_tuples) {
    Status st = source_->ReadBlock(shard_[next_block_], &buffer_);
    if (!st.ok()) {
      status_ = st;
      return false;
    }
    ++next_block_;
  }
  if (buffer_.empty()) return false;
  if (options_.shuffle_tuples) buffer_rng_.Shuffle(buffer_);
  return true;
}

bool CorgiPileDataset::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= buffer_.size()) {
      if (!RefillBuffer()) break;
    }
    const size_t take =
        std::min(buffer_.size() - pos_, out->target_tuples() - out->size());
    for (size_t i = 0; i < take; ++i) out->Append(buffer_[pos_ + i]);
    pos_ += take;
  }
  return !out->empty();
}

}  // namespace corgipile
