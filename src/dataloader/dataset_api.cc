#include "dataloader/dataset_api.h"

#include <algorithm>
#include <numeric>

namespace corgipile {

CorgiPileDataset::CorgiPileDataset(BlockSource* source, Options options)
    : source_(source), options_(options), shuffle_rng_(options.seed) {
  if (options_.buffer_tuples == 0) options_.buffer_tuples = 1;
}

Status CorgiPileDataset::StartEpoch(uint64_t epoch, uint32_t worker_id,
                                    uint32_t num_workers) {
  if (source_ == nullptr) return Status::InvalidArgument("null source");
  if (num_workers == 0 || worker_id >= num_workers) {
    return Status::InvalidArgument("bad worker id");
  }
  status_ = Status::OK();

  // All workers run this with the same seed → identical permutation; the
  // shards are therefore disjoint and cover all blocks (§5.1 step 2).
  const uint32_t n = source_->num_blocks();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (options_.shuffle_blocks) {
    Rng perm_rng(options_.seed ^ (epoch * 0x9E3779B97F4A7C15ULL));
    perm_rng.Shuffle(order);
  }

  const uint32_t base = n / num_workers;
  const uint32_t extra = n % num_workers;
  const uint32_t begin =
      worker_id * base + std::min(worker_id, extra);
  const uint32_t count = base + (worker_id < extra ? 1u : 0u);
  shard_.assign(order.begin() + begin, order.begin() + begin + count);

  // Per-worker tuple-shuffle RNG: distinct per worker and epoch.
  shuffle_rng_ = Rng(options_.seed ^ (epoch * 1315423911ULL) ^
                     (static_cast<uint64_t>(worker_id) << 32));
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
  if (options_.shuffle_tuples) shuffle_rng_.Shuffle(buffer_);
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
