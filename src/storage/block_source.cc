#include "storage/block_source.h"

#include <algorithm>

namespace corgipile {

InMemoryBlockSource::InMemoryBlockSource(
    Schema schema, std::shared_ptr<const std::vector<Tuple>> tuples,
    uint64_t tuples_per_block)
    : schema_(std::move(schema)), tuples_(std::move(tuples)),
      tuples_per_block_(std::max<uint64_t>(1, tuples_per_block)) {
  num_blocks_ = static_cast<uint32_t>(
      (tuples_->size() + tuples_per_block_ - 1) / tuples_per_block_);
}

uint64_t InMemoryBlockSource::TuplesInBlock(uint32_t block) const {
  const uint64_t begin = block * tuples_per_block_;
  const uint64_t end =
      std::min<uint64_t>(begin + tuples_per_block_, tuples_->size());
  return end > begin ? end - begin : 0;
}

Status InMemoryBlockSource::ReadBlock(uint32_t block,
                                      std::vector<Tuple>* out) {
  if (block >= num_blocks_) return Status::OutOfRange("block index");
  const uint64_t begin = block * tuples_per_block_;
  const uint64_t end =
      std::min<uint64_t>(begin + tuples_per_block_, tuples_->size());
  out->insert(out->end(), tuples_->begin() + static_cast<long>(begin),
              tuples_->begin() + static_cast<long>(end));
  return Status::OK();
}

TableBlockSource::TableBlockSource(Table* table, uint64_t block_size_bytes)
    : table_(table) {
  pages_per_block_ =
      std::max<uint64_t>(1, block_size_bytes / table->options().page_size);
  num_blocks_ = static_cast<uint32_t>(
      (table->num_pages() + pages_per_block_ - 1) / pages_per_block_);
}

uint64_t TableBlockSource::TuplesInBlock(uint32_t block) const {
  const uint64_t first = block * pages_per_block_;
  const uint64_t last =
      std::min<uint64_t>(first + pages_per_block_, table_->num_pages());
  uint64_t n = 0;
  for (uint64_t p = first; p < last; ++p) n += table_->TuplesInPage(p);
  return n;
}

Status TableBlockSource::ReadBlock(uint32_t block, std::vector<Tuple>* out) {
  if (block >= num_blocks_) return Status::OutOfRange("block index");
  const uint64_t first = block * pages_per_block_;
  const uint64_t count =
      std::min<uint64_t>(pages_per_block_, table_->num_pages() - first);
  return table_->ReadTuplesFromPages(first, count, out);
}

SnapshotBlockSource::SnapshotBlockSource(ShardedSnapshot snapshot,
                                         uint64_t block_size_bytes)
    : snapshot_(std::move(snapshot)) {
  pages_per_block_ = std::max<uint64_t>(
      1, snapshot_.valid()
             ? block_size_bytes / snapshot_.options().page_size
             : 1);
  for (size_t s = 0; s < snapshot_.num_shards(); ++s) {
    const uint64_t pages = snapshot_.shard(s).num_pages();
    for (uint64_t first = 0; first < pages; first += pages_per_block_) {
      BlockRef ref;
      ref.shard = static_cast<uint32_t>(s);
      ref.first_page = first;
      ref.page_count = std::min<uint64_t>(pages_per_block_, pages - first);
      blocks_.push_back(ref);
    }
  }
}

uint64_t SnapshotBlockSource::TuplesInBlock(uint32_t block) const {
  if (block >= blocks_.size()) return 0;
  const BlockRef& ref = blocks_[block];
  const TableSnapshot& shard = snapshot_.shard(ref.shard);
  uint64_t n = 0;
  for (uint64_t p = ref.first_page; p < ref.first_page + ref.page_count; ++p) {
    n += shard.TuplesInPage(p);
  }
  return n;
}

Status SnapshotBlockSource::ReadBlock(uint32_t block,
                                      std::vector<Tuple>* out) {
  if (block >= blocks_.size()) return Status::OutOfRange("block index");
  const BlockRef& ref = blocks_[block];
  return snapshot_.shard(ref.shard)
      .ReadTuplesFromPages(ref.first_page, ref.page_count, out);
}

Status SnapshotBlockSource::ReadBlock(uint32_t block, TupleBatch* out) {
  if (block >= blocks_.size()) return Status::OutOfRange("block index");
  const BlockRef& ref = blocks_[block];
  return snapshot_.shard(ref.shard)
      .ReadTuplesFromPages(ref.first_page, ref.page_count, out);
}

}  // namespace corgipile
