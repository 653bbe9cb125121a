#include "shuffle/mrs.h"

#include <algorithm>
#include <cmath>

namespace corgipile {

MrsStream::MrsStream(BlockSource* source, uint64_t reservoir_tuples,
                     double loop_ratio, uint64_t seed)
    : source_(source),
      reservoir_capacity_(std::max<uint64_t>(1, reservoir_tuples)),
      loop_ratio_(loop_ratio), epoch_rng_(seed), rng_(seed) {}

Status MrsStream::StartEpoch(uint64_t epoch) {
  status_ = Status::OK();
  source_->Reset();
  rng_ = epoch_rng_.Fork(epoch);
  reservoir_.clear();
  reservoir_.reserve(reservoir_capacity_);
  loop_buf_.clear();
  loop_pos_ = 0;
  loop_credit_ = 0.0;
  seen_ = 0;
  block_buf_.clear();
  block_buf_pos_ = 0;
  next_block_ = 0;
  return Status::OK();
}

bool MrsStream::PullScanned(Tuple* out) {
  while (block_buf_pos_ >= block_buf_.size()) {
    if (next_block_ >= source_->num_blocks()) return false;
    block_buf_.clear();
    block_buf_pos_ = 0;
    Status st = source_->ReadBlock(next_block_++, &block_buf_);
    if (!st.ok()) {
      status_ = st;
      return false;
    }
  }
  *out = std::move(block_buf_[block_buf_pos_++]);
  return true;
}

bool MrsStream::EmitNext(Tuple* out) {
  // Thread-2 emissions owed from previous drops.
  if (loop_credit_ >= 1.0 && !loop_buf_.empty()) {
    loop_credit_ -= 1.0;
    if (loop_pos_ >= loop_buf_.size()) {
      // The loop wrapped: refresh the snapshot from the live reservoir.
      loop_buf_ = reservoir_;
      loop_pos_ = 0;
      if (loop_buf_.empty()) return false;
    }
    *out = loop_buf_[loop_pos_++];
    return true;
  }

  // Thread-1: scan with reservoir sampling until a tuple is dropped.
  Tuple t;
  for (;;) {
    if (!PullScanned(&t)) return false;  // epoch end; reservoir retained
    ++seen_;
    if (reservoir_.size() < reservoir_capacity_) {
      reservoir_.push_back(std::move(t));
      peak_reservoir_ = std::max<uint64_t>(peak_reservoir_, reservoir_.size());
      continue;  // absorbed, nothing to emit yet
    }
    if (loop_buf_.empty()) loop_buf_ = reservoir_;  // first warm snapshot
    const double keep_p =
        static_cast<double>(reservoir_capacity_) / static_cast<double>(seen_);
    if (rng_.NextDouble() < keep_p) {
      // t enters the reservoir; the evicted tuple is the dropped one.
      const size_t j = static_cast<size_t>(rng_.Uniform(reservoir_.size()));
      *out = std::move(reservoir_[j]);
      reservoir_[j] = std::move(t);
    } else {
      *out = std::move(t);  // t itself is dropped
    }
    loop_credit_ += loop_ratio_;
    return true;
  }
}

bool MrsStream::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && EmitNext(&current_)) out->Append(current_);
  return !out->empty();
}

uint64_t MrsStream::TuplesPerEpoch() const {
  const uint64_t m = source_->num_tuples();
  const uint64_t dropped = m > reservoir_capacity_ ? m - reservoir_capacity_ : 0;
  return dropped +
         static_cast<uint64_t>(std::floor(loop_ratio_ * static_cast<double>(dropped)));
}

}  // namespace corgipile
