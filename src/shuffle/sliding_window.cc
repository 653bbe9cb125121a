#include "shuffle/sliding_window.h"

#include <algorithm>

namespace corgipile {

SlidingWindowStream::SlidingWindowStream(BlockSource* source,
                                         uint64_t window_tuples, uint64_t seed)
    : source_(source), window_capacity_(std::max<uint64_t>(1, window_tuples)),
      epoch_rng_(seed), rng_(seed) {}

Status SlidingWindowStream::StartEpoch(uint64_t epoch) {
  status_ = Status::OK();
  source_->Reset();
  rng_ = epoch_rng_.Fork(epoch);
  window_.clear();
  window_.reserve(window_capacity_);
  block_buf_.clear();
  block_buf_pos_ = 0;
  next_block_ = 0;
  return Status::OK();
}

bool SlidingWindowStream::PullScanned(Tuple* out) {
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

bool SlidingWindowStream::EmitNext(Tuple* out) {
  // Fill phase: absorb scanned tuples until the window is full.
  Tuple incoming;
  while (window_.size() < window_capacity_) {
    if (!PullScanned(&incoming)) break;
    window_.push_back(std::move(incoming));
  }
  peak_window_ = std::max<uint64_t>(peak_window_, window_.size());
  if (window_.empty()) return false;

  if (PullScanned(&incoming)) {
    // Steady state: emit a random window slot, refill it with the incoming
    // tuple (paper §3.3 steps 2–3).
    const size_t j = static_cast<size_t>(rng_.Uniform(window_.size()));
    *out = std::move(window_[j]);
    window_[j] = std::move(incoming);
    return true;
  }
  // Drain phase: random removal until empty.
  const size_t j = static_cast<size_t>(rng_.Uniform(window_.size()));
  *out = std::move(window_[j]);
  window_[j] = std::move(window_.back());
  window_.pop_back();
  return true;
}

bool SlidingWindowStream::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && EmitNext(&current_)) out->Append(current_);
  return !out->empty();
}

}  // namespace corgipile
