// Adapts any shuffle-strategy TupleStream into a Volcano physical operator,
// so the Sliding-Window and MRS baselines (which the paper implements
// outside the database) can also be executed through the engine for
// apples-to-apples comparisons.

#pragma once

#include <memory>

#include "db/operator.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"

namespace corgipile {

class StreamAdapterOp : public PhysicalOperator {
 public:
  /// Owns both the stream and (optionally) the block source it reads.
  StreamAdapterOp(std::unique_ptr<TupleStream> stream,
                  std::unique_ptr<BlockSource> source = nullptr);

  const char* name() const override { return "StreamAdapter"; }
  Status Init() override;
  /// Forwards to the wrapped stream's native batched fill.
  bool NextBatch(TupleBatch* out) override { return stream_->NextBatch(out); }
  Status ReScan() override;
  void Close() override;
  Status status() const override { return stream_->status(); }
  uint64_t QuarantinedBlocks() const override {
    return stream_->QuarantinedBlocks();
  }
  uint64_t SkippedTuples() const override { return stream_->SkippedTuples(); }

  TupleStream* stream() { return stream_.get(); }

 private:
  std::unique_ptr<TupleStream> stream_;
  std::unique_ptr<BlockSource> source_;
  uint64_t epoch_ = 0;
};

}  // namespace corgipile
