#include "db/stream_adapter_op.h"

namespace corgipile {

StreamAdapterOp::StreamAdapterOp(std::unique_ptr<TupleStream> stream,
                                 std::unique_ptr<BlockSource> source)
    : stream_(std::move(stream)), source_(std::move(source)) {}

Status StreamAdapterOp::Init() {
  if (stream_ == nullptr) return Status::InvalidArgument("null stream");
  epoch_ = 0;
  return stream_->StartEpoch(epoch_);
}

Status StreamAdapterOp::ReScan() { return stream_->StartEpoch(++epoch_); }

void StreamAdapterOp::Close() {}

}  // namespace corgipile
