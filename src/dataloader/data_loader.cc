#include "dataloader/data_loader.h"

namespace corgipile {

DataLoader::DataLoader(IterableDataset* dataset, Options options)
    : dataset_(dataset), options_(options) {
  if (options_.batch_size == 0) options_.batch_size = 1;
}

Status DataLoader::StartEpoch(uint64_t epoch) {
  if (dataset_ == nullptr) return Status::InvalidArgument("null dataset");
  return dataset_->StartEpoch(epoch, options_.worker_id,
                              options_.num_workers);
}

Result<bool> DataLoader::NextBatch(TupleBatch* batch) {
  batch->set_target_tuples(options_.batch_size);
  const bool got = dataset_->NextBatch(batch);
  if (batch->size() < options_.batch_size) {
    // Short or empty fill: the shard ended (or errored) mid-batch.
    CORGI_RETURN_NOT_OK(dataset_->status());
  }
  if (!got) return false;
  if (options_.drop_last && batch->size() < options_.batch_size) {
    batch->Clear();
    return false;
  }
  return true;
}

}  // namespace corgipile
