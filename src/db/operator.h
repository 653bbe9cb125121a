// Volcano-style physical operator interface (paper §6.2), extended with the
// batched transport of DESIGN.md §9.
//
// Mirrors PostgreSQL's executor protocol: ExecInit → getNext* → ExecReScan
// (per epoch) → Close. Operators move whole TupleBatches (NextBatch); a
// scan's batches concatenate to the batch-of-one order at every transport
// batch size.

#pragma once

#include <memory>

#include "exec/tuple_batch.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace corgipile {

class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual const char* name() const = 0;

  /// One-time initialization (buffers, model state, ...).
  virtual Status Init() = 0;

  /// Clears *out and fills it with up to out->target_tuples() tuples in
  /// scan order; returns true iff at least one was appended. After false,
  /// check status().
  virtual bool NextBatch(TupleBatch* out) = 0;

  /// Convenience pull of one tuple: a one-row NextBatch, materialized. The
  /// pointer stays valid until the next call; nullptr at end-of-scan / on
  /// error. Virtual only because the benchmark's operator decorators
  /// (perfbench/src/traced.h, perfbench/src/selftest.cc) override it.
  virtual const Tuple* Next() {
    if (!NextBatch(&next_row_)) return nullptr;
    next_row_.MaterializeTo(0, &next_tuple_);
    return &next_tuple_;
  }

  /// Resets the scan for the next epoch (PostgreSQL's re-scan mechanism):
  /// reshuffle block ids, reset buffers, and recurse into children.
  virtual Status ReScan() = 0;

  /// Advances the scan by `n` epochs without serving their tuples, so a
  /// checkpoint-resumed run aligns every per-epoch RNG stream with where
  /// the original run would be. Every operator's epoch state is a pure
  /// function of (seed, epoch), so the default — n re-scans — is always
  /// correct; operators that buffer or prefetch data override it to skip
  /// without reading.
  virtual Status SkipEpochs(uint64_t n) {
    for (; n > 0; --n) CORGI_RETURN_NOT_OK(ReScan());
    return Status::OK();
  }

  /// Releases resources. Idempotent.
  virtual void Close() = 0;

  virtual Status status() const { return Status::OK(); }

  /// Unreadable/corrupt blocks skipped so far under a BlockReadTolerance
  /// policy, and the tuples lost with them. Operators with children should
  /// aggregate their subtree.
  virtual uint64_t QuarantinedBlocks() const { return 0; }
  virtual uint64_t SkippedTuples() const { return 0; }

 private:
  TupleBatch next_row_{1};
  Tuple next_tuple_;
};

}  // namespace corgipile
