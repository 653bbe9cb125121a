// EpochPlan: the one derivation of CorgiPile's per-epoch order.
//
// An epoch's order has two random parts (paper Algorithm 1; §5.1 and §6.2
// for the dataloader and in-database hosts): a without-replacement
// permutation of the block ids, and a shuffle of each buffer. Every host —
// HierarchicalBlockStream (and Algorithm 1 in core/ through it),
// BlockShuffleOp → TupleShuffleOp, and CorgiPileDataset — takes both from
// the pure functions below, so an epoch's order depends on (seed, epoch,
// geometry, worker) alone. A checkpoint-resumed run replays it, and all
// workers of one epoch agree on the permutation they slice.
//
// The derivation:
//  * blocks:  EpochBlockRng(seed, epoch) = Rng(seed).Fork(epoch) shuffles
//    [0, num_blocks) (identity order when shuffle_blocks is false). The
//    first blocks_per_epoch ids are the epoch's n-of-N sample (0 = all N).
//    Worker w of W keeps the w-th of W contiguous slices of that list.
//  * buffers: EpochBufferRng(buffer_seed, epoch, worker) =
//    Rng(buffer_seed).Fork(epoch) for worker 0, and that stream's
//    Fork(worker) for worker w > 0. One stream serves all of a worker's
//    buffers in an epoch, in fill order.
//  * BufferSeed(seed) = seed ^ 0x7F names the buffer seed derived from a
//    plan seed, so the block and buffer streams never alias.

#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace corgipile {

/// The buffer-shuffle seed that goes with plan seed `seed`.
uint64_t BufferSeed(uint64_t seed);

/// The generator that permutes the block ids of `epoch`.
Rng EpochBlockRng(uint64_t seed, uint64_t epoch);

/// This worker's blocks for `epoch`, in visiting order: its contiguous
/// slice of the epoch's (optionally shuffled, optionally sampled) block
/// list. Requires worker < num_workers. Slices of a short list may be
/// empty.
std::vector<uint32_t> EpochBlockOrder(uint64_t seed, uint64_t epoch,
                                      uint32_t num_blocks,
                                      bool shuffle_blocks,
                                      uint32_t blocks_per_epoch = 0,
                                      uint32_t worker = 0,
                                      uint32_t num_workers = 1);

/// The generator that shuffles `worker`'s buffers in `epoch`.
Rng EpochBufferRng(uint64_t buffer_seed, uint64_t epoch, uint32_t worker = 0);

}  // namespace corgipile
