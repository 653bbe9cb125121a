#include "shuffle/epoch_plan.h"

#include <algorithm>
#include <numeric>

namespace corgipile {

uint64_t BufferSeed(uint64_t seed) { return seed ^ 0x7F; }

Rng EpochBlockRng(uint64_t seed, uint64_t epoch) {
  return Rng(seed).Fork(epoch);
}

std::vector<uint32_t> EpochBlockOrder(uint64_t seed, uint64_t epoch,
                                      uint32_t num_blocks,
                                      bool shuffle_blocks,
                                      uint32_t blocks_per_epoch,
                                      uint32_t worker, uint32_t num_workers) {
  std::vector<uint32_t> order(num_blocks);
  std::iota(order.begin(), order.end(), 0u);
  if (shuffle_blocks) EpochBlockRng(seed, epoch).Shuffle(order);
  if (blocks_per_epoch > 0 && blocks_per_epoch < num_blocks) {
    order.resize(blocks_per_epoch);
  }
  // Contiguous slices; the first n % W workers take one extra block.
  const uint32_t n = static_cast<uint32_t>(order.size());
  const uint32_t base = n / num_workers;
  const uint32_t extra = n % num_workers;
  const uint32_t begin = worker * base + std::min(worker, extra);
  const uint32_t count = base + (worker < extra ? 1u : 0u);
  return std::vector<uint32_t>(order.begin() + begin,
                               order.begin() + begin + count);
}

Rng EpochBufferRng(uint64_t buffer_seed, uint64_t epoch, uint32_t worker) {
  Rng rng = Rng(buffer_seed).Fork(epoch);
  return worker == 0 ? rng : rng.Fork(worker);
}

}  // namespace corgipile
