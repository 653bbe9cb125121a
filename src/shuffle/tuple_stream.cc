#include "shuffle/tuple_stream.h"

#include <algorithm>
#include <filesystem>

#include "shuffle/full_shuffle.h"
#include "shuffle/hierarchical.h"
#include "shuffle/mrs.h"
#include "shuffle/sliding_window.h"

namespace corgipile {

std::string ResolveScratchDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  std::error_code ec;
  std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) return ".";  // last resort: the working directory
  return tmp.string();
}

const char* ShuffleStrategyToString(ShuffleStrategy s) {
  switch (s) {
    case ShuffleStrategy::kNoShuffle: return "no_shuffle";
    case ShuffleStrategy::kShuffleOnce: return "shuffle_once";
    case ShuffleStrategy::kEpochShuffle: return "epoch_shuffle";
    case ShuffleStrategy::kSlidingWindow: return "sliding_window";
    case ShuffleStrategy::kMrs: return "mrs";
    case ShuffleStrategy::kBlockOnly: return "block_only";
    case ShuffleStrategy::kCorgiPile: return "corgipile";
  }
  return "?";
}

Result<ShuffleStrategy> ShuffleStrategyFromString(const std::string& name) {
  for (ShuffleStrategy s :
       {ShuffleStrategy::kNoShuffle, ShuffleStrategy::kShuffleOnce,
        ShuffleStrategy::kEpochShuffle, ShuffleStrategy::kSlidingWindow,
        ShuffleStrategy::kMrs, ShuffleStrategy::kBlockOnly,
        ShuffleStrategy::kCorgiPile}) {
    if (name == ShuffleStrategyToString(s)) return s;
  }
  return Status::InvalidArgument("unknown shuffle strategy '" + name + "'");
}

uint64_t ResolveBufferTuples(const ShuffleOptions& options,
                             const BlockSource& source) {
  if (options.buffer_tuples > 0) return options.buffer_tuples;
  const double frac = std::clamp(options.buffer_fraction, 0.0, 1.0);
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(frac *
                               static_cast<double>(source.num_tuples())));
}

Result<std::unique_ptr<TupleStream>> MakeTupleStream(
    ShuffleStrategy strategy, BlockSource* source,
    const ShuffleOptions& options) {
  if (source == nullptr) return Status::InvalidArgument("null block source");
  const uint64_t buffer = ResolveBufferTuples(options, *source);
  switch (strategy) {
    case ShuffleStrategy::kNoShuffle:
      return MakeNoShuffleStream(source, options.tolerance);
    case ShuffleStrategy::kShuffleOnce:
      return std::unique_ptr<TupleStream>(
          std::make_unique<ShuffleOnceStream>(source, options));
    case ShuffleStrategy::kEpochShuffle:
      return std::unique_ptr<TupleStream>(
          std::make_unique<EpochShuffleStream>(source, options));
    case ShuffleStrategy::kSlidingWindow:
      return std::unique_ptr<TupleStream>(
          std::make_unique<SlidingWindowStream>(source, buffer, options.seed));
    case ShuffleStrategy::kMrs:
      return std::unique_ptr<TupleStream>(std::make_unique<MrsStream>(
          source, buffer, options.mrs_loop_ratio, options.seed));
    case ShuffleStrategy::kBlockOnly:
      return MakeBlockOnlyStream(source, options.seed, options.tolerance);
    case ShuffleStrategy::kCorgiPile:
      return MakeCorgiPileStream(source, buffer, options.seed,
                                 /*blocks_per_epoch=*/0, options.tolerance);
  }
  return Status::InvalidArgument("unknown strategy");
}

}  // namespace corgipile
