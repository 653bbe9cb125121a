// Crash-safe training checkpoints.
//
// A checkpoint captures everything the trainer needs to continue a run
// after a crash: the model parameters, the next epoch to run, the
// Theorem-1 averaging state, and the progress counters the final
// TrainResult reports. Files are written atomically and durably
// (write-temp + fsync + rename + directory fsync, see AtomicWriteFile) and
// carry a CRC32C trailer, so a reader either sees a complete, verified
// checkpoint or a clean error — never a torn one.
//
// Combined with per-epoch deterministic shuffling (every stream's order is
// a pure function of (seed, epoch)), resuming from the checkpoint of epoch
// e replays epochs e+1.. exactly as the original run would have.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace corgipile {

class Model;

struct TrainCheckpoint {
  std::string model_name;
  uint32_t next_epoch = 0;  ///< first epoch not yet run
  std::vector<double> params;
  /// Theorem-1 averaging state (empty / 0 when averaging is off).
  std::vector<double> avg_params;
  double weight_sum = 0.0;
  /// Progress counters carried into the resumed TrainResult.
  uint64_t total_tuples = 0;
  double best_test_metric = 0.0;
  uint64_t total_quarantined_blocks = 0;
  uint64_t total_skipped_tuples = 0;
};

/// Durably writes `ckpt` to `path` (atomic rename; CRC32C trailer).
Status SaveCheckpoint(const TrainCheckpoint& ckpt, const std::string& path);

/// Reads and verifies a checkpoint. Returns kNotFound when no file exists
/// at `path` (callers treat that as "start fresh") and kCorruption when the
/// file fails CRC or structural validation.
Result<TrainCheckpoint> LoadCheckpoint(const std::string& path);

/// The resume step shared by every trainer: loads the checkpoint at `path`
/// and checks it belongs to `model` (same model name and parameter count).
/// Returns nullopt when there is no checkpoint (start fresh), and
/// kInvalidArgument on a mismatch; other load errors pass through.
Result<std::optional<TrainCheckpoint>> LoadResumeCheckpoint(
    const std::string& path, const Model& model);

}  // namespace corgipile
