// Epoch-driven trainer: runs a Model over a TupleStream with per-tuple SGD
// or mini-batch SGD/Adam, logging metrics and (simulated + real) time per
// epoch.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iosim/sim_clock.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/optimizer.h"
#include "shuffle/tuple_stream.h"
#include "storage/schema.h"
#include "util/status.h"

namespace corgipile {

struct TrainerOptions {
  uint32_t epochs = 20;
  LrSchedule lr;
  /// 1 = standard per-tuple SGD (SgdStep path); >1 = mini-batch with the
  /// configured optimizer over dense accumulated gradients.
  uint32_t batch_size = 1;
  /// Transport batch size of the batched execution pipeline — tuples pulled
  /// per BatchStream::NextBatch call (0 is treated as 1). Purely a
  /// transport knob, independent of batch_size (the optimizer's
  /// mini-batch): seeded results are bit-identical at every value, and 1 —
  /// one tuple per batch — is the golden reference of the equivalence
  /// tests.
  uint32_t exec_batch_tuples = TupleBatch::kDefaultTargetTuples;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Test tuples evaluated after each epoch (not owned; may be null).
  const std::vector<Tuple>* test_set = nullptr;
  LabelType label_type = LabelType::kBinary;
  /// If set, each epoch's real compute wall time is charged here, so the
  /// SimClock total (I/O + compute) is an end-to-end time estimate.
  SimClock* clock = nullptr;
  uint64_t init_seed = 7;
  /// Stop early once test metric reaches this value (0 = never).
  double target_metric = 0.0;
  /// Theorem 1 evaluates the weighted average iterate
  /// x̄_S = Σ_s (s+a)³ x_s / Σ_s (s+a)³ rather than the last iterate. When
  /// enabled, the trainer maintains that running average (with
  /// `averaging_offset` as a) and reports test metrics on it; the model's
  /// final parameters are replaced by the average after the last epoch.
  /// Averaging suppresses the end-of-epoch oscillation block-clustered
  /// data induces in the raw iterates.
  bool theorem_averaging = false;
  uint32_t averaging_offset = 4;  ///< the theorem's a

  /// Crash-safe checkpointing. When `checkpoint_path` is non-empty, the
  /// trainer durably saves model parameters + training progress every
  /// `checkpoint_every_epochs` epochs (and after the final epoch) via an
  /// atomic write-temp/fsync/rename. With `resume` set, an existing
  /// checkpoint at that path is loaded and training continues from the
  /// epoch after the one it recorded; because every stream's per-epoch
  /// order is a pure function of (seed, epoch), the resumed run replays
  /// exactly what the original run would have done. Exact resume holds for
  /// plain SGD (stateless); Adam's moment estimates restart from zero.
  std::string checkpoint_path;
  uint32_t checkpoint_every_epochs = 1;
  bool resume = false;
};

struct EpochLog {
  uint32_t epoch = 0;
  double lr = 0.0;
  double train_loss = 0.0;  ///< mean per-step loss seen during the epoch
  double test_loss = 0.0;
  double test_metric = 0.0;  ///< accuracy or R²
  uint64_t tuples_seen = 0;
  double epoch_wall_seconds = 0.0;      ///< real compute time of the epoch
  double cumulative_sim_seconds = 0.0;  ///< SimClock total after the epoch
  /// Corrupt/unreadable blocks quarantined during this epoch, and the
  /// tuples lost with them (graceful-degradation accounting).
  uint64_t quarantined_blocks = 0;
  uint64_t skipped_tuples = 0;
  /// Worker supervision (set by TrainDistributed only; 0 elsewhere):
  /// workers still active at the end of the epoch, and the epoch's
  /// simulated critical path — the largest per-worker simulated seconds
  /// (I/O, latency spikes, retry backoff) attributed this epoch, i.e. how
  /// long the AllReduce barrier waited for the slowest worker.
  uint32_t active_workers = 0;
  double barrier_sim_seconds = 0.0;
};

/// A worker evicted by the distributed trainer's supervision layer
/// (WorkerFailurePolicy::kDropAndRescale).
struct DroppedWorker {
  uint32_t worker_id = 0;
  uint32_t epoch = 0;  ///< epoch during which it was dropped
  StatusCode code = StatusCode::kOk;  ///< kIoError, kDeadlineExceeded, ...
  std::string reason;
};

/// Per-worker liveness/accounting summary reported by TrainDistributed.
struct WorkerSummary {
  uint32_t worker_id = 0;
  /// Heartbeats: supervised steps this worker completed (gradient compute
  /// reported back to the supervisor).
  uint64_t heartbeat_steps = 0;
  /// Simulated seconds attributed to this worker's data path across the
  /// whole run (deterministic given the seed and fault configuration).
  double sim_seconds = 0.0;
  bool dropped = false;
};

struct TrainResult {
  std::vector<EpochLog> epochs;
  double final_test_metric = 0.0;
  double final_test_loss = 0.0;
  double best_test_metric = 0.0;
  uint64_t total_tuples = 0;
  /// Graceful-degradation totals across all epochs of this call.
  uint64_t total_quarantined_blocks = 0;
  uint64_t total_skipped_tuples = 0;
  /// First epoch actually run by this call (> 0 when resumed).
  uint32_t resumed_from_epoch = 0;
  /// Workers evicted under WorkerFailurePolicy::kDropAndRescale, in
  /// eviction order, and the per-worker summaries (TrainDistributed only;
  /// empty for single-process training).
  std::vector<DroppedWorker> dropped_workers;
  std::vector<WorkerSummary> workers;

  const EpochLog& back() const { return epochs.back(); }
};

/// Trains `model` (initialized with options.init_seed) by driving `stream`
/// for options.epochs epochs.
Result<TrainResult> Train(Model* model, TupleStream* stream,
                          const TrainerOptions& options);

}  // namespace corgipile
