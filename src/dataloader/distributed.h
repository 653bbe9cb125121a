// Multi-process CorgiPile (paper §5): P workers, each with its own
// CorgiPileDataset shard and buffer, training one shared model with
// synchronous AllReduce gradient averaging per global batch — the
// DistributedDataParallel pattern, with worker threads standing in for the
// paper's one-process-per-GPU setup.
//
// Supervised concurrency: each worker carries a Status and a heartbeat;
// the supervisor (main loop) attributes deterministic simulated seconds to
// each worker's data path, enforces an optional straggler deadline, and
// applies a WorkerFailurePolicy when a worker errors or exceeds its
// deadline — so a dead shard or a latency-spiked device degrades the run
// according to policy instead of hanging the AllReduce barrier.
//
// Thread-safety / ownership: TrainDistributed owns its pool, replicas, and
// per-worker state. Worker tasks only touch their own slot (grads, loss,
// heartbeat) plus read-only shared parameters; the supervisor reads those
// slots strictly after the ParallelFor barrier. Data pulls happen on the
// supervisor thread (loader state is not thread-safe), which is also what
// makes per-worker SimClock attribution exact.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dataloader/dataset_api.h"
#include "iosim/sim_clock.h"
#include "ml/trainer.h"
#include "util/cancellation.h"
#include "util/threadpool.h"

namespace corgipile {

/// What the supervisor does with a worker whose data path fails (I/O
/// error, corruption) or that exceeds the straggler deadline.
enum class WorkerFailurePolicy {
  /// Cancel every worker and return the failing worker's Status.
  kFailFast = 0,
  /// Evict the worker, rescale the AllReduce denominator to the surviving
  /// workers' tuples, record the eviction in TrainResult::dropped_workers,
  /// and keep training. Deterministic given seed + fault configuration.
  kDropAndRescale,
  /// Never evict on deadline: the barrier waits for stragglers (their wait
  /// cost shows up in EpochLog::barrier_sim_seconds and the SimClock's
  /// kStragglerWait category). Hard errors still fail fast — an I/O error
  /// cannot be waited out.
  kWait,
};

const char* WorkerFailurePolicyToString(WorkerFailurePolicy policy);

struct DistributedTrainerOptions {
  uint32_t num_workers = 4;
  /// Global batch size; each worker contributes batch/num_workers tuples
  /// per step (the paper's 512 / 8 GPUs = 64).
  uint32_t global_batch_size = 512;
  /// Total buffer budget across all workers, as a fraction of the dataset;
  /// each worker gets an equal slice (§5.1 step 3).
  double buffer_fraction_total = 0.1;
  uint32_t epochs = 10;
  LrSchedule lr;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  const std::vector<Tuple>* test_set = nullptr;
  LabelType label_type = LabelType::kMulticlass;
  SimClock* clock = nullptr;
  uint64_t seed = 42;
  uint64_t init_seed = 7;
  /// Shuffle toggles forwarded to each worker's CorgiPileDataset; disable
  /// both to reproduce the No Shuffle / Shuffle Once baselines.
  bool shuffle_blocks = true;
  bool shuffle_tuples = true;
  /// Invoked after each epoch's evaluation with the current model (e.g. to
  /// compute extra metrics such as Top-5).
  std::function<void(uint32_t epoch, const Model&)> epoch_callback;

  /// Worker supervision. The defaults (fail fast, no deadline) reproduce
  /// the unsupervised behaviour exactly.
  WorkerFailurePolicy failure_policy = WorkerFailurePolicy::kFailFast;
  /// Per-worker, per-epoch budget of *simulated* seconds (requires
  /// `clock`); a worker whose attributed data-path time exceeds it is a
  /// straggler. Only simulated time counts — FaultPlane latency spikes
  /// and retry backoff are observable, real compute jitter is not — so
  /// deadline decisions are deterministic. 0 disables.
  double straggler_deadline_sim_seconds = 0.0;
  /// Whole-run simulated deadline (requires `clock`); the run returns
  /// kDeadlineExceeded at the next step boundary after expiry. 0 disables.
  double run_deadline_sim_seconds = 0.0;
};

/// Trains `model` over `source` with multi-process CorgiPile. Gradients are
/// computed by real worker threads against the (read-only) current
/// parameters and AllReduce-averaged before each update, so the result is
/// deterministic given the seed — including which workers get dropped
/// under kDropAndRescale.
Result<TrainResult> TrainDistributed(Model* model, BlockSource* source,
                                     const DistributedTrainerOptions& options);

/// Records the effective global data order the DDP execution induces:
/// microbatches of batch/num_workers tuples are drawn round-robin from the
/// workers (§5.2's argument for why multi-process ≈ single-process
/// CorgiPile). Used by the Fig. 5 bench and tests.
Result<std::vector<uint64_t>> TraceDistributedOrder(
    BlockSource* source, uint32_t num_workers, uint64_t buffer_per_worker,
    uint32_t microbatch, uint64_t seed, uint64_t epoch);

}  // namespace corgipile
