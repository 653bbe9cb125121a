// Straggler sweep — distributed training under latency spikes, by failure
// policy.
//
// FaultPlane latency spikes (seconds-long stalls on deterministic block
// sites) slow down whichever workers own the spiked blocks. The sweep
// crosses the spike probability with the WorkerFailurePolicy and reports,
// per cell: the outcome, how many workers were evicted, the worst per-epoch
// barrier (simulated critical path), the straggler-wait time the other
// workers burned, and the final metric. The claim under test: with
// drop_and_rescale the per-epoch barrier time stays bounded by the
// straggler deadline once the spiked shards are evicted, while wait keeps
// paying the spike every epoch and fail_fast aborts the run.

#include "runners.h"

#include <algorithm>

#include "dataloader/distributed.h"
#include "dataloader/record_file.h"
#include "iosim/fault_plane.h"
#include "util/timer.h"

using namespace corgipile;
using namespace corgipile::bench;

namespace {

constexpr double kSpikeSeconds = 25.0;
constexpr double kStragglerDeadline = 5.0;

struct SweepRun {
  Status status;
  uint64_t dropped = 0;
  double max_barrier_s = 0.0;   ///< worst per-epoch simulated critical path
  double last_barrier_s = 0.0;  ///< after evictions settled
  double straggler_wait_s = 0.0;
  double total_sim_s = 0.0;
  double final_metric = 0.0;
  double wall_s = 0.0;
};

SweepRun RunOnce(const Dataset& ds, RecordFileBlockSource* source,
                 double spike_rate, WorkerFailurePolicy policy) {
  SweepRun out;
  std::vector<ChaosRule> rules;
  if (spike_rate > 0.0) {
    ChaosRule spike;
    spike.point = "storage.recordfile.read_block";
    spike.action = ChaosAction::kLatencySpike;
    spike.probability = spike_rate;
    spike.stall_seconds = kSpikeSeconds;
    rules.push_back(spike);
  }
  FaultPlane::Process()->Arm("straggler_sweep", 17, std::move(rules));
  SimClock clock;
  IoStats io;
  source->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);

  DistributedTrainerOptions opts;
  opts.num_workers = 4;
  opts.global_batch_size = 64;
  opts.epochs = 4;
  opts.lr.initial = 0.01;
  opts.test_set = ds.test.get();
  opts.label_type = ds.MakeSchema().label_type;
  opts.clock = &clock;
  opts.shuffle_blocks = false;  // stable shards: a spiked block stays with
                                // one worker, so evictions converge
  opts.failure_policy = policy;
  opts.straggler_deadline_sim_seconds = kStragglerDeadline;

  LogisticRegression model(ds.spec.dim);
  WallTimer timer;
  auto result = TrainDistributed(&model, source, opts);
  out.wall_s = timer.ElapsedSeconds();
  out.status = result.status();
  out.straggler_wait_s = clock.Elapsed(TimeCategory::kStragglerWait);
  out.total_sim_s = clock.TotalElapsed();
  FaultPlane::Process()->Disarm();
  if (!result.ok()) return out;
  out.dropped = result->dropped_workers.size();
  out.final_metric = result->final_test_metric;
  for (const EpochLog& log : result->epochs) {
    out.max_barrier_s = std::max(out.max_barrier_s, log.barrier_sim_seconds);
  }
  out.last_barrier_s = result->epochs.back().barrier_sim_seconds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);

  auto spec = CatalogLookup("susy", env.DatasetScale("susy")).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto source = MaterializeRecordFile(ds.MakeSchema(),*ds.train,
                                      env.data_dir + "/straggler_sweep.bin",
                                      /*block_bytes=*/2048)
                    .ValueOrDie();

  CsvTable t({"spike_rate", "policy", "outcome", "dropped_workers",
              "max_barrier_s", "last_barrier_s", "straggler_wait_s",
              "total_sim_s", "final_metric", "wall_s"});
  for (double rate : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    for (WorkerFailurePolicy policy : {WorkerFailurePolicy::kFailFast,
                                       WorkerFailurePolicy::kDropAndRescale,
                                       WorkerFailurePolicy::kWait}) {
      SweepRun run = RunOnce(ds, source.get(), rate, policy);
      t.NewRow()
          .Add(rate, 3)
          .Add(WorkerFailurePolicyToString(policy))
          .Add(run.status.ok()
                   ? "completed"
                   : std::string("aborted: ") +
                         StatusCodeToString(run.status.code()))
          .Add(run.dropped)
          .Add(run.max_barrier_s, 3)
          .Add(run.last_barrier_s, 3)
          .Add(run.straggler_wait_s, 3)
          .Add(run.total_sim_s, 3)
          .Add(run.final_metric, 4)
          .Add(run.wall_s, 3);
    }
  }
  env.Emit("straggler_sweep", t);

  std::printf(
      "\nWith latency spikes injected, fail_fast aborts at the first "
      "deadline miss; drop_and_rescale evicts the spiked shards and the "
      "per-epoch barrier settles under the %.0f s deadline; wait finishes "
      "every epoch but pays the full spike in barrier time each time.\n",
      kStragglerDeadline);
  return 0;
}
