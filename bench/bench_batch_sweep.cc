// Transport-batch sweep — the batched execution pipeline's cost knob.
//
// Grid: exec_batch_tuples ∈ {1, 8, 64, 512} × shuffle ∈ {corgipile,
// no_shuffle} × data ∈ {susy (dense), criteo (sparse)}. Every cell trains
// the same seeded logistic regression through the same stream; only the
// transport batch size changes.
//
// Claims under test:
//  (1) the transport knob is free of semantic cost: every cell's epoch
//      train losses are bit-identical to the batch-of-one reference
//      (exec_batch_tuples=1) — the sweep's loss_identical column;
//  (2) batching pays: amortizing the virtual NextBatch/kernel dispatch
//      over ≥64 tuples beats the degenerate batch-of-1 transport on
//      simulated epoch time (real compute charged to the SimClock), for
//      every (shuffle, dataset) combination.

#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dataset/catalog.h"
#include "iosim/sim_clock.h"
#include "ml/linear_models.h"
#include "ml/trainer.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "util/timer.h"

using namespace corgipile;
using namespace corgipile::bench;

namespace {

struct CellResult {
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
  double sim_epoch_s = 0.0;  ///< simulated seconds per epoch (min over reps)
  double wall_s = 0.0;
};

CellResult RunCell(const Dataset& ds, ShuffleStrategy strategy,
                   uint32_t exec_batch_tuples, uint32_t epochs, int reps) {
  CellResult out;
  out.sim_epoch_s = 1e300;
  WallTimer total;
  for (int rep = 0; rep < reps; ++rep) {
    InMemoryBlockSource src(ds.MakeSchema(), ds.train, 512);
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.seed = 42;
    auto stream = MakeTupleStream(strategy, &src, sopts);
    if (!stream.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   stream.status().ToString().c_str());
      std::exit(1);
    }
    SimClock clock;
    LogisticRegression model(ds.spec.dim);
    TrainerOptions topts;
    topts.epochs = epochs;
    topts.lr.initial = 0.01;
    topts.exec_batch_tuples = exec_batch_tuples;
    topts.clock = &clock;
    auto result = Train(&model, stream->get(), topts);
    if (!result.ok()) {
      std::fprintf(stderr, "train: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    out.epoch_losses.clear();
    for (const EpochLog& log : result->epochs) {
      out.epoch_losses.push_back(log.train_loss);
    }
    out.final_loss = out.epoch_losses.back();
    // min over reps: the cleanest estimate of the cell's intrinsic cost.
    out.sim_epoch_s = std::min(
        out.sim_epoch_s, clock.TotalElapsed() / static_cast<double>(epochs));
  }
  out.wall_s = total.ElapsedSeconds();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  const uint32_t epochs = env.quick ? 2 : 4;
  const int reps = env.quick ? 2 : 3;
  const std::vector<uint32_t> batch_sizes = {1, 8, 64, 512};
  const std::vector<ShuffleStrategy> strategies = {
      ShuffleStrategy::kCorgiPile, ShuffleStrategy::kNoShuffle};

  CsvTable t({"dataset", "strategy", "exec_batch", "epochs", "final_loss",
              "sim_epoch_ms", "speedup_vs_b1", "loss_identical", "wall_s"});
  bool all_identical = true;
  bool batching_pays = true;
  for (const char* name : {"susy", "criteo"}) {
    auto spec = CatalogLookup(name, env.DatasetScale(name));
    if (!spec.ok()) {
      std::fprintf(stderr, "catalog: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
    for (ShuffleStrategy strategy : strategies) {
      // Batch-of-one reference: the golden loss sequence every cell's run
      // must reproduce bit-for-bit.
      const CellResult ref = RunCell(ds, strategy, 1, epochs, 1);
      double sim_b1 = 0.0, sim_b64plus = 1e300;
      for (uint32_t exec : batch_sizes) {
        const CellResult cell = RunCell(ds, strategy, exec, epochs, reps);
        const bool identical = cell.epoch_losses == ref.epoch_losses;
        all_identical = all_identical && identical;
        if (exec == 1) sim_b1 = cell.sim_epoch_s;
        if (exec >= 64) sim_b64plus = std::min(sim_b64plus, cell.sim_epoch_s);
        t.NewRow()
            .Add(name)
            .Add(ShuffleStrategyToString(strategy))
            .Add(static_cast<uint64_t>(exec))
            .Add(static_cast<uint64_t>(epochs))
            .Add(cell.final_loss, 12)
            .Add(cell.sim_epoch_s * 1e3, 3)
            .Add(exec == 1 ? 1.0 : sim_b1 / cell.sim_epoch_s, 2)
            .Add(identical ? "yes" : "MISMATCH")
            .Add(cell.wall_s, 3);
      }
      if (sim_b64plus >= sim_b1) {
        batching_pays = false;
        std::fprintf(stderr,
                     "VIOLATION: %s/%s batch>=64 epoch %.3f ms not faster "
                     "than batch=1 %.3f ms\n",
                     name, ShuffleStrategyToString(strategy),
                     sim_b64plus * 1e3, sim_b1 * 1e3);
      }
    }
  }
  env.Emit("batch_sweep", t);

  std::printf(
      "claim 1 (transport is semantics-free): every cell bit-identical to "
      "the batch-of-one reference: %s\n",
      all_identical ? "yes" : "NO — MISMATCH ABOVE");
  std::printf(
      "claim 2 (batching pays): exec_batch >= 64 beats exec_batch = 1 on "
      "simulated epoch time in every (dataset, strategy) cell: %s\n",
      batching_pays ? "holds" : "VIOLATION ABOVE");
  return (all_identical && batching_pays) ? 0 : 1;
}
