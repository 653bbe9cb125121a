// Ablation (google-benchmark) — the §6.3 double-buffering optimization:
// real wall-clock time of driving the BlockShuffle → TupleShuffle pipeline
// with a compute-heavy consumer, single- vs double-buffered, plus raw
// shuffle/copy costs that the buffer hides.

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "db/block_shuffle_op.h"
#include "db/tuple_shuffle_op.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "ml/linear_models.h"
#include "util/rng.h"

namespace corgipile {
namespace {

struct PipelineFixture {
  Dataset ds;
  std::unique_ptr<Table> table;

  PipelineFixture() {
    auto spec = CatalogLookup("susy", 0.1).ValueOrDie();
    ds = GenerateDataset(spec, DataOrder::kClustered);
    table = MaterializeTrainTable(ds, "/tmp/corgipile_bench_ablation.tbl")
                .ValueOrDie();
  }
};

PipelineFixture& Fixture() {
  static PipelineFixture fixture;
  return fixture;
}

void BM_PipelineEpoch(benchmark::State& state) {
  auto& f = Fixture();
  const bool double_buffer = state.range(0) != 0;
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 64 * 1024;
  BlockShuffleOp block_op(f.table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = f.ds.train->size() / 10;
  topts.double_buffer = double_buffer;
  TupleShuffleOp op(&block_op, topts);
  if (!op.Init().ok()) state.SkipWithError("init failed");

  LogisticRegression model(f.ds.spec.dim);
  model.InitParams(1);
  TupleBatch batch;
  double loss_sum = 0.0;
  for (auto _ : state) {
    uint64_t n = 0;
    while (op.NextBatch(&batch)) {
      // Compute-heavy consumer: a few SGD steps per tuple so that fills
      // can actually hide behind compute.
      for (int k = 0; k < 4; ++k) {
        model.BatchGradientStep(batch, 1e-4, &loss_sum);
      }
      n += batch.size();
    }
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(loss_sum);
    if (!op.ReScan().ok()) state.SkipWithError("rescan failed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.ds.train->size()));
}
BENCHMARK(BM_PipelineEpoch)->Arg(0)->Arg(1)->ArgName("double_buffer")
    ->Unit(benchmark::kMillisecond);

void BM_BufferShuffle(benchmark::State& state) {
  auto& f = Fixture();
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> buffer(f.ds.train->begin(),
                            f.ds.train->begin() + static_cast<long>(n));
  Rng rng(3);
  for (auto _ : state) {
    rng.Shuffle(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BufferShuffle)->Arg(1000)->Arg(4000)->ArgName("tuples")
    ->Unit(benchmark::kMicrosecond);

void BM_TupleCopyIntoBuffer(benchmark::State& state) {
  auto& f = Fixture();
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> buffer;
  for (auto _ : state) {
    buffer.clear();
    buffer.reserve(n);
    for (size_t i = 0; i < n; ++i) buffer.push_back((*f.ds.train)[i]);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_TupleCopyIntoBuffer)->Arg(1000)->Arg(4000)->ArgName("tuples")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace corgipile

// Like BENCHMARK_MAIN(), but defaults to the machine-readable JSON output
// every bench binary emits (EXPERIMENTS.md §0). An explicit
// --benchmark_out flag overrides.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=bench_results/ablation_doublebuf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::filesystem::create_directories("bench_results");
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
