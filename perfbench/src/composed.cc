#include "composed.h"

#include <algorithm>
#include <future>

#include "db/block_shuffle_op.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "exec/shard_scan.h"
#include "ml/linear_models.h"

namespace perfbench {

using namespace corgipile;

namespace {

double SimIoSeconds(const SimClock& clock) {
  return clock.Elapsed(TimeCategory::kIoRead) +
         clock.Elapsed(TimeCategory::kDecompress);
}

}  // namespace

Result<ComposedTrainResult> ComposedTrain(Database* db,
                                          const TrainStatement& stmt,
                                          const std::vector<Tuple>* test_set,
                                          LabelType label_type,
                                          LayerSpans* spans) {
  const Params& p = stmt.params;
  CORGI_ASSIGN_OR_RETURN(double learning_rate,
                         p.GetDouble("learning_rate", 0.01));
  CORGI_ASSIGN_OR_RETURN(double decay, p.GetDouble("decay", 0.95));
  CORGI_ASSIGN_OR_RETURN(int64_t max_epochs, p.GetInt("max_epoch_num", 20));
  CORGI_ASSIGN_OR_RETURN(std::string block_size_text,
                         p.GetString("block_size", "10MB"));
  CORGI_ASSIGN_OR_RETURN(uint64_t block_size, ParseByteSize(block_size_text));
  CORGI_ASSIGN_OR_RETURN(double buffer_fraction,
                         p.GetDouble("buffer_fraction", 0.1));
  CORGI_ASSIGN_OR_RETURN(int64_t batch_size, p.GetInt("batch_size", 1));
  CORGI_ASSIGN_OR_RETURN(std::string strategy,
                         p.GetString("strategy", "corgipile"));
  CORGI_ASSIGN_OR_RETURN(bool double_buffer, p.GetBool("double_buffer", true));
  CORGI_ASSIGN_OR_RETURN(int64_t seed, p.GetInt("seed", 42));
  CORGI_ASSIGN_OR_RETURN(std::string opt_name, p.GetString("optimizer", "sgd"));
  CORGI_ASSIGN_OR_RETURN(std::string publish_id, p.GetString("publish", ""));
  if (stmt.model_kind != "lr" || strategy != "corgipile") {
    return Status::InvalidArgument(
        "composed TRAIN supports model lr with strategy corgipile only");
  }

  CORGI_ASSIGN_OR_RETURN(ShardedTable * table,
                         db->GetShardedTable(stmt.table_name));
  const ShardedSnapshot snap = table->Snapshot();
  SimClock* clock = &db->clock();

  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = block_size;
  bopts.seed = static_cast<uint64_t>(seed);
  bopts.shuffle_blocks = true;
  BlockShuffleOp block_op(snap, bopts);
  TracedOp traced_block(&block_op, &spans->block_fetch, nullptr);

  TupleShuffleOp::Options topts;
  topts.buffer_tuples = std::max<uint64_t>(
      1, static_cast<uint64_t>(buffer_fraction *
                               static_cast<double>(snap.num_tuples())));
  topts.double_buffer = double_buffer;
  topts.seed = static_cast<uint64_t>(seed) ^ 0x7F;
  topts.clock = clock;
  TupleShuffleOp tuple_op(&traced_block, topts);
  TracedOp traced_tuple(&tuple_op, &spans->shuffle_pull,
                        &spans->shuffle_rescan);

  auto model = std::make_unique<TracedModel>(
      std::make_unique<LogisticRegression>(table->schema().dim), spans);

  SgdOp::Options sopts;
  sopts.lr.initial = learning_rate;
  sopts.lr.decay = decay;
  sopts.max_epochs = static_cast<uint32_t>(max_epochs);
  sopts.batch_size = static_cast<uint32_t>(batch_size);
  sopts.optimizer =
      opt_name == "adam" ? OptimizerKind::kAdam : OptimizerKind::kSgd;
  sopts.test_set = test_set;
  sopts.label_type = label_type;
  sopts.clock = clock;
  sopts.init_seed = static_cast<uint64_t>(seed) ^ 0x11;

  const double io_before = SimIoSeconds(*clock);
  ComposedTrainResult out;
  SgdOp sgd(model.get(), &traced_tuple, sopts);
  CORGI_RETURN_NOT_OK(sgd.Init());
  for (;;) {
    EpochLog log;
    const uint64_t t0 = NowNs();
    Result<bool> more = sgd.NextEpoch(&log);
    spans->sgd_epoch.Add(NowNs() - t0, log.tuples_seen);
    CORGI_RETURN_NOT_OK(more.status());
    if (!*more) break;
    out.tuples += log.tuples_seen;
    out.result.epochs.push_back(log);
  }
  sgd.Close();

  // The op's timeline bills each fill as simulated I/O plus the real fill
  // time; take the simulated part back out to leave the real one.
  const PipelineTimeline& tl = tuple_op.timeline();
  const double fill_wall =
      std::max(0.0, tl.TotalFill() - (SimIoSeconds(*clock) - io_before));
  spans->shuffle_fill.Add(static_cast<uint64_t>(fill_wall * 1e9),
                          tl.num_batches());

  if (!out.result.epochs.empty()) {
    out.result.final_metric = out.result.epochs.back().test_metric;
    out.result.final_loss = out.result.epochs.back().test_loss;
  }
  out.params = model->params();
  if (publish_id.empty()) {
    out.result.model_id = db->models().Put(std::move(model));
  } else {
    CORGI_ASSIGN_OR_RETURN(out.result.model_version,
                           db->models().Publish(publish_id, std::move(model)));
    out.result.model_id = publish_id;
  }
  return out;
}

Result<InDbPredictResult> ComposedPredict(Database* db,
                                          const PredictStatement& stmt,
                                          LabelType label_type,
                                          ThreadPool* pool,
                                          LayerSpans* spans) {
  CORGI_ASSIGN_OR_RETURN(ShardedTable * table,
                         db->GetShardedTable(stmt.table_name));
  CORGI_ASSIGN_OR_RETURN(ModelSnapshot snap,
                         db->models().GetSnapshot(stmt.model_id));
  const uint32_t model_dim = snap.model->input_dim();
  if (model_dim != 0 && table->schema().dim != model_dim) {
    return Status::InvalidArgument("table and model dims differ");
  }

  const uint64_t t_start = NowNs();
  ServeOptions opts = db->serve_options();
  opts.flush_on_idle = false;
  opts.clock = &db->clock();
  InferenceEngine engine(&db->models(), opts);
  CORGI_RETURN_NOT_OK(engine.Start());

  const uint64_t t_scan = NowNs();
  std::vector<Tuple> tuples;
  const ShardedSnapshot table_snap = table->Snapshot();
  ShardScanOptions scan_opts;
  if (table_snap.num_shards() > 1) scan_opts.pool = pool;
  table_snap.ResetReadCursors();
  CORGI_RETURN_NOT_OK(CollectSnapshot(table_snap, scan_opts, &tuples));
  const uint64_t scan_ns = NowNs() - t_scan;
  spans->merge_scan.Add(scan_ns, tuples.size());

  std::vector<std::future<ServeReply>> futures;
  futures.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    ServeRequest req;
    req.tuple = t;
    req.model_id = stmt.model_id;
    req.arrival_s = 0.0;
    futures.push_back(engine.Submit(std::move(req)));
  }
  CORGI_RETURN_NOT_OK(engine.Drain());
  spans->engine.Add(NowNs() - t_start - scan_ns, tuples.size());

  EvalAccumulator acc;
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeReply reply = futures[i].get();
    CORGI_RETURN_NOT_OK(reply.status);
    acc.Add(tuples[i].label, reply.value, reply.loss, reply.correct);
  }
  const EvalResult eval = acc.Finalize(label_type);
  InDbPredictResult out;
  out.count = eval.count;
  out.metric = eval.metric;
  out.mean_loss = eval.mean_loss;
  out.serve = engine.stats();
  return out;
}

}  // namespace perfbench
