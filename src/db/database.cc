#include "db/database.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "db/block_shuffle_op.h"
#include "db/sgd_op.h"
#include "db/stream_adapter_op.h"
#include "db/tuple_shuffle_op.h"
#include "exec/shard_scan.h"
#include "shuffle/epoch_plan.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "dataset/libsvm.h"
#include "dataset/ordering.h"
#include "iosim/fault_plane.h"
#include "lifecycle/validation_gate.h"
#include "storage/table_shuffle.h"

namespace corgipile {

Database::Database(std::string data_dir, DeviceProfile device,
                   uint64_t buffer_pool_bytes)
    : data_dir_(std::move(data_dir)), device_(std::move(device)) {
  if (buffer_pool_bytes > 0) {
    buffer_pool_ = std::make_unique<BufferManager>(buffer_pool_bytes);
  }
  SessionOptions defaults;
  defaults.label = "default";
  default_session_ = CreateSession(std::move(defaults));
}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession(SessionOptions options) {
  MutexLock lock(session_mu_);
  const uint64_t id = next_session_id_++;
  std::unique_ptr<Session> session(new Session(this, id, std::move(options)));
  sessions_[id] = session.get();
  return session;
}

void Database::UnregisterSession(const Session* session) {
  MutexLock lock(session_mu_);
  sessions_.erase(session->id());
}

std::vector<SessionInfo> Database::DescribeSessions() const {
  MutexLock lock(session_mu_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    SessionInfo info;
    info.id = id;
    info.label = session->options().label;
    info.stats = session->stats();
    out.push_back(std::move(info));
  }
  return out;
}

ThreadPool* Database::scan_pool() {
  MutexLock lock(pool_mu_);
  if (scan_pool_ == nullptr) {
    scan_pool_ = std::make_unique<ThreadPool>(4);
  }
  return scan_pool_.get();
}

Status Database::InstallTable(const std::string& name, const Schema& schema,
                              bool compress, uint32_t page_size,
                              TableEntry entry) {
  // Sidecar so a later session can Attach() the table. Trailing shard
  // count is new; old 7-field sidecars read back as num_shards = 1.
  {
    std::ofstream side(data_dir_ + "/" + name + ".schema", std::ios::trunc);
    side << schema.name << ' ' << schema.dim << ' ' << (schema.sparse ? 1 : 0)
         << ' ' << static_cast<int>(schema.label_type) << ' '
         << schema.num_classes << ' ' << (compress ? 1 : 0) << ' '
         << page_size << ' ' << entry.table->num_shards() << '\n';
    if (!side.good()) {
      return Status::IoError("cannot write schema sidecar for " + name);
    }
  }
  entry.table->SetIoAccounting(device_, &clock_, &io_stats_);
  // Scan-resistant OS-cache model: only files that fit in the pool are
  // cached; larger files cannot retain a working set under repeated scans,
  // so neither access pattern benefits (§7.3.4's small-vs-large split).
  if (buffer_pool_ != nullptr &&
      entry.table->size_bytes() <= buffer_pool_->capacity_bytes()) {
    entry.table->SetBufferManager(buffer_pool_.get());
  }
  entry.label_type = schema.label_type;
  entry.num_classes = schema.num_classes;
  tables_[name] = std::move(entry);
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, const Schema& schema,
                             const std::vector<Tuple>& tuples, bool compress,
                             uint32_t page_size, uint32_t num_shards) {
  {
    MutexLock lock(catalog_mu_);
    if (tables_.count(name)) {
      return Status::AlreadyExists("table '" + name + "' exists");
    }
  }
  TableOptions options;
  options.page_size = page_size;
  options.compress_tuples = compress;
  Schema named = schema;
  named.name = name;
  TableEntry entry;
  CORGI_ASSIGN_OR_RETURN(
      entry.table, ShardedTable::Create(data_dir_ + "/" + name, named,
                                        options, tuples, num_shards));
  MutexLock lock(catalog_mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  return InstallTable(name, named, compress, page_size, std::move(entry));
}

Status Database::RegisterDataset(const std::string& name,
                                 const Dataset& dataset,
                                 uint32_t num_shards) {
  CORGI_RETURN_NOT_OK(CreateTable(name, dataset.MakeSchema(), *dataset.train,
                                  dataset.spec.compress_in_db,
                                  Page::kDefaultSize, num_shards));
  MutexLock lock(catalog_mu_);
  tables_[name].test_set = dataset.test;
  return Status::OK();
}

Status Database::Attach(const std::string& name) {
  {
    MutexLock lock(catalog_mu_);
    if (tables_.count(name)) {
      return Status::AlreadyExists("table '" + name + "' already attached");
    }
  }
  std::ifstream side(data_dir_ + "/" + name + ".schema");
  if (!side) return Status::NotFound("no schema sidecar for '" + name + "'");
  Schema schema;
  int sparse = 0, label_type = 0, compress = 0;
  uint32_t page_size = 0;
  if (!(side >> schema.name >> schema.dim >> sparse >> label_type >>
        schema.num_classes >> compress >> page_size)) {
    return Status::Corruption("malformed schema sidecar for '" + name + "'");
  }
  uint32_t num_shards = 1;
  if (!(side >> num_shards)) num_shards = 1;  // pre-sharding sidecar
  schema.sparse = sparse != 0;
  schema.label_type = static_cast<LabelType>(label_type);
  TableOptions options;
  options.page_size = page_size;
  options.compress_tuples = compress != 0;
  TableEntry entry;
  CORGI_ASSIGN_OR_RETURN(
      entry.table, ShardedTable::Open(data_dir_ + "/" + name, schema, options,
                                      num_shards));
  MutexLock lock(catalog_mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already attached");
  }
  return InstallTable(name, schema, compress != 0, page_size,
                      std::move(entry));
}

Result<Database::TableEntry*> Database::FindTable(const std::string& name) {
  MutexLock lock(catalog_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  // std::map nodes are stable and tables are never dropped, so the entry
  // pointer stays valid after the lock is released.
  return &it->second;
}

Status Database::Insert(const std::string& table,
                        const std::vector<Tuple>& tuples) {
  CORGI_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  // No scan lock: the append becomes visible to future snapshots only via
  // the atomic publish inside ShardedTable::AppendTuples; scans in flight
  // keep reading their captured snapshots.
  return entry->table->AppendTuples(tuples);
}

Status Database::RollbackModel(const RollbackStatement& stmt) {
  return models_.Rollback(stmt.model_id, stmt.version);
}

Result<Table*> Database::GetTable(const std::string& name) {
  CORGI_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(name));
  return entry->table->shard(0);
}

Result<ShardedTable*> Database::GetShardedTable(const std::string& name) {
  CORGI_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(name));
  return entry->table.get();
}

Status Database::CollectForRead(const ShardedSnapshot& snap,
                                std::vector<Tuple>* out) {
  ShardScanOptions opts;
  if (snap.num_shards() > 1) opts.pool = scan_pool();
  snap.ResetReadCursors();
  return CollectSnapshot(snap, opts, out);
}

Result<std::unique_ptr<Model>> Database::MakeModel(const std::string& kind,
                                                   const Schema& schema,
                                                   const Params& params) const {
  if (kind == "lr") {
    return std::unique_ptr<Model>(
        std::make_unique<LogisticRegression>(schema.dim));
  }
  if (kind == "svm") {
    return std::unique_ptr<Model>(std::make_unique<SvmModel>(schema.dim));
  }
  if (kind == "linreg") {
    return std::unique_ptr<Model>(
        std::make_unique<LinearRegressionModel>(schema.dim));
  }
  if (kind == "softmax") {
    return std::unique_ptr<Model>(
        std::make_unique<SoftmaxRegression>(schema.dim, schema.num_classes));
  }
  if (kind == "mlp") {
    CORGI_ASSIGN_OR_RETURN(int64_t hidden, params.GetInt("hidden", 32));
    return std::unique_ptr<Model>(std::make_unique<MlpModel>(
        schema.dim, static_cast<uint32_t>(hidden), schema.num_classes));
  }
  return Status::InvalidArgument("unknown model kind '" + kind + "'");
}

Result<InDbTrainResult> Database::Train(const TrainStatement& stmt) {
  CORGI_ASSIGN_OR_RETURN(TableEntry* entry_ptr, FindTable(stmt.table_name));
  TableEntry& entry = *entry_ptr;
  ShardedTable* table = entry.table.get();

  const Params& p = stmt.params;
  CORGI_ASSIGN_OR_RETURN(double learning_rate, p.GetDouble("learning_rate", 0.01));
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
  CORGI_ASSIGN_OR_RETURN(bool tolerate_corruption,
                         p.GetBool("tolerate_corruption", false));
  CORGI_ASSIGN_OR_RETURN(double max_bad_fraction,
                         p.GetDouble("max_bad_fraction", 0.05));
  CORGI_ASSIGN_OR_RETURN(std::string checkpoint_path,
                         p.GetString("checkpoint", ""));
  CORGI_ASSIGN_OR_RETURN(int64_t checkpoint_every,
                         p.GetInt("checkpoint_every", 1));
  CORGI_ASSIGN_OR_RETURN(bool resume, p.GetBool("resume", false));
  // Guarded lifecycle (DESIGN.md §13).
  CORGI_ASSIGN_OR_RETURN(bool validate, p.GetBool("validate", false));
  CORGI_ASSIGN_OR_RETURN(double holdout_fraction,
                         p.GetDouble("holdout_fraction", 0.2));
  CORGI_ASSIGN_OR_RETURN(double validate_min_metric,
                         p.GetDouble("validate_min_metric", 0.0));
  CORGI_ASSIGN_OR_RETURN(double validate_max_loss,
                         p.GetDouble("validate_max_loss", 0.0));
  CORGI_ASSIGN_OR_RETURN(double validate_max_regression,
                         p.GetDouble("validate_max_regression", 0.0));
  CORGI_ASSIGN_OR_RETURN(double canary_fraction,
                         p.GetDouble("canary_fraction", 0.0));
  CORGI_ASSIGN_OR_RETURN(int64_t canary_batches,
                         p.GetInt("canary_batches", 8));
  CORGI_ASSIGN_OR_RETURN(bool auto_rollback, p.GetBool("auto_rollback", true));
  if (canary_fraction < 0.0 || canary_fraction >= 1.0) {
    return Status::InvalidArgument(
        "canary_fraction must be in [0, 1), got " +
        std::to_string(canary_fraction));
  }
  if (canary_fraction > 0.0 && publish_id.empty()) {
    return Status::InvalidArgument(
        "canary_fraction requires publish=<id> (a canary needs an incumbent "
        "to compare against)");
  }
  if (validate && (holdout_fraction <= 0.0 || holdout_fraction > 1.0)) {
    return Status::InvalidArgument(
        "holdout_fraction must be in (0, 1], got " +
        std::to_string(holdout_fraction));
  }
  if (canary_batches < 0) {
    return Status::InvalidArgument("canary_batches must be >= 0, got " +
                                   std::to_string(canary_batches));
  }
  if (opt_name != "sgd" && opt_name != "adam") {
    return Status::InvalidArgument("optimizer must be sgd|adam (got '" +
                                   opt_name + "')");
  }
  if (checkpoint_every < 1) {
    return Status::InvalidArgument("checkpoint_every must be >= 1, got " +
                                   std::to_string(checkpoint_every));
  }
  if (resume && checkpoint_path.empty()) {
    return Status::InvalidArgument("resume=true requires checkpoint='...'");
  }
  if (!checkpoint_path.empty() && strategy == "shuffle_once_inplace") {
    // The prep pass rewrites the base table in place; re-running it on a
    // restart would permute already-permuted data, so a resumed run could
    // not replay the original epoch order.
    return Status::InvalidArgument(
        "checkpointing is not supported with strategy=shuffle_once_inplace");
  }
  if (max_bad_fraction < 0.0 || max_bad_fraction > 1.0) {
    return Status::InvalidArgument(
        "max_bad_fraction must be in [0, 1], got " +
        std::to_string(max_bad_fraction));
  }
  const bool consumes_table =
      (strategy == "shuffle_once" || strategy == "shuffle_once_inplace");
  if (consumes_table && table->num_shards() != 1) {
    // Both prep passes rewrite/copy one physical heap file; a sharded
    // table has K of them. CorgiPile itself needs no such pass — that is
    // the point of the paper.
    return Status::InvalidArgument(
        "strategy=" + strategy + " requires an unsharded table (shards=1); '" +
        stmt.table_name + "' has " + std::to_string(table->num_shards()));
  }
  BlockReadTolerance tolerance;
  tolerance.quarantine_corrupt_blocks = tolerate_corruption;
  tolerance.max_bad_block_fraction = max_bad_fraction;

  CORGI_ASSIGN_OR_RETURN(std::unique_ptr<Model> model,
                         MakeModel(stmt.model_kind, table->schema(), p));

  InDbTrainResult result;
  const double sim_before = clock_.TotalElapsed();
  const double io_before = clock_.Elapsed(TimeCategory::kIoRead) +
                           clock_.Elapsed(TimeCategory::kIoWrite) +
                           clock_.Elapsed(TimeCategory::kDecompress);

  // --- strategy-specific preparation ---
  // The pipeline below always reads through a ShardedSnapshot captured
  // once, here: concurrent inserts land in later snapshots and never shift
  // this run's block geometry mid-epoch.
  ShardedSnapshot scan_snap;
  if (strategy == "shuffle_once_inplace") {
    // No 2x disk copy: the base table itself is rewritten in random order
    // (which is why it can break clustered indexes; §1). Storage is
    // rewritten in place, so this is a single-session operation: snapshots
    // captured before it dangle, which is why it is gated to K=1 and
    // documented as incompatible with concurrent readers (DESIGN.md §14).
    CORGI_ASSIGN_OR_RETURN(std::unique_ptr<Table> sole,
                           table->ReleaseSoleShard());
    CORGI_ASSIGN_OR_RETURN(
        InPlaceShuffleResult shuffled,
        ShuffleTableInPlace(std::move(sole),
                            static_cast<uint64_t>(seed) ^ 0x1A9B,
                            device_, &clock_, &io_stats_,
                            buffer_pool_.get()));
    result.prep_seconds = shuffled.sim_seconds;
    CORGI_RETURN_NOT_OK(table->AdoptSoleShard(std::move(shuffled.table)));
    scan_snap = table->Snapshot();
  } else if (strategy == "shuffle_once") {
    CORGI_ASSIGN_OR_RETURN(
        ShuffledCopyResult copy,
        BuildShuffledCopy(table->shard(0),
                          data_dir_ + "/" + stmt.table_name + ".shuffled.tbl",
                          static_cast<uint64_t>(seed) ^ 0x50FF1E, device_,
                          &clock_, &io_stats_));
    result.prep_seconds = copy.sim_seconds;
    result.extra_disk_bytes = copy.extra_disk_bytes;
    if (buffer_pool_ != nullptr &&
        copy.table->size_bytes() <= buffer_pool_->capacity_bytes()) {
      copy.table->SetBufferManager(buffer_pool_.get());
    }
    MutexLock lock(catalog_mu_);
    shuffled_copies_[stmt.table_name] = std::move(copy.table);
    scan_snap = ShardedSnapshot(
        {shuffled_copies_[stmt.table_name]->Snapshot()});
  } else {
    scan_snap = table->Snapshot();
  }

  // --- pipeline construction ---
  const bool stream_strategy =
      (strategy == "sliding_window" || strategy == "mrs");
  if (strategy != "corgipile" && strategy != "block_only" &&
      strategy != "no_shuffle" && strategy != "shuffle_once" &&
      strategy != "shuffle_once_inplace" && !stream_strategy) {
    return Status::InvalidArgument(
        "in-DB strategies: corgipile | block_only | no_shuffle | "
        "shuffle_once | shuffle_once_inplace | sliding_window | mrs (got '" +
        strategy + "')");
  }
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = block_size;
  bopts.seed = static_cast<uint64_t>(seed);
  bopts.shuffle_blocks =
      (strategy == "corgipile" || strategy == "block_only");
  bopts.tolerance = tolerance;
  std::unique_ptr<BlockShuffleOp> block_op;
  std::unique_ptr<TupleShuffleOp> tuple_op;
  std::unique_ptr<StreamAdapterOp> adapter_op;
  PhysicalOperator* top = nullptr;
  if (stream_strategy) {
    // Sliding-Window / MRS hosted through the stream adapter.
    auto source =
        std::make_unique<SnapshotBlockSource>(scan_snap, block_size);
    ShuffleOptions sopts;
    sopts.buffer_fraction = buffer_fraction;
    sopts.seed = static_cast<uint64_t>(seed);
    sopts.tolerance = tolerance;
    CORGI_ASSIGN_OR_RETURN(ShuffleStrategy parsed,
                           ShuffleStrategyFromString(strategy));
    CORGI_ASSIGN_OR_RETURN(std::unique_ptr<TupleStream> stream,
                           MakeTupleStream(parsed, source.get(), sopts));
    adapter_op = std::make_unique<StreamAdapterOp>(std::move(stream),
                                                   std::move(source));
    top = adapter_op.get();
  } else {
    block_op = std::make_unique<BlockShuffleOp>(scan_snap, bopts);
    top = block_op.get();
    if (strategy == "corgipile") {
      TupleShuffleOp::Options topts;
      topts.buffer_tuples = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 buffer_fraction * static_cast<double>(scan_snap.num_tuples())));
      topts.double_buffer = double_buffer;
      topts.seed = BufferSeed(static_cast<uint64_t>(seed));
      topts.clock = &clock_;
      tuple_op = std::make_unique<TupleShuffleOp>(block_op.get(), topts);
      top = tuple_op.get();
    }
  }

  SgdOp::Options sopts;
  sopts.lr.initial = learning_rate;
  sopts.lr.decay = decay;
  sopts.max_epochs = static_cast<uint32_t>(max_epochs);
  sopts.batch_size = static_cast<uint32_t>(batch_size);
  sopts.optimizer =
      opt_name == "adam" ? OptimizerKind::kAdam : OptimizerKind::kSgd;
  sopts.test_set = entry.test_set.get();
  sopts.label_type = entry.label_type;
  sopts.clock = &clock_;
  sopts.init_seed = static_cast<uint64_t>(seed) ^ 0x11;
  sopts.checkpoint_path = checkpoint_path;
  sopts.checkpoint_every_epochs = static_cast<uint32_t>(checkpoint_every);
  sopts.resume = resume;

  CORGI_INJECT_POINT("db.train.begin");
  SgdOp sgd(model.get(), top, sopts);
  CORGI_RETURN_NOT_OK(sgd.Init());
  CORGI_ASSIGN_OR_RETURN(result.epochs, sgd.RunToCompletion());
  result.resumed_from_epoch = sgd.resumed_from_epoch();
  result.total_quarantined_blocks = sgd.total_quarantined_blocks();
  result.total_skipped_tuples = sgd.total_skipped_tuples();
  sgd.Close();

  const double sim_after = clock_.TotalElapsed();
  const double io_after = clock_.Elapsed(TimeCategory::kIoRead) +
                          clock_.Elapsed(TimeCategory::kIoWrite) +
                          clock_.Elapsed(TimeCategory::kDecompress);
  result.sim_io_seconds = io_after - io_before;
  result.sim_compute_seconds = (sim_after - sim_before) - result.sim_io_seconds;

  if (tuple_op != nullptr) {
    // CorgiPile: derive both buffering disciplines from the recorded
    // fill/consume timeline.
    const PipelineTimeline& tl = tuple_op->timeline();
    result.end_to_end_single_seconds =
        result.prep_seconds + tl.SingleBufferedDuration();
    result.end_to_end_double_seconds =
        result.prep_seconds + tl.DoubleBufferedDuration();
  } else {
    // Scan-based pipelines: loading and compute serialize.
    result.end_to_end_single_seconds = sim_after - sim_before;
    result.end_to_end_double_seconds = sim_after - sim_before;
  }

  if (!result.epochs.empty()) {
    result.final_metric = result.epochs.back().test_metric;
    result.final_loss = result.epochs.back().test_loss;
  }
  // --- guarded publish (DESIGN.md §13) ---
  // The candidate still lives on the local `model`; nothing below stores it
  // until the gate has passed, so a rejected candidate is never reachable
  // through ModelStore::GetSnapshot under any servable id.
  const bool lifecycle = validate || canary_fraction > 0.0;
  std::shared_ptr<const Model> incumbent;
  if (lifecycle && !publish_id.empty()) {
    auto current = models_.Get(publish_id);
    if (current.ok()) incumbent = std::move(current).ValueOrDie();
  }
  if (incumbent != nullptr) {
    // The gate and the canary score both models on the same rows, so they
    // must agree on the feature width (0 = unknown); a plain publish
    // hot-swap has no such comparison and may change it.
    const uint32_t incumbent_dim = incumbent->input_dim();
    const uint32_t candidate_dim = model->input_dim();
    if (incumbent_dim != 0 && candidate_dim != 0 &&
        incumbent_dim != candidate_dim) {
      return Status::InvalidArgument(
          "publish=" + publish_id + ": candidate input_dim " +
          std::to_string(candidate_dim) + " differs from the incumbent's " +
          std::to_string(incumbent_dim) +
          "; validate/canary_fraction need equal widths");
    }
  }
  if (validate) {
    std::vector<Tuple> holdout;
    if (entry.test_set != nullptr && !entry.test_set->empty()) {
      holdout = *entry.test_set;
    } else {
      // No registered test split: seeded sample from the training table
      // (this run's snapshot, so a concurrent insert cannot skew the gate).
      std::vector<Tuple> pool;
      CORGI_RETURN_NOT_OK(CollectForRead(table->Snapshot(), &pool));
      holdout = SampleHoldout(pool, holdout_fraction,
                              static_cast<uint64_t>(seed) ^ 0x401D07);
    }
    ValidationThresholds thresholds;
    thresholds.min_metric = validate_min_metric;
    thresholds.max_loss = validate_max_loss;
    thresholds.max_regression = validate_max_regression;
    const ValidationReport report = EvaluateCandidate(
        *model, incumbent.get(), holdout, entry.label_type, thresholds);
    result.validated = report.passed;
    result.validation_metric = report.candidate.metric;
    result.validation_loss = report.candidate.mean_loss;
    result.validation_reason = report.reason;
    if (!report.passed) {
      result.lifecycle_state = "rejected";
      result.model_id = publish_id;
      return result;  // candidate dies with this scope; incumbent unchanged
    }
  }
  if (canary_fraction > 0.0 && models_.GetVersion(publish_id).ok()) {
    CanaryPolicy policy;
    policy.fraction = canary_fraction;
    policy.seed = static_cast<uint64_t>(seed) ^ 0xCA11A;
    policy.promote_after_batches = static_cast<uint32_t>(canary_batches);
    policy.auto_rollback = auto_rollback;
    CORGI_ASSIGN_OR_RETURN(
        result.canary_version,
        models_.StageCanary(publish_id, std::move(model), policy));
    result.model_id = publish_id;
    result.lifecycle_state = "canary";
  } else if (publish_id.empty()) {
    result.model_id = models_.Put(std::move(model));
    if (lifecycle) result.lifecycle_state = "published";
  } else {
    // Stable alias: the first train creates it, retrains hot-swap it while
    // in-flight predicts keep their snapshot (see ModelStore::Publish).
    // A canary_fraction on the *first* train lands here too: with no
    // incumbent there is nothing to canary against.
    CORGI_ASSIGN_OR_RETURN(result.model_version,
                           models_.Publish(publish_id, std::move(model)));
    result.model_id = publish_id;
    if (lifecycle) result.lifecycle_state = "published";
  }
  return result;
}

Result<InDbPredictResult> Database::Predict(const PredictStatement& stmt) {
  CORGI_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(stmt.table_name));
  ShardedTable* table = entry->table.get();
  // Validate before a single tuple is submitted: missing models and
  // feature-dimensionality mismatches fail the statement, not N futures.
  CORGI_ASSIGN_OR_RETURN(ModelSnapshot snap,
                         models_.GetSnapshot(stmt.model_id));
  const uint32_t model_dim = snap.model->input_dim();
  if (model_dim != 0 && table->schema().dim != model_dim) {
    return Status::InvalidArgument(
        "table '" + stmt.table_name + "' has dim " +
        std::to_string(table->schema().dim) + " but model '" +
        stmt.model_id + "' expects " + std::to_string(model_dim));
  }

  // Snapshot scan — no global lock. Concurrent TRAIN/INSERT sessions never
  // block this read and never change what it sees.
  std::vector<Tuple> tuples;
  CORGI_RETURN_NOT_OK(CollectForRead(table->Snapshot(), &tuples));

  // Route the scan through the serving engine: the table is replayed as a
  // generated all-at-once arrival schedule, so the resulting ServeStats
  // are deterministic and batching/queueing are exercised on every
  // PREDICT BY — not just in bench_serve_sweep. The schedule is complete
  // before the first arrival, so Run() replays it on this thread.
  std::vector<double> labels;
  std::vector<ServeRequest> requests;
  labels.reserve(tuples.size());
  requests.reserve(tuples.size());
  for (Tuple& t : tuples) {
    labels.push_back(t.label);
    ServeRequest req;
    req.tuple = std::move(t);
    req.model_id = stmt.model_id;
    requests.push_back(std::move(req));
  }
  ServeOptions opts = serve_options_;
  opts.clock = &clock_;
  InferenceEngine engine(&models_, opts);
  CORGI_ASSIGN_OR_RETURN(std::vector<ServeReply> replies,
                         engine.Run(std::move(requests)));

  EvalAccumulator acc;
  for (size_t i = 0; i < replies.size(); ++i) {
    const ServeReply& reply = replies[i];
    CORGI_RETURN_NOT_OK(reply.status);
    acc.Add(labels[i], reply.value, reply.loss, reply.correct);
  }
  const EvalResult eval = acc.Finalize(entry->label_type);

  InDbPredictResult out;
  out.count = eval.count;
  out.metric = eval.metric;
  out.mean_loss = eval.mean_loss;
  out.serve = engine.stats();
  return out;
}

Result<BinaryReport> Database::EvaluateModel(const EvaluateStatement& stmt) {
  CORGI_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(stmt.table_name));
  if (entry->label_type != LabelType::kBinary) {
    return Status::InvalidArgument(
        "EVALUATE BY requires a binary-labelled table");
  }
  CORGI_ASSIGN_OR_RETURN(std::shared_ptr<const Model> model,
                         models_.Get(stmt.model_id));
  std::vector<Tuple> all;
  CORGI_RETURN_NOT_OK(CollectForRead(entry->table->Snapshot(), &all));
  return EvaluateBinaryDetailed(*model, all);
}

Result<uint64_t> Database::Load(const LoadStatement& stmt) {
  CORGI_ASSIGN_OR_RETURN(LibsvmParseResult parsed, ReadLibsvmFile(stmt.path));
  if (parsed.tuples.empty()) {
    return Status::InvalidArgument("no tuples in " + stmt.path);
  }
  CORGI_ASSIGN_OR_RETURN(int64_t dim_override,
                         stmt.params.GetInt("dim", 0));
  CORGI_ASSIGN_OR_RETURN(bool compress,
                         stmt.params.GetBool("compress", false));
  CORGI_ASSIGN_OR_RETURN(std::string order,
                         stmt.params.GetString("order", "file"));
  CORGI_ASSIGN_OR_RETURN(int64_t seed, stmt.params.GetInt("seed", 42));
  CORGI_ASSIGN_OR_RETURN(int64_t shards, stmt.params.GetInt("shards", 1));
  if (shards < 1 || shards > 64) {
    return Status::InvalidArgument("shards must be in [1, 64], got " +
                                   std::to_string(shards));
  }

  Schema schema;
  schema.name = stmt.table_name;
  schema.dim = dim_override > 0 ? static_cast<uint32_t>(dim_override)
                                : parsed.inferred_dim;
  schema.sparse = !parsed.looks_dense;
  schema.label_type = LabelType::kBinary;
  schema.num_classes = 2;

  if (order == "clustered") {
    ApplyOrder(&parsed.tuples, DataOrder::kClustered,
               static_cast<uint64_t>(seed));
  } else if (order == "shuffled") {
    ApplyOrder(&parsed.tuples, DataOrder::kShuffled,
               static_cast<uint64_t>(seed));
  } else if (order != "file") {
    return Status::InvalidArgument("order must be file|clustered|shuffled");
  }
  CORGI_RETURN_NOT_OK(CreateTable(stmt.table_name, schema, parsed.tuples,
                                  compress, Page::kDefaultSize,
                                  static_cast<uint32_t>(shards)));
  return static_cast<uint64_t>(parsed.tuples.size());
}

Result<std::string> Database::Execute(const std::string& sql) {
  return default_session().Execute(sql);
}

void Database::ResetAccounting() {
  clock_.Reset();
  io_stats_.Clear();
}

}  // namespace corgipile
