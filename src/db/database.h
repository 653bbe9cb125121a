// The miniature database engine hosting CorgiPile (paper §6).
//
// Owns sharded tables (heap files under a data directory), a
// buffer-manager-style device/clock configuration, the in-memory model
// store, and the session registry (DESIGN.md §14). Executes the SQL-ish
// TRAIN BY / PREDICT BY statements by building Volcano pipelines out of
// BlockShuffleOp → TupleShuffleOp → SgdOp.
//
// Concurrency model: there is no global scan lock. Reads capture immutable
// cross-shard snapshots (ShardedTable::Snapshot) and never block Insert;
// Insert publishes a new snapshot atomically after its pages are durable.
// Sessions (src/session/session.h) are the concurrency unit: statements
// from different sessions run concurrently; Database::Execute is a compat
// shim over an implicit default session.

#pragma once

#include <map>
#include <memory>
#include <string>

#include "db/model_store.h"
#include "ml/metrics.h"
#include "db/query.h"
#include "db/run_result.h"
#include "dataset/catalog.h"
#include "iosim/device.h"
#include "iosim/sim_clock.h"
#include "serve/inference_engine.h"
#include "serve/serve_stats.h"
#include "session/session.h"
#include "storage/sharded_table.h"
#include "storage/table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace corgipile {

/// Outcome of a PREDICT BY statement.
struct InDbPredictResult {
  uint64_t count = 0;
  double metric = 0.0;  ///< accuracy or R²
  double mean_loss = 0.0;
  /// Serving-side accounting: PREDICT BY routes every tuple through the
  /// micro-batched InferenceEngine, so batching/latency stats come along.
  ServeStats serve;
};

class Database {
 public:
  /// Tables are created under `data_dir`; all I/O is billed against
  /// `device` on the internal SimClock. Pages read by any operator pass
  /// through a shared buffer manager of `buffer_pool_bytes` (the paper's
  /// setup tunes shared_buffers / relies on the OS cache; datasets smaller
  /// than the pool run at memory speed after their first epoch). Pass 0 to
  /// disable caching.
  Database(std::string data_dir, DeviceProfile device,
           uint64_t buffer_pool_bytes = 32ull << 20);
  ~Database();

  // --- sessions ---

  /// Opens a new session. The session must not outlive the database; its
  /// destructor unregisters it. Statements on different sessions run
  /// concurrently (each individual session is single-threaded).
  std::unique_ptr<Session> CreateSession(SessionOptions options = {});

  /// The implicit session behind the Database::Execute compat shim
  /// (id 1, seed 42, label "default").
  Session& default_session() { return *default_session_; }

  /// One row per live session, ordered by id (SHOW SESSIONS).
  std::vector<SessionInfo> DescribeSessions() const;

  // --- catalog ---

  /// Materializes `tuples` as a heap table partitioned round-robin across
  /// `num_shards` shard files. `compress` enables the TOAST analog. Fails
  /// with AlreadyExists on duplicate names.
  Status CreateTable(const std::string& name, const Schema& schema,
                     const std::vector<Tuple>& tuples, bool compress = false,
                     uint32_t page_size = Page::kDefaultSize,
                     uint32_t num_shards = 1);

  /// Convenience: creates the train table of a generated dataset and
  /// registers its test split for post-epoch evaluation. `num_shards`
  /// partitions the train table round-robin.
  Status RegisterDataset(const std::string& name, const Dataset& dataset,
                         uint32_t num_shards = 1);

  /// Compat accessor: shard 0 of the named table (the whole table when
  /// num_shards == 1).
  Result<Table*> GetTable(const std::string& name);

  Result<ShardedTable*> GetShardedTable(const std::string& name);

  // --- execution ---

  /// Compat shim: parses and runs one statement on the implicit default
  /// session; returns a printable summary.
  Result<std::string> Execute(const std::string& sql);

  Result<InDbTrainResult> Train(const TrainStatement& stmt);
  Result<InDbPredictResult> Predict(const PredictStatement& stmt);

  /// Detailed binary evaluation of a stored model over a table (accuracy,
  /// precision/recall/F1, AUC). Binary tables only.
  Result<BinaryReport> EvaluateModel(const EvaluateStatement& stmt);

  /// Ingests a LIBSVM file as a table. Params: order=clustered|shuffled
  /// (default: keep file order), compress=true|false, dim=<override>,
  /// seed=<shuffle seed>, shards=<partition count>. Returns the tuple
  /// count loaded.
  Result<uint64_t> Load(const LoadStatement& stmt);

  /// Reattaches a table created by a previous session in this data
  /// directory (the engine writes a `<name>.schema` sidecar next to each
  /// heap file; sharded tables record their shard count there). Test
  /// splits are not persisted.
  Status Attach(const std::string& name);

  /// Streaming ingest (INSERT analog): appends `tuples` round-robin to the
  /// table's shards and atomically publishes a new snapshot. In-flight
  /// scans keep their snapshots; nothing blocks on them. The
  /// continual-learning loop feeds on this (src/lifecycle/continual.h).
  Status Insert(const std::string& table, const std::vector<Tuple>& tuples);

  /// ROLLBACK MODEL <id> TO <version>: re-points the published model at a
  /// retained prior version (ModelStore::Rollback; in-flight predicts keep
  /// their snapshot).
  Status RollbackModel(const RollbackStatement& stmt);

  // --- introspection ---

  /// Serving policy for PREDICT BY (batch size, deadline, workers, queue
  /// depth, service-time model). The defaults never shed: a table scan is
  /// an offline batch workload, not an open-loop arrival process.
  void set_serve_options(const ServeOptions& opts) { serve_options_ = opts; }
  const ServeOptions& serve_options() const { return serve_options_; }

  SimClock& clock() { return clock_; }
  IoStats& io_stats() { return io_stats_; }
  ModelStore& models() { return models_; }
  const DeviceProfile& device() const { return device_; }
  BufferManager* buffer_pool() { return buffer_pool_.get(); }

  /// Resets the clock and I/O stats (tables keep their data).
  void ResetAccounting();

 private:
  friend class Session;

  struct TableEntry {
    std::unique_ptr<ShardedTable> table;
    std::shared_ptr<const std::vector<Tuple>> test_set;
    LabelType label_type = LabelType::kBinary;
    uint32_t num_classes = 2;
  };

  Result<std::unique_ptr<Model>> MakeModel(const std::string& kind,
                                           const Schema& schema,
                                           const Params& params) const;

  /// Catalog lookup under catalog_mu_. The returned entry pointer stays
  /// valid for the database's lifetime (std::map nodes are stable and
  /// tables are never dropped).
  Result<TableEntry*> FindTable(const std::string& name);

  /// Registers a freshly created table: sidecar, accounting, buffer pool.
  /// Called under catalog_mu_.
  Status InstallTable(const std::string& name, const Schema& schema,
                      bool compress, uint32_t page_size, TableEntry entry)
      CORGI_REQUIRES(catalog_mu_);

  /// Scans a snapshot into a tuple vector, using the shared scan pool for
  /// multi-shard snapshots.
  Status CollectForRead(const ShardedSnapshot& snap, std::vector<Tuple>* out);

  /// Lazily built pool shared by all multi-shard merge scans.
  ThreadPool* scan_pool();

  void UnregisterSession(const Session* session);

  std::string data_dir_;
  DeviceProfile device_;
  std::unique_ptr<BufferManager> buffer_pool_;
  SimClock clock_;
  IoStats io_stats_;

  /// Guards the catalog maps (entries themselves have their own locking).
  mutable Mutex catalog_mu_;
  std::map<std::string, TableEntry> tables_ CORGI_GUARDED_BY(catalog_mu_);
  /// Shuffled copies created by strategy=shuffle_once, kept alive per table.
  std::map<std::string, std::unique_ptr<Table>> shuffled_copies_
      CORGI_GUARDED_BY(catalog_mu_);

  /// Session registry. Sessions unregister in their destructor; the map is
  /// ordered so SHOW SESSIONS output is deterministic.
  mutable Mutex session_mu_;
  uint64_t next_session_id_ CORGI_GUARDED_BY(session_mu_) = 1;
  std::map<uint64_t, Session*> sessions_ CORGI_GUARDED_BY(session_mu_);
  std::unique_ptr<Session> default_session_;

  /// Built on first multi-shard scan; guarded by pool_mu_.
  mutable Mutex pool_mu_;
  std::unique_ptr<ThreadPool> scan_pool_ CORGI_GUARDED_BY(pool_mu_);

  ModelStore models_;
  ServeOptions serve_options_ = [] {
    ServeOptions o;
    o.max_queue_depth = 0;  // offline scan: admit everything
    return o;
  }();
};

}  // namespace corgipile
