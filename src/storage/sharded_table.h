// ShardedTable: a logical table partitioned round-robin across N heap
// tables, with atomic cross-shard snapshots (DESIGN.md §14).
//
// Tuple i (in insertion order) lives in shard i % K at local position
// i / K, so cycling over the shards one tuple at a time reconstructs the
// exact insertion order — a K-shard merge scan is bit-identical to the
// unsharded sequential scan, and at K=1 the sharded table *is* the plain
// table (same file name, same layout, same bytes).
//
// Concurrency: each AppendTuples call partitions its batch round-robin,
// appends to every affected shard (durable: pages + fsync per shard), and
// only then publishes one new ShardedSnapshot covering all shards with a
// noexcept pointer swap. Readers capture the published snapshot and never
// observe a half-appended batch — shard counts in a snapshot always form a
// consistent round-robin frontier. Writers serialize on an append mutex;
// readers never block.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

/// An immutable, cross-shard-consistent view of a ShardedTable. Cheap to
/// copy. All per-shard reads are bounded by the page counts at capture, so
/// an in-flight merge scan keeps its view across any number of concurrent
/// appends. The parent ShardedTable must outlive the snapshot.
class ShardedSnapshot {
 public:
  ShardedSnapshot() = default;

  /// Wraps already-captured per-shard snapshots (shard order = vector
  /// order). Used by ShardedTable::Snapshot and by compat paths that view
  /// a single Table as a one-shard snapshot.
  explicit ShardedSnapshot(std::vector<TableSnapshot> shards);

  bool valid() const { return !shards_.empty(); }
  size_t num_shards() const { return shards_.size(); }
  const TableSnapshot& shard(size_t k) const { return shards_[k]; }

  const Schema& schema() const { return shards_.front().schema(); }
  const TableOptions& options() const { return shards_.front().options(); }
  uint64_t num_tuples() const { return num_tuples_; }
  uint64_t num_pages() const;  // sum over shards
  uint64_t size_bytes() const;

  /// Resets every shard's billing cursor (accounting only).
  void ResetReadCursors() const;

 private:
  std::vector<TableSnapshot> shards_;
  uint64_t num_tuples_ = 0;
};

class ShardedTable {
 public:
  /// Heap-file path for shard `k` of the table rooted at `base` (a path
  /// without extension, e.g. "<data_dir>/<name>"). Shard 0 keeps the
  /// legacy "<base>.tbl" name so unsharded tables from older data dirs
  /// open as K=1 sharded tables byte-for-byte.
  static std::string ShardPath(const std::string& base, uint32_t k);

  /// Materializes `tuples` round-robin across `num_shards` fresh heap
  /// files rooted at `base`.
  static Result<std::unique_ptr<ShardedTable>> Create(
      const std::string& base, Schema schema, TableOptions options,
      const std::vector<Tuple>& tuples, uint32_t num_shards);

  /// Reopens an existing sharded table (all shard files must exist).
  static Result<std::unique_ptr<ShardedTable>> Open(const std::string& base,
                                                    Schema schema,
                                                    TableOptions options,
                                                    uint32_t num_shards);

  const Schema& schema() const { return schema_; }
  const TableOptions& options() const { return options_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  Table* shard(size_t k) { return shards_[k].get(); }
  const Table* shard(size_t k) const { return shards_[k].get(); }

  /// Captures the current published cross-shard snapshot.
  ShardedSnapshot Snapshot() const;

  /// Published totals (the current snapshot's view).
  uint64_t num_tuples() const { return Snapshot().num_tuples(); }
  uint64_t num_pages() const { return Snapshot().num_pages(); }
  uint64_t size_bytes() const { return Snapshot().size_bytes(); }

  /// Streaming ingest (the INSERT analog): partitions `tuples` round-robin
  /// continuing from the published total, appends to each affected shard
  /// (durable), then atomically publishes a snapshot covering the whole
  /// batch. Concurrent scans keep their earlier snapshots; they never wait.
  Status AppendTuples(const std::vector<Tuple>& tuples);

  // --- setup-time configuration (forwarded to every shard) ---
  void SetIoAccounting(DeviceProfile device, SimClock* clock, IoStats* stats);
  void SetBufferManager(BufferManager* buffer_manager);

  /// Resets every shard's billing cursor (accounting only).
  void ResetReadCursors();

  /// Detaches the sole shard for strategies that consume Table ownership
  /// (shuffle_once_inplace rewrites storage in place). K=1 tables only;
  /// the table is unreadable until AdoptSoleShard re-publishes. Callers
  /// must guarantee no concurrent readers (single-session strategies).
  Result<std::unique_ptr<Table>> ReleaseSoleShard();
  Status AdoptSoleShard(std::unique_ptr<Table> table);

 private:
  ShardedTable(Schema schema, TableOptions options,
               std::vector<std::unique_ptr<Table>> shards);

  /// Captures all shard snapshots and swaps in the combined snapshot.
  void Publish();

  Schema schema_;
  TableOptions options_;
  std::vector<std::unique_ptr<Table>> shards_;

  /// Serializes writers (AppendTuples, ReleaseSoleShard/AdoptSoleShard).
  Mutex append_mu_;
  /// Guards only the published-snapshot pointer; never held across I/O.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const ShardedSnapshot> snapshot_
      CORGI_GUARDED_BY(snapshot_mu_);
};

}  // namespace corgipile
