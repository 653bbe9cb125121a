#include "storage/sharded_table.h"

#include <utility>

#include "iosim/fault_plane.h"

namespace corgipile {

ShardedSnapshot::ShardedSnapshot(std::vector<TableSnapshot> shards)
    : shards_(std::move(shards)) {
  for (const TableSnapshot& s : shards_) num_tuples_ += s.num_tuples();
}

uint64_t ShardedSnapshot::num_pages() const {
  uint64_t pages = 0;
  for (const TableSnapshot& s : shards_) pages += s.num_pages();
  return pages;
}

uint64_t ShardedSnapshot::size_bytes() const {
  uint64_t bytes = 0;
  for (const TableSnapshot& s : shards_) bytes += s.size_bytes();
  return bytes;
}

void ShardedSnapshot::ResetReadCursors() const {
  for (const TableSnapshot& s : shards_) s.ResetReadCursor();
}

std::string ShardedTable::ShardPath(const std::string& base, uint32_t k) {
  if (k == 0) return base + ".tbl";
  return base + ".shard" + std::to_string(k) + ".tbl";
}

ShardedTable::ShardedTable(Schema schema, TableOptions options,
                           std::vector<std::unique_ptr<Table>> shards)
    : schema_(std::move(schema)), options_(options),
      shards_(std::move(shards)) {
  Publish();
}

void ShardedTable::Publish() {
  std::vector<TableSnapshot> views;
  views.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard != nullptr) views.push_back(shard->Snapshot());
  }
  auto next = std::make_shared<const ShardedSnapshot>(std::move(views));
  MutexLock lock(snapshot_mu_);
  snapshot_ = std::move(next);
}

Result<std::unique_ptr<ShardedTable>> ShardedTable::Create(
    const std::string& base, Schema schema, TableOptions options,
    const std::vector<Tuple>& tuples, uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<std::unique_ptr<Table>> shards;
  shards.reserve(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    TableBuilder builder(schema, ShardPath(base, k), options);
    // Round-robin placement: tuple i lands in shard i % K, preserving
    // local order, so a cyclic merge reconstructs insertion order exactly.
    for (size_t i = k; i < tuples.size(); i += num_shards) {
      CORGI_RETURN_NOT_OK(builder.Append(tuples[i]));
    }
    CORGI_ASSIGN_OR_RETURN(std::unique_ptr<Table> shard, builder.Finish());
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedTable>(new ShardedTable(
      std::move(schema), options, std::move(shards)));
}

Result<std::unique_ptr<ShardedTable>> ShardedTable::Open(
    const std::string& base, Schema schema, TableOptions options,
    uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<std::unique_ptr<Table>> shards;
  shards.reserve(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    CORGI_ASSIGN_OR_RETURN(
        std::unique_ptr<Table> shard,
        Table::Open(ShardPath(base, k), schema, options));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedTable>(new ShardedTable(
      std::move(schema), options, std::move(shards)));
}

ShardedSnapshot ShardedTable::Snapshot() const {
  MutexLock lock(snapshot_mu_);
  return snapshot_ == nullptr ? ShardedSnapshot() : *snapshot_;
}

Status ShardedTable::AppendTuples(const std::vector<Tuple>& tuples) {
  if (tuples.empty()) return Status::OK();
  MutexLock append_lock(append_mu_);
  CORGI_INJECT_POINT("shard.append.begin");
  const uint32_t K = num_shards();
  // Continue the round-robin frontier from the published total: batch
  // tuple j is global tuple (total + j) and lands in shard (total + j) % K.
  const uint64_t total = Snapshot().num_tuples();
  std::vector<std::vector<Tuple>> parts(K);
  for (size_t j = 0; j < tuples.size(); ++j) {
    parts[(total + j) % K].push_back(tuples[j]);
  }
  for (uint32_t k = 0; k < K; ++k) {
    if (parts[k].empty()) continue;
    if (shards_[k] == nullptr) {
      return Status::Internal("shard " + std::to_string(k) + " detached");
    }
    CORGI_RETURN_NOT_OK(shards_[k]->AppendTuples(parts[k]));
  }
  // Every shard durable (pages + fsync inside Table::AppendTuples). A kill
  // here loses no data: reopening rebuilds the combined snapshot from the
  // shard files, and the round-robin frontier is recomputed from counts.
  CORGI_CRASH_POINT("shard.snapshot.publish");
  Publish();
  return Status::OK();
}

void ShardedTable::SetIoAccounting(DeviceProfile device, SimClock* clock,
                                   IoStats* stats) {
  for (auto& shard : shards_) {
    if (shard != nullptr) shard->SetIoAccounting(device, clock, stats);
  }
}

void ShardedTable::SetBufferManager(BufferManager* buffer_manager) {
  for (auto& shard : shards_) {
    if (shard != nullptr) shard->SetBufferManager(buffer_manager);
  }
}

void ShardedTable::ResetReadCursors() {
  for (auto& shard : shards_) {
    if (shard != nullptr) shard->ResetReadCursor();
  }
}

Result<std::unique_ptr<Table>> ShardedTable::ReleaseSoleShard() {
  MutexLock lock(append_mu_);
  if (shards_.size() != 1) {
    return Status::Internal(
        "ReleaseSoleShard requires an unsharded (K=1) table");
  }
  std::unique_ptr<Table> out = std::move(shards_[0]);
  if (out == nullptr) {
    return Status::Internal("sole shard already detached");
  }
  Publish();  // empty snapshot: table unreadable until AdoptSoleShard
  return out;
}

Status ShardedTable::AdoptSoleShard(std::unique_ptr<Table> table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  MutexLock lock(append_mu_);
  if (shards_.size() != 1 || shards_[0] != nullptr) {
    return Status::Internal(
        "AdoptSoleShard requires a detached K=1 table");
  }
  shards_[0] = std::move(table);
  Publish();
  return Status::OK();
}

}  // namespace corgipile
