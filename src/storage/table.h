// Table: schema + heap file + tuple placement index, with MVCC-style
// immutable snapshots (DESIGN.md §14).
//
// Concurrency contract: pages are append-only — AppendTuples never rewrites
// an existing page — so a TableSnapshot captured before an append keeps
// reading exactly the pages it saw, without any lock. The tuple placement
// index is published as an immutable copy-on-write structure: AppendTuples
// stages a new index (old entries + the appended pages) after the pages are
// durable, then commits it with a noexcept shared_ptr swap (the same
// staging-then-commit discipline as ModelStore). Readers never block
// writers and vice versa; concurrent appends serialize on an internal
// append mutex.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/heapfile.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

class Table;
class TupleBatch;

struct TableOptions {
  uint32_t page_size = Page::kDefaultSize;
  /// TOAST analog: compress each tuple record inside pages; reads charge
  /// modeled decompression time (see storage/compression.h).
  bool compress_tuples = false;
};

/// An immutable point-in-time view of a table. Cheap to copy (two
/// shared_ptr-sized fields). All reads through a snapshot are bounded by
/// the page count at capture time, so a scan in flight keeps its snapshot
/// alive across any number of concurrent AppendTuples — the MVCC property
/// the session layer builds on. The parent Table must outlive the
/// snapshot (tables live for the lifetime of their Database).
class TableSnapshot {
 public:
  TableSnapshot() = default;

  bool valid() const { return table_ != nullptr; }
  Table* table() const { return table_; }

  const Schema& schema() const;
  const TableOptions& options() const;
  uint64_t num_tuples() const;
  uint64_t num_pages() const;
  uint64_t size_bytes() const;

  /// Tuples stored in page `p` (0 past the snapshot bound).
  uint32_t TuplesInPage(uint64_t p) const;

  /// Appends all tuples stored in pages [first, first+count) to *out.
  /// One contiguous device access; decompression billed if applicable.
  /// Fails with kOutOfRange past the snapshot's page bound.
  Status ReadTuplesFromPages(uint64_t first, uint64_t count,
                             std::vector<Tuple>* out) const;

  /// Batch form: decodes the same rows, in the same order and with the same
  /// billing and errors, straight into `out`'s arenas without building a
  /// Tuple per row. On error `out` may hold a prefix of the rows.
  Status ReadTuplesFromPages(uint64_t first, uint64_t count,
                             TupleBatch* out) const;

  /// Reads the tuple with global index `idx` (0-based, in storage order).
  Result<Tuple> ReadTupleAt(uint64_t idx) const;

  /// Sequential scan of the snapshot (never sees concurrently appended
  /// pages).
  Status Scan(const std::function<Status(const Tuple&)>& fn) const;

  /// Resets the heap file's billing cursor so the next access is charged
  /// as a fresh seek. Affects accounting only, never visibility.
  void ResetReadCursor() const;

 private:
  friend class Table;
  struct Index {
    std::vector<uint32_t> tuples_per_page;
    std::vector<uint64_t> page_prefix;  // page_prefix[p] = tuples before p
    uint64_t num_tuples = 0;
  };

  TableSnapshot(Table* table, std::shared_ptr<const Index> index)
      : table_(table), index_(std::move(index)) {}

  Table* table_ = nullptr;
  std::shared_ptr<const Index> index_;
};

class Table {
 public:
  /// Reopens an existing heap table. The per-page tuple index is rebuilt
  /// from the page headers (no tuple deserialization).
  static Result<std::unique_ptr<Table>> Open(const std::string& path,
                                             Schema schema,
                                             TableOptions options);

  const Schema& schema() const { return schema_; }
  const TableOptions& options() const { return options_; }
  HeapFile* file() { return file_.get(); }
  const HeapFile* file() const { return file_.get(); }

  /// Captures the current published index as an immutable snapshot.
  TableSnapshot Snapshot() const;

  /// Published counts (the current snapshot's view). A concurrent
  /// AppendTuples becomes visible here only after its pages are durable.
  uint64_t num_tuples() const;
  uint64_t num_pages() const;
  uint64_t size_bytes() const;

  /// Attaches device model + clocks; forwarded to the heap file, and also
  /// used to charge decompression time for compressed tables. Setup-time
  /// only: not synchronized against in-flight scans.
  void SetIoAccounting(DeviceProfile device, SimClock* clock, IoStats* stats);

  /// Routes page reads through a buffer manager (not owned; may be null).
  /// Cached pages cost nothing — the OS-cache effect the paper observes
  /// for datasets smaller than RAM (§7.3.4): the first epoch pays device
  /// I/O, later epochs run at memory speed. Setup-time only.
  void SetBufferManager(BufferManager* buffer_manager) {
    buffer_manager_ = buffer_manager;
  }
  BufferManager* buffer_manager() const { return buffer_manager_; }

  /// Compatibility forms of the snapshot read API: each captures the
  /// current snapshot and reads through it.
  Status ReadTuplesFromPages(uint64_t first, uint64_t count,
                             std::vector<Tuple>* out);
  Result<Tuple> ReadTupleAt(uint64_t idx);
  Status Scan(const std::function<Status(const Tuple&)>& fn);

  /// Tuples stored in page `p` of the current snapshot.
  uint32_t TuplesInPage(uint64_t p) const;

  /// Resets the read cursor so the next access is billed as a fresh seek.
  void ResetReadCursor() { file_->ResetReadCursor(); }

  /// Streaming ingest (the INSERT analog): encodes `tuples` into fresh
  /// pages appended to the heap file, fsyncs, and then publishes a new
  /// index snapshot. Existing pages are never rewritten, so snapshots
  /// captured earlier keep reading their exact view; concurrent appenders
  /// serialize on an internal mutex — scans never wait.
  Status AppendTuples(const std::vector<Tuple>& tuples);

 private:
  friend class TableBuilder;
  friend class TableSnapshot;
  using Index = TableSnapshot::Index;

  Table(Schema schema, TableOptions options, std::unique_ptr<HeapFile> file,
        std::vector<uint32_t> tuples_per_page);

  static std::shared_ptr<const Index> BuildIndex(
      std::vector<uint32_t> tuples_per_page);

  /// Decodes every record of `page` into `out` (a std::vector<Tuple> or a
  /// TupleBatch), billing decompression for compressed tables.
  template <typename Sink>
  Status DecodePage(const Page& page, Sink* out);
  /// Snapshot-bounded read body shared by Table and TableSnapshot and by
  /// both sinks.
  template <typename Sink>
  Status ReadTuplesFromPagesBounded(const Index& index, uint64_t first,
                                    uint64_t count, Sink* out);
  Result<Tuple> ReadTupleAtBounded(const Index& index, uint64_t idx);

  Schema schema_;
  TableOptions options_;
  std::unique_ptr<HeapFile> file_;
  SimClock* clock_ = nullptr;
  BufferManager* buffer_manager_ = nullptr;

  /// Serializes writers (AppendTuples). Never held while readers scan.
  Mutex append_mu_;
  /// Guards only the published-index pointer; held for pointer swaps and
  /// snapshot captures, never across I/O.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const Index> index_ CORGI_GUARDED_BY(snapshot_mu_);
};

/// Streams tuples into pages and produces a Table.
class TableBuilder {
 public:
  /// Creates the backing file eagerly; errors surface from Append/Finish.
  TableBuilder(Schema schema, std::string path, TableOptions options = {});

  Status Append(const Tuple& tuple);

  /// Flushes the last partial page and returns the finished table.
  Result<std::unique_ptr<Table>> Finish();

  uint64_t tuples_appended() const { return num_tuples_; }

 private:
  Status FlushPage();

  Schema schema_;
  std::string path_;
  TableOptions options_;
  Status init_status_;
  std::unique_ptr<HeapFile> file_;
  Page current_page_;
  uint32_t current_page_tuples_ = 0;
  std::vector<uint32_t> tuples_per_page_;
  uint64_t num_tuples_ = 0;
  std::vector<uint8_t> scratch_;
  std::vector<uint8_t> compressed_scratch_;
};

}  // namespace corgipile
