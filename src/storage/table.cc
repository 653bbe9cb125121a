#include "storage/table.h"

#include <algorithm>

#include "exec/tuple_batch.h"
#include "storage/compression.h"

namespace corgipile {

namespace {

// The two sinks a page read decodes records into.
Status AppendRecord(const uint8_t* data, size_t len, std::vector<Tuple>* out) {
  size_t consumed = 0;
  CORGI_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(data, len, &consumed));
  out->push_back(std::move(t));
  return Status::OK();
}

Status AppendRecord(const uint8_t* data, size_t len, TupleBatch* out) {
  return out->AppendWire(data, len);
}

}  // namespace

// --- TableSnapshot ---

const Schema& TableSnapshot::schema() const { return table_->schema(); }

const TableOptions& TableSnapshot::options() const {
  return table_->options();
}

uint64_t TableSnapshot::num_tuples() const {
  return index_ == nullptr ? 0 : index_->num_tuples;
}

uint64_t TableSnapshot::num_pages() const {
  return index_ == nullptr ? 0 : index_->tuples_per_page.size();
}

uint64_t TableSnapshot::size_bytes() const {
  return num_pages() * table_->options().page_size;
}

uint32_t TableSnapshot::TuplesInPage(uint64_t p) const {
  if (index_ == nullptr || p >= index_->tuples_per_page.size()) return 0;
  return index_->tuples_per_page[p];
}

Status TableSnapshot::ReadTuplesFromPages(uint64_t first, uint64_t count,
                                          std::vector<Tuple>* out) const {
  if (table_ == nullptr) return Status::Internal("empty snapshot");
  return table_->ReadTuplesFromPagesBounded(*index_, first, count, out);
}

Status TableSnapshot::ReadTuplesFromPages(uint64_t first, uint64_t count,
                                          TupleBatch* out) const {
  if (table_ == nullptr) return Status::Internal("empty snapshot");
  return table_->ReadTuplesFromPagesBounded(*index_, first, count, out);
}

Result<Tuple> TableSnapshot::ReadTupleAt(uint64_t idx) const {
  if (table_ == nullptr) return Status::Internal("empty snapshot");
  return table_->ReadTupleAtBounded(*index_, idx);
}

Status TableSnapshot::Scan(
    const std::function<Status(const Tuple&)>& fn) const {
  if (table_ == nullptr) return Status::Internal("empty snapshot");
  std::vector<Tuple> tuples;
  for (uint64_t p = 0; p < num_pages(); ++p) {
    tuples.clear();
    CORGI_RETURN_NOT_OK(ReadTuplesFromPages(p, 1, &tuples));
    for (const Tuple& t : tuples) {
      CORGI_RETURN_NOT_OK(fn(t));
    }
  }
  return Status::OK();
}

void TableSnapshot::ResetReadCursor() const { table_->ResetReadCursor(); }

// --- Table ---

Table::Table(Schema schema, TableOptions options,
             std::unique_ptr<HeapFile> file,
             std::vector<uint32_t> tuples_per_page)
    : schema_(std::move(schema)), options_(options), file_(std::move(file)) {
  MutexLock lock(snapshot_mu_);
  index_ = BuildIndex(std::move(tuples_per_page));
}

std::shared_ptr<const Table::Index> Table::BuildIndex(
    std::vector<uint32_t> tuples_per_page) {
  auto index = std::make_shared<Index>();
  index->tuples_per_page = std::move(tuples_per_page);
  index->page_prefix.resize(index->tuples_per_page.size() + 1, 0);
  for (size_t i = 0; i < index->tuples_per_page.size(); ++i) {
    index->page_prefix[i + 1] =
        index->page_prefix[i] + index->tuples_per_page[i];
  }
  index->num_tuples = index->page_prefix.back();
  return index;
}

Result<std::unique_ptr<Table>> Table::Open(const std::string& path,
                                           Schema schema,
                                           TableOptions options) {
  CORGI_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                         HeapFile::Open(path, options.page_size));
  std::vector<uint32_t> tuples_per_page;
  tuples_per_page.reserve(file->num_pages());
  Page page(options.page_size);
  for (uint64_t p = 0; p < file->num_pages(); ++p) {
    CORGI_RETURN_NOT_OK(file->ReadPage(p, &page));
    tuples_per_page.push_back(page.num_records());
  }
  file->ResetReadCursor();
  return std::unique_ptr<Table>(new Table(std::move(schema), options,
                                          std::move(file),
                                          std::move(tuples_per_page)));
}

TableSnapshot Table::Snapshot() const {
  MutexLock lock(snapshot_mu_);
  return TableSnapshot(const_cast<Table*>(this), index_);
}

uint64_t Table::num_tuples() const { return Snapshot().num_tuples(); }
uint64_t Table::num_pages() const { return Snapshot().num_pages(); }
uint64_t Table::size_bytes() const { return Snapshot().size_bytes(); }

void Table::SetIoAccounting(DeviceProfile device, SimClock* clock,
                            IoStats* stats) {
  clock_ = clock;
  file_->SetIoAccounting(std::move(device), clock, stats);
}

uint32_t Table::TuplesInPage(uint64_t p) const {
  return Snapshot().TuplesInPage(p);
}

template <typename Sink>
Status Table::DecodePage(const Page& page, Sink* out) {
  std::vector<uint8_t> decompressed;
  uint64_t decompressed_bytes = 0;
  for (uint16_t s = 0; s < page.num_records(); ++s) {
    auto [data, len] = page.Record(s);
    if (options_.compress_tuples) {
      CORGI_RETURN_NOT_OK(DecompressBytes(data, len, &decompressed));
      decompressed_bytes += decompressed.size();
      CORGI_RETURN_NOT_OK(
          AppendRecord(decompressed.data(), decompressed.size(), out));
    } else {
      CORGI_RETURN_NOT_OK(AppendRecord(data, len, out));
    }
  }
  if (options_.compress_tuples && clock_ != nullptr) {
    clock_->Advance(TimeCategory::kDecompress,
                    static_cast<double>(decompressed_bytes) /
                        kDecompressBandwidthBytesPerS);
  }
  return Status::OK();
}

template <typename Sink>
Status Table::ReadTuplesFromPagesBounded(const Index& index, uint64_t first,
                                         uint64_t count, Sink* out) {
  const uint64_t bound = index.tuples_per_page.size();
  if (first + count > bound) {
    return Status::OutOfRange("page range beyond snapshot");
  }
  if (buffer_manager_ == nullptr) {
    std::vector<Page> pages;
    CORGI_RETURN_NOT_OK(file_->ReadPages(first, count, &pages));
    for (const Page& p : pages) {
      CORGI_RETURN_NOT_OK(DecodePage(p, out));
    }
    return Status::OK();
  }
  // Buffer-managed path: serve cached pages for free; read runs of
  // uncached pages as single contiguous device accesses and cache them.
  uint64_t p = first;
  const uint64_t end = first + count;
  while (p < end) {
    if (buffer_manager_->Contains(file_.get(), p)) {
      CORGI_ASSIGN_OR_RETURN(std::shared_ptr<const Page> page,
                             buffer_manager_->Fetch(file_.get(), p));
      CORGI_RETURN_NOT_OK(DecodePage(*page, out));
      ++p;
      continue;
    }
    uint64_t run_end = p + 1;
    while (run_end < end && !buffer_manager_->Contains(file_.get(), run_end)) {
      ++run_end;
    }
    // Every page of the run is a miss, as a Fetch of it would have been.
    buffer_manager_->CountMisses(run_end - p);
    std::vector<Page> pages;
    CORGI_RETURN_NOT_OK(file_->ReadPages(p, run_end - p, &pages));
    for (uint64_t i = 0; i < pages.size(); ++i) {
      auto shared = std::make_shared<const Page>(std::move(pages[i]));
      CORGI_RETURN_NOT_OK(DecodePage(*shared, out));
      buffer_manager_->Insert(file_.get(), p + i, std::move(shared));
    }
    p = run_end;
  }
  return Status::OK();
}

Result<Tuple> Table::ReadTupleAtBounded(const Index& index, uint64_t idx) {
  if (idx >= index.num_tuples) return Status::OutOfRange("tuple index");
  // Find page via prefix sums.
  auto it = std::upper_bound(index.page_prefix.begin(),
                             index.page_prefix.end(), idx);
  const auto page_idx =
      static_cast<uint64_t>(std::distance(index.page_prefix.begin(), it)) - 1;
  std::vector<Tuple> tuples;
  if (buffer_manager_ != nullptr) {
    CORGI_ASSIGN_OR_RETURN(std::shared_ptr<const Page> page,
                           buffer_manager_->Fetch(file_.get(), page_idx));
    CORGI_RETURN_NOT_OK(DecodePage(*page, &tuples));
  } else {
    Page page(file_->page_size());
    CORGI_RETURN_NOT_OK(file_->ReadPage(page_idx, &page));
    CORGI_RETURN_NOT_OK(DecodePage(page, &tuples));
  }
  const uint64_t slot = idx - index.page_prefix[page_idx];
  if (slot >= tuples.size()) {
    return Status::Corruption("tuple index beyond page contents");
  }
  return std::move(tuples[slot]);
}

Status Table::ReadTuplesFromPages(uint64_t first, uint64_t count,
                                  std::vector<Tuple>* out) {
  return Snapshot().ReadTuplesFromPages(first, count, out);
}

Result<Tuple> Table::ReadTupleAt(uint64_t idx) {
  return Snapshot().ReadTupleAt(idx);
}

Status Table::Scan(const std::function<Status(const Tuple&)>& fn) {
  return Snapshot().Scan(fn);
}

Status Table::AppendTuples(const std::vector<Tuple>& tuples) {
  if (tuples.empty()) return Status::OK();
  MutexLock append_lock(append_mu_);
  Page page(options_.page_size);
  uint32_t page_tuples = 0;
  std::vector<uint32_t> new_counts;
  std::vector<uint8_t> scratch;
  std::vector<uint8_t> compressed;
  auto flush = [&]() -> Status {
    if (page_tuples == 0) return Status::OK();
    CORGI_RETURN_NOT_OK(file_->AppendPage(page));
    new_counts.push_back(page_tuples);
    page.Clear();
    page_tuples = 0;
    return Status::OK();
  };
  for (const Tuple& t : tuples) {
    scratch.clear();
    t.SerializeTo(&scratch);
    const std::vector<uint8_t>* record = &scratch;
    if (options_.compress_tuples) {
      CompressBytes(scratch, &compressed);
      record = &compressed;
    }
    if (record->size() >
        options_.page_size - Page::kHeaderBytes - Page::kSlotBytes) {
      return Status::InvalidArgument("tuple larger than page");
    }
    if (!page.AddRecord(record->data(), record->size())) {
      CORGI_RETURN_NOT_OK(flush());
      if (!page.AddRecord(record->data(), record->size())) {
        return Status::Internal("record does not fit in empty page");
      }
    }
    ++page_tuples;
  }
  CORGI_RETURN_NOT_OK(flush());
  CORGI_RETURN_NOT_OK(file_->Sync());
  // All pages durable: stage the extended index, then commit it with a
  // noexcept pointer swap. In-flight snapshots keep the old index alive.
  std::vector<uint32_t> counts;
  {
    MutexLock lock(snapshot_mu_);
    counts = index_->tuples_per_page;
  }
  counts.insert(counts.end(), new_counts.begin(), new_counts.end());
  std::shared_ptr<const Index> next = BuildIndex(std::move(counts));
  {
    MutexLock lock(snapshot_mu_);
    index_ = std::move(next);
  }
  return Status::OK();
}

TableBuilder::TableBuilder(Schema schema, std::string path,
                           TableOptions options)
    : schema_(std::move(schema)), path_(std::move(path)), options_(options),
      current_page_(options.page_size) {
  auto file = HeapFile::Create(path_, options_.page_size);
  if (!file.ok()) {
    init_status_ = file.status();
  } else {
    file_ = std::move(file).ValueOrDie();
  }
}

Status TableBuilder::FlushPage() {
  if (current_page_tuples_ == 0) return Status::OK();
  CORGI_RETURN_NOT_OK(file_->AppendPage(current_page_));
  tuples_per_page_.push_back(current_page_tuples_);
  current_page_.Clear();
  current_page_tuples_ = 0;
  return Status::OK();
}

Status TableBuilder::Append(const Tuple& tuple) {
  CORGI_RETURN_NOT_OK(init_status_);
  scratch_.clear();
  tuple.SerializeTo(&scratch_);
  const std::vector<uint8_t>* record = &scratch_;
  if (options_.compress_tuples) {
    CompressBytes(scratch_, &compressed_scratch_);
    record = &compressed_scratch_;
  }
  if (record->size() >
      options_.page_size - Page::kHeaderBytes - Page::kSlotBytes) {
    return Status::InvalidArgument("tuple larger than page");
  }
  if (!current_page_.AddRecord(record->data(), record->size())) {
    CORGI_RETURN_NOT_OK(FlushPage());
    if (!current_page_.AddRecord(record->data(), record->size())) {
      return Status::Internal("record does not fit in empty page");
    }
  }
  ++current_page_tuples_;
  ++num_tuples_;
  return Status::OK();
}

Result<std::unique_ptr<Table>> TableBuilder::Finish() {
  CORGI_RETURN_NOT_OK(init_status_);
  CORGI_RETURN_NOT_OK(FlushPage());
  CORGI_RETURN_NOT_OK(file_->Sync());
  return std::unique_ptr<Table>(new Table(
      std::move(schema_), options_, std::move(file_),
      std::move(tuples_per_page_)));
}

}  // namespace corgipile
