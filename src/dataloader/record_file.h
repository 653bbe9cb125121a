// TFRecord-style binary record files with a block index (paper §5.1).
//
// The paper's cluster file system cannot store millions of raw image files;
// datasets are converted to binary record files (TFRecord-like) and a block
// index marks the start/end of each block so CorgiPileDataset can read
// whole blocks. This module provides exactly that: a record file of
// length-prefixed serialized tuples, an index builder, and a BlockSource
// over the pair with the same device-cost accounting as heap tables.
//
// Record wire format: [u32 length][u32 crc32c][payload]. The CRC covers the
// payload only (TFRecord keeps a masked CRC per record for the same
// reason); 0 means "no checksum" and is never produced by the writer. A
// mismatch surfaces as kCorruption from ReadBlock so corrupt records are
// quarantined rather than fed to SGD. Reads retry failed attempts with
// bounded exponential backoff (ReadWithRetry); the FaultPlane's media
// rules at storage.recordfile.read_block / .append make both failure modes
// reproducible.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "iosim/device.h"
#include "iosim/fault_plane.h"
#include "iosim/sim_clock.h"
#include "storage/block_source.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

/// Writes records as [u32 length][u32 crc32c][payload]*; payload = Tuple
/// wire format.
class RecordFileWriter {
 public:
  ~RecordFileWriter();
  static Result<std::unique_ptr<RecordFileWriter>> Create(
      const std::string& path);

  Status Append(const Tuple& tuple);
  /// Fsyncs and closes; the writer is unusable afterwards.
  Status Finish();

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t records_written() const { return records_written_; }

 private:
  RecordFileWriter(int fd, uint64_t tag);
  int fd_;
  uint64_t tag_;
  uint64_t bytes_written_ = 0;
  uint64_t records_written_ = 0;
  std::vector<uint8_t> scratch_;
};

/// Index of block boundaries in a record file.
struct RecordBlockIndex {
  struct Entry {
    uint64_t offset = 0;      ///< first byte of the block
    uint64_t bytes = 0;       ///< total bytes
    uint64_t num_tuples = 0;  ///< records in the block
  };
  std::vector<Entry> blocks;
  uint64_t total_tuples = 0;

  /// Plain-text serialization ("offset bytes tuples" per line).
  Status WriteFile(const std::string& path) const;
  /// Parses and structurally validates an index: offsets must be monotone
  /// and non-overlapping, every entry non-empty, and each block large
  /// enough to hold its claimed tuple count. Returns kCorruption otherwise.
  static Result<RecordBlockIndex> ReadFile(const std::string& path);

  /// Re-checks the invariants of ReadFile plus, when `file_size` is
  /// non-zero, that every block lies inside the data file.
  Status Validate(uint64_t file_size) const;
};

/// Scans a record file once and cuts it into blocks of ~block_bytes
/// (always at record boundaries; the indexing pass the paper runs with the
/// TFRecord index tool).
Result<RecordBlockIndex> BuildRecordBlockIndex(const std::string& path,
                                               uint64_t block_bytes);

/// BlockSource over a record file + index, with device-cost accounting
/// (contiguous block reads billed as one access, like the heap tables).
class RecordFileBlockSource : public BlockSource {
 public:
  ~RecordFileBlockSource() override;

  /// Opens the data file and validates the index against its actual size.
  static Result<std::unique_ptr<RecordFileBlockSource>> Open(
      const std::string& path, RecordBlockIndex index, Schema schema);

  /// Device model + clocks (may be null). Not owned.
  void SetIoAccounting(DeviceProfile device, SimClock* clock, IoStats* stats);

  const Schema& schema() const override { return schema_; }
  uint32_t num_blocks() const override {
    return static_cast<uint32_t>(index_.blocks.size());
  }
  uint64_t num_tuples() const override { return index_.total_tuples; }
  uint64_t TuplesInBlock(uint32_t block) const override {
    return index_.blocks[block].num_tuples;
  }
  Status ReadBlock(uint32_t block, std::vector<Tuple>* out) override;
  void Reset() override {
    MutexLock lock(mu_);
    last_end_offset_ = UINT64_MAX;
  }

 private:
  RecordFileBlockSource(int fd, RecordBlockIndex index, Schema schema,
                        uint64_t tag);

  int fd_;
  RecordBlockIndex index_;
  Schema schema_;
  uint64_t tag_;
  Mutex mu_;
  DeviceProfile device_ CORGI_GUARDED_BY(mu_) = DeviceProfile::Memory();
  SimClock* clock_ CORGI_GUARDED_BY(mu_) = nullptr;
  IoStats* stats_ CORGI_GUARDED_BY(mu_) = nullptr;
  uint64_t last_end_offset_ CORGI_GUARDED_BY(mu_) = UINT64_MAX;
};

/// Convenience: writes `tuples` as a record file + index at
/// path / path+".idx" and opens a source over them.
Result<std::unique_ptr<RecordFileBlockSource>> MaterializeRecordFile(
    const Schema& schema, const std::vector<Tuple>& tuples,
    const std::string& path, uint64_t block_bytes);

}  // namespace corgipile
