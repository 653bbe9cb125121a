#include "dataloader/record_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/crc32c.h"

namespace corgipile {

namespace {
// [u32 length][u32 crc32c] precede every payload.
constexpr uint64_t kRecordHeaderBytes = 8;
}  // namespace

RecordFileWriter::RecordFileWriter(int fd, uint64_t tag)
    : fd_(fd), tag_(tag) {}

RecordFileWriter::~RecordFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<RecordFileWriter>> RecordFileWriter::Create(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("create " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<RecordFileWriter>(
      new RecordFileWriter(fd, FaultPlane::TagForPath(path)));
}

Status RecordFileWriter::Append(const Tuple& tuple) {
  CORGI_INJECT_POINT("storage.recordfile.append");
  if (fd_ < 0) return Status::Internal("writer already finished");
  scratch_.clear();
  const auto len = static_cast<uint32_t>(tuple.SerializedSize());
  const auto* lp = reinterpret_cast<const uint8_t*>(&len);
  scratch_.insert(scratch_.end(), lp, lp + sizeof(len));
  scratch_.insert(scratch_.end(), 4, 0);  // crc placeholder
  tuple.SerializeTo(&scratch_);
  const uint32_t crc =
      Crc32cForStorage(scratch_.data() + kRecordHeaderBytes, len);
  std::memcpy(scratch_.data() + sizeof(len), &crc, sizeof(crc));

  if (FaultPlane::ProcessArmed()) {
    // Offsets stay consistent under a tear; the record CRC catches it.
    FaultPlane::Process()->TearWrite("storage.recordfile.append", tag_,
                                     bytes_written_, scratch_.data(),
                                     scratch_.size());
  }
  const ssize_t n = ::write(fd_, scratch_.data(), scratch_.size());
  if (n != static_cast<ssize_t>(scratch_.size())) {
    return Status::IoError(std::string("write: ") + std::strerror(errno));
  }
  bytes_written_ += scratch_.size();
  ++records_written_;
  return Status::OK();
}

Status RecordFileWriter::Finish() {
  if (fd_ < 0) return Status::OK();
  if (::fsync(fd_) != 0) {
    const Status st =
        Status::IoError(std::string("fsync: ") + std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::IoError(std::string("close: ") + std::strerror(errno));
  }
  fd_ = -1;
  return Status::OK();
}

Status RecordBlockIndex::WriteFile(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IoError("cannot open " + path);
  for (const Entry& e : blocks) {
    f << e.offset << ' ' << e.bytes << ' ' << e.num_tuples << '\n';
  }
  if (!f.good()) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Status RecordBlockIndex::Validate(uint64_t file_size) const {
  uint64_t prev_end = 0;
  uint64_t tuple_sum = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const Entry& e = blocks[i];
    if (e.bytes == 0 || e.num_tuples == 0) {
      return Status::Corruption("index entry " + std::to_string(i) +
                                " is empty");
    }
    if (e.bytes < e.num_tuples * kRecordHeaderBytes) {
      return Status::Corruption(
          "index entry " + std::to_string(i) + " claims " +
          std::to_string(e.num_tuples) + " tuples in " +
          std::to_string(e.bytes) + " bytes");
    }
    if (i > 0 && e.offset < prev_end) {
      return Status::Corruption("index entry " + std::to_string(i) +
                                " overlaps or precedes entry " +
                                std::to_string(i - 1));
    }
    if (e.offset + e.bytes < e.offset) {
      return Status::Corruption("index entry " + std::to_string(i) +
                                " offset+bytes overflows");
    }
    if (file_size > 0 && e.offset + e.bytes > file_size) {
      return Status::Corruption(
          "index entry " + std::to_string(i) + " range [" +
          std::to_string(e.offset) + ", " +
          std::to_string(e.offset + e.bytes) + ") exceeds file size " +
          std::to_string(file_size));
    }
    prev_end = e.offset + e.bytes;
    tuple_sum += e.num_tuples;
  }
  if (tuple_sum != total_tuples) {
    return Status::Corruption("index total_tuples " +
                              std::to_string(total_tuples) +
                              " != sum of entries " +
                              std::to_string(tuple_sum));
  }
  return Status::OK();
}

Result<RecordBlockIndex> RecordBlockIndex::ReadFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open " + path);
  RecordBlockIndex index;
  Entry e;
  while (f >> e.offset >> e.bytes >> e.num_tuples) {
    index.blocks.push_back(e);
    index.total_tuples += e.num_tuples;
  }
  Status st = index.Validate(/*file_size=*/0);
  if (!st.ok()) {
    return Status::Corruption("index file " + path + ": " + st.message());
  }
  return index;
}

Result<RecordBlockIndex> BuildRecordBlockIndex(const std::string& path,
                                               uint64_t block_bytes) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  RecordBlockIndex index;
  RecordBlockIndex::Entry current;
  uint64_t offset = 0;
  uint32_t len = 0;
  while (f.read(reinterpret_cast<char*>(&len), sizeof(len))) {
    // Skip the CRC field and the payload.
    f.seekg(kRecordHeaderBytes - sizeof(len) + len, std::ios::cur);
    if (!f.good()) return Status::Corruption("truncated record in " + path);
    const uint64_t record_bytes = kRecordHeaderBytes + len;
    if (current.bytes > 0 && current.bytes + record_bytes > block_bytes) {
      index.blocks.push_back(current);
      current = RecordBlockIndex::Entry{offset, 0, 0};
    }
    if (current.bytes == 0) current.offset = offset;
    current.bytes += record_bytes;
    ++current.num_tuples;
    index.total_tuples += 1;
    offset += record_bytes;
  }
  if (current.bytes > 0) index.blocks.push_back(current);
  return index;
}

RecordFileBlockSource::RecordFileBlockSource(int fd, RecordBlockIndex index,
                                             Schema schema, uint64_t tag)
    : fd_(fd), index_(std::move(index)), schema_(std::move(schema)),
      tag_(tag) {}

RecordFileBlockSource::~RecordFileBlockSource() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<RecordFileBlockSource>> RecordFileBlockSource::Open(
    const std::string& path, RecordBlockIndex index, Schema schema) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat " + path + ": " + std::strerror(errno));
  }
  Status vs = index.Validate(static_cast<uint64_t>(st.st_size));
  if (!vs.ok()) {
    ::close(fd);
    return Status::Corruption("index for " + path + ": " + vs.message());
  }
  return std::unique_ptr<RecordFileBlockSource>(
      new RecordFileBlockSource(fd, std::move(index), std::move(schema),
                                FaultPlane::TagForPath(path)));
}

void RecordFileBlockSource::SetIoAccounting(DeviceProfile device,
                                            SimClock* clock, IoStats* stats) {
  MutexLock lock(mu_);
  device_ = std::move(device);
  clock_ = clock;
  stats_ = stats;
}

Status RecordFileBlockSource::ReadBlock(uint32_t block,
                                        std::vector<Tuple>* out) {
  if (block >= index_.blocks.size()) {
    return Status::OutOfRange("block index");
  }
  const auto& entry = index_.blocks[block];
  std::vector<uint8_t> buf(entry.bytes);
  CORGI_RETURN_NOT_OK(ReadWithRetry(
      fd_, "storage.recordfile.read_block", tag_, entry.offset, buf.data(),
      buf.size(), /*unit=*/buf.size(), RetryPolicy{},
      [this](TimeCategory category, double seconds) {
        MutexLock lock(mu_);
        if (clock_ != nullptr) clock_->Advance(category, seconds);
      }));
  {
    MutexLock lock(mu_);
    const bool sequential = last_end_offset_ == entry.offset;
    if (clock_ != nullptr) {
      clock_->Advance(TimeCategory::kIoRead,
                      sequential ? device_.SequentialCost(entry.bytes)
                                 : device_.RandomCost(entry.bytes));
    }
    if (stats_ != nullptr) {
      if (sequential) {
        ++stats_->sequential_reads;
      } else {
        ++stats_->random_reads;
      }
      stats_->bytes_read += entry.bytes;
    }
    last_end_offset_ = entry.offset + entry.bytes;
  }

  size_t pos = 0;
  for (uint64_t i = 0; i < entry.num_tuples; ++i) {
    if (pos + kRecordHeaderBytes > buf.size()) {
      return Status::Corruption("truncated record header in block " +
                                std::to_string(block));
    }
    uint32_t len = 0;
    uint32_t stored_crc = 0;
    std::memcpy(&len, buf.data() + pos, sizeof(len));
    std::memcpy(&stored_crc, buf.data() + pos + sizeof(len),
                sizeof(stored_crc));
    pos += kRecordHeaderBytes;
    if (pos + len > buf.size()) {
      return Status::Corruption("truncated record in block " +
                                std::to_string(block));
    }
    if (stored_crc != 0 &&
        stored_crc != Crc32cForStorage(buf.data() + pos, len)) {
      return Status::Corruption("crc mismatch on record " + std::to_string(i) +
                                " of block " + std::to_string(block));
    }
    size_t consumed = 0;
    CORGI_ASSIGN_OR_RETURN(Tuple t,
                           Tuple::Deserialize(buf.data() + pos, len, &consumed));
    out->push_back(std::move(t));
    pos += len;
  }
  return Status::OK();
}

Result<std::unique_ptr<RecordFileBlockSource>> MaterializeRecordFile(
    const Schema& schema, const std::vector<Tuple>& tuples,
    const std::string& path, uint64_t block_bytes) {
  CORGI_ASSIGN_OR_RETURN(std::unique_ptr<RecordFileWriter> writer,
                         RecordFileWriter::Create(path));
  for (const Tuple& t : tuples) {
    CORGI_RETURN_NOT_OK(writer->Append(t));
  }
  CORGI_RETURN_NOT_OK(writer->Finish());
  CORGI_ASSIGN_OR_RETURN(RecordBlockIndex index,
                         BuildRecordBlockIndex(path, block_bytes));
  CORGI_RETURN_NOT_OK(index.WriteFile(path + ".idx"));
  return RecordFileBlockSource::Open(path, std::move(index), schema);
}

}  // namespace corgipile
