#include "storage/heapfile.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace corgipile {

HeapFile::HeapFile(std::string path, int fd, uint32_t page_size,
                   uint64_t num_pages)
    : path_(std::move(path)), fd_(fd), page_size_(page_size),
      num_pages_(num_pages), tag_(FaultPlane::TagForPath(path_)) {}

HeapFile::~HeapFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(const std::string& path,
                                                   uint32_t page_size) {
  if (page_size == 0 || page_size > Page::kMaxSize) {
    return Status::InvalidArgument("bad page size");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("create " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<HeapFile>(new HeapFile(path, fd, page_size, 0));
}

Result<std::unique_ptr<HeapFile>> HeapFile::Open(const std::string& path,
                                                 uint32_t page_size) {
  if (page_size == 0 || page_size > Page::kMaxSize) {
    return Status::InvalidArgument("bad page size");
  }
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat " + path + ": " + std::strerror(errno));
  }
  if (st.st_size % page_size != 0) {
    ::close(fd);
    return Status::Corruption("file size not a multiple of page size: " + path);
  }
  return std::unique_ptr<HeapFile>(new HeapFile(
      path, fd, page_size, static_cast<uint64_t>(st.st_size) / page_size));
}

void HeapFile::SetIoAccounting(DeviceProfile device, SimClock* clock,
                               IoStats* stats) {
  MutexLock lock(mu_);
  device_ = std::move(device);
  clock_ = clock;
  stats_ = stats;
}

void HeapFile::ChargeRead(uint64_t first_page, uint64_t num, bool contiguous) {
  MutexLock lock(mu_);
  const uint64_t bytes = num * page_size_;
  const bool sequential =
      contiguous && last_read_page_ + 1 == static_cast<int64_t>(first_page);
  if (clock_ != nullptr) {
    const double cost = sequential ? device_.SequentialCost(bytes)
                                   : device_.RandomCost(bytes);
    clock_->Advance(TimeCategory::kIoRead, cost);
  }
  if (stats_ != nullptr) {
    if (sequential) {
      ++stats_->sequential_reads;
    } else {
      ++stats_->random_reads;
    }
    stats_->bytes_read += bytes;
  }
  last_read_page_ = static_cast<int64_t>(first_page + num - 1);
}

void HeapFile::ChargeWrite(uint64_t num) {
  MutexLock lock(mu_);
  const uint64_t bytes = num * page_size_;
  if (clock_ != nullptr) {
    clock_->Advance(TimeCategory::kIoWrite, device_.SequentialCost(bytes));
  }
  if (stats_ != nullptr) {
    ++stats_->writes;
    stats_->bytes_written += bytes;
  }
}

Status HeapFile::AppendPage(const Page& page) {
  CORGI_INJECT_POINT("storage.heapfile.append");
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  // Stamp the checksum into a scratch image so the caller's page object is
  // untouched and may keep accumulating records.
  Page stamped = Page::FromBytes(page.bytes());
  stamped.StampChecksum();

  const uint64_t byte_off =
      num_pages_.load(std::memory_order_relaxed) * page_size_;
  if (FaultPlane::ProcessArmed()) {
    FaultPlane::Process()->TearWrite("storage.heapfile.append", tag_,
                                     byte_off, stamped.data(), page_size_);
  }
  ssize_t n = ::pwrite(fd_, stamped.data(), page_size_,
                       static_cast<off_t>(byte_off));
  if (n != static_cast<ssize_t>(page_size_)) {
    return Status::IoError("pwrite " + path_ + ": " + std::strerror(errno));
  }
  num_pages_.fetch_add(1, std::memory_order_release);
  ChargeWrite(1);
  return Status::OK();
}

Status HeapFile::ReadBytes(uint64_t offset, uint8_t* buf, size_t len) {
  return ReadWithRetry(fd_, "storage.heapfile.read", tag_, offset, buf, len,
                       page_size_, retry_,
                       [this](TimeCategory category, double seconds) {
                         MutexLock lock(mu_);
                         if (clock_ != nullptr) {
                           clock_->Advance(category, seconds);
                         }
                       });
}

Status HeapFile::VerifyPage(const Page& page, uint64_t page_idx) const {
  if (!page.VerifyChecksum()) {
    return Status::Corruption(
        "checksum mismatch on page " + std::to_string(page_idx) + " of " +
        path_ + " (stored " + std::to_string(page.stored_checksum()) +
        ", computed " + std::to_string(page.ComputeChecksum()) + ")");
  }
  Status st = page.Validate();
  if (!st.ok()) {
    return Status::Corruption("page " + std::to_string(page_idx) + " of " +
                              path_ + ": " + st.message());
  }
  return Status::OK();
}

Status HeapFile::ReadPage(uint64_t page_idx, Page* out) {
  const uint64_t pages = num_pages();
  if (page_idx >= pages) {
    return Status::OutOfRange("page index " + std::to_string(page_idx) +
                              " >= " + std::to_string(pages));
  }
  std::vector<uint8_t> buf(page_size_);
  const uint64_t off = page_idx * page_size_;
  CORGI_RETURN_NOT_OK(ReadBytes(off, buf.data(), page_size_));
  ChargeRead(page_idx, 1, /*contiguous=*/true);
  Page page = Page::FromBytes(std::move(buf));
  CORGI_RETURN_NOT_OK(VerifyPage(page, page_idx));
  *out = std::move(page);
  return Status::OK();
}

Status HeapFile::ReadPages(uint64_t first, uint64_t count,
                           std::vector<Page>* out) {
  if (first + count > num_pages()) {
    return Status::OutOfRange("page range out of bounds");
  }
  out->clear();
  out->reserve(count);
  std::vector<uint8_t> buf(static_cast<size_t>(count) * page_size_);
  CORGI_RETURN_NOT_OK(ReadBytes(first * page_size_, buf.data(), buf.size()));
  ChargeRead(first, count, /*contiguous=*/true);
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<uint8_t> page_bytes(
        buf.begin() + static_cast<size_t>(i) * page_size_,
        buf.begin() + static_cast<size_t>(i + 1) * page_size_);
    Page page = Page::FromBytes(std::move(page_bytes));
    CORGI_RETURN_NOT_OK(VerifyPage(page, first + i));
    out->push_back(std::move(page));
  }
  return Status::OK();
}

void HeapFile::ResetReadCursor() {
  MutexLock lock(mu_);
  last_read_page_ = -2;
}

Status HeapFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace corgipile
