// File-backed heap of fixed-size pages with I/O cost accounting.
//
// Reads and writes hit a real file (POSIX pread/pwrite) and additionally
// charge simulated device time on an attached SimClock: a read that
// continues the previous one is billed at sequential cost, a discontiguous
// read at random cost (seek + transfer). This is how "HDD" and "SSD"
// experiment rows stay meaningful on any build machine.
//
// Robustness: every page carries a CRC32C stamped at AppendPage time and
// verified on every read; a mismatch (or a structurally invalid page)
// surfaces as kCorruption rather than feeding garbage upstream. Reads go
// through ReadWithRetry (iosim/fault_plane.h): kIoError attempts are
// retried with bounded exponential backoff (waits are charged to SimClock
// under kRetryBackoff, never real sleeps), and an armed FaultPlane's media
// rules at storage.heapfile.read / .append deterministically inject read
// errors, bit flips, torn writes, and latency spikes for testing.

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "iosim/device.h"
#include "iosim/fault_plane.h"
#include "iosim/sim_clock.h"
#include "storage/page.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

class HeapFile {
 public:
  ~HeapFile();

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Creates (truncates) a heap file at `path`.
  static Result<std::unique_ptr<HeapFile>> Create(const std::string& path,
                                                  uint32_t page_size);

  /// Opens an existing heap file. The file size must be a multiple of
  /// `page_size`.
  static Result<std::unique_ptr<HeapFile>> Open(const std::string& path,
                                                uint32_t page_size);

  /// Attaches the device model and clocks used for cost accounting. Both
  /// pointers may be null (no accounting). Not owned.
  void SetIoAccounting(DeviceProfile device, SimClock* clock, IoStats* stats);

  /// Retry policy for failed read attempts. Setup-time only: not
  /// synchronized against in-flight reads.
  void SetRetryPolicy(RetryPolicy policy) { retry_ = policy; }

  const DeviceProfile& device() const { return device_; }

  uint32_t page_size() const { return page_size_; }
  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  uint64_t size_bytes() const { return num_pages() * page_size_; }
  const std::string& path() const { return path_; }

  /// Appends one page at the end of the file (sequential write cost). The
  /// on-disk image is stamped with the page's CRC32C; the in-memory `page`
  /// is not modified.
  Status AppendPage(const Page& page);

  /// Reads page `page_idx` into *out, verifying its checksum and structure.
  /// Billed sequential if it directly follows the previous read on this
  /// file, else random. Transient I/O errors are retried per the policy;
  /// checksum/structure mismatches return kCorruption without retry.
  Status ReadPage(uint64_t page_idx, Page* out);

  /// Reads `count` contiguous pages starting at `first`. Billed as one
  /// access: a seek (if discontiguous) plus one contiguous transfer. This is
  /// the "read one block" primitive of CorgiPile. Each page is checksum- and
  /// structure-verified.
  Status ReadPages(uint64_t first, uint64_t count, std::vector<Page>* out);

  /// Forgets read position so the next read is billed as random. Used to
  /// model a cleared OS cache / reopened scan.
  void ResetReadCursor();

  /// Flushes file contents to stable storage (fsync).
  Status Sync();

 private:
  HeapFile(std::string path, int fd, uint32_t page_size, uint64_t num_pages);

  void ChargeRead(uint64_t first_page, uint64_t num, bool contiguous);
  void ChargeWrite(uint64_t num);

  /// ReadWithRetry of [offset, offset+len), media faults drawn per page.
  Status ReadBytes(uint64_t offset, uint8_t* buf, size_t len);

  /// Checksum + structural verification of a page read from `page_idx`.
  Status VerifyPage(const Page& page, uint64_t page_idx) const;

  std::string path_;
  int fd_;
  uint32_t page_size_;
  /// Published page count. Appenders serialize externally (Table's append
  /// mutex); the release store in AppendPage pairs with the acquire load in
  /// num_pages() so readers that learned of a page via a published table
  /// index always see it within bounds.
  std::atomic<uint64_t> num_pages_;
  uint64_t tag_;  // media-fault site tag derived from path_
  RetryPolicy retry_;

  Mutex mu_;
  DeviceProfile device_ CORGI_GUARDED_BY(mu_) = DeviceProfile::Memory();
  SimClock* clock_ CORGI_GUARDED_BY(mu_) = nullptr;
  IoStats* stats_ CORGI_GUARDED_BY(mu_) = nullptr;
  int64_t last_read_page_ CORGI_GUARDED_BY(mu_) = -2;  // -2: nothing read yet
};

}  // namespace corgipile
