// LRU page cache, the miniature of PostgreSQL's buffer manager that the
// paper's operators interact with (§6). Pages come back as shared_ptr so a
// consumer can keep one pinned while the cache evicts.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "storage/heapfile.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

class BufferManager {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Pages the cache declined under injected allocation failure
    /// (FaultPlane point "storage.buffer.admit"); served uncached.
    uint64_t alloc_rejections = 0;
    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// `capacity_bytes` is divided by the page size of whatever files are read
  /// through this manager; capacity is enforced in page count per fetch.
  explicit BufferManager(uint64_t capacity_bytes);

  /// Returns the page, from cache or by reading through the heap file
  /// (which charges device cost only on a miss — exactly the OS-cache
  /// behaviour the paper leans on for small datasets).
  Result<std::shared_ptr<const Page>> Fetch(HeapFile* file, uint64_t page_idx);

  /// Inserts a page read elsewhere (e.g. a whole-block read) into the
  /// cache. Overwrites nothing if the page is already cached.
  void Insert(const HeapFile* file, uint64_t page_idx,
              std::shared_ptr<const Page> page);

  /// Counts `n` misses for pages a caller read from the file itself, e.g.
  /// an uncached run read in one access and then admitted with Insert.
  void CountMisses(uint64_t n);

  /// True if (file, page) is currently cached (does not touch LRU order).
  bool Contains(const HeapFile* file, uint64_t page_idx) const;

  /// Drops all cached pages of `file` (or all pages when null).
  void Invalidate(const HeapFile* file = nullptr);

  Stats stats() const;
  void ResetStats();

  uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Key {
    const HeapFile* file;
    uint64_t page;
    bool operator==(const Key& o) const {
      return file == o.file && page == o.page;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.file) ^
             (std::hash<uint64_t>()(k.page) * 0x9E3779B97F4A7C15ULL);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Page> page;
  };

  void EvictIfNeededLocked(uint64_t incoming_bytes) CORGI_REQUIRES(mu_);

  const uint64_t capacity_bytes_;
  mutable Mutex mu_;
  /// Front = most recently used. Eviction/invalidation walk this ordered
  /// list, never the unordered index, so the scan order is deterministic.
  std::list<Entry> lru_ CORGI_GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      CORGI_GUARDED_BY(mu_);
  uint64_t cached_bytes_ CORGI_GUARDED_BY(mu_) = 0;
  Stats stats_ CORGI_GUARDED_BY(mu_);
};

}  // namespace corgipile
