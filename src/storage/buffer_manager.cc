#include "storage/buffer_manager.h"

#include "iosim/fault_plane.h"

namespace corgipile {

namespace {

// Chaos point modelling a cache-frame allocation failure. Admission is an
// optimization, never a correctness requirement, so a firing rule makes the
// cache *decline the page* (count it, serve uncached) instead of erroring —
// the graceful-degradation contract of DESIGN.md §12.
bool CacheAdmissionFails() {
  if (!FaultPlane::ProcessArmed()) return false;
  Status st = FaultPlane::Process()->OnPoint("storage.buffer.admit");
  return !st.ok();
}

}  // namespace

BufferManager::BufferManager(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

Result<std::shared_ptr<const Page>> BufferManager::Fetch(HeapFile* file,
                                                         uint64_t page_idx) {
  {
    MutexLock lock(mu_);
    auto it = index_.find(Key{file, page_idx});
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->page;
    }
    ++stats_.misses;
  }
  // Miss: read through the heap file (charges device cost).
  Page page(file->page_size());
  CORGI_RETURN_NOT_OK(file->ReadPage(page_idx, &page));
  auto shared = std::make_shared<const Page>(std::move(page));
  if (CacheAdmissionFails()) {
    MutexLock lock(mu_);
    ++stats_.alloc_rejections;
    return shared;  // degraded: correct data, just not cached
  }
  {
    MutexLock lock(mu_);
    // Double check: another thread might have inserted meanwhile.
    auto it = index_.find(Key{file, page_idx});
    if (it != index_.end()) return it->second->page;
    EvictIfNeededLocked(file->page_size());
    lru_.push_front(Entry{Key{file, page_idx}, shared});
    index_[Key{file, page_idx}] = lru_.begin();
    cached_bytes_ += file->page_size();
  }
  return shared;
}

void BufferManager::Insert(const HeapFile* file, uint64_t page_idx,
                           std::shared_ptr<const Page> page) {
  if (CacheAdmissionFails()) {
    MutexLock lock(mu_);
    ++stats_.alloc_rejections;
    return;
  }
  MutexLock lock(mu_);
  const Key key{file, page_idx};
  if (index_.count(key)) return;
  EvictIfNeededLocked(page->size());
  lru_.push_front(Entry{key, std::move(page)});
  index_[key] = lru_.begin();
  cached_bytes_ += lru_.front().page->size();
}

void BufferManager::CountMisses(uint64_t n) {
  MutexLock lock(mu_);
  stats_.misses += n;
}

bool BufferManager::Contains(const HeapFile* file, uint64_t page_idx) const {
  MutexLock lock(mu_);
  return index_.count(Key{file, page_idx}) > 0;
}

void BufferManager::EvictIfNeededLocked(uint64_t incoming_bytes) {
  while (!lru_.empty() && cached_bytes_ + incoming_bytes > capacity_bytes_) {
    const Entry& victim = lru_.back();
    cached_bytes_ -= victim.page->size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void BufferManager::Invalidate(const HeapFile* file) {
  MutexLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (file == nullptr || it->key.file == file) {
      cached_bytes_ -= it->page->size();
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

BufferManager::Stats BufferManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferManager::ResetStats() {
  MutexLock lock(mu_);
  stats_ = Stats{};
}

}  // namespace corgipile
