#include "storage/cache_store.hpp"

#include <utility>

namespace ftc::storage {

const char* eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "LRU";
    case EvictionPolicy::kFifo: return "FIFO";
    case EvictionPolicy::kClock: return "CLOCK";
  }
  return "?";
}

CacheStore::CacheStore(std::uint64_t capacity_bytes, EvictionPolicy policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {}

Status CacheStore::put(const std::string& path, common::Buffer contents,
                       std::uint64_t logical_size) {
  if (logical_size > capacity_bytes_) {
    return Status::capacity("file larger than device: " + path);
  }
  // Replace-in-place: drop the old accounting first.
  if (const auto it = entries_.find(path); it != entries_.end()) {
    used_bytes_ -= it->second.logical_size;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  make_room(logical_size);
  lru_.push_front(path);
  entries_.emplace(path,
                   Entry{std::move(contents), logical_size, lru_.begin()});
  used_bytes_ += logical_size;
  return Status::ok();
}

Status CacheStore::put_size_only(const std::string& path,
                                 std::uint64_t logical_size) {
  return put(path, common::Buffer{}, logical_size);
}

StatusOr<common::Buffer> CacheStore::get(const std::string& path) {
  std::optional<common::Buffer> hit = get_if_present(path);
  if (!hit) {
    ++misses_;
    return Status::not_found(path);
  }
  return std::move(*hit);
}

std::optional<common::Buffer> CacheStore::get_if_present(
    const std::string& path) {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  ++hits_;
  switch (policy_) {
    case EvictionPolicy::kLru:
      // Refresh recency: splice to front without invalidating iterators.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      break;
    case EvictionPolicy::kClock:
      it->second.referenced = true;
      break;
    case EvictionPolicy::kFifo:
      break;  // reads never change eviction order
  }
  return it->second.contents;
}

bool CacheStore::contains(const std::string& path) const {
  return entries_.contains(path);
}

std::optional<std::uint64_t> CacheStore::size_of(
    const std::string& path) const {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return it->second.logical_size;
}

bool CacheStore::erase(const std::string& path) {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return false;
  used_bytes_ -= it->second.logical_size;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  return true;
}

void CacheStore::clear() {
  entries_.clear();
  lru_.clear();
  used_bytes_ = 0;
}

double CacheStore::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                   : 0.0;
}

void CacheStore::make_room(std::uint64_t needed) {
  while (used_bytes_ + needed > capacity_bytes_) {
    if (!evict_one()) return;
  }
}

std::uint64_t CacheStore::evict_any() {
  if (lru_.empty()) return 0;
  const std::uint64_t before = used_bytes_;
  evict_one();
  return before - used_bytes_;
}

bool CacheStore::evict_one() {
  if (lru_.empty()) return false;
  if (policy_ == EvictionPolicy::kClock) {
    // Second chance: rotate referenced entries to the front (clearing the
    // bit) until an unreferenced victim surfaces.  Bounded: each rotation
    // clears one bit, so at most size() rotations precede an eviction.
    for (std::size_t rotations = 0; rotations <= lru_.size(); ++rotations) {
      Entry& candidate = entries_.find(lru_.back())->second;
      if (!candidate.referenced) break;
      candidate.referenced = false;
      lru_.splice(lru_.begin(), lru_, candidate.lru_it);
    }
  }
  const auto it = entries_.find(lru_.back());
  used_bytes_ -= it->second.logical_size;
  entries_.erase(it);
  lru_.pop_back();
  ++evictions_;
  return true;
}

}  // namespace ftc::storage
