#include "storage/sharded_cache_store.hpp"

#include <limits>
#include <mutex>
#include <utility>

#include "hash/fnv.hpp"

namespace ftc::storage {

// Shard stores get an unbounded capacity: admission and eviction are
// driven by the wrapper against the *global* budget, so the per-shard
// capacity check must never fire on its own.
ShardedCacheStore::Shard::Shard(EvictionPolicy policy)
    : store(std::numeric_limits<std::uint64_t>::max(), policy) {}

ShardedCacheStore::ShardedCacheStore(std::uint64_t capacity_bytes,
                                     EvictionPolicy policy,
                                     std::size_t shard_count)
    : capacity_bytes_(capacity_bytes), policy_(policy) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(policy));
  }
}

std::size_t ShardedCacheStore::shard_for(const std::string& path) const {
  return hash::fnv1a64(path) % shards_.size();
}

Status ShardedCacheStore::put(const std::string& path,
                              common::Buffer contents,
                              std::uint64_t logical_size) {
  if (logical_size > capacity_bytes_) {
    return Status::capacity("file larger than device: " + path);
  }
  const std::size_t index = shard_for(path);
  Shard& shard = *shards_[index];
  std::unique_lock lock(shard.mutex);

  // Replace-in-place: drop the old accounting before reserving the new
  // bytes, so the reservation is exactly the net growth.
  if (const auto old = shard.store.size_of(path)) {
    shard.store.erase(path);
    used_bytes_.fetch_sub(*old, std::memory_order_relaxed);
  }

  // Reserve first (so concurrent puts cannot both pass an unreserved
  // check), then evict until the reservation fits the global budget.
  std::uint64_t used =
      used_bytes_.fetch_add(logical_size, std::memory_order_relaxed) +
      logical_size;
  while (used > capacity_bytes_) {
    const std::uint64_t freed = shard.store.evict_any();
    if (freed == 0) break;  // this shard is empty; steal from peers
    used = used_bytes_.fetch_sub(freed, std::memory_order_relaxed) - freed;
  }
  if (used > capacity_bytes_) {
    // Other shards hold the bytes.  Never hold two shard locks at once:
    // release ours, evict round-robin from peers, re-acquire.
    lock.unlock();
    const bool fits = evict_from_peers(index);
    lock.lock();
    if (!fits) {
      used_bytes_.fetch_sub(logical_size, std::memory_order_relaxed);
      return Status::capacity("cache full: " + path);
    }
    // The path may have been re-inserted while unlocked; drop it again so
    // `used_bytes == sum of entry sizes` stays exact.
    if (const auto old = shard.store.size_of(path)) {
      shard.store.erase(path);
      used_bytes_.fetch_sub(*old, std::memory_order_relaxed);
    }
  }

  const Status status =
      shard.store.put(path, std::move(contents), logical_size);
  if (!status.is_ok()) {
    used_bytes_.fetch_sub(logical_size, std::memory_order_relaxed);
  }
  return status;
}

bool ShardedCacheStore::evict_from_peers(std::size_t owner) {
  const std::size_t n = shards_.size();
  // Sweep from a SNAPSHOT of the shared hand with a local cursor.  The
  // previous code advanced evict_hand_ once per probe, so concurrent
  // stealers interleaving on the counter could each see only a subset of
  // shards (with an even count, two threads can alternate onto the same
  // parity class) — n probes landing exclusively on empty shards meant a
  // spurious kCapacity while evictable bytes sat elsewhere.  A local
  // cursor guarantees every caller visits all n peers; the shared hand
  // only advances past shards that actually yielded bytes, so successive
  // pressure events rotate the first victim instead of re-punishing the
  // same shard.
  bool progress = true;
  while (used_bytes_.load(std::memory_order_relaxed) > capacity_bytes_ &&
         progress) {
    progress = false;
    const std::size_t start = evict_hand_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      if (used_bytes_.load(std::memory_order_relaxed) <= capacity_bytes_) {
        break;
      }
      const std::size_t victim = (start + i) % n;
      if (victim == owner) continue;
      Shard& peer = *shards_[victim];
      std::lock_guard guard(peer.mutex);
      if (peer.store.file_count() == 0) continue;  // empty: skip quietly
      const std::uint64_t freed = peer.store.evict_any();
      if (freed > 0) {
        used_bytes_.fetch_sub(freed, std::memory_order_relaxed);
        evict_hand_.store((victim + 1) % n, std::memory_order_relaxed);
        progress = true;
      }
    }
  }
  return used_bytes_.load(std::memory_order_relaxed) <= capacity_bytes_;
}

StatusOr<common::Buffer> ShardedCacheStore::get(const std::string& path) {
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  return shard.store.get(path);
}

std::optional<common::Buffer> ShardedCacheStore::get_if_present(
    const std::string& path) {
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  return shard.store.get_if_present(path);
}

bool ShardedCacheStore::contains(const std::string& path) const {
  const Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  return shard.store.contains(path);
}

std::optional<std::uint64_t> ShardedCacheStore::size_of(
    const std::string& path) const {
  const Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  return shard.store.size_of(path);
}

bool ShardedCacheStore::erase(const std::string& path) {
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  const auto size = shard.store.size_of(path);
  if (!shard.store.erase(path)) return false;
  used_bytes_.fetch_sub(size.value_or(0), std::memory_order_relaxed);
  return true;
}

void ShardedCacheStore::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    used_bytes_.fetch_sub(shard->store.used_bytes(),
                          std::memory_order_relaxed);
    shard->store.clear();
  }
}

std::size_t ShardedCacheStore::file_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->store.file_count();
  }
  return total;
}

std::uint64_t ShardedCacheStore::eviction_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->store.eviction_count();
  }
  return total;
}

std::uint64_t ShardedCacheStore::hit_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->store.hit_count();
  }
  return total;
}

std::uint64_t ShardedCacheStore::miss_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->store.miss_count();
  }
  return total;
}

}  // namespace ftc::storage
