// sharded_cache_store.hpp - Lock-striped wrapper over CacheStore.
//
// The HVAC server used to serialize every cache access through one big
// mutex; under multi-client load the served-bandwidth numbers measured
// lock contention as much as cache policy.  This wrapper stripes the
// key space across N independently-locked CacheStore shards (FNV-1a path
// hash), so reads of different files proceed in parallel, while byte
// accounting stays *global*: one atomic byte counter and one capacity
// shared by all shards, exactly like the single-store semantics (any file
// <= capacity fits, regardless of which shard it lands on).
//
// Victim selection under pressure is per-shard LRU (the inserting shard
// evicts its own tail first, then steals victims round-robin from other
// shards) — approximate global LRU, standard for striped caches.
//
// Lock hierarchy (see DESIGN.md): at most ONE shard mutex is held at a
// time; cross-shard eviction releases the inserting shard's lock before
// touching another shard.  No lock is held while touching the atomics.
//
// Thread safety: fully internally synchronized.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/status.hpp"
#include "storage/cache_store.hpp"

namespace ftc::storage {

class ShardedCacheStore {
 public:
  /// `capacity_bytes` is the GLOBAL budget shared by all shards.
  explicit ShardedCacheStore(std::uint64_t capacity_bytes,
                             EvictionPolicy policy = EvictionPolicy::kLru,
                             std::size_t shard_count = kDefaultShards);

  static constexpr std::size_t kDefaultShards = 8;

  /// Inserts/overwrites a file; evicts (this shard first, then others,
  /// round-robin) until the global budget fits.  kCapacity when the file
  /// alone exceeds the global capacity, or when concurrent reservations
  /// transiently claim the remaining budget.
  Status put(const std::string& path, common::Buffer contents,
             std::uint64_t logical_size);

  /// Zero-copy read: the returned Buffer shares the entry's bytes.
  StatusOr<common::Buffer> get(const std::string& path);
  /// get() that counts nothing on a miss (see CacheStore::get_if_present).
  std::optional<common::Buffer> get_if_present(const std::string& path);

  [[nodiscard]] bool contains(const std::string& path) const;
  [[nodiscard]] std::optional<std::uint64_t> size_of(
      const std::string& path) const;
  bool erase(const std::string& path);
  void clear();

  [[nodiscard]] std::size_t file_count() const;
  /// O(1): the global atomic byte counter.
  [[nodiscard]] std::uint64_t used_bytes() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return capacity_bytes_;
  }
  [[nodiscard]] std::uint64_t eviction_count() const;
  [[nodiscard]] std::uint64_t hit_count() const;
  [[nodiscard]] std::uint64_t miss_count() const;
  [[nodiscard]] EvictionPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Shard a path maps to (tests / telemetry).
  [[nodiscard]] std::size_t shard_for(const std::string& path) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    CacheStore store;
    explicit Shard(EvictionPolicy policy);
  };

  /// Evicts from shards other than `owner` (one lock at a time) until the
  /// global budget fits or every other shard is empty.  Returns true when
  /// the budget fits.
  bool evict_from_peers(std::size_t owner);

  std::uint64_t capacity_bytes_;
  EvictionPolicy policy_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> used_bytes_{0};
  std::atomic<std::size_t> evict_hand_{0};  ///< round-robin steal cursor
};

}  // namespace ftc::storage
