// cache_store.hpp - Node-local cached-file store with LRU eviction.
//
// The in-memory stand-in for a node's NVMe XFS volume: maps file paths to
// contents with byte-capacity accounting.  The threaded HVAC server stores
// real payloads here (integrity-checked with CRC-32); the DES substrate
// uses it in metadata-only mode (empty payloads, sizes tracked explicitly)
// so 1024-node runs don't allocate terabytes.
//
// Thread safety: externally synchronized.  The HVAC server serializes
// access through its own mutex, mirroring the original implementation's
// data-structure locks the paper mentions in Sec V-B1.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/status.hpp"

namespace ftc::storage {

/// Victim-selection policy under capacity pressure.  The paper's datasets
/// fit in the 3.5 TB node-local volume, so the original HVAC never
/// evicts; these policies support the dataset-larger-than-cache regime.
enum class EvictionPolicy {
  kLru,    ///< evict the least recently used file (default)
  kFifo,   ///< evict in insertion order (reads do not refresh)
  kClock,  ///< second-chance: one reference bit per file, rotating hand
};

const char* eviction_policy_name(EvictionPolicy policy);

class CacheStore {
 public:
  /// `capacity_bytes` = usable NVMe capacity (Frontier: 3.5 TB per node).
  explicit CacheStore(std::uint64_t capacity_bytes,
                      EvictionPolicy policy = EvictionPolicy::kLru);

  /// Inserts/overwrites a file.  `logical_size` is the accounted size; for
  /// payload mode pass contents.size().  Evicts LRU entries to fit; fails
  /// with kCapacity when the file alone exceeds capacity.  The buffer is
  /// stored by reference (no byte copy).
  Status put(const std::string& path, common::Buffer contents,
             std::uint64_t logical_size);

  /// Metadata-only insert (empty payload, explicit size).
  Status put_size_only(const std::string& path, std::uint64_t logical_size);

  /// Reads contents and refreshes recency; kNotFound when absent.  The
  /// returned Buffer shares storage with the cache entry — a hit is a
  /// refcount bump, never an O(size) copy.
  StatusOr<common::Buffer> get(const std::string& path);

  /// get() that counts nothing on a miss: a hit counts and refreshes
  /// recency exactly as get() does; absent returns nullopt.
  std::optional<common::Buffer> get_if_present(const std::string& path);

  /// Presence check without touching recency.
  [[nodiscard]] bool contains(const std::string& path) const;

  /// Logical size of a cached file, or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> size_of(
      const std::string& path) const;

  /// Removes one file; returns false when absent.
  bool erase(const std::string& path);

  /// Drops everything (simulates node wipe on failure).
  void clear();

  /// Evicts one victim per the policy regardless of capacity pressure;
  /// returns the freed bytes (0 when the store is empty).  Used by
  /// ShardedCacheStore, whose byte budget is global while victim
  /// selection stays per-shard.
  std::uint64_t evict_any();

  [[nodiscard]] std::size_t file_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return capacity_bytes_;
  }
  [[nodiscard]] std::uint64_t eviction_count() const { return evictions_; }

  [[nodiscard]] std::uint64_t hit_count() const { return hits_; }
  [[nodiscard]] std::uint64_t miss_count() const { return misses_; }
  [[nodiscard]] double hit_rate() const;
  [[nodiscard]] EvictionPolicy policy() const { return policy_; }

 private:
  struct Entry {
    common::Buffer contents;
    std::uint64_t logical_size;
    std::list<std::string>::iterator lru_it;
    bool referenced = false;  ///< CLOCK reference bit
  };

  /// Evicts entries per the policy until `needed` bytes fit.
  void make_room(std::uint64_t needed);
  /// Picks and removes one victim per the policy; returns false when empty.
  bool evict_one();

  std::uint64_t capacity_bytes_;
  EvictionPolicy policy_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Front = most recently used.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace ftc::storage
