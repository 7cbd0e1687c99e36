// store_iface.hpp - The store interface the HVAC server codes against.
//
// PR-1 grew the server around ShardedCacheStore's concrete surface; this
// interface is that surface made explicit (plus a generation stamp on
// put, which the legacy store ignores), so the tiered store can replace
// the legacy one behind a knob without the server knowing which it got.
// Virtual dispatch costs one indirect call per cache access — noise next
// to the path hash, and the hit path stays zero-copy either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/buffer.hpp"
#include "common/status.hpp"
#include "obs/counter_list.hpp"
#include "storage/sharded_cache_store.hpp"

namespace ftc::store {

/// Tier/pressure telemetry.  The legacy adapter reports everything in
/// the RAM row with zero tier traffic, so dashboards need no special
/// case for un-tiered nodes.
/// Counter list (see obs/counter_list.hpp): field, family, label.
#define FTC_STORE_COUNTERS(X)                                   \
  /* served from RAM (zero-copy) */                             \
  X(hot_hits, "ftc_store_hits_total", "tier=ram")               \
  /* served from NVMe (paid latency) */                         \
  X(cold_hits, "ftc_store_hits_total", "tier=nvme")             \
  X(misses, "ftc_store_misses_total", "")                       \
  /* RAM -> NVMe (pressure, not loss) */                        \
  X(demotions, "ftc_store_demotions_total", "")                 \
  /* NVMe -> RAM (cold hit) */                                  \
  X(promotions, "ftc_store_promotions_total", "")               \
  /* background reclaim activations */                          \
  X(reclaim_runs, "ftc_store_reclaim_runs_total", "")           \
  /* puts routed to NVMe at RAM hard cap */                     \
  X(overflow_writes, "ftc_store_overflow_writes_total", "")     \
  /* warm-restart entries kept */                               \
  X(manifest_restored, "ftc_store_manifest_restored_total", "") \
  /* dropped: stale generation */                               \
  X(manifest_rejected_stale, "ftc_store_manifest_rejected_stale_total", "")

struct StoreStats {
  FTC_COUNTER_FIELDS(FTC_STORE_COUNTERS, StoreStats)
  // Gauges, and the eviction counter whose export label is the runtime
  // policy name.
  std::uint64_t ram_used_bytes = 0;
  std::uint64_t nvme_used_bytes = 0;
  std::uint64_t evictions = 0;  ///< dropped entirely (cold-tier exit)
};

class StoreIface {
 public:
  virtual ~StoreIface() = default;

  /// `generation` is the replication-ledger stamp (0 = unstamped legacy
  /// fill); the tiered store persists it into the manifest.
  virtual Status put(const std::string& path, common::Buffer contents,
                     std::uint64_t logical_size, std::uint64_t generation) = 0;
  virtual StatusOr<common::Buffer> get(const std::string& path) = 0;
  /// RAM-tier probe for the transport's caller-runs fast path.  A hit
  /// counts and touches the eviction policy exactly as get() does; a miss
  /// returns nullopt and counts nothing, never reads NVMe and never sleeps.
  virtual std::optional<common::Buffer> get_if_ram(const std::string& path) = 0;
  [[nodiscard]] virtual bool contains(const std::string& path) const = 0;
  [[nodiscard]] virtual std::optional<std::uint64_t> size_of(
      const std::string& path) const = 0;
  virtual bool erase(const std::string& path) = 0;
  virtual void clear() = 0;

  [[nodiscard]] virtual std::size_t file_count() const = 0;
  [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t capacity_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t eviction_count() const = 0;
  [[nodiscard]] virtual std::uint64_t hit_count() const = 0;
  [[nodiscard]] virtual std::uint64_t miss_count() const = 0;
  [[nodiscard]] virtual StoreStats stats_snapshot() const = 0;
};

/// The legacy ShardedCacheStore behind the interface: byte-identical
/// behaviour, generation stamps ignored (the server's ledger still
/// enforces freshness at the RPC layer, as before this PR).
class LegacyStoreAdapter final : public StoreIface {
 public:
  LegacyStoreAdapter(std::uint64_t capacity_bytes,
                     storage::EvictionPolicy policy, std::size_t shard_count)
      : store_(capacity_bytes, policy, shard_count) {}

  Status put(const std::string& path, common::Buffer contents,
             std::uint64_t logical_size, std::uint64_t) override {
    return store_.put(path, std::move(contents), logical_size);
  }
  StatusOr<common::Buffer> get(const std::string& path) override {
    return store_.get(path);
  }
  /// The legacy store is all RAM.
  std::optional<common::Buffer> get_if_ram(const std::string& path) override {
    return store_.get_if_present(path);
  }
  [[nodiscard]] bool contains(const std::string& path) const override {
    return store_.contains(path);
  }
  [[nodiscard]] std::optional<std::uint64_t> size_of(
      const std::string& path) const override {
    return store_.size_of(path);
  }
  bool erase(const std::string& path) override { return store_.erase(path); }
  void clear() override { store_.clear(); }

  [[nodiscard]] std::size_t file_count() const override {
    return store_.file_count();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return store_.used_bytes();
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return store_.capacity_bytes();
  }
  [[nodiscard]] std::uint64_t eviction_count() const override {
    return store_.eviction_count();
  }
  [[nodiscard]] std::uint64_t hit_count() const override {
    return store_.hit_count();
  }
  [[nodiscard]] std::uint64_t miss_count() const override {
    return store_.miss_count();
  }
  [[nodiscard]] StoreStats stats_snapshot() const override {
    StoreStats stats;
    stats.ram_used_bytes = store_.used_bytes();
    stats.hot_hits = store_.hit_count();
    stats.misses = store_.miss_count();
    stats.evictions = store_.eviction_count();
    return stats;
  }

 private:
  storage::ShardedCacheStore store_;
};

}  // namespace ftc::store
