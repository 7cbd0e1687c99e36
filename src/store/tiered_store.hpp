// tiered_store.hpp - RAM+NVMe tiered cache store with background reclaim.
//
// Production NVMe caches run permanently full; "capacity" is not a limit
// you stay under but a pressure you live at.  This store replaces the
// delete-on-pressure budget of ShardedCacheStore with a two-tier
// hierarchy:
//
//   hot tier (RAM)   lock-striped shards of path -> Buffer; hits are a
//                    refcount bump (zero-copy), ordering is delegated to
//                    a per-shard EvictionPolicy object.
//   cold tier (NVMe) the NvmeDevice; hits pay modelled NVMe latency and
//                    promote the entry back to RAM.
//
// Pressure moves data DOWN the hierarchy instead of deleting it:
//   demotion   RAM victim -> NVMe write (background reclaim)
//   eviction   NVMe victim -> gone (the only true data loss)
//
// Reclaim is watermark-driven: a dedicated thread wakes when a tier
// exceeds high_watermark x budget and drains it to low_watermark.  Puts
// NEVER block on reclaim — a put that would overshoot the RAM hard cap
// routes the payload straight to the cold tier (an overflow write, the
// price a full RAM tier costs on a real box) and returns.  There is no
// kBusy on this path and no wait on the reclaim thread, which is what
// the p99-under-reclaim gate in bench_pressure enforces.
//
// Warm restart: payloads and the manifest index live on the NvmeDevice,
// which the cluster owns per node and hands to each server incarnation.
// restore_from_device() rebuilds the cold tier from the manifest,
// re-validating each entry's generation against a caller-supplied
// authority (the replication ledger) — stale entries are dropped, the
// rest serve without a PFS read.
//
// Lock hierarchy (DESIGN.md §14): at most ONE store mutex is held at a
// time — shard locks, the cold-tier lock and the device's index lock
// never nest.  Tier moves release the source tier's lock before touching
// the destination; modelled NVMe sleeps happen under no lock at all.
//
// Thread safety: fully internally synchronized.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/status.hpp"
#include "store/eviction.hpp"
#include "store/nvme_device.hpp"
#include "store/store_config.hpp"
#include "store/store_iface.hpp"

namespace ftc::store {

class TieredCacheStore final : public StoreIface {
 public:
  /// `device` is the node's NVMe volume; pass the cluster-owned instance
  /// so cold-tier state survives server restarts, or nullptr to let the
  /// store own a private device (unit tests, benches).  Throws
  /// std::invalid_argument when `config.validate()` rejects.
  explicit TieredCacheStore(const StoreConfig& config,
                            std::shared_ptr<NvmeDevice> device = nullptr);
  ~TieredCacheStore() override;

  TieredCacheStore(const TieredCacheStore&) = delete;
  TieredCacheStore& operator=(const TieredCacheStore&) = delete;

  // --- StoreIface ------------------------------------------------------
  Status put(const std::string& path, common::Buffer contents,
             std::uint64_t logical_size, std::uint64_t generation) override;
  StatusOr<common::Buffer> get(const std::string& path) override;
  /// Looks only in the RAM shards.
  std::optional<common::Buffer> get_if_ram(const std::string& path) override;
  [[nodiscard]] bool contains(const std::string& path) const override;
  [[nodiscard]] std::optional<std::uint64_t> size_of(
      const std::string& path) const override;
  bool erase(const std::string& path) override;
  void clear() override;

  [[nodiscard]] std::size_t file_count() const override;
  [[nodiscard]] std::uint64_t used_bytes() const override;
  /// Combined budget (RAM + NVMe) — what "cache capacity" means to the
  /// rest of the system.
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return config_.ram_bytes + config_.nvme_bytes;
  }
  [[nodiscard]] std::uint64_t eviction_count() const override {
    return stats_.evictions.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hit_count() const override;
  [[nodiscard]] std::uint64_t miss_count() const override {
    return stats_.misses.load(std::memory_order_relaxed);
  }
  [[nodiscard]] StoreStats stats_snapshot() const override;

  // --- tiered-store specifics -----------------------------------------
  /// Which tier currently holds `path` ("ram" / "nvme" / "" = absent);
  /// tests and telemetry only.
  [[nodiscard]] std::string tier_of(const std::string& path) const;

  /// Generation stamp recorded for `path` (0 when absent/unstamped).
  [[nodiscard]] std::uint64_t generation_of(const std::string& path) const;

  /// Authority consulted per manifest entry on warm restart: returns the
  /// minimum acceptable generation for a path (0 = no knowledge, accept).
  using GenerationAuthority =
      std::function<std::uint64_t(const std::string& path)>;

  /// Rebuilds the cold tier from the device's manifest: entries whose
  /// stored generation is below the authority's floor are dropped as
  /// stale (and erased from the device); the rest become servable
  /// without a PFS read.  Returns the number restored.  With
  /// config.manifest.enabled false the device is wiped instead (cold
  /// rejoin semantics).
  std::size_t restore_from_device(const GenerationAuthority& authority = {});

  /// Demotes every hot entry to the cold tier (clean shutdown: makes the
  /// manifest cover the full cache before a planned restart).
  void flush_hot_to_cold();

  /// Blocks until the reclaim thread has drained both tiers below their
  /// high watermarks (test synchronization; no-op when inline).
  void wait_reclaimed();

  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] const NvmeDevice& device() const { return *device_; }

 private:
  struct HotEntry {
    common::Buffer contents;
    std::uint64_t bytes = 0;
    std::uint64_t generation = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, HotEntry> entries;
    std::unique_ptr<EvictionPolicy> policy;
  };

  [[nodiscard]] std::size_t shard_for(const std::string& path) const;

  /// Inserts into the hot tier; returns false when the reservation would
  /// overshoot the RAM hard cap (caller overflows to cold).  Erases any
  /// pre-existing hot entry for the path first.
  bool put_hot(const std::string& path, const common::Buffer& contents,
               std::uint64_t bytes, std::uint64_t generation);

  /// Removes `path` from its hot shard; returns the entry when present.
  std::optional<HotEntry> take_hot(const std::string& path);

  /// Writes into the cold tier (pays NVMe latency), updates the cold
  /// policy, and enforces the NVMe hard cap inline by evicting victims.
  Status put_cold(const std::string& path, common::Buffer contents,
                  std::uint64_t bytes, std::uint64_t generation);

  /// Drops `path` from cold tier bookkeeping + device; false when absent.
  bool erase_cold(const std::string& path);

  /// One full reclaim pass: RAM above high watermark -> demote to low;
  /// NVMe above high watermark -> evict to low.
  void reclaim_pass();
  void demote_until(std::uint64_t ram_target);
  void evict_cold_until(std::uint64_t nvme_target);
  void kick_reclaim();
  void reclaim_loop();

  [[nodiscard]] std::uint64_t ram_high_bytes() const {
    return static_cast<std::uint64_t>(
        config_.high_watermark * static_cast<double>(config_.ram_bytes));
  }
  [[nodiscard]] std::uint64_t ram_low_bytes() const {
    return static_cast<std::uint64_t>(
        config_.low_watermark * static_cast<double>(config_.ram_bytes));
  }
  [[nodiscard]] std::uint64_t nvme_high_bytes() const {
    return static_cast<std::uint64_t>(
        config_.high_watermark * static_cast<double>(config_.nvme_bytes));
  }
  [[nodiscard]] std::uint64_t nvme_low_bytes() const {
    return static_cast<std::uint64_t>(
        config_.low_watermark * static_cast<double>(config_.nvme_bytes));
  }

  struct Counters {
    FTC_COUNTER_MIRROR(FTC_STORE_COUNTERS, StoreStats)
    std::atomic<std::uint64_t> evictions{0};
  };

  StoreConfig config_;
  std::shared_ptr<NvmeDevice> device_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> ram_used_{0};

  /// Cold-tier ordering state.  Guards the policy ONLY — device index
  /// mutations happen through the device's own lock, and the two are
  /// never held together (the policy is advisory: a victim that has
  /// already vanished from the device is simply skipped).
  mutable std::mutex cold_mutex_;
  std::unique_ptr<EvictionPolicy> cold_policy_;

  Counters stats_;
  std::atomic<std::size_t> demote_hand_{0};

  // Reclaim thread plumbing (background mode only).
  std::mutex reclaim_mutex_;
  std::condition_variable reclaim_cv_;
  std::condition_variable reclaim_idle_cv_;
  bool reclaim_requested_ = false;
  bool reclaim_active_ = false;
  bool shutdown_ = false;
  std::thread reclaim_thread_;
};

}  // namespace ftc::store
