// TieredCacheStore semantics: hot/cold placement, demotion instead of
// deletion, promotion on cold hits, watermark reclaim, overflow writes at
// the RAM hard cap, modelled NVMe latency, and warm restart from the
// device manifest with generation validation.
//
// background_reclaim is OFF throughout (reclaim runs inline at the end of
// each put), so every tier move below is deterministic; the threaded
// reclaim path is exercised by store_stress_test.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "store/tiered_store.hpp"

namespace ftc::store {
namespace {

StoreConfig test_config() {
  StoreConfig config;
  config.tiering = true;
  config.ram_bytes = 1000;
  config.nvme_bytes = 4000;
  config.policy = PolicyKind::kLru;  // deterministic victim order
  config.low_watermark = 0.5;
  config.high_watermark = 0.8;
  config.shards = 1;  // one shard = fully deterministic demotion order
  config.background_reclaim = false;
  return config;
}

std::string path_of(int i) { return "/t/file_" + std::to_string(i); }

common::Buffer bytes_of(std::size_t n, char fill = 'x') {
  return common::Buffer(std::string(n, fill));
}

TEST(TieredStore, ConstructorValidatesEvenWithTieringFlagOff) {
  StoreConfig bad = test_config();
  bad.tiering = false;  // must not dodge validation
  bad.high_watermark = 0.2;
  EXPECT_THROW(TieredCacheStore{bad}, std::invalid_argument);
}

TEST(TieredStore, HotHitIsZeroCopy) {
  TieredCacheStore store(test_config());
  common::Buffer contents = bytes_of(100);
  ASSERT_TRUE(store.put("/a", contents, 100, 0).is_ok());
  EXPECT_EQ(store.tier_of("/a"), "ram");
  auto got = store.get("/a");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().shares_storage(contents));
  const StoreStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.hot_hits, 1u);
  EXPECT_EQ(stats.cold_hits, 0u);
  EXPECT_EQ(stats.ram_used_bytes, 100u);
}

TEST(TieredStore, PressureDemotesInsteadOfDeleting) {
  // RAM budget 1000, high watermark 800: the 9th 100-byte file pushes
  // used past 800, and inline reclaim drains to the low watermark (500)
  // by demoting LRU victims to NVMe.  Nothing is lost.
  TieredCacheStore store(test_config());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  const StoreStats stats = store.stats_snapshot();
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.ram_used_bytes, 500u);
  EXPECT_EQ(stats.ram_used_bytes + stats.nvme_used_bytes, 900u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(store.contains(path_of(i))) << path_of(i);
  }
  // The oldest files went cold; the newest stayed hot.
  EXPECT_EQ(store.tier_of(path_of(0)), "nvme");
  EXPECT_EQ(store.tier_of(path_of(8)), "ram");
}

TEST(TieredStore, ColdHitPromotesBackToRam) {
  TieredCacheStore store(test_config());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_EQ(store.tier_of(path_of(0)), "nvme");
  auto got = store.get(path_of(0));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 100u);
  EXPECT_EQ(store.tier_of(path_of(0)), "ram");
  const StoreStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.cold_hits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
}

TEST(TieredStore, RamProbeNeverTouchesTheColdTier) {
  // get_if_ram backs the transport's caller-runs fast path: a RAM hit
  // counts like get(); a cold or absent path counts nothing and stays put.
  TieredCacheStore store(test_config());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_EQ(store.tier_of(path_of(0)), "nvme");
  ASSERT_EQ(store.tier_of(path_of(8)), "ram");
  const StoreStats before = store.stats_snapshot();
  EXPECT_FALSE(store.get_if_ram(path_of(0)).has_value());
  EXPECT_FALSE(store.get_if_ram("/t/absent").has_value());
  EXPECT_EQ(store.tier_of(path_of(0)), "nvme");
  const auto hot = store.get_if_ram(path_of(8));
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->size(), 100u);
  const StoreStats after = store.stats_snapshot();
  EXPECT_EQ(after.hot_hits, before.hot_hits + 1);
  EXPECT_EQ(after.cold_hits, before.cold_hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.promotions, before.promotions);
}

TEST(TieredStore, LegacyAdapterRamProbeCountsOnlyHits) {
  LegacyStoreAdapter store(1 << 20, storage::EvictionPolicy::kLru, 4);
  ASSERT_TRUE(store.put("/t/a", bytes_of(10), 10, 0).is_ok());
  EXPECT_FALSE(store.get_if_ram("/t/absent").has_value());
  EXPECT_EQ(store.miss_count(), 0u);
  ASSERT_TRUE(store.get_if_ram("/t/a").has_value());
  EXPECT_EQ(store.hit_count(), 1u);
  EXPECT_FALSE(store.get("/t/absent").is_ok());
  EXPECT_EQ(store.miss_count(), 1u);
}

TEST(TieredStore, RamHardCapOverflowsToColdWithoutBlocking) {
  // 8 x 100 bytes = 800 (at the high watermark but reclaim only fires
  // when used EXCEEDS it)... so instead: fill to 700, then put 400 —
  // 700+400 > 1000 overshoots the hard cap and must route cold.
  StoreConfig config = test_config();
  config.high_watermark = 0.95;  // keep inline reclaim out of the way
  config.low_watermark = 0.5;
  TieredCacheStore store(config);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_TRUE(store.put("/burst", bytes_of(400), 400, 0).is_ok());
  EXPECT_EQ(store.tier_of("/burst"), "nvme");
  const StoreStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.overflow_writes, 1u);
  EXPECT_EQ(stats.ram_used_bytes, 700u);  // residents untouched
  for (int i = 0; i < 7; ++i) EXPECT_EQ(store.tier_of(path_of(i)), "ram");
}

TEST(TieredStore, FileLargerThanRamGoesStraightCold) {
  TieredCacheStore store(test_config());
  ASSERT_TRUE(store.put("/huge", bytes_of(2000), 2000, 0).is_ok());
  EXPECT_EQ(store.tier_of("/huge"), "nvme");
  // And larger than both tiers is a hard refusal.
  EXPECT_EQ(store.put("/too-big", bytes_of(5000), 5000, 0).code(),
            StatusCode::kCapacity);
}

TEST(TieredStore, ColdTierEvictsAtItsOwnWatermark) {
  // NVMe budget 4000, high 3200: demote enough bytes and the cold tier
  // starts truly evicting — the only place data is dropped.
  TieredCacheStore store(test_config());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  const StoreStats stats = store.stats_snapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.nvme_used_bytes, 4000u);
  EXPECT_LT(store.file_count(), 50u);
}

TEST(TieredStore, OverwriteDropsStaleColdCopy) {
  TieredCacheStore store(test_config());
  ASSERT_TRUE(store.put("/f", bytes_of(100, 'a'), 100, 1).is_ok());
  // Force /f cold, then overwrite with new bytes (hot).
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_EQ(store.tier_of("/f"), "nvme");
  ASSERT_TRUE(store.put("/f", bytes_of(150, 'b'), 150, 2).is_ok());
  EXPECT_EQ(store.tier_of("/f"), "ram");
  EXPECT_EQ(store.generation_of("/f"), 2u);
  auto got = store.get("/f");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 150u);
  // Exactly one copy remains anywhere.
  EXPECT_EQ(store.size_of("/f").value(), 150u);
}

TEST(TieredStore, EraseAndClearCoverBothTiers) {
  TieredCacheStore store(test_config());
  ASSERT_TRUE(store.put("/hot", bytes_of(100), 100, 0).is_ok());
  ASSERT_TRUE(store.put("/cold", bytes_of(2000), 2000, 0).is_ok());
  EXPECT_TRUE(store.erase("/hot"));
  EXPECT_TRUE(store.erase("/cold"));
  EXPECT_FALSE(store.erase("/cold"));
  EXPECT_EQ(store.file_count(), 0u);
  ASSERT_TRUE(store.put("/again", bytes_of(2000), 2000, 0).is_ok());
  store.clear();
  EXPECT_EQ(store.file_count(), 0u);
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.device().file_count(), 0u);
}

TEST(TieredStore, ModelledNvmeLatencyIsPaidOnColdReads) {
  StoreConfig config = test_config();
  config.model_nvme_latency = true;
  config.nvme.op_latency = 2'000'000;  // 2 ms, dwarfs bandwidth terms
  TieredCacheStore store(config);
  ASSERT_TRUE(store.put("/cold", bytes_of(2000), 2000, 0).is_ok());
  ASSERT_EQ(store.tier_of("/cold"), "nvme");
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(store.get("/cold").is_ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // sleep_for guarantees at-least semantics, so this cannot flake.
  EXPECT_GE(elapsed, std::chrono::milliseconds(2));
}

// --- warm restart ------------------------------------------------------

TEST(TieredStore, WarmRestartRestoresManifestEntries) {
  auto device = std::make_shared<NvmeDevice>(4000);
  {
    TieredCacheStore first(test_config(), device);
    ASSERT_TRUE(first.put("/a", bytes_of(100, 'a'), 100, 5).is_ok());
    ASSERT_TRUE(first.put("/b", bytes_of(100, 'b'), 100, 6).is_ok());
    first.flush_hot_to_cold();  // clean shutdown: manifest covers all
    ASSERT_EQ(device->file_count(), 2u);
  }  // "crash": store (RAM tier) destroyed, device survives

  TieredCacheStore second(test_config(), device);
  EXPECT_EQ(second.file_count(), 2u);  // device entries already visible
  const std::size_t restored = second.restore_from_device();
  EXPECT_EQ(restored, 2u);
  auto got = second.get("/a");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().view()[0], 'a');
  const StoreStats stats = second.stats_snapshot();
  EXPECT_EQ(stats.manifest_restored, 2u);
  EXPECT_EQ(stats.manifest_rejected_stale, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(second.generation_of("/b"), 6u);
}

TEST(TieredStore, WarmRestartRejectsStaleGenerations) {
  auto device = std::make_shared<NvmeDevice>(4000);
  {
    TieredCacheStore first(test_config(), device);
    ASSERT_TRUE(first.put("/stale", bytes_of(100), 100, 3).is_ok());
    ASSERT_TRUE(first.put("/fresh", bytes_of(100), 100, 9).is_ok());
    ASSERT_TRUE(first.put("/unstamped", bytes_of(100), 100, 0).is_ok());
    first.flush_hot_to_cold();
  }
  TieredCacheStore second(test_config(), device);
  // Authority: the cluster has moved /stale on to generation 7; knows
  // nothing beyond generation 2 for /fresh; never stamped /unstamped.
  const std::size_t restored =
      second.restore_from_device([](const std::string& path) -> std::uint64_t {
        if (path == "/stale") return 7;
        if (path == "/fresh") return 2;
        return 0;
      });
  EXPECT_EQ(restored, 2u);
  const StoreStats stats = second.stats_snapshot();
  EXPECT_EQ(stats.manifest_rejected_stale, 1u);
  EXPECT_FALSE(second.contains("/stale"));  // dropped, not served stale
  EXPECT_TRUE(second.contains("/fresh"));
  EXPECT_TRUE(second.contains("/unstamped"));
}

TEST(TieredStore, ManifestDisabledMeansColdRejoin) {
  StoreConfig config = test_config();
  config.manifest.enabled = false;
  auto device = std::make_shared<NvmeDevice>(4000);
  {
    TieredCacheStore first(config, device);
    ASSERT_TRUE(first.put("/a", bytes_of(100), 100, 1).is_ok());
    first.flush_hot_to_cold();
    ASSERT_EQ(device->file_count(), 1u);
  }
  TieredCacheStore second(config, device);
  EXPECT_EQ(second.restore_from_device(), 0u);
  EXPECT_EQ(device->file_count(), 0u);  // volume treated as scratch
}

TEST(NvmeDeviceUnit, WriteReadEraseAccounting) {
  NvmeDevice device(1000);
  ASSERT_TRUE(device.write("/a", {bytes_of(300), 300, 4}).is_ok());
  EXPECT_EQ(device.used_bytes(), 300u);
  EXPECT_EQ(device.generation_of("/a").value(), 4u);
  ASSERT_TRUE(device.write("/a", {bytes_of(100), 100, 5}).is_ok());
  EXPECT_EQ(device.used_bytes(), 100u);  // overwrite replaces accounting
  EXPECT_EQ(device.read("/a").value().bytes, 100u);
  EXPECT_FALSE(device.read("/missing").has_value());
  EXPECT_EQ(device.write("/big", {bytes_of(2000), 2000, 0}).code(),
            StatusCode::kCapacity);
  EXPECT_TRUE(device.erase("/a"));
  EXPECT_EQ(device.used_bytes(), 0u);
  EXPECT_EQ(device.writes(), 2u);
  EXPECT_EQ(device.reads(), 1u);
}

}  // namespace
}  // namespace ftc::store
