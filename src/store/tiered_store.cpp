#include "store/tiered_store.hpp"

#include <stdexcept>
#include <utility>

#include "hash/fnv.hpp"

namespace ftc::store {

TieredCacheStore::TieredCacheStore(const StoreConfig& config,
                                   std::shared_ptr<NvmeDevice> device)
    : config_(config), device_(std::move(device)) {
  // Validate with tiering forced on: a directly-constructed store must
  // not dodge the parameter checks just because the knob copy says off.
  config_.tiering = true;
  if (const auto status = config_.validate(); !status.is_ok()) {
    throw std::invalid_argument("TieredCacheStore: " + status.message());
  }
  if (!device_) {
    device_ = std::make_shared<NvmeDevice>(
        config_.nvme_bytes, config_.model_nvme_latency, config_.nvme);
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = make_eviction_policy(config_.policy);
    shards_.push_back(std::move(shard));
  }
  cold_policy_ = make_eviction_policy(config_.policy);
  if (config_.background_reclaim) {
    reclaim_thread_ = std::thread([this] { reclaim_loop(); });
  }
}

TieredCacheStore::~TieredCacheStore() {
  if (reclaim_thread_.joinable()) {
    {
      std::lock_guard lock(reclaim_mutex_);
      shutdown_ = true;
    }
    reclaim_cv_.notify_all();
    reclaim_thread_.join();
  }
}

std::size_t TieredCacheStore::shard_for(const std::string& path) const {
  return hash::fnv1a64(path) % shards_.size();
}

// --- put path ----------------------------------------------------------

Status TieredCacheStore::put(const std::string& path, common::Buffer contents,
                             std::uint64_t logical_size,
                             std::uint64_t generation) {
  if (logical_size > config_.ram_bytes && logical_size > config_.nvme_bytes) {
    return Status::capacity("file larger than either tier: " + path);
  }
  if (put_hot(path, contents, logical_size, generation)) {
    // The hot copy is now authoritative; a cold copy left from an earlier
    // demotion would serve stale bytes after the hot one is evicted.
    erase_cold(path);
    if (ram_used_.load(std::memory_order_relaxed) > ram_high_bytes()) {
      kick_reclaim();
    }
    return Status::ok();
  }
  // RAM hard cap (or an oversized file): route the payload straight to
  // the cold tier instead of waiting on reclaim — writes never block.
  stats_.overflow_writes.fetch_add(1, std::memory_order_relaxed);
  take_hot(path);  // an overflow overwrite must not leave the old version
  const Status status =
      put_cold(path, std::move(contents), logical_size, generation);
  if (status.is_ok() && device_->used_bytes() > nvme_high_bytes()) {
    kick_reclaim();
  }
  return status;
}

bool TieredCacheStore::put_hot(const std::string& path,
                               const common::Buffer& contents,
                               std::uint64_t bytes, std::uint64_t generation) {
  if (bytes > config_.ram_bytes) return false;
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  // Replace-in-place: release the old accounting first so the
  // reservation below is exactly the net growth.
  if (const auto it = shard.entries.find(path); it != shard.entries.end()) {
    ram_used_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    shard.policy->on_erase(path);
    shard.entries.erase(it);
  }
  const std::uint64_t used =
      ram_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (used > config_.ram_bytes) {
    ram_used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;  // hard cap: caller overflows to the cold tier
  }
  shard.entries[path] = HotEntry{contents, bytes, generation};
  shard.policy->on_insert(path, bytes);
  return true;
}

std::optional<TieredCacheStore::HotEntry> TieredCacheStore::take_hot(
    const std::string& path) {
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.entries.find(path);
  if (it == shard.entries.end()) return std::nullopt;
  HotEntry entry = std::move(it->second);
  ram_used_.fetch_sub(entry.bytes, std::memory_order_relaxed);
  shard.policy->on_erase(path);
  shard.entries.erase(it);
  return entry;
}

Status TieredCacheStore::put_cold(const std::string& path,
                                  common::Buffer contents, std::uint64_t bytes,
                                  std::uint64_t generation) {
  if (bytes > config_.nvme_bytes) {
    return Status::capacity("file larger than NVMe budget: " + path);
  }
  const Status status = device_->write(
      path, NvmeDevice::Entry{std::move(contents), bytes, generation});
  if (!status.is_ok()) return status;
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->on_insert(path, bytes);
  }
  // Enforce the NVMe hard cap inline.  The victim may be the entry just
  // written (S3-FIFO treats an unproven newcomer as the most expendable
  // key) — that is admission control, not an error: the put succeeded,
  // the cache chose not to retain it.
  while (device_->used_bytes() > config_.nvme_bytes) {
    std::optional<std::string> victim;
    {
      std::lock_guard lock(cold_mutex_);
      victim = cold_policy_->pop_victim();
    }
    if (!victim) break;
    if (device_->erase(*victim)) {
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::ok();
}

bool TieredCacheStore::erase_cold(const std::string& path) {
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->on_erase(path);
  }
  return device_->erase(path);
}

// --- read path ---------------------------------------------------------

std::optional<common::Buffer> TieredCacheStore::get_if_ram(
    const std::string& path) {
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.entries.find(path);
  if (it == shard.entries.end()) return std::nullopt;
  shard.policy->on_hit(path);
  stats_.hot_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.contents;  // refcount bump, zero-copy
}

StatusOr<common::Buffer> TieredCacheStore::get(const std::string& path) {
  if (std::optional<common::Buffer> hot = get_if_ram(path)) {
    return std::move(*hot);
  }
  auto cold = device_->read(path);  // pays modelled NVMe latency
  if (!cold) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return Status::not_found("not cached: " + path);
  }
  stats_.cold_hits.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->on_hit(path);
  }
  // Promote: a cold hit is evidence of reuse, so move the entry back to
  // RAM when it fits under the hard cap.  No room → serve from cold and
  // leave placement to the next reclaim pass.
  if (put_hot(path, cold->contents, cold->bytes, cold->generation)) {
    stats_.promotions.fetch_add(1, std::memory_order_relaxed);
    erase_cold(path);
    if (ram_used_.load(std::memory_order_relaxed) > ram_high_bytes()) {
      kick_reclaim();
    }
  }
  return std::move(cold->contents);
}

// --- metadata ----------------------------------------------------------

bool TieredCacheStore::contains(const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    if (shard.entries.contains(path)) return true;
  }
  return device_->contains(path);
}

std::optional<std::uint64_t> TieredCacheStore::size_of(
    const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(path);
    if (it != shard.entries.end()) return it->second.bytes;
  }
  return device_->size_of(path);
}

std::string TieredCacheStore::tier_of(const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    if (shard.entries.contains(path)) return "ram";
  }
  if (device_->contains(path)) return "nvme";
  return "";
}

std::uint64_t TieredCacheStore::generation_of(const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(path);
    if (it != shard.entries.end()) return it->second.generation;
  }
  return device_->generation_of(path).value_or(0);
}

bool TieredCacheStore::erase(const std::string& path) {
  const bool hot = take_hot(path).has_value();
  const bool cold = erase_cold(path);
  return hot || cold;
}

void TieredCacheStore::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [path, entry] : shard->entries) {
      ram_used_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    }
    shard->entries.clear();
    shard->policy->reset();
  }
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->reset();
  }
  device_->clear();
}

std::size_t TieredCacheStore::file_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    count += shard->entries.size();
  }
  return count + device_->file_count();
}

std::uint64_t TieredCacheStore::used_bytes() const {
  return ram_used_.load(std::memory_order_relaxed) + device_->used_bytes();
}

std::uint64_t TieredCacheStore::hit_count() const {
  return stats_.hot_hits.load(std::memory_order_relaxed) +
         stats_.cold_hits.load(std::memory_order_relaxed);
}

StoreStats TieredCacheStore::stats_snapshot() const {
  StoreStats stats;
  stats_.load_into(stats);
  stats.ram_used_bytes = ram_used_.load(std::memory_order_relaxed);
  stats.nvme_used_bytes = device_->used_bytes();
  stats.evictions = stats_.evictions.load(std::memory_order_relaxed);
  return stats;
}

// --- warm restart ------------------------------------------------------

std::size_t TieredCacheStore::restore_from_device(
    const GenerationAuthority& authority) {
  if (!config_.manifest.enabled) {
    // Cold rejoin: the knob says restarts treat the volume as scratch.
    device_->clear();
    return 0;
  }
  // Round-trip through the wire format: this is exactly the read a real
  // restart does from the device's index block, and it makes a truncated
  // or corrupt manifest fail loudly here instead of serving garbage.
  const auto parsed = Manifest::parse(device_->manifest().serialize());
  if (!parsed.is_ok()) {
    device_->clear();
    return 0;
  }
  std::size_t restored = 0;
  for (const auto& entry : parsed.value().entries) {
    const std::uint64_t floor = authority ? authority(entry.path) : 0;
    if (floor > 0 && entry.generation < floor) {
      // The cluster moved on while this node was down: the bytes on the
      // device predate the current replica generation.  Serving them
      // would resurrect overwritten data, so drop instead.
      device_->erase(entry.path);
      stats_.manifest_rejected_stale.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    {
      std::lock_guard lock(cold_mutex_);
      cold_policy_->on_insert(entry.path, entry.bytes);
    }
    stats_.manifest_restored.fetch_add(1, std::memory_order_relaxed);
    ++restored;
  }
  return restored;
}

void TieredCacheStore::flush_hot_to_cold() {
  for (auto& shard : shards_) {
    std::vector<std::pair<std::string, HotEntry>> drained;
    {
      std::lock_guard lock(shard->mutex);
      drained.reserve(shard->entries.size());
      for (auto& [path, entry] : shard->entries) {
        ram_used_.fetch_sub(entry.bytes, std::memory_order_relaxed);
        drained.emplace_back(path, std::move(entry));
      }
      shard->entries.clear();
      shard->policy->reset();
    }
    for (auto& [path, entry] : drained) {
      stats_.demotions.fetch_add(1, std::memory_order_relaxed);
      put_cold(path, std::move(entry.contents), entry.bytes, entry.generation);
    }
  }
}

// --- reclaim -----------------------------------------------------------

void TieredCacheStore::kick_reclaim() {
  if (!config_.background_reclaim) {
    reclaim_pass();  // deterministic inline mode (unit tests)
    return;
  }
  {
    std::lock_guard lock(reclaim_mutex_);
    reclaim_requested_ = true;
  }
  reclaim_cv_.notify_one();
}

void TieredCacheStore::reclaim_loop() {
  for (;;) {
    std::unique_lock lock(reclaim_mutex_);
    reclaim_cv_.wait(lock, [this] { return reclaim_requested_ || shutdown_; });
    if (shutdown_) return;
    reclaim_requested_ = false;
    reclaim_active_ = true;
    lock.unlock();
    reclaim_pass();
    lock.lock();
    reclaim_active_ = false;
    reclaim_idle_cv_.notify_all();
  }
}

void TieredCacheStore::wait_reclaimed() {
  if (!config_.background_reclaim) return;
  std::unique_lock lock(reclaim_mutex_);
  reclaim_idle_cv_.wait(
      lock, [this] { return !reclaim_requested_ && !reclaim_active_; });
}

void TieredCacheStore::reclaim_pass() {
  stats_.reclaim_runs.fetch_add(1, std::memory_order_relaxed);
  if (ram_used_.load(std::memory_order_relaxed) > ram_high_bytes()) {
    demote_until(ram_low_bytes());
  }
  // Demotion pushes bytes downhill, so check NVMe pressure after.
  if (device_->used_bytes() > nvme_high_bytes()) {
    evict_cold_until(nvme_low_bytes());
  }
}

void TieredCacheStore::demote_until(std::uint64_t ram_target) {
  std::size_t barren = 0;  // consecutive shards with no victim
  while (ram_used_.load(std::memory_order_relaxed) > ram_target &&
         barren < shards_.size()) {
    const std::size_t index =
        demote_hand_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    Shard& shard = *shards_[index];
    std::string victim_path;
    HotEntry victim;
    {
      std::lock_guard lock(shard.mutex);
      const auto popped = shard.policy->pop_victim();
      if (!popped) {
        ++barren;
        continue;
      }
      const auto it = shard.entries.find(*popped);
      if (it == shard.entries.end()) continue;  // advisory drift; re-probe
      victim_path = *popped;
      victim = std::move(it->second);
      ram_used_.fetch_sub(victim.bytes, std::memory_order_relaxed);
      shard.entries.erase(it);
    }
    barren = 0;
    stats_.demotions.fetch_add(1, std::memory_order_relaxed);
    // The NVMe write (and any modelled sleep) happens with no shard lock
    // held; a get racing this window misses both tiers and re-fetches —
    // ordinary cache behaviour, never a stale read.
    put_cold(victim_path, std::move(victim.contents), victim.bytes,
             victim.generation);
  }
}

void TieredCacheStore::evict_cold_until(std::uint64_t nvme_target) {
  while (device_->used_bytes() > nvme_target) {
    std::optional<std::string> victim;
    {
      std::lock_guard lock(cold_mutex_);
      victim = cold_policy_->pop_victim();
    }
    if (!victim) break;
    if (device_->erase(*victim)) {
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace ftc::store
