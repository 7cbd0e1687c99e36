// perfbench.cpp - The repository benchmark's load generator.
//
// Boots a fresh in-process 4-node cluster::Cluster, stages a seeded dataset
// on its PFS, warms it, then drives a closed-loop read stream from one
// client thread per node for a fixed window, checking every returned byte
// against the staged copy.  Untraced runs print the end-to-end metrics;
// traced runs (--trace 1) print the per-layer table instead, with layers
// timed from outside around calls into their public functions and from the
// cluster's own flight recorder.  The program never changes the system
// under test: every knob below is a ClusterConfig field.
//
//   perfbench --workload hit_4k --seed 1 --seconds 10 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "hash/crc32.hpp"
#include "helpers.hpp"
#include "store/store_iface.hpp"
#include "store/tiered_store.hpp"

namespace perfbench {
namespace {

using ftc::NodeId;
using ftc::Rng;
using ftc::cluster::Cluster;
using ftc::cluster::ClusterConfig;
using ftc::common::Buffer;

constexpr std::uint32_t kNodes = 4;
/// Client threads, on nodes 0..2; node 3 only serves.  With one client per
/// node, 4 client threads and 4 endpoint workers hand reads back and forth
/// on the 4 CPUs the benchmark targets, and wake-up delays made run-to-run
/// throughput and p99 swing by tens of percent.  One idle CPU absorbs them.
constexpr std::uint32_t kClients = 3;
/// failover_4k stops node 3, the node without a reading client, so the
/// window keeps the same client count on both sides of the kill (a dead
/// node's data loader is dead too; here it never read).
constexpr NodeId kVictim = kClients;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// PFS model shared by zipf_overflow_1m and failover_4k: a modelled
/// Lustre read and a finite OST share.
constexpr std::chrono::milliseconds kPfsLatency{4};
constexpr std::uint32_t kPfsSlots = 2;
/// Window slices of a traced run; odd slices are traced, even ones not.
constexpr std::uint32_t kSlices = 20;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

// --- Workloads ---------------------------------------------------------------

enum class Access { kShardShuffle, kZipf };

struct Workload {
  std::string name;
  std::uint32_t file_bytes = 0;
  std::uint32_t file_count = 0;
  Access access = Access::kShardShuffle;
  /// Reads each file once before the closed loop (the dataset fits).
  bool warm_all_files = true;
  /// Stop one node at a seeded op index in the window's first third.
  bool kill = false;
  ClusterConfig config;
};

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.config.node_count = kNodes;
  if (name == "hit_4k") {
    // Default ClusterConfig: FT w/ NVMe, CRC verify on, legacy store with a
    // 1 GiB budget per node; 16 MiB of data fits every node many times.
    w.file_bytes = 4096;
    w.file_count = 4096;
  } else if (name == "zipf_overflow_1m") {
    // 256 MiB of data over a 64 MiB aggregate cache (4 x 16 MiB).  Zipf
    // 1.1 over 256 files puts 3/4 of reads on the hottest 36 files: more
    // than the RAM tiers hold (4 x 4 files), fewer than RAM+NVMe (64).
    w.file_bytes = 1U << 20;
    w.file_count = 256;
    w.access = Access::kZipf;
    w.warm_all_files = false;
    auto& store = w.config.server.store;
    store.tiering = true;
    store.ram_bytes = 4ULL << 20;
    store.nvme_bytes = 12ULL << 20;
    store.model_nvme_latency = true;
    w.config.pfs_read_latency = kPfsLatency;
    w.config.pfs_service_slots = kPfsSlots;
  } else if (name == "failover_4k") {
    // Default config (rpc_timeout 100 ms, timeout_limit 3); 4 MiB of data
    // fits and is warm before the kill.  hit_4k's file size, so the two
    // differ only by the kill and the PFS model: larger files spend long
    // enough in the client's CRC that host preemption of the vCPU set
    // their p99 (64 KiB: 438-3767 us across runs of one build; 16 KiB:
    // 24% interquartile range over 10 seeds).
    w.file_bytes = 4096;
    w.file_count = 1024;
    w.kill = true;
    w.config.pfs_read_latency = kPfsLatency;
    w.config.pfs_service_slots = kPfsSlots;
  } else {
    return std::nullopt;
  }
  return w;
}

/// Seeded file contents and paths.  Contents are generated here rather
/// than by the cluster so the same seed always yields the same bytes and
/// the oracle holds the exact copy the PFS serves.
struct Dataset {
  std::vector<std::string> paths;
  std::vector<Buffer> contents;
};

Dataset generate_dataset(const Workload& w, std::uint64_t seed) {
  Dataset d;
  d.paths.reserve(w.file_count);
  d.contents.reserve(w.file_count);
  char name[96];
  for (std::uint32_t i = 0; i < w.file_count; ++i) {
    std::snprintf(name, sizeof(name), "/lustre/orion/perfbench/%s/file_%07u",
                  w.name.c_str(), i);
    d.paths.emplace_back(name);
    Rng rng(seed ^ (0xF11E0000ULL + i));
    std::string bytes(w.file_bytes, '\0');
    for (std::size_t off = 0; off < bytes.size(); off += 8) {
      const std::uint64_t word = rng();
      std::memcpy(bytes.data() + off, &word,
                  std::min<std::size_t>(8, bytes.size() - off));
    }
    d.contents.emplace_back(std::move(bytes));
  }
  return d;
}

/// One client's read order: a seeded per-epoch shuffle of its shard, or a
/// scrambled Zipf stream (every client shares the seed, hence the hot set,
/// but draws its own sequence).
class AccessStream {
 public:
  AccessStream(const Workload& w, std::uint64_t seed, std::uint32_t client)
      : seed_(seed), client_(client) {
    if (w.access == Access::kZipf) {
      zipf_.emplace(w.file_count, 1.1, seed, client);
      return;
    }
    std::vector<std::uint32_t> ids(w.file_count);
    for (std::uint32_t i = 0; i < w.file_count; ++i) ids[i] = i;
    Rng(seed ^ 0x5A4D0000ULL).shuffle(ids);
    for (std::size_t i = client; i < ids.size(); i += kClients) {
      shard_.push_back(ids[i]);
    }
  }

  std::uint32_t next() {
    if (zipf_) return static_cast<std::uint32_t>(zipf_->next());
    if (pos_ == shard_.size() || epoch_ == 0) {
      ++epoch_;
      Rng(seed_ ^ (client_ * 0x9E3779B97F4A7C15ULL) ^ (epoch_ << 20))
          .shuffle(shard_);
      pos_ = 0;
    }
    return shard_[pos_++];
  }

 private:
  std::uint64_t seed_;
  std::uint64_t client_;
  std::optional<ftc::bench::ScrambledZipfGenerator> zipf_;
  std::vector<std::uint32_t> shard_;
  std::size_t pos_ = 0;
  std::uint64_t epoch_ = 0;
};

// --- Counters ----------------------------------------------------------------

/// Sums of the cluster's public counters at one instant.
struct Counters {
  std::uint64_t server_reads = 0, cache_hits = 0, cache_misses = 0;
  std::uint64_t recache_enqueued = 0, recache_completed = 0;
  std::uint64_t hot_hits = 0, cold_hits = 0, store_misses = 0;
  std::uint64_t demotions = 0, promotions = 0, evictions = 0;
  std::uint64_t received_data = 0;
  std::uint64_t pfs_reads = 0;
  std::uint64_t timeouts = 0, ring_updates = 0;
};

Counters read_counters(Cluster& cluster) {
  Counters c;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto s = cluster.server(n).stats_snapshot();
    c.server_reads += s.reads;
    c.cache_hits += s.cache_hits;
    c.cache_misses += s.cache_misses;
    c.recache_enqueued += s.recache_enqueued;
    c.recache_completed += s.recache_completed;
    const auto st = cluster.server(n).store_stats();
    c.hot_hits += st.hot_hits;
    c.cold_hits += st.cold_hits;
    c.store_misses += st.misses;
    c.demotions += st.demotions;
    c.promotions += st.promotions;
    c.evictions += st.evictions;
    c.received_data += cluster.transport().stats(n).received_data;
    const auto cs = cluster.client(n).stats_snapshot();
    c.timeouts += cs.timeouts;
    c.ring_updates += cs.ring_updates;
  }
  c.pfs_reads = cluster.pfs().read_count();
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- One run -----------------------------------------------------------------

enum Phase : int { kWarm = 0, kTimed = 1, kStop = 2 };

/// Server-side timing around HvacServer::handle, installed as the node's
/// transport handler in traced runs only.
struct ServerTap {
  struct Sample {
    double us;
    bool hit;
  };
  std::atomic<bool> on{false};
  std::mutex mu[kNodes];
  std::vector<Sample> samples[kNodes];
};

/// Read latencies of one client in one slice.  Storage is allocated and
/// touched before set-up, so peak RSS does not grow with the read rate;
/// past `kCapacity` reads it keeps a uniform reservoir sample.
class LatencySamples {
 public:
  static constexpr std::size_t kCapacity = 1U << 16;

  LatencySamples() : v_(kCapacity) {}

  void add(double us, Rng& rng) {
    ++seen_;
    if (kept_ < v_.size()) {
      v_[kept_++] = static_cast<float>(us);
    } else if (const std::uint64_t j = rng.below(seen_); j < v_.size()) {
      v_[j] = static_cast<float>(us);
    }
  }
  void append_to(std::vector<double>& out) const {
    out.insert(out.end(), v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(kept_));
  }

 private:
  std::vector<float> v_;
  std::size_t kept_ = 0;
  std::uint64_t seen_ = 0;
};

struct ClientOut {
  LatencySamples lat_us[kSlices];  ///< by the slice the read began in
  Rng reservoir_rng{0x1A7E};
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t slice_ops[kSlices] = {};
  std::vector<Span> roots;  ///< client.read spans of traced slices
  // failover_4k
  std::int64_t detect_ns = 0;  ///< 0 = victim not yet flagged
  double max_after_kill_us = 0.0;
  std::vector<std::uint8_t> touched;  ///< file ids read after the kill
};

struct Shared {
  std::atomic<int> phase{kWarm};
  std::atomic<std::uint32_t> slice{0};
  std::atomic<bool> traced_slice{false};
  std::atomic<std::uint64_t> warm_ops{0};
  std::atomic<std::uint64_t> warm_errors{0};
  std::atomic<std::uint64_t> warm_mismatches{0};
  std::atomic<std::uint64_t> window_ops{0};
  std::uint64_t kill_at = 0;  ///< window op index of the kill; 0 = none
  std::atomic<std::int64_t> kill_ns{0};
};

struct Run {
  Run(const Workload& workload, const Dataset& data, bool trace)
      : w(workload), paths(data.paths), traced(trace) {
    refs.reserve(data.contents.size());
    for (const Buffer& b : data.contents) refs.push_back(make_reference(b));
    if (traced) tap = std::make_unique<ServerTap>();
    for (ClientOut& o : out) o.touched.assign(data.contents.size(), 0);
  }

  const Workload& w;
  const std::vector<std::string>& paths;
  std::vector<Reference> refs;
  bool traced = false;
  std::uint32_t sample_every = 1;
  std::unique_ptr<ServerTap> tap;  // outlives the cluster (handlers use it)
  std::unique_ptr<Cluster> cluster;
  std::vector<AccessStream> streams;
  Shared shared;
  ClientOut out[kClients];
  std::vector<std::thread> threads;
};

void client_loop(Run& run, NodeId c) {
  ftc::cluster::HvacClient& client = run.cluster->client(c);
  Shared& sh = run.shared;
  ClientOut& out = run.out[c];
  AccessStream& stream = run.streams[c];
  std::uint64_t seq = 0;
  bool sampling = false;
  while (true) {
    const int phase = sh.phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    const bool timed = phase == kTimed;
    const bool traced = timed && run.traced && sh.traced_slice.load();
    if (run.traced && traced != sampling) {
      client.attach_observability(run.cluster->flight_recorder(c),
                                  traced ? run.sample_every : 0);
      sampling = traced;
    }
    const std::uint32_t slice = sh.slice.load(std::memory_order_relaxed);
    const std::uint32_t id = stream.next();
    const std::int64_t t0 = now_ns();
    auto result = client.read_file(run.paths[id]);
    const std::int64_t t1 = now_ns();
    const bool ok = result.is_ok();
    const bool match = ok && read_matches(run.refs[id], result.value().view());
    if (!timed) {
      sh.warm_ops.fetch_add(1, std::memory_order_relaxed);
      if (!ok) sh.warm_errors.fetch_add(1, std::memory_order_relaxed);
      if (ok && !match) sh.warm_mismatches.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // A read still in flight when the window closed is not counted.
    if (sh.phase.load(std::memory_order_acquire) != kTimed) break;
    ++out.attempted;
    if (!ok) {
      ++out.errors;
    } else if (!match) {
      ++out.mismatches;
    }
    const double us = static_cast<double>(t1 - t0) / 1e3;
    out.lat_us[slice].add(us, out.reservoir_rng);
    ++out.slice_ops[slice];
    if (traced) {
      const std::uint64_t read_id = make_read_id(c, ++seq);
      out.roots.push_back({read_id, 0, read_id, Layer::kClientRead, t0, t1});
    }
    if (!run.w.kill) continue;
    if (sh.window_ops.fetch_add(1) + 1 == sh.kill_at) {
      run.cluster->fail_node(kVictim);
      sh.kill_ns.store(now_ns());
    }
    const std::int64_t kill_ns = sh.kill_ns.load();
    if (kill_ns != 0) {
      if (t0 >= kill_ns) {
        out.max_after_kill_us = std::max(out.max_after_kill_us, us);
        out.touched[id] = 1;
      }
      if (out.detect_ns == 0 && client.node_failed(kVictim)) {
        out.detect_ns = now_ns();
      }
    }
  }
}

struct Warmup {
  int rounds = 0;
  std::uint64_t reads = 0;
  double rate = 0.0;  ///< reads/s over the last round
  std::vector<double> hit_ratios;  ///< server hit ratio of each round
};

/// Boots the cluster, stages the dataset and warms it.  The client threads
/// keep running (phase kWarm) when this returns.
Warmup setup(Run& run, const Dataset& data, std::uint64_t seed) {
  const Workload& w = run.w;
  ClusterConfig config = w.config;
  if (run.traced) {
    config.obs.tracing = true;
    config.obs.sample_every = 0;  // clients sample only in traced slices
    config.obs.recorder_capacity = 1U << 16;
  }
  run.cluster = std::make_unique<Cluster>(config);
  Cluster& cluster = *run.cluster;
  if (run.tap) {
    for (NodeId n = 0; n < kNodes; ++n) {
      ftc::cluster::HvacServer* server = &cluster.server(n);
      ServerTap* tap = run.tap.get();
      (void)cluster.transport().unregister_endpoint(n);
      (void)cluster.transport().register_endpoint(
          n,
          [server, tap, n](const ftc::rpc::RpcRequest& request) {
            if (!tap->on.load(std::memory_order_relaxed) ||
                request.op != ftc::rpc::Op::kReadFile) {
              return server->handle(request);
            }
            const std::int64_t t0 = now_ns();
            ftc::rpc::RpcResponse response = server->handle(request);
            const double us = static_cast<double>(now_ns() - t0) / 1e3;
            std::lock_guard<std::mutex> lock(tap->mu[n]);
            tap->samples[n].push_back({us, response.cache_hit});
            return response;
          },
          config.server.endpoint_workers);
      cluster.transport().set_flight_recorder(n, cluster.flight_recorder(n));
    }
  }
  for (std::uint32_t i = 0; i < w.file_count; ++i) {
    cluster.pfs().put(data.paths[i], data.contents[i]);
  }
  if (w.warm_all_files) cluster.warm_caches(data.paths);

  run.streams.clear();
  for (NodeId c = 0; c < kClients; ++c) run.streams.emplace_back(w, seed, c);
  for (NodeId c = 0; c < kClients; ++c) {
    run.threads.emplace_back(client_loop, std::ref(run), c);
  }

  // Closed-loop warm-up in rounds of `round_ops` reads.  A dataset that
  // fits is warm after two rounds; zipf_overflow_1m warms until the
  // servers' hit ratio levels off: from round 4 on, it stops once the last
  // two rounds' hit ratio lies within 0.05 of the two before (about 2.5
  // standard deviations of that difference at 1000 reads; at most 30
  // rounds).
  const std::uint64_t round_ops = w.warm_all_files ? 2048 : 500;
  const int max_rounds = w.warm_all_files ? 2 : 30;
  Counters prev = read_counters(cluster);
  std::int64_t round_start = now_ns();
  Warmup warm;
  for (int round = 1; round <= max_rounds; ++round) {
    const std::uint64_t target = run.shared.warm_ops.load() + round_ops;
    while (run.shared.warm_ops.load() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const std::int64_t round_end = now_ns();
    warm.rate = static_cast<double>(round_ops) /
                seconds_between(round_start, round_end);
    round_start = round_end;
    const Counters cur = read_counters(cluster);
    const double hit =
        ratio(static_cast<double>(cur.cache_hits - prev.cache_hits),
              static_cast<double>(cur.server_reads - prev.server_reads));
    prev = cur;
    warm.rounds = round;
    warm.hit_ratios.push_back(hit);
    const auto& h = warm.hit_ratios;
    const bool level =
        round >= 4 && std::abs((h[round - 1] + h[round - 2]) -
                               (h[round - 3] + h[round - 4])) / 2 <= 0.05;
    if (w.warm_all_files ? round == max_rounds : level) break;
  }
  warm.reads = warm.rounds * round_ops;
  return warm;
}

void stop_clients(Run& run) {
  run.shared.phase.store(kStop, std::memory_order_release);
  for (auto& t : run.threads) t.join();
  run.threads.clear();
}

// --- Standalone layer timings (traced runs) ---------------------------------

/// Median wall time of `fn`, in ns, over at least `min_reps` calls and
/// about `budget_s` seconds.
template <typename Fn>
double median_ns(Fn&& fn, int min_reps, double budget_s) {
  std::vector<double> ns;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (static_cast<int>(ns.size()) < min_reps || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    fn();
    ns.push_back(static_cast<double>(now_ns() - t0));
    if (ns.size() > 100000) break;
  }
  return summarize(std::move(ns)).p50;
}

struct StoreTimes {
  LatencySummary get_us, put_us;
};

/// Replays the workload's key stream, restricted to the keys one node owns,
/// against a standalone store built from the workload's server config, on
/// one thread: get, and put on a miss (the server's fill path).
StoreTimes replay_store(const Workload& w, const Dataset& data,
                        std::uint64_t seed, Cluster& cluster) {
  const auto& sc = w.config.server;
  std::unique_ptr<ftc::store::StoreIface> store;
  if (sc.store.tiering) {
    store = std::make_unique<ftc::store::TieredCacheStore>(sc.store);
  } else {
    store = std::make_unique<ftc::store::LegacyStoreAdapter>(
        sc.cache_capacity_bytes, sc.eviction_policy, sc.cache_shards);
  }
  const ftc::cluster::HvacClient& view = cluster.client(0);
  const NodeId node = view.current_owner(data.paths[0]);
  std::vector<bool> owned(w.file_count);
  for (std::uint32_t i = 0; i < w.file_count; ++i) {
    owned[i] = view.current_owner(data.paths[i]) == node;
  }
  std::vector<double> get_us;
  std::vector<double> put_us;
  auto access = [&](std::uint32_t id, bool timed) {
    const std::int64_t t0 = now_ns();
    const bool hit = store->get(data.paths[id]).is_ok();
    const std::int64_t t1 = now_ns();
    if (timed) get_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (hit) return;
    const std::int64_t t2 = now_ns();
    (void)store->put(data.paths[id], data.contents[id], w.file_bytes, 0);
    put_us.push_back(static_cast<double>(now_ns() - t2) / 1e3);
  };
  AccessStream stream(w, seed, 0);
  if (w.warm_all_files) {
    for (std::uint32_t i = 0; i < w.file_count; ++i) {
      if (owned[i]) access(i, false);
    }
  } else {
    for (int i = 0; i < 2000;) {
      const std::uint32_t id = stream.next();
      if (owned[id]) access(id, false), ++i;
    }
  }
  const std::int64_t deadline = now_ns() + 1'500'000'000;
  for (int i = 0; i < 20000 && now_ns() < deadline;) {
    const std::uint32_t id = stream.next();
    if (owned[id]) access(id, true), ++i;
  }
  return {summarize(std::move(get_us)), summarize(std::move(put_us))};
}

// --- Trace analysis -----------------------------------------------------------

struct TraceResult {
  std::uint64_t reads = 0;       ///< sampled reads with a full span tree
  double self_share[static_cast<int>(Layer::kCount)] = {};
  LatencySummary client_self_us, hop_us, queue_us;
  double coverage = 0.0;
  std::vector<Span> spans;       ///< every span, for the span file
};

/// Builds each sampled read's span tree: the benchmark's client.read root,
/// the flight recorder's attempt / queue / handle spans under it, and the
/// standalone placement and CRC estimates (ring.owner at the start of the
/// read, hash.crc32 after the last attempt returned).
TraceResult analyse_traces(Run& run, double owner_ns, double crc_ns) {
  TraceResult tr;
  const std::vector<ftc::obs::Record> records = run.cluster->dump_traces();
  std::vector<Span> roots;
  for (const ClientOut& out : run.out) {
    roots.insert(roots.end(), out.roots.begin(), out.roots.end());
  }
  std::sort(roots.begin(), roots.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  // The recorder's own root span lies inside the benchmark's root of the
  // same client; that pairing gives each recorded trace its read id.
  std::unordered_map<std::uint64_t, std::size_t> trace_root;
  std::vector<std::vector<std::size_t>> roots_by_client(kNodes);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    roots_by_client[roots[i].read_id >> 48].push_back(i);
  }
  using ftc::obs::RecordKind;
  std::vector<double> queue_us;
  for (const auto& rec : records) {
    if (rec.kind == RecordKind::kServerQueue) {
      queue_us.push_back(static_cast<double>(rec.end_ns - rec.start_ns) / 1e3);
    }
    if (rec.kind != RecordKind::kClientRead || rec.node >= kNodes) continue;
    const auto& mine = roots_by_client[rec.node];
    auto it = std::upper_bound(
        mine.begin(), mine.end(), rec.start_ns,
        [&](std::int64_t t, std::size_t i) { return t < roots[i].start_ns; });
    if (it == mine.begin()) continue;
    const Span& root = roots[*(it - 1)];
    if (rec.end_ns <= root.end_ns) trace_root[rec.trace_id] = *(it - 1);
  }
  tr.queue_us = summarize(std::move(queue_us));

  // Assemble the trees of matched reads.
  std::vector<Span> spans;
  std::unordered_map<std::size_t, std::int64_t> last_attempt_end;
  std::vector<std::uint8_t> has_tree(roots.size(), 0);
  for (const auto& rec : records) {
    const auto found = trace_root.find(rec.trace_id);
    if (found == trace_root.end()) continue;
    const Span& root = roots[found->second];
    Span s{rec.span_id, rec.parent_span_id, root.read_id, Layer::kRpcAttempt,
           rec.start_ns, rec.end_ns};
    if (rec.kind == RecordKind::kClientAttempt ||
        rec.kind == RecordKind::kBusyRetry) {
      s.parent = root.id;
      auto& end = last_attempt_end[found->second];
      end = std::max(end, rec.end_ns);
      has_tree[found->second] = 1;
    } else if (rec.kind == RecordKind::kServerQueue) {
      s.layer = Layer::kRpcQueue;
    } else if (rec.kind == RecordKind::kServerHandle) {
      s.layer = Layer::kServerHandle;
    } else {
      continue;
    }
    spans.push_back(s);
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const Span& root = roots[i];
    spans.push_back(root);
    if (!has_tree[i]) continue;
    const auto owner_end = std::min(
        root.end_ns, root.start_ns + static_cast<std::int64_t>(owner_ns));
    spans.push_back({root.id ^ (1ULL << 46), root.id, root.read_id,
                     Layer::kRingOwner, root.start_ns, owner_end});
    const std::int64_t crc_start = last_attempt_end[i];
    const auto crc_end = std::min(
        root.end_ns, crc_start + static_cast<std::int64_t>(crc_ns));
    spans.push_back({root.id ^ (1ULL << 47), root.id, root.read_id,
                     Layer::kCrc32, crc_start, crc_end});
  }

  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::unordered_map<std::uint64_t, std::size_t> tree_read;  // read id -> root
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (has_tree[i]) tree_read[roots[i].read_id] = i;
  }
  double self_total[static_cast<int>(Layer::kCount)] = {};
  double root_total = 0.0;
  std::vector<double> client_self_us;
  std::vector<double> hop_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (tree_read.find(spans[i].read_id) == tree_read.end()) continue;
    const double s_us = static_cast<double>(self[i]) / 1e3;
    self_total[static_cast<int>(spans[i].layer)] += s_us;
    if (spans[i].layer == Layer::kClientRead) {
      root_total += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      client_self_us.push_back(s_us);
    } else if (spans[i].layer == Layer::kRpcAttempt) {
      hop_us.push_back(s_us);
    }
  }
  tr.reads = tree_read.size();
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    tr.self_share[l] = ratio(self_total[l], root_total);
  }
  tr.coverage =
      1.0 - ratio(self_total[static_cast<int>(Layer::kClientRead)], root_total);
  tr.client_self_us = summarize(std::move(client_self_us));
  tr.hop_us = summarize(std::move(hop_us));
  tr.spans = std::move(spans);
  return tr;
}

void write_spans(const std::string& dir, const std::string& file,
                 const std::vector<Span>& spans) {
  std::filesystem::create_directories(dir);
  std::ofstream os(dir + "/" + file);
  os << "read\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    os << (s.read_id >> 48) << ':' << (s.read_id & ((1ULL << 48) - 1)) << '\t'
       << s.id << '\t' << s.parent << '\t' << layer_name(s.layer) << '\t'
       << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

// --- Main ----------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".bench_build/spans";
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--spans-dir") {
        a.spans_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

void print_row(const char* name, double value, const char* unit,
               const std::string& note = "") {
  std::printf("  %-34s %14.3f %-6s %s\n", name, value, unit, note.c_str());
}

int run_benchmark(const Args& args) {
  const std::optional<Workload> found = make_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  Rng master(args.seed);
  const std::uint64_t data_seed = master();
  const std::uint64_t stream_seed = master();
  const double kill_fraction = 0.1 + (1.0 / 3.0 - 0.1) * master.uniform();

  // Untraced runs set up kSetups times on fresh data and time each; the
  // last cluster is the one measured.  Contents are regenerated per set-up
  // so no set-up inherits a CRC memoized by the previous one.
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetups;
  std::unique_ptr<Run> run;
  Dataset data;
  Warmup warm;
  for (int s = 0; s < setups; ++s) {
    if (run) {
      stop_clients(*run);
      run.reset();
    }
    data = Dataset{};  // free the previous set-up's bytes before generating
    data = generate_dataset(w, data_seed);
    run = std::make_unique<Run>(w, data, args.trace);
    const std::int64_t t0 = now_ns();
    warm = setup(*run, data, stream_seed);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  Run& r = *run;
  Cluster& cluster = *r.cluster;

  // Failover: the kill's op index lands at a seeded fraction of the
  // window's expected reads (from the warm-up rate), in its first third.
  std::vector<std::uint8_t> lost(w.file_count, 0);
  std::vector<std::uint64_t> lost_reads_before(w.file_count, 0);
  if (w.kill) {
    r.shared.kill_at = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(kill_fraction * warm.rate * args.seconds));
    for (std::uint32_t i = 0; i < w.file_count; ++i) {
      if (cluster.client(0).current_owner(data.paths[i]) == kVictim) {
        lost[i] = 1;
        lost_reads_before[i] = cluster.pfs().read_count(data.paths[i]);
      }
    }
  }
  // Traced runs sample about 2,000 reads per client per traced half.
  if (args.trace) {
    const double per_client = warm.rate / kClients * args.seconds / 2.0;
    r.sample_every = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(per_client / 2000.0));
  }

  // --- Timed window, in kSlices slices ---
  const Counters before = read_counters(cluster);
  double slice_s[kSlices] = {};
  double slice_cpu_s[kSlices] = {};
  const std::int64_t w0 = now_ns();
  r.shared.phase.store(kTimed, std::memory_order_release);
  const auto slice_len = std::chrono::duration<double>(args.seconds / kSlices);
  for (std::uint32_t s = 0; s < kSlices; ++s) {
    const bool traced = args.trace && s % 2 == 1;
    r.shared.slice.store(s);
    r.shared.traced_slice.store(traced);
    if (r.tap) r.tap->on.store(traced);
    const std::int64_t s0 = now_ns();
    const double cpu0 = cpu_seconds();
    std::this_thread::sleep_for(slice_len);
    slice_s[s] = seconds_between(s0, now_ns());
    slice_cpu_s[s] = cpu_seconds() - cpu0;
  }
  if (r.tap) r.tap->on.store(false);
  stop_clients(r);
  const double window_s = seconds_between(w0, now_ns());
  // Before the post-window sample merges below allocate.
  const double rss_mb = peak_rss_mb();
  for (NodeId n = 0; n < kNodes; ++n) cluster.server(n).flush_data_mover();
  const Counters after = read_counters(cluster);

  // --- Outcomes ---
  std::uint64_t attempted = 0, errors = 0, mismatches = 0;
  std::vector<double> lat;
  std::vector<double> slice_lat[kSlices];
  std::uint64_t slice_reads[kSlices] = {};
  for (const ClientOut& out : r.out) {
    attempted += out.attempted;
    errors += out.errors;
    mismatches += out.mismatches;
    for (std::uint32_t s = 0; s < kSlices; ++s) {
      out.lat_us[s].append_to(lat);
      out.lat_us[s].append_to(slice_lat[s]);
      slice_reads[s] += out.slice_ops[s];
    }
  }
  std::uint64_t corrupted_refs = 0;
  for (const Reference& ref : r.refs) corrupted_refs += !reference_intact(ref);
  mismatches += corrupted_refs + r.shared.warm_mismatches.load();
  const bool correct = mismatches == 0;
  const std::uint64_t failed = errors + mismatches;
  const double reads = static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  const LatencySummary ls = summarize(lat);

  std::printf("perfbench %s seed=%llu seconds=%.1f trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  closed loop, %u client threads on %u nodes; %u files x %u B\n",
              kClients, kNodes, w.file_count, w.file_bytes);
  std::printf("  warm-up: %d rounds, %llu reads; server hit ratio by round:",
              warm.rounds, static_cast<unsigned long long>(warm.reads));
  for (const double h : warm.hit_ratios) std::printf(" %.3f", h);
  std::printf("\n  warm-up reads failed %llu\n",
              static_cast<unsigned long long>(r.shared.warm_errors.load()));
  std::printf("  reads attempted %llu, failed %llu, wrong bytes %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(mismatches));

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Every figure is the median over the window's slices, so outside
    // load in a minority of slices (host vCPU steal on a shared VM) does
    // not move it, nor does the failover transition.  The result line
    // carries the figures that stayed steady under steal episodes covering
    // whole runs: median latency and CPU per read.  Throughput, p90 and p99
    // are printed: such episodes moved hit_4k's throughput from 75k to 26k
    // reads/s and its p99 from 70 to 570 us between runs of one build.
    // p99 takes the whole window when a slice holds too few reads to
    // support it.
    std::vector<double> rate, p50, p90, p99, cpu_us;
    bool slices_support_p99 = true;
    std::printf("  %-6s %12s %10s %10s %10s %10s\n", "slice", "ops/s", "p50_us",
                "p90_us", "p99_us", "cpu_us");
    for (std::uint32_t s = 0; s < kSlices; ++s) {
      const LatencySummary q = summarize(slice_lat[s]);
      const double n = static_cast<double>(std::max<std::uint64_t>(slice_reads[s], 1));
      rate.push_back(static_cast<double>(slice_reads[s]) / slice_s[s]);
      p50.push_back(q.p50);
      p90.push_back(q.p90);
      p99.push_back(q.p99);
      cpu_us.push_back(slice_cpu_s[s] * 1e6 / n);
      slices_support_p99 = slices_support_p99 && q.p99_supported;
      std::printf("  %-6u %12.1f %10.1f %10.1f %10.1f %10.1f\n", s, rate.back(),
                  p50.back(), p90.back(), p99.back(), cpu_us.back());
    }
    const auto median = [](std::vector<double> v) { return summarize(std::move(v)).p50; };
    metrics = {{"read_p50_us", "us", median(p50)},
               {"cpu_us_per_read", "us", median(cpu_us)},
               {"setup_s", "s", median(setup_s)},
               {"peak_rss_mb", "MB", rss_mb}};
    std::printf("end-to-end (%.3f s window; timings are medians over %u slices):\n",
                window_s, kSlices);
    for (const Metric& m : metrics) {
      std::string note;
      if (m.name == "setup_s") {
        note = "median of " + std::to_string(setup_s.size()) + " set-ups";
      }
      print_row(m.name.c_str(), m.value, m.unit.c_str(), note);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "whole window %.1f",
                  static_cast<double>(attempted) / window_s);
    print_row("read_ops_per_s", median(rate), "ops/s", buf);
    print_row("read_p90_us", median(p90), "us");
    std::snprintf(buf, sizeof(buf), "%s; whole window n=%llu, p99 %.1f%s, "
                  "highest supported %s = %.1f us",
                  slices_support_p99 ? "slice median" : "whole window",
                  static_cast<unsigned long long>(ls.count), ls.p99,
                  ls.p99_supported ? "" : " (unsupported)", ls.top_label, ls.top);
    print_row("read_p99_us", slices_support_p99 ? median(p99) : ls.p99, "us", buf);
    print_row("read_fail_ratio", static_cast<double>(failed) / reads, "ratio");
    if (w.config.pfs_read_latency.count() > 0) {
      print_row("pfs_reads_per_kread",
                1000.0 * static_cast<double>(after.pfs_reads - before.pfs_reads) / reads,
                "count");
    }
    if (w.kill) {
      std::uint64_t touched = 0, lost_reads = 0;
      double stall_us = 0.0;
      for (std::uint32_t i = 0; i < w.file_count; ++i) {
        bool hit = false;
        for (const ClientOut& out : r.out) hit = hit || out.touched[i];
        if (!hit || !lost[i]) continue;
        ++touched;
        lost_reads += cluster.pfs().read_count(data.paths[i]) - lost_reads_before[i];
      }
      for (const ClientOut& out : r.out) {
        stall_us = std::max(stall_us, out.max_after_kill_us);
      }
      print_row("pfs_reads_per_lost_file",
                ratio(static_cast<double>(lost_reads), static_cast<double>(touched)),
                "count", std::to_string(touched) + " lost files touched");
      print_row("failover_stall_ms", stall_us / 1e3, "ms",
                "kill of node " + std::to_string(kVictim) + " at window op " +
                    std::to_string(r.shared.kill_at));
    }
  } else {
    // --- Per-layer table ---
    const double crc_ns = median_ns(
        [&] { (void)ftc::hash::crc32(data.contents[0].view()); }, 20, 0.3);
    auto& owner_client = cluster.client(0);
    const double batch_ns = median_ns(
        [&] {
          for (const std::string& p : data.paths) {
            (void)owner_client.current_owner(p);
          }
        },
        20, 0.2);
    const double owner_ns = batch_ns / w.file_count;
    const TraceResult tr = analyse_traces(r, owner_ns, crc_ns);
    const StoreTimes st = replay_store(w, data, stream_seed, cluster);

    std::vector<double> hit_us, miss_us;
    for (NodeId n = 0; n < kNodes; ++n) {
      for (const auto& s : r.tap->samples[n]) (s.hit ? hit_us : miss_us).push_back(s.us);
    }
    const LatencySummary hit = summarize(std::move(hit_us));
    const LatencySummary miss = summarize(std::move(miss_us));

    // Tracing overhead from adjacent (untraced, traced) slice pairs; the
    // median pair ignores one disturbed by the failover kill or outside load.
    std::vector<double> pair_overhead;
    for (std::uint32_t s = 0; s + 1 < kSlices; s += 2) {
      const double plain = static_cast<double>(slice_reads[s]) / slice_s[s];
      const double traced = static_cast<double>(slice_reads[s + 1]) / slice_s[s + 1];
      pair_overhead.push_back(100.0 * ratio(plain - traced, plain));
    }
    const double overhead_pct = summarize(std::move(pair_overhead)).p50;

    double detect_ms = 0.0;
    if (w.kill) {
      const std::int64_t kill_ns = r.shared.kill_ns.load();
      for (NodeId c = 0; c < kClients; ++c) {
        if (r.out[c].detect_ns == 0) continue;
        detect_ms = std::max(
            detect_ms, static_cast<double>(r.out[c].detect_ns - kill_ns) / 1e6);
      }
    }
    const auto d = [&](std::uint64_t Counters::*f) {
      return static_cast<double>(after.*f - before.*f);
    };
    const double store_lookups = d(&Counters::hot_hits) + d(&Counters::cold_hits) +
                                 d(&Counters::store_misses);
    const auto share = [&](Layer l) { return tr.self_share[static_cast<int>(l)]; };
    metrics = {
        {"client.read_self_us.p50", "us", tr.client_self_us.p50},
        {"client.read_self_us.p99", "us", tr.client_self_us.p99},
        {"ring.owner_ns", "ns", owner_ns},
        {"rpc.queue_wait_us.p50", "us", tr.queue_us.p50},
        {"rpc.queue_wait_us.p99", "us", tr.queue_us.p99},
        {"rpc.hop_us.p50", "us", tr.hop_us.p50},
        {"rpc.hop_us.p99", "us", tr.hop_us.p99},
        {"rpc.data_requests_per_read", "ratio", d(&Counters::received_data) / reads},
        {"server.hit_handle_us.p50", "us", hit.p50},
        {"server.hit_handle_us.p99", "us", hit.p99},
        {"server.miss_handle_us.p50", "us", miss.p50},
        {"server.miss_handle_us.p99", "us", miss.p99},
        {"server.hit_ratio", "ratio", ratio(d(&Counters::cache_hits), d(&Counters::server_reads))},
        {"server.recache_completed_ratio", "ratio",
         ratio(d(&Counters::recache_completed), d(&Counters::recache_enqueued))},
        {"store.get_us.p50", "us", st.get_us.p50},
        {"store.get_us.p99", "us", st.get_us.p99},
        {"store.put_us.p50", "us", st.put_us.p50},
        {"store.put_us.p99", "us", st.put_us.p99},
        {"store.hot_hit_ratio", "ratio", ratio(d(&Counters::hot_hits), store_lookups)},
        {"store.cold_hit_ratio", "ratio", ratio(d(&Counters::cold_hits), store_lookups)},
        {"store.demotions_per_kread", "count", 1000.0 * d(&Counters::demotions) / reads},
        {"store.promotions_per_kread", "count", 1000.0 * d(&Counters::promotions) / reads},
        {"store.evictions_per_kread", "count", 1000.0 * d(&Counters::evictions) / reads},
        {"hash.crc32_us", "us", crc_ns / 1e3},
        {"hash.crc32_mb_per_s", "MB/s", static_cast<double>(w.file_bytes) / crc_ns * 1e3},
        {"pfs.reads_per_miss", "ratio", ratio(d(&Counters::pfs_reads), d(&Counters::cache_misses))},
        {"ft.detect_ms", "ms", detect_ms},
        {"client.timeouts", "count", d(&Counters::timeouts)},
        {"client.ring_updates", "count", d(&Counters::ring_updates)},
        {"trace.overhead_pct", "%", overhead_pct},
        {"trace.coverage", "ratio", tr.coverage},
        {"selftime.client", "ratio", share(Layer::kClientRead)},
        {"selftime.ring", "ratio", share(Layer::kRingOwner)},
        {"selftime.rpc_hop", "ratio", share(Layer::kRpcAttempt)},
        {"selftime.rpc_queue", "ratio", share(Layer::kRpcQueue)},
        {"selftime.server", "ratio", share(Layer::kServerHandle)},
        {"selftime.crc32", "ratio", share(Layer::kCrc32)},
    };
    std::printf("per-layer (%llu sampled reads with span trees, 1 in %u per traced slice):\n",
                static_cast<unsigned long long>(tr.reads), r.sample_every);
    for (const Metric& m : metrics) print_row(m.name.c_str(), m.value, m.unit.c_str());
    const Metric* largest = nullptr;
    for (const Metric& m : metrics) {
      if (m.name.rfind("selftime.", 0) == 0 && (!largest || m.value > largest->value)) {
        largest = &m;
      }
    }
    std::printf("  largest self time: %s (%.1f%% of read time)\n",
                largest->name.c_str(), 100.0 * largest->value);
    const std::string file = w.name + "-seed" + std::to_string(args.seed) + ".tsv";
    write_spans(args.spans_dir, file, tr.spans);
    std::printf("  spans: %s/%s (%zu spans)\n", args.spans_dir.c_str(), file.c_str(),
                tr.spans.size());
  }
  std::fflush(stdout);
  r.cluster.reset();
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  if (!correct) {
    std::fprintf(stderr, "FAIL: %llu reads returned bytes that differ from the PFS copy\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hit_4k|zipf_overflow_1m|failover_4k "
                 "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run_benchmark(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
